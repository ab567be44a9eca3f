// Validates the perftest clone against the paper's Fig. 8-11 shapes:
// latency ordering across candidates, bandwidth saturation, multi-QP
// aggregate stability, and rate-limiting accuracy.
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>

#include "apps/perftest.h"
#include "fabric/testbed.h"

namespace {

using apps::perftest::BwConfig;
using apps::perftest::LatConfig;
using apps::perftest::Op;
using fabric::Candidate;

std::unique_ptr<fabric::Testbed> make_bed(sim::EventLoop& loop, Candidate c,
                                          int instances = 2,
                                          bool masq_pf = false) {
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  cfg.masq_use_pf = masq_pf;
  cfg.cal.host_dram_bytes = 32ull << 30;
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(instances);
  return bed;
}

double send_lat_us(Candidate c, Op op, std::uint32_t size = 2,
                   bool masq_pf = false) {
  sim::EventLoop loop;
  auto bed = make_bed(loop, c, 2, masq_pf);
  LatConfig cfg;
  cfg.op = op;
  cfg.msg_size = size;
  cfg.iterations = 200;
  return apps::perftest::run_lat(*bed, cfg).mean();
}

TEST(PerftestLat, HostSendLatencyMatchesFig8a) {
  const double us = send_lat_us(Candidate::kHostRdma, Op::kSend);
  EXPECT_GT(us, 0.6);
  EXPECT_LT(us, 1.0);  // paper: 0.8 us
}

TEST(PerftestLat, HostWriteCheaperThanSend) {
  const double w = send_lat_us(Candidate::kHostRdma, Op::kWrite);
  const double s = send_lat_us(Candidate::kHostRdma, Op::kSend);
  EXPECT_LT(w, s);  // paper: 0.7 vs 0.8 us
  EXPECT_GT(w, 0.5);
}

TEST(PerftestLat, MasqAndSriovMatchEachOther) {
  const double m = send_lat_us(Candidate::kMasq, Op::kSend);
  const double s = send_lat_us(Candidate::kSriov, Op::kSend);
  EXPECT_NEAR(m, s, 0.15);  // Fig. 8a: identical bars
  EXPECT_GT(m, 0.9);
  EXPECT_LT(m, 1.35);  // paper: 1.1 us
}

TEST(PerftestLat, FreeflowSendRoughlyTwoPointSix) {
  const double f = send_lat_us(Candidate::kFreeFlow, Op::kSend);
  const double h = send_lat_us(Candidate::kHostRdma, Op::kSend);
  EXPECT_GT(f / h, 2.0);  // paper: ~2.6x Host-RDMA
  EXPECT_LT(f / h, 3.3);
}

TEST(PerftestLat, MasqOnPfMatchesHost) {
  const double pf = send_lat_us(Candidate::kMasq, Op::kSend, 2, true);
  const double host = send_lat_us(Candidate::kHostRdma, Op::kSend);
  EXPECT_NEAR(pf, host, 0.1);  // Fig. 9a
}

TEST(PerftestLat, SixteenKilobyteLatencyDominatedBySerialization) {
  const double us = send_lat_us(Candidate::kHostRdma, Op::kSend, 16384);
  EXPECT_GT(us, 3.0);
  EXPECT_LT(us, 7.0);  // paper: ~5.2 us
}

TEST(PerftestBw, LargeMessagesSaturateLine) {
  for (Candidate c : {Candidate::kHostRdma, Candidate::kSriov,
                      Candidate::kMasq}) {
    sim::EventLoop loop;
    auto bed = make_bed(loop, c);
    BwConfig cfg;
    cfg.msg_size = 65536;
    cfg.iterations = 256;
    const double gbps = apps::perftest::run_bw(*bed, cfg);
    EXPECT_GT(gbps, 35.0) << fabric::to_string(c);
    EXPECT_LE(gbps, 40.0) << fabric::to_string(c);
  }
}

TEST(PerftestBw, FreeflowSmallMessagesThrottledByFfr) {
  sim::EventLoop loop;
  auto bed = make_bed(loop, Candidate::kFreeFlow);
  BwConfig cfg;
  cfg.op = Op::kWrite;
  cfg.msg_size = 2048;
  cfg.iterations = 512;
  const double ff = apps::perftest::run_bw(*bed, cfg);

  sim::EventLoop loop2;
  auto bed2 = make_bed(loop2, Candidate::kMasq);
  const double masq = apps::perftest::run_bw(*bed2, cfg);
  EXPECT_LT(ff, masq * 0.8);  // Fig. 10: FreeFlow below until ~8 KB
}

TEST(PerftestBw, MasqSmallMessagesMatchHost) {
  BwConfig cfg;
  cfg.op = Op::kWrite;
  cfg.msg_size = 2048;
  cfg.iterations = 512;
  sim::EventLoop l1, l2;
  auto b1 = make_bed(l1, Candidate::kMasq);
  auto b2 = make_bed(l2, Candidate::kHostRdma);
  const double masq = apps::perftest::run_bw(*b1, cfg);
  const double host = apps::perftest::run_bw(*b2, cfg);
  EXPECT_NEAR(masq, host, host * 0.1);
}

TEST(PerftestBw, MultiQpAggregateStaysAtLineRate) {
  // Fig. 11: 1 -> many QPs, aggregate unchanged.
  double one_qp = 0;
  for (int qps : {1, 16, 128}) {
    sim::EventLoop loop;
    auto bed = make_bed(loop, Candidate::kMasq);
    BwConfig cfg;
    cfg.msg_size = 65536;
    cfg.num_qps = qps;
    cfg.iterations = std::max(8, 256 / qps);
    const double gbps = apps::perftest::run_bw(*bed, cfg);
    if (qps == 1) {
      one_qp = gbps;
    } else {
      EXPECT_NEAR(gbps, one_qp, one_qp * 0.1) << qps << " QPs";
    }
  }
}

TEST(PerftestBw, PairsShareTheLineFairly) {
  // Fig. 19 building block: 4 VM pairs share 40 Gbps.
  sim::EventLoop loop;
  auto bed = make_bed(loop, Candidate::kMasq, 8);
  BwConfig cfg;
  cfg.msg_size = 65536;
  cfg.iterations = 64;
  const double aggregate = apps::perftest::run_bw_pairs(*bed, 4, cfg);
  EXPECT_GT(aggregate, 34.0);
  EXPECT_LE(aggregate, 40.0);
}

// Fig. 10/11 shapes pinned to the exact double: 64 KiB WRITEs over 1, 64
// and 1024 QPs. Every one of these messages is a fluid flow, so these
// values are a pure function of the max-min solver's arithmetic and its
// flow-visiting order; a solver rewrite must leave them bit-identical.
struct BwGolden {
  Candidate candidate;
  int qps;
  int iterations;
  int window;
  double gbps;
};

TEST(PerftestGolden, WriteBandwidthIsBitExact) {
  const BwGolden goldens[] = {
      {Candidate::kHostRdma, 1, 64, 128, 0x1.2e40f3a4e3664p+5},
      {Candidate::kMasq, 1, 64, 128, 0x1.2e26d2b1c2224p+5},
      {Candidate::kMasq, 64, 8, 64, 0x1.2e75e7d364448p+5},
      {Candidate::kSriov, 256, 4, 64, 0x1.212b64bea2e0ep+5},
      {Candidate::kMasq, 1024, 2, 64, 0x1.2ec84c1ebd2ap+5},
  };
  for (const BwGolden& g : goldens) {
    sim::EventLoop loop;
    auto bed = make_bed(loop, g.candidate);
    BwConfig cfg;
    cfg.op = Op::kWrite;
    cfg.msg_size = 65536;
    cfg.num_qps = g.qps;
    cfg.iterations = g.iterations;
    cfg.window = g.window;
    const double gbps = apps::perftest::run_bw(*bed, cfg);
    EXPECT_EQ(gbps, g.gbps) << fabric::to_string(g.candidate) << " " << g.qps
                            << " QPs: got " << std::hexfloat << gbps;
  }
}

}  // namespace
