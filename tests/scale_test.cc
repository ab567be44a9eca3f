// Scale tests for the sharded SDN control plane (DESIGN.md §12), built on
// the connection-storm harness in src/fabric/scale.*:
//   * the 10k-VM storm is deterministic — two runs of the same (config,
//     seed) serialize to byte-identical reports — and every shard's
//     service-queue depth stays bounded by the host count (the one
//     in-flight batch per (host, shard) invariant),
//   * a single-shard outage degrades only its partition: other shards see
//     zero degraded serves and zero unreachable queries, and every
//     connection attempt still reaches a terminal outcome,
//   * the partition-parallel engine (DESIGN.md §13) is byte-identical to
//     itself at every worker-thread count (1/2/4 — same report, same event
//     trace hash, same event count), and equivalent to the single-loop
//     engine on every counter, with setup-latency percentiles matching to
//     within the documented same-nanosecond tie-sequencing slack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fabric/scale.h"
#include "sim/arena.h"

namespace {

// The tool's default 10k-VM storm (16 hosts x 625 VMs, 8 shards) with the
// default churn. Kept identical to `masq_scaletest` with no arguments so
// this test pins the exact configuration CI archives as BENCH_scale.json.
fabric::ScaleConfig storm_10k() {
  fabric::ScaleConfig cfg;
  cfg.ip_changes = 200;
  cfg.rule_resets = 3;
  return cfg;
}

TEST(ScaleStormTest, TenKiloVmStormIsDeterministic) {
  const fabric::ScaleReport a = fabric::run_scale_storm(storm_10k());
  const fabric::ScaleReport b = fabric::run_scale_storm(storm_10k());
  EXPECT_EQ(a.json(), b.json());  // byte-identical, not merely equivalent

  // 16 hosts x 625 VMs x 2 conns x 3 waves, plus the rule-reset re-dials.
  EXPECT_EQ(a.vms, 10'000u);
  EXPECT_GE(a.attempted, 60'000u);
  // Every attempt reached a terminal outcome — nothing hung in a lane or
  // a shard queue when the loop drained.
  EXPECT_EQ(a.attempted, a.ok + a.degraded + a.unavailable + a.not_found);
  // No outage is configured, so nothing may degrade or bounce.
  EXPECT_EQ(a.degraded, 0u);
  EXPECT_EQ(a.unavailable, 0u);
}

TEST(ScaleStormTest, PerShardQueueDepthBoundedByHostCount) {
  const fabric::ScaleConfig cfg = storm_10k();
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  ASSERT_EQ(r.per_shard.size(), cfg.shards);
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    // At most one query_batch in flight per (host, shard): the depth a
    // shard's FIFO can reach is the number of hosts, independent of the
    // 10k VMs behind them.
    EXPECT_LE(r.per_shard[s].max_queue_depth, cfg.hosts)
        << "shard " << s << " queue exceeded the per-host-batch bound";
    // The storm actually exercised every shard.
    EXPECT_GT(r.per_shard[s].queries, 0u) << "shard " << s << " idle";
  }
  // The agent tier amortized: batches carried more keys than round trips.
  EXPECT_GT(r.agent_batches, 0u);
  EXPECT_GT(r.agent_batched_keys, r.agent_batches);
}

TEST(ScaleStormTest, ShardOutageDegradesOnlyItsPartition) {
  fabric::ScaleConfig cfg;
  cfg.tenants = 5;
  cfg.hosts = 8;
  cfg.vms_per_host = 50;
  cfg.conns_per_vm = 2;
  cfg.waves = 3;  // waves start at 0 / 50 / 100 ms
  cfg.shards = 4;
  cfg.ip_changes = 20;
  cfg.rule_resets = 1;
  // Shard 1 is dark for waves 2 and 3; wave 1 warmed the caches, so keys
  // on the downed shard are served stale-but-bounded (or bounce when the
  // VM never cached its peer).
  cfg.down_shard = 1;
  cfg.down_from = sim::milliseconds(45);
  cfg.down_until = sim::milliseconds(150);
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);

  // All attempts terminal, and the outage visibly bit.
  EXPECT_EQ(r.attempted, r.ok + r.degraded + r.unavailable + r.not_found);
  EXPECT_GT(r.degraded + r.unavailable, 0u) << "outage window never hit";

  ASSERT_EQ(r.per_shard.size(), 4u);
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    if (s == 1) {
      EXPECT_GT(r.per_shard[s].degraded_serves + r.per_shard[s].unreachable,
                0u)
          << "downed shard shows no outage effects";
    } else {
      // The blast radius stops at the partition boundary.
      EXPECT_EQ(r.per_shard[s].degraded_serves, 0u) << "shard " << s;
      EXPECT_EQ(r.per_shard[s].unreachable, 0u) << "shard " << s;
      EXPECT_GT(r.per_shard[s].queries, 0u) << "shard " << s;
    }
  }
}

// The smoke preset from `masq_scaletest --smoke`: 4 hosts x 25 VMs with the
// default timing knobs — big enough to exercise batching, churn, and every
// shard; small enough to run many times in one test.
fabric::ScaleConfig storm_smoke() {
  fabric::ScaleConfig cfg;
  cfg.tenants = 5;
  cfg.hosts = 4;
  cfg.vms_per_host = 25;
  cfg.waves = 2;
  cfg.shards = 4;
  cfg.ip_changes = 20;
  cfg.rule_resets = 1;
  return cfg;
}

// Every counter and every derived rate must agree between the single-loop
// and the partition-parallel engine. The ONLY tolerated difference is the
// setup-latency p50/p99: when several batch submissions to one shard land
// on the same simulated nanosecond, the legacy engine FIFO-orders them by
// global event sequence while the coordinator merge orders them by
// (time, partition) — a documented tie-sequencing difference (DESIGN.md
// §13) that shifts a handful of per-connection latencies by sub-ns queue
// slots without touching any count.
void expect_equivalent(const fabric::ScaleReport& legacy,
                       const fabric::ScaleReport& par) {
  EXPECT_EQ(legacy.tenants, par.tenants);
  EXPECT_EQ(legacy.hosts, par.hosts);
  EXPECT_EQ(legacy.vms, par.vms);
  EXPECT_EQ(legacy.shards, par.shards);
  EXPECT_EQ(legacy.seed, par.seed);
  EXPECT_EQ(legacy.attempted, par.attempted);
  EXPECT_EQ(legacy.ok, par.ok);
  EXPECT_EQ(legacy.degraded, par.degraded);
  EXPECT_EQ(legacy.unavailable, par.unavailable);
  EXPECT_EQ(legacy.not_found, par.not_found);
  EXPECT_EQ(legacy.cache_hits, par.cache_hits);
  EXPECT_EQ(legacy.cache_misses, par.cache_misses);
  EXPECT_EQ(legacy.coalesced, par.coalesced);
  EXPECT_EQ(legacy.agent_batches, par.agent_batches);
  EXPECT_EQ(legacy.agent_batched_keys, par.agent_batched_keys);
  EXPECT_DOUBLE_EQ(legacy.hit_rate, par.hit_rate);
  EXPECT_DOUBLE_EQ(legacy.elapsed_ms, par.elapsed_ms);
  EXPECT_DOUBLE_EQ(legacy.kconn_per_s, par.kconn_per_s);
  EXPECT_DOUBLE_EQ(legacy.max_us, par.max_us);
  EXPECT_NEAR(legacy.p50_us, par.p50_us, 0.5);
  EXPECT_NEAR(legacy.p99_us, par.p99_us, 0.5);
  ASSERT_EQ(legacy.per_shard.size(), par.per_shard.size());
  for (std::size_t s = 0; s < legacy.per_shard.size(); ++s) {
    EXPECT_EQ(legacy.per_shard[s].queries, par.per_shard[s].queries)
        << "shard " << s;
    EXPECT_EQ(legacy.per_shard[s].batched_queries,
              par.per_shard[s].batched_queries)
        << "shard " << s;
    EXPECT_EQ(legacy.per_shard[s].unreachable, par.per_shard[s].unreachable)
        << "shard " << s;
    EXPECT_EQ(legacy.per_shard[s].max_queue_depth,
              par.per_shard[s].max_queue_depth)
        << "shard " << s;
    EXPECT_EQ(legacy.per_shard[s].degraded_serves,
              par.per_shard[s].degraded_serves)
        << "shard " << s;
    EXPECT_EQ(legacy.per_shard[s].table_size, par.per_shard[s].table_size)
        << "shard " << s;
  }
}

TEST(ScalePartitionTest, ReportInvariantAcrossThreadCounts) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.trace = true;  // mix every executed event into the FNV-1a hash
  const fabric::ScaleReport t1 = fabric::run_scale_storm_parallel(cfg, 1);
  const fabric::ScaleReport t2 = fabric::run_scale_storm_parallel(cfg, 2);
  const fabric::ScaleReport t4 = fabric::run_scale_storm_parallel(cfg, 4);
  // Byte-identical reports: not merely the same aggregates, the same JSON.
  EXPECT_EQ(t1.json(), t2.json());
  EXPECT_EQ(t1.json(), t4.json());
  // Same events, in the same per-partition order, at every thread count.
  EXPECT_EQ(t1.sim_events, t2.sim_events);
  EXPECT_EQ(t1.sim_events, t4.sim_events);
  EXPECT_NE(t1.trace_hash, 0u);
  EXPECT_EQ(t1.trace_hash, t2.trace_hash);
  EXPECT_EQ(t1.trace_hash, t4.trace_hash);
  EXPECT_EQ(t1.engine_threads, 1u);
  EXPECT_EQ(t2.engine_threads, 2u);
  EXPECT_EQ(t4.engine_threads, 4u);
}

TEST(ScalePartitionTest, MatchesLegacyEngineOnSmokeStorm) {
  const fabric::ScaleConfig cfg = storm_smoke();
  const fabric::ScaleReport legacy = fabric::run_scale_storm(cfg);
  const fabric::ScaleReport par = fabric::run_scale_storm_parallel(cfg, 2);
  expect_equivalent(legacy, par);
}

TEST(ScalePartitionTest, OutageBlastRadiusMatchesLegacy) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.down_shard = 1;
  cfg.down_from = sim::milliseconds(45);
  cfg.down_until = sim::milliseconds(150);
  const fabric::ScaleReport legacy = fabric::run_scale_storm(cfg);
  const fabric::ScaleReport par = fabric::run_scale_storm_parallel(cfg, 3);
  expect_equivalent(legacy, par);
  // The outage still bit, and still stopped at the partition boundary.
  EXPECT_GT(par.degraded + par.unavailable, 0u);
  for (std::size_t s = 0; s < par.per_shard.size(); ++s) {
    if (s != 1) {
      EXPECT_EQ(par.per_shard[s].degraded_serves, 0u) << "shard " << s;
      EXPECT_EQ(par.per_shard[s].unreachable, 0u) << "shard " << s;
    }
  }
}

// 100-seed equivalence sweep on a tiny storm: the merge algorithm must
// reproduce the legacy engine's counters for every workload draw, not just
// the one the other tests pin.
TEST(ScalePartitionTest, HundredSeedLegacyEquivalenceSweep) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    fabric::ScaleConfig cfg;
    cfg.tenants = 3;
    cfg.hosts = 4;
    cfg.vms_per_host = 5;
    cfg.conns_per_vm = 2;
    cfg.waves = 2;
    cfg.shards = 3;
    cfg.ip_changes = 5;
    cfg.rule_resets = 1;
    cfg.seed = seed;
    const fabric::ScaleReport legacy = fabric::run_scale_storm(cfg);
    const fabric::ScaleReport par = fabric::run_scale_storm_parallel(cfg, 2);
    ASSERT_EQ(legacy.attempted, par.attempted) << "seed " << seed;
    ASSERT_EQ(legacy.ok, par.ok) << "seed " << seed;
    ASSERT_EQ(legacy.not_found, par.not_found) << "seed " << seed;
    ASSERT_EQ(legacy.cache_hits, par.cache_hits) << "seed " << seed;
    ASSERT_EQ(legacy.cache_misses, par.cache_misses) << "seed " << seed;
    ASSERT_EQ(legacy.agent_batches, par.agent_batches) << "seed " << seed;
    ASSERT_EQ(legacy.agent_batched_keys, par.agent_batched_keys)
        << "seed " << seed;
    ASSERT_DOUBLE_EQ(legacy.elapsed_ms, par.elapsed_ms) << "seed " << seed;
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      ASSERT_EQ(legacy.per_shard[s].queries, par.per_shard[s].queries)
          << "seed " << seed << " shard " << s;
      ASSERT_EQ(legacy.per_shard[s].max_queue_depth,
                par.per_shard[s].max_queue_depth)
          << "seed " << seed << " shard " << s;
    }
  }
}

// When the config cannot honor the conservative-lookahead contract (no
// batch window means agents query inline, so there is no barrier the
// coordinator can defer replies to), the parallel entry point falls back
// to the single-loop engine rather than producing divergent results.
TEST(ScalePartitionTest, FallsBackWithoutBatchWindow) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.batch_window = 0;
  const fabric::ScaleReport legacy = fabric::run_scale_storm(cfg);
  const fabric::ScaleReport par = fabric::run_scale_storm_parallel(cfg, 4);
  EXPECT_EQ(legacy.json(), par.json());
  EXPECT_EQ(par.engine_threads, 0u);  // reports itself as single-loop
}

// The partition-ownership auditor (DESIGN.md §16) observes only: arming
// it on the smoke storm must leave the report JSON, the event count, and
// the FNV-1a trace hash byte-identical at every thread count. A single
// extra event or reordered callback would show up here.
TEST(ScalePartitionTest, AuditorPreservesReport) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.trace = true;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    fabric::ScaleConfig armed = cfg;
    armed.check = true;
    const fabric::ScaleReport off = fabric::run_scale_storm_parallel(
        cfg, threads);
    const fabric::ScaleReport on = fabric::run_scale_storm_parallel(
        armed, threads);
    EXPECT_EQ(off.json(), on.json()) << "threads=" << threads;
    EXPECT_EQ(off.sim_events, on.sim_events) << "threads=" << threads;
    EXPECT_NE(off.trace_hash, 0u);
    EXPECT_EQ(off.trace_hash, on.trace_hash) << "threads=" << threads;
  }
}

// ---- report goldens ----
// FNV-1a of ScaleReport::json() for a fixed set of presets, from both
// engines (the partitioned one at 1/2/4 worker threads). Any change to the
// storm's event order, tie-breaking or counters moves a hash; a refactor of
// how the storm is *driven* (spawn, schedule, memory) must not.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// `masq_scaletest --churn` applied on top of another preset.
fabric::ScaleConfig with_churn(fabric::ScaleConfig cfg) {
  cfg.warm = true;
  cfg.waves = std::max<std::size_t>(cfg.waves, 6);
  cfg.wave_gap = sim::milliseconds(10);
  cfg.spread = sim::milliseconds(5);
  cfg.ip_changes = 2 * cfg.hosts * cfg.vms_per_host;
  cfg.rule_resets = std::max<std::size_t>(cfg.rule_resets, 2);
  return cfg;
}

// `masq_scaletest --smoke --down-shard 1` (tool-default outage window).
fabric::ScaleConfig smoke_outage() {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.down_shard = 1;
  cfg.down_from = sim::milliseconds(60);
  cfg.down_until = sim::milliseconds(110);
  return cfg;
}

fabric::ScaleConfig with_seed(fabric::ScaleConfig cfg, std::uint64_t seed) {
  cfg.seed = seed;
  return cfg;
}

struct ReportGolden {
  const char* name;
  fabric::ScaleConfig cfg;
  std::uint64_t single;       // run_scale_storm
  std::uint64_t partitioned;  // run_scale_storm_parallel, any thread count
};

std::vector<ReportGolden> report_goldens() {
  return {
      {"smoke seed 1", with_seed(storm_smoke(), 1),
       0xdb9efba289a537ffull, 0xdb9efba289a537ffull},
      {"smoke seed 2", with_seed(storm_smoke(), 2),
       0xcc896ed744815545ull, 0xcc896ed744815545ull},
      {"smoke seed 3", with_seed(storm_smoke(), 3),
       0x48543f2b8abd6e02ull, 0x48543f2b8abd6e02ull},
      {"churn smoke", with_churn(storm_smoke()),
       0xe78a14b2375126fcull, 0xe78a14b2375126fcull},
      {"outage smoke", smoke_outage(),
       0xb2b0daf372c088d6ull, 0xb2b0daf372c088d6ull},
      {"10k", storm_10k(),
       0x47878f5c203449dfull, 0x26f8f5d360283350ull},
  };
}

TEST(ScaleGoldenTest, SingleLoopReportsMatchGoldens) {
  for (const ReportGolden& g : report_goldens()) {
    const fabric::ScaleReport r = fabric::run_scale_storm(g.cfg);
    EXPECT_EQ(fnv1a(r.json()), g.single)
        << g.name << ": 0x" << std::hex << fnv1a(r.json());
  }
}

TEST(ScaleGoldenTest, PartitionedReportsMatchGoldensAtEveryThreadCount) {
  for (const ReportGolden& g : report_goldens()) {
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const fabric::ScaleReport r =
          fabric::run_scale_storm_parallel(g.cfg, threads);
      EXPECT_EQ(fnv1a(r.json()), g.partitioned)
          << g.name << " threads=" << threads << ": 0x" << std::hex
          << fnv1a(r.json());
    }
  }
}

// ---- memory ----
// Coroutine frames come from a process-wide slab pool (sim/arena.h), so
// slab bytes are a direct reading of the storm's peak frame demand.

// Frames are held by in-flight connections only: the arrival cursor starts
// each connection at its start time, so quadrupling the number of waves
// (and of connections) must not grow the frame pool. Spawning every
// connection at t=0 instead doubles it on this preset.
TEST(ScaleMemoryTest, FramePoolBoundedByInFlightWork) {
#if defined(MASQ_ARENA_PASSTHROUGH)
  GTEST_SKIP() << "frame pool disabled (sanitizer passthrough)";
#endif
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.waves = 3;
  (void)fabric::run_scale_storm_parallel(cfg, 1);
  const std::size_t three_waves = sim::detail::frame_slab_bytes();
  cfg.waves = 12;
  const fabric::ScaleReport r = fabric::run_scale_storm_parallel(cfg, 1);
  EXPECT_GT(r.attempted, 2'400u);
  const std::size_t twelve_waves = sim::detail::frame_slab_bytes();
  EXPECT_LT(static_cast<double>(twelve_waves),
            1.10 * static_cast<double>(three_waves))
      << "3 waves: " << three_waves << " B, 12 waves: " << twelve_waves
      << " B";
}

// Each storm's worker threads exit when it ends. Their free frames must go
// back to the pool for the next storm's threads, or every run strands its
// workers' frames and grabs new slabs.
TEST(ScaleMemoryTest, FramePoolStopsGrowingAcrossTwoThreadStorms) {
#if defined(MASQ_ARENA_PASSTHROUGH)
  GTEST_SKIP() << "frame pool disabled (sanitizer passthrough)";
#endif
  const fabric::ScaleConfig cfg = storm_10k();
  (void)fabric::run_scale_storm_parallel(cfg, 2);
  const std::size_t first = sim::detail::frame_slab_bytes();
  for (int run = 2; run <= 4; ++run) {
    (void)fabric::run_scale_storm_parallel(cfg, 2);
    EXPECT_LT(static_cast<double>(sim::detail::frame_slab_bytes()),
              1.10 * static_cast<double>(first) + 1.0)
        << "run " << run << ": " << sim::detail::frame_slab_bytes()
        << " B after the first run's " << first << " B";
  }
}

TEST(ScaleStormTest, ReportEchoesTopologyAndSeed) {
  fabric::ScaleConfig cfg;
  cfg.tenants = 3;
  cfg.hosts = 2;
  cfg.vms_per_host = 10;
  cfg.waves = 1;
  cfg.shards = 2;
  cfg.seed = 42;
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  EXPECT_EQ(r.tenants, 3u);
  EXPECT_EQ(r.hosts, 2u);
  EXPECT_EQ(r.vms, 20u);
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.seed, 42u);
  // The JSON report carries the per-shard array at the configured width.
  const std::string j = r.json();
  EXPECT_NE(j.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(j.find("\"seed\": 42"), std::string::npos);
}

}  // namespace
