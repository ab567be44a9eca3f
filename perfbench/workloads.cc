#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "apps/common.h"
#include "apps/kvs.h"
#include "fabric/scale.h"
#include "fabric/storm_schedule.h"
#include "fabric/testbed.h"
#include "masq/frontend.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace perfbench {

namespace {

double seconds_since(std::int64_t t0) {
  return static_cast<double>(wall_ns() - t0) / 1e9;
}

constexpr double kMiB = 1024.0 * 1024.0;

// Nearest-rank percentile of simulated latencies, in µs.
double percentile_us(std::vector<sim::Time> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return sim::to_us(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

// Seeded payload bytes; (seed, a, b) names one pattern.
std::vector<std::uint8_t> pattern(std::uint64_t seed, std::uint64_t a,
                                  std::uint64_t b, std::size_t len) {
  sim::Rng rng(seed * 0x100000001b3ull ^ (a << 20) ^ (b << 1));
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, len - i));
  }
  return out;
}

// The simulated world every testbed workload measures: the MasQ candidate,
// with invariant auditing pinned off so a MASQ_CHECK environment cannot
// change the program being timed.
fabric::TestbedConfig masq_config() {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.check_invariants = false;
  return cfg;
}

void add_instances(fabric::Testbed& bed, Tracer* tr,
                   const std::vector<std::uint32_t>& vnis) {
  for (std::uint32_t vni : vnis) {
    ScopedSpan s(tr, "hyp.add_instance");
    if (!bed.add_instance(vni)) throw std::runtime_error("add_instance failed");
  }
}

// Runs the loop in equal simulated-time slices until `done()`, sampling
// gauges between slices, then drains what is left.
template <typename Done, typename Sample>
bool run_sliced(sim::EventLoop& loop, Tracer* tr, sim::Time slice, Done done,
                Sample sample) {
  sim::Time t = loop.now();
  while (!done()) {
    if (loop.empty()) return false;  // stalled: work left, nothing to run
    t += slice;
    {
      ScopedSpan s(tr, "sim.run_until");
      loop.run_until(t);
    }
    sample();
  }
  ScopedSpan s(tr, "sim.run");
  loop.run();
  return true;
}

// Every layer's counters, read through public accessors after the run.
void collect_testbed(fabric::Testbed& bed, double connections, Result& r) {
  auto& c = r.counts;
  double tx = 0, rx = 0, retx = 0, drops = 0, dram = 0;
  for (std::size_t h = 0; h < bed.num_hosts(); ++h) {
    const auto& k = bed.device(h).counters();
    tx += static_cast<double>(k.tx_msgs);
    rx += static_cast<double>(k.rx_msgs);
    retx += static_cast<double>(k.retransmits);
    drops += static_cast<double>(k.dropped_bad_state + k.dropped_no_route +
                                 k.dropped_no_qp + k.rnr_drops +
                                 k.remote_access_naks);
    dram += static_cast<double>(bed.host(h).dram_used_bytes());
  }
  c["rnic.tx_msgs"] = tx;
  c["rnic.rx_msgs"] = rx;
  c["rnic.retransmits"] = retx;
  c["rnic.drops"] = drops;
  c["mem.host_dram_used_mb"] = dram / kMiB;

  double kicks = 0, irqs = 0, coalesced = 0, created = 0, live = 0;
  double dedup = 0, retries = 0, deadline = 0, guest = 0;
  double layer_ns[verbs::kNumLayers] = {};
  for (std::size_t i = 0; i < bed.size(); ++i) {
    auto& m = dynamic_cast<masq::MasqContext&>(bed.ctx(i));
    kicks += static_cast<double>(m.virtqueue().kicks());
    irqs += static_cast<double>(m.virtqueue().interrupts());
    coalesced += static_cast<double>(m.virtqueue().coalesced_kicks());
    retries += static_cast<double>(m.control_retries());
    deadline += static_cast<double>(m.deadline_failures());
    auto& s = m.session();
    created += static_cast<double>(s.qps_created());
    live += static_cast<double>(s.live_qps());
    dedup += static_cast<double>(s.dedup_hits());
    guest += static_cast<double>(s.vm().guest_bytes_allocated());
    const verbs::LayerProfile& p = m.profile();
    for (const std::string& verb : p.verbs()) {
      for (int l = 0; l < verbs::kNumLayers; ++l) {
        layer_ns[l] += static_cast<double>(
            p.by_layer(verb, static_cast<verbs::Layer>(l)));
      }
    }
  }
  c["virtio.kicks"] = kicks;
  c["virtio.interrupts"] = irqs;
  c["virtio.coalesced_kicks"] = coalesced;
  c["masq.qps_created"] = created;
  c["masq.live_qps_end"] = live;
  c["masq.dedup_hits"] = dedup;
  c["masq.control_retries"] = retries;
  c["masq.deadline_failures"] = deadline;
  c["mem.guest_mapped_mb"] = guest / kMiB;
  const double per_conn = connections > 0 ? 1e-3 / connections : 0;
  c["verbs.sim_us.verbs_lib"] = layer_ns[0] * per_conn;
  c["verbs.sim_us.virtio"] = layer_ns[1] * per_conn;
  c["verbs.sim_us.masq_driver"] = layer_ns[2] * per_conn;
  c["verbs.sim_us.rdma_driver"] = layer_ns[3] * per_conn;

  double validations = 0, rows = 0, hits = 0, misses = 0, sf = 0;
  double degraded = 0, not_found = 0, batches = 0, keys = 0;
  for (std::size_t h = 0; h < bed.num_hosts(); ++h) {
    auto& b = bed.masq_backend(h);
    validations += static_cast<double>(b.conntrack().validations());
    rows += static_cast<double>(b.conntrack().table_size());
    const auto& mc = b.mapping_cache();
    hits += static_cast<double>(mc.hits());
    misses += static_cast<double>(mc.misses());
    sf += static_cast<double>(mc.single_flight_coalesced());
    degraded += static_cast<double>(mc.degraded_serves());
    not_found += static_cast<double>(mc.negative_hits());
    batches += static_cast<double>(b.host_agent().batches());
    keys += static_cast<double>(b.host_agent().batched_keys());
  }
  c["masq.conntrack_validations"] = validations;
  c["masq.conntrack_rows_end"] = rows;
  c["sdn.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  c["sdn.cache_misses"] = misses;
  c["sdn.coalesced"] = sf;
  c["sdn.degraded_serves"] = degraded;
  c["sdn.not_found"] = not_found;
  c["sdn.agent_batches"] = batches;
  c["sdn.batched_keys"] = keys;
  std::size_t depth = 0;
  for (std::size_t s = 0; s < bed.controller().num_shards(); ++s) {
    depth = std::max(depth, bed.controller().shard_max_queue_depth(s));
  }
  c["sdn.max_queue_depth"] = static_cast<double>(depth);
  c["sdn.unreachable"] =
      static_cast<double>(bed.controller().unreachable_queries());
  c["overlay.oob_messages"] =
      static_cast<double>(bed.vnet().messages_delivered());
  c["overlay.oob_blocked"] = static_cast<double>(bed.vnet().messages_blocked());
}

// The decorator on the traced run, the plain context otherwise.
struct Ctx {
  std::unique_ptr<verbs::Context> traced;
  verbs::Context* ctx;
  Ctx(verbs::Context& raw, Tracer* tr, std::uint64_t req, int lane,
      int parent)
      : traced(tr ? make_tracing_context(raw, *tr, req, lane, parent)
                  : nullptr),
        ctx(tr ? traced.get() : &raw) {}
  verbs::Context& operator*() { return *ctx; }
  verbs::Context* operator->() { return ctx; }
};

// ---------------------------------------------------------------------------
// kvs: the Fig. 21 HERD KVS through apps::kvs::run.
// ---------------------------------------------------------------------------
Result run_kvs(const Options& o) {
  Result r;
  const std::int64_t t0 = wall_ns();
  sim::EventLoop loop;
  if (o.tracer) o.tracer->set_loop(&loop);
  fabric::Testbed bed(loop, masq_config());
  add_instances(bed, o.tracer, {100, 100});
  r.setup_s = seconds_since(t0);

  apps::kvs::Config cfg;
  cfg.num_clients = 14;
  cfg.num_keys = 50'000;
  cfg.get_fraction = 0.95;
  cfg.pipeline = 2;
  cfg.warmup = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(4);
  cfg.seed = o.seed;
  const std::uint64_t ev0 = loop.events_executed();
  const std::int64_t t1 = wall_ns();
  apps::kvs::Result k;
  {
    ScopedSpan s(o.tracer, "apps.kvs.run");
    k = apps::kvs::run(bed, cfg);
  }
  r.run_s = seconds_since(t1);

  if (o.corrupt == "drop_completion" && k.gets > 0) --k.gets;
  r.attempted = k.ops;
  r.failed = k.value_mismatches + (k.gets - std::min(k.gets, k.get_hits));
  if (k.ops == 0) r.errors.push_back("kvs: no operations completed");
  if (k.value_mismatches != 0) r.errors.push_back("kvs: value mismatches");
  if (k.gets + k.puts != k.ops) r.errors.push_back("kvs: gets + puts != ops");
  r.sim_kops_per_s = k.mops * 1e3;

  collect_testbed(bed, cfg.num_clients, r);
  auto& c = r.counts;
  c["sim.events"] = static_cast<double>(loop.events_executed() - ev0);
  c["sim.virtual_ms"] = sim::to_ms(loop.now());
  c["apps.kvs.get_hit_rate"] =
      k.gets ? static_cast<double>(k.get_hits) / static_cast<double>(k.gets)
             : 0;
  c["apps.kvs.value_mismatches"] = static_cast<double>(k.value_mismatches);
  c["apps.kvs.ops"] = static_cast<double>(k.ops);
  c["conn.connections"] = cfg.num_clients;
  return r;
}

// ---------------------------------------------------------------------------
// bulk_write: 8 cross-host RC pairs in two tenants, ib_write_bw-style closed
// loops of 64 KiB RDMA WRITEs over a one-spine leaf-spine fabric; tenant A's
// VF cap drops to 10 Gbps halfway through.
// ---------------------------------------------------------------------------
constexpr int kBulkPairs = 8;
constexpr std::uint32_t kBulkMsg = 64 * 1024;
constexpr int kBulkSlots = 16;
constexpr int kBulkOutstanding = 128;
constexpr sim::Time kBulkMeasure = sim::milliseconds(40);
constexpr int kBulkSlices = 40;

struct BulkState {
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t posted = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_window = 0;
  std::uint64_t failed = 0;
  int running = 0;
};

sim::Task<void> bulk_connect(verbs::Context* ctx, apps::Endpoint* ep,
                             bool server, net::Ipv4Addr peer,
                             std::uint16_t port, rnic::Status* st) {
  apps::EndpointOptions opts;
  opts.buf_len = std::uint64_t{kBulkSlots} * kBulkMsg;
  *ep = co_await apps::setup_endpoint(*ctx, opts);
  *st = server ? co_await apps::connect_server(*ctx, *ep, peer, port)
               : co_await apps::connect_client(*ctx, *ep, peer, port);
}

sim::Task<void> bulk_writer(verbs::Context* ctx, apps::Endpoint* ep,
                            BulkState* s, sim::Time start_offset) {
  sim::EventLoop& loop = ctx->loop();
  co_await sim::delay(loop, start_offset);
  int outstanding = 0;
  std::uint64_t seq = 0;
  bool ok = true;
  auto refill = [&] {
    while (ok && outstanding < kBulkOutstanding && loop.now() < s->end) {
      const std::uint64_t slot = seq % kBulkSlots;
      rnic::SendWr wr;
      wr.wr_id = seq;
      wr.opcode = rnic::WrOpcode::kRdmaWrite;
      wr.sge = {ep->buf + slot * kBulkMsg, kBulkMsg, ep->mr.lkey};
      wr.remote_addr = ep->peer.raddr + slot * kBulkMsg;
      wr.rkey = ep->peer.rkey;
      if (ctx->post_send(ep->qp, wr) != rnic::Status::kOk) {
        ++s->failed;
        ok = false;
        break;
      }
      ++outstanding;
      ++seq;
      ++s->posted;
    }
  };
  refill();
  rnic::Completion wc[32];
  while (outstanding > 0) {
    const int n = ctx->poll_cq(ep->scq, 32, wc);
    if (n <= 0) {
      co_await ctx->cq_nonempty(ep->scq);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      --outstanding;
      ++s->completed;
      if (wc[i].status != rnic::WcStatus::kSuccess) {
        ++s->failed;
      } else if (loop.now() < s->end) {
        ++s->in_window;
      }
    }
    refill();
  }
  --s->running;
}

sim::Task<void> bulk_cap_drop(fabric::Testbed* bed, sim::Time at) {
  co_await sim::delay(bed->loop(), at - bed->loop().now());
  bed->masq_backend(0).set_tenant_rate_limit(100, 10.0);
}

Result run_bulk_write(const Options& o) {
  Result r;
  Tracer* tr = o.tracer;
  const std::int64_t t0 = wall_ns();
  sim::EventLoop loop;
  if (tr) tr->set_loop(&loop);
  fabric::TestbedConfig cfg = masq_config();
  net::FabricConfig fc;
  fc.hosts = 2;
  fc.leaves = 2;
  fc.spines = 1;
  fc.host_gbps = 40.0;
  fc.spine_gbps = 40.0;
  cfg.topology = fc;
  fabric::Testbed bed(loop, cfg);
  // Instance 2p (host 0) writes to instance 2p+1 (host 1); pairs 0-3 are
  // tenant A (vni 100), pairs 4-7 tenant B (vni 200).
  std::vector<std::uint32_t> vnis;
  for (int p = 0; p < kBulkPairs; ++p) {
    const std::uint32_t vni = p < kBulkPairs / 2 ? 100 : 200;
    vnis.push_back(vni);
    vnis.push_back(vni);
  }
  add_instances(bed, tr, vnis);

  std::vector<int> qp_span(kBulkPairs, -1);
  std::vector<std::unique_ptr<Ctx>> ctxs;  // [2p] client, [2p+1] server
  for (int p = 0; p < kBulkPairs; ++p) {
    if (tr) qp_span[p] = tr->begin_async("bulk.qp", p, 2 * p + 1, -1);
    for (int side = 0; side < 2; ++side) {
      ctxs.push_back(std::make_unique<Ctx>(bed.ctx(2 * p + side), tr, p,
                                           2 * p + side + 1, qp_span[p]));
    }
  }
  std::vector<apps::Endpoint> eps(2 * kBulkPairs);
  std::vector<rnic::Status> st(2 * kBulkPairs, rnic::Status::kOk);
  for (int i = 0; i < 2 * kBulkPairs; ++i) {
    const bool server = i % 2 == 1;
    loop.spawn(bulk_connect(ctxs[i]->ctx, &eps[i], server,
                            bed.instance_vip(server ? i - 1 : i + 1),
                            static_cast<std::uint16_t>(7000 + i / 2),
                            &st[i]));
  }
  {
    ScopedSpan s(tr, "sim.run");
    loop.run();
  }
  for (int i = 0; i < 2 * kBulkPairs; ++i) {
    if (st[i] != rnic::Status::kOk) {
      r.errors.push_back("bulk_write: connection setup failed");
      return r;
    }
  }
  for (int p = 0; p < kBulkPairs; ++p) {
    for (int slot = 0; slot < kBulkSlots; ++slot) {
      const auto bytes = pattern(o.seed, p, slot, kBulkMsg);
      (*ctxs[2 * p])->write_buffer(eps[2 * p].buf + slot * kBulkMsg, bytes);
    }
  }
  r.setup_s = seconds_since(t0);

  BulkState s;
  s.start = loop.now();
  s.end = s.start + kBulkMeasure;
  s.running = kBulkPairs;
  const std::uint64_t ev0 = loop.events_executed();
  const net::LinkId spine = bed.topology()->leaf_to_spine(0, 0);
  const double spine_cap = bed.fluid().link_capacity_gbps(spine);
  double peak_flows = 0, util_sum = 0;
  int util_samples = 0;
  const std::int64_t t1 = wall_ns();
  sim::Rng rng(o.seed);
  for (int p = 0; p < kBulkPairs; ++p) {
    const auto offset = static_cast<sim::Time>(
        rng.next_below(static_cast<std::uint64_t>(sim::microseconds(20))));
    loop.spawn(bulk_writer(ctxs[2 * p]->ctx, &eps[2 * p], &s, offset));
  }
  loop.spawn(bulk_cap_drop(&bed, s.start + kBulkMeasure / 2));
  const bool finished = run_sliced(
      loop, tr, kBulkMeasure / kBulkSlices, [&] { return s.running == 0; },
      [&] {
        peak_flows = std::max(peak_flows,
                              static_cast<double>(bed.fluid().active_flows()));
        if (loop.now() <= s.end) {
          util_sum += bed.fluid().link_load_gbps(spine) / spine_cap;
          ++util_samples;
        }
      });
  r.run_s = seconds_since(t1);
  const std::uint64_t events = loop.events_executed() - ev0;
  if (!finished) r.errors.push_back("bulk_write: writers stalled");

  // Each receiver verifies every slot's seeded pattern through the DMA'd
  // guest memory.
  if (o.corrupt == "flip_payload") {
    std::uint8_t b = 0;
    bed.ctx(1).read_buffer(eps[1].buf + 7, {&b, 1});
    b ^= 0x5a;
    bed.ctx(1).write_buffer(eps[1].buf + 7, {&b, 1});
  }
  std::uint64_t mismatched_slots = 0;
  std::vector<std::uint8_t> got(kBulkMsg);
  for (int p = 0; p < kBulkPairs; ++p) {
    for (int slot = 0; slot < kBulkSlots; ++slot) {
      (*ctxs[2 * p + 1])->read_buffer(eps[2 * p + 1].buf + slot * kBulkMsg,
                                      got);
      if (got != pattern(o.seed, p, slot, kBulkMsg)) ++mismatched_slots;
    }
  }
  if (mismatched_slots) r.errors.push_back("bulk_write: payload mismatch");

  // Teardown (untimed) so the masq layer's end-of-run counts settle.
  struct Teardown {
    static sim::Task<void> run(verbs::Context* ctx, apps::Endpoint* ep) {
      co_await apps::destroy_endpoint(*ctx, *ep);
    }
  };
  for (int i = 0; i < 2 * kBulkPairs; ++i) {
    loop.spawn(Teardown::run(ctxs[i]->ctx, &eps[i]));
  }
  loop.run();
  if (tr) {
    for (int p = 0; p < kBulkPairs; ++p) tr->end(qp_span[p]);
  }

  r.attempted = s.posted;
  r.failed = s.failed;
  if (s.completed != s.posted) {
    r.errors.push_back("bulk_write: completions != posted writes");
  }
  r.sim_kops_per_s = static_cast<double>(s.in_window) /
                     (static_cast<double>(kBulkMeasure) / 1e9) / 1e3;
  collect_testbed(bed, kBulkPairs, r);
  auto& c = r.counts;
  c["sim.events"] = static_cast<double>(events);
  c["sim.virtual_ms"] = sim::to_ms(loop.now());
  c["net.peak_active_flows"] = peak_flows;
  c["net.spine_util"] = util_samples ? util_sum / util_samples : 0;
  c["bulk.writes_in_window"] = static_cast<double>(s.in_window);
  c["bulk.mismatched_slots"] = static_cast<double>(mismatched_slots);
  c["conn.connections"] = kBulkPairs;
  return r;
}

// ---------------------------------------------------------------------------
// conn_churn: client VMs on host 0 loop, closed, through setup -> connect ->
// one round trip -> destroy against server VMs on host 1. Cold path, tenant
// rules installed, so every connect passes RConntrack and RConnrename.
// ---------------------------------------------------------------------------
constexpr int kChurnPairs = 8;
constexpr int kChurnConns = 256;  // per pair
constexpr std::uint32_t kRtBytes = 64;
constexpr sim::Time kChurnSlice = sim::milliseconds(1);

struct ChurnState {
  std::vector<sim::Time> setup_latency;
  std::uint64_t attempted = 0;
  std::uint64_t connect_failed = 0;
  std::uint64_t roundtrip_failed = 0;
  int running = 0;
  sim::Time last_done = 0;
};

std::uint16_t churn_port(int pair, int n) {
  return static_cast<std::uint16_t>(20000 + pair * 4000 + n % 4000);
}

apps::EndpointOptions churn_endpoint() {
  apps::EndpointOptions e;
  e.buf_len = 4096;
  e.cq_entries = 64;
  e.max_wr = 16;
  return e;
}

sim::Task<void> churn_client(fabric::Testbed* bed, int pair,
                             const Options* o, ChurnState* s) {
  verbs::Context& raw = bed->ctx(2 * pair);
  const net::Ipv4Addr server = bed->instance_vip(2 * pair + 1);
  sim::EventLoop& loop = bed->loop();
  Tracer* tr = o->tracer;
  // Seeded start offset and think time between connections, so clients
  // drift in and out of step and contend for the shared control path.
  sim::Rng rng(o->seed * 131 + static_cast<std::uint64_t>(pair));
  co_await sim::delay(loop, static_cast<sim::Time>(rng.next_below(
                                static_cast<std::uint64_t>(
                                    sim::microseconds(200)))));
  for (int n = 0; n < kChurnConns; ++n) {
    co_await sim::delay(loop, static_cast<sim::Time>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      sim::microseconds(50)))));
    const std::uint64_t req =
        static_cast<std::uint64_t>(pair) * kChurnConns + n;
    const int span =
        tr ? tr->begin_async("churn.connection", req, 2 * pair + 1, -1) : -1;
    Ctx ctx(raw, tr, req, 2 * pair + 1, span);
    const sim::Time t0 = loop.now();
    apps::Endpoint ep = co_await apps::setup_endpoint(*ctx, churn_endpoint());
    const rnic::Status st = co_await apps::connect_client(
        *ctx, ep, server, churn_port(pair, n));
    ++s->attempted;
    if (st != rnic::Status::kOk) {
      ++s->connect_failed;
    } else {
      s->setup_latency.push_back(loop.now() - t0);
      rnic::RecvWr rwr;
      rwr.sge = {ep.buf + kRtBytes, kRtBytes, ep.mr.lkey};
      bool ok = ctx->post_recv(ep.qp, rwr) == rnic::Status::kOk;
      (void)co_await ctx->oob().recv(churn_port(pair, n));  // server ready
      ctx->write_buffer(ep.buf, pattern(o->seed, req, 0, kRtBytes));
      const rnic::WcStatus sent =
          co_await apps::send_and_wait(*ctx, ep, 0, kRtBytes);
      ok = ok && sent == rnic::WcStatus::kSuccess;
      const rnic::Completion c = co_await ctx->wait_completion(ep.rcq);
      std::vector<std::uint8_t> reply(kRtBytes);
      ctx->read_buffer(ep.buf + kRtBytes, reply);
      ok = ok && c.status == rnic::WcStatus::kSuccess &&
           reply == pattern(o->seed, req, 1, kRtBytes);
      if (!ok) ++s->roundtrip_failed;
    }
    const bool leak = o->corrupt == "leak_qp" && pair == 0 &&
                      n == kChurnConns - 1;
    if (!leak) co_await apps::destroy_endpoint(*ctx, ep);
    if (tr) tr->end(span);
  }
  s->last_done = std::max(s->last_done, loop.now());
  --s->running;
}

sim::Task<void> churn_server(fabric::Testbed* bed, int pair,
                             const Options* o, ChurnState* s) {
  verbs::Context& raw = bed->ctx(2 * pair + 1);
  const net::Ipv4Addr client = bed->instance_vip(2 * pair);
  Tracer* tr = o->tracer;
  for (int n = 0; n < kChurnConns; ++n) {
    const std::uint64_t req =
        static_cast<std::uint64_t>(pair) * kChurnConns + n;
    const int span =
        tr ? tr->begin_async("churn.accept", req, 2 * pair + 2, -1) : -1;
    Ctx ctx(raw, tr, req, 2 * pair + 2, span);
    apps::Endpoint ep = co_await apps::setup_endpoint(*ctx, churn_endpoint());
    const rnic::Status st = co_await apps::connect_server(
        *ctx, ep, client, churn_port(pair, n));
    if (st == rnic::Status::kOk) {
      rnic::RecvWr rwr;
      rwr.sge = {ep.buf, kRtBytes, ep.mr.lkey};
      bool ok = ctx->post_recv(ep.qp, rwr) == rnic::Status::kOk;
      const overlay::Blob ready(1, 1);
      (void)co_await ctx->oob().send(client, churn_port(pair, n), ready);
      const rnic::Completion c = co_await ctx->wait_completion(ep.rcq);
      std::vector<std::uint8_t> request(kRtBytes);
      ctx->read_buffer(ep.buf, request);
      ok = ok && c.status == rnic::WcStatus::kSuccess &&
           request == pattern(o->seed, req, 0, kRtBytes);
      ctx->write_buffer(ep.buf + kRtBytes, pattern(o->seed, req, 1, kRtBytes));
      const rnic::WcStatus sent =
          co_await apps::send_and_wait(*ctx, ep, kRtBytes, kRtBytes);
      ok = ok && sent == rnic::WcStatus::kSuccess;
      if (!ok) ++s->roundtrip_failed;
    }
    co_await apps::destroy_endpoint(*ctx, ep);
    if (tr) tr->end(span);
  }
  --s->running;
}

Result run_conn_churn(const Options& o) {
  Result r;
  Tracer* tr = o.tracer;
  const std::int64_t t0 = wall_ns();
  sim::EventLoop loop;
  if (tr) tr->set_loop(&loop);
  fabric::Testbed bed(loop, masq_config());
  std::vector<std::uint32_t> vnis;
  for (int p = 0; p < kChurnPairs; ++p) {
    const std::uint32_t vni = p % 2 == 0 ? 100 : 200;
    vnis.push_back(vni);
    vnis.push_back(vni);
  }
  add_instances(bed, tr, vnis);
  // Tenant rules that every connect evaluates: a higher-priority deny for
  // a foreign range, then an explicit allow for the tenant's own range,
  // ahead of the testbed's allow-all default.
  for (std::uint32_t vni : {100u, 200u}) {
    auto& fw = bed.policy(vni).firewall(overlay::Chain::kForward);
    fw.add_rule(overlay::Rule::deny(*net::Ipv4Cidr::parse("10.99.0.0/16"),
                                    net::Ipv4Cidr::any(), overlay::Proto::kAny,
                                    100));
    fw.add_rule(overlay::Rule::allow(*net::Ipv4Cidr::parse("192.168.0.0/16"),
                                     *net::Ipv4Cidr::parse("192.168.0.0/16"),
                                     overlay::Proto::kAny, 50));
  }
  r.setup_s = seconds_since(t0);

  ChurnState s;
  s.running = 2 * kChurnPairs;
  const sim::Time start = loop.now();
  const std::uint64_t ev0 = loop.events_executed();
  double peak_waiting = 0;
  const std::int64_t t1 = wall_ns();
  for (int p = 0; p < kChurnPairs; ++p) {
    loop.spawn(churn_server(&bed, p, &o, &s));
    loop.spawn(churn_client(&bed, p, &o, &s));
  }
  const bool finished = run_sliced(
      loop, tr, kChurnSlice, [&] { return s.running == 0; },
      [&] {
        for (std::size_t i = 0; i < bed.size(); ++i) {
          auto& m = dynamic_cast<masq::MasqContext&>(bed.ctx(i));
          peak_waiting = std::max(
              peak_waiting,
              static_cast<double>(m.virtqueue().waiting_callers()));
        }
      });
  r.run_s = seconds_since(t1);
  if (!finished) r.errors.push_back("conn_churn: connections stalled");

  r.attempted = s.attempted;
  r.failed = s.connect_failed + s.roundtrip_failed;
  if (s.attempted != std::uint64_t{kChurnPairs} * kChurnConns) {
    r.errors.push_back("conn_churn: not every connection was attempted");
  }
  if (s.connect_failed) r.errors.push_back("conn_churn: connect != kOk");
  if (s.roundtrip_failed) r.errors.push_back("conn_churn: round trip failed");
  for (std::size_t i = 0; i < bed.size(); ++i) {
    auto& sess = dynamic_cast<masq::MasqContext&>(bed.ctx(i)).session();
    if (sess.live_qps() || sess.live_cqs() || sess.live_mrs()) {
      r.errors.push_back("conn_churn: session objects left after teardown");
      break;
    }
  }
  for (std::size_t h = 0; h < bed.num_hosts(); ++h) {
    if (bed.masq_backend(h).conntrack().table_size() != 0) {
      r.errors.push_back("conn_churn: RConntrack rows left after teardown");
      break;
    }
  }
  const double elapsed_s = static_cast<double>(s.last_done - start) / 1e9;
  r.sim_kops_per_s =
      elapsed_s > 0 ? static_cast<double>(s.attempted - s.connect_failed) /
                          elapsed_s / 1e3
                    : 0;
  collect_testbed(bed, static_cast<double>(s.attempted), r);
  auto& c = r.counts;
  c["sim.events"] = static_cast<double>(loop.events_executed() - ev0);
  c["sim.virtual_ms"] = sim::to_ms(loop.now());
  c["virtio.peak_waiting_callers"] = peak_waiting;
  c["conn.sim_setup_p50_us"] = percentile_us(s.setup_latency, 0.50);
  c["conn.sim_setup_p99_us"] = percentile_us(s.setup_latency, 0.99);
  c["conn.sim_setup_samples"] = static_cast<double>(s.setup_latency.size());
  c["conn.connections"] = static_cast<double>(s.attempted);
  return r;
}

// ---------------------------------------------------------------------------
// storm_100k: the partition-parallel control-plane storm at 160 hosts
// (100k VMs, 630k connections), open loop, on 2 worker threads.
// ---------------------------------------------------------------------------
constexpr std::size_t kStormThreads = 2;
// The schedule draw is the storm's whole set-up and lasts ~10 ms, so each
// repetition draws it this many times and reports the median draw.
constexpr int kStormDraws = 5;

Result run_storm(const Options& o) {
  Result r;
  Tracer* tr = o.tracer;
  if (tr) tr->set_loop(nullptr);
  fabric::ScaleConfig cfg;
  cfg.hosts = 160;
  cfg.ip_changes = 200;
  cfg.rule_resets = 3;
  cfg.seed = o.seed;
  cfg.check = false;
  cfg.trace = false;
  const double rss0 = peak_rss_mb();
  std::vector<std::int64_t> draws;
  std::uint64_t scheduled = 0;
  for (int i = 0; i < kStormDraws; ++i) {
    ScopedSpan s(tr, "fabric.StormSchedule::draw");
    const std::int64_t t0 = wall_ns();
    const auto sched = fabric::storm::StormSchedule::draw(cfg);
    draws.push_back(wall_ns() - t0);
    scheduled = sched.wave_conns.size() + sched.reset_conns.size();
  }
  std::nth_element(draws.begin(), draws.begin() + kStormDraws / 2,
                   draws.end());
  const std::int64_t draw_ns = draws[kStormDraws / 2];
  r.setup_s = static_cast<double>(draw_ns) / 1e9;

  const std::int64_t t1 = wall_ns();
  fabric::ScaleReport rep;
  {
    ScopedSpan s(tr, "fabric.run_scale_storm_parallel");
    rep = fabric::run_scale_storm_parallel(cfg, kStormThreads);
  }
  r.run_s = seconds_since(t1);
  const double rss1 = peak_rss_mb();

  if (o.corrupt == "drop_completion" && rep.ok > 0) --rep.ok;
  r.attempted = rep.attempted;
  r.failed = rep.degraded + rep.unavailable + rep.not_found;
  if (rep.ok + rep.degraded + rep.unavailable + rep.not_found !=
      rep.attempted) {
    r.errors.push_back("storm_100k: outcomes do not sum to attempted");
  }
  if (rep.attempted != scheduled) {
    r.errors.push_back("storm_100k: attempted != scheduled connections");
  }
  r.sim_kops_per_s = rep.kconn_per_s;

  auto& c = r.counts;
  const double vms = static_cast<double>(rep.vms);
  c["sim.events"] = static_cast<double>(rep.sim_events);
  c["sim.virtual_ms"] = rep.elapsed_ms;
  c["sdn.cache_hit_rate"] = rep.hit_rate;
  c["sdn.cache_misses"] = static_cast<double>(rep.cache_misses);
  c["sdn.coalesced"] = static_cast<double>(rep.coalesced);
  c["sdn.agent_batches"] = static_cast<double>(rep.agent_batches);
  c["sdn.batched_keys"] = static_cast<double>(rep.agent_batched_keys);
  double depth = 0, degraded = 0, unreachable = 0;
  for (const auto& sh : rep.per_shard) {
    depth = std::max(depth, static_cast<double>(sh.max_queue_depth));
    degraded += static_cast<double>(sh.degraded_serves);
    unreachable += static_cast<double>(sh.unreachable);
  }
  c["sdn.max_queue_depth"] = depth;
  c["sdn.degraded_serves"] = degraded;
  c["sdn.unreachable"] = unreachable;
  c["sdn.not_found"] = static_cast<double>(rep.not_found);
  c["conn.sim_setup_p50_us"] = rep.p50_us;
  c["conn.sim_setup_p99_us"] = rep.p99_us;
  c["conn.sim_setup_samples"] = static_cast<double>(rep.ok + rep.degraded);
  c["conn.connections"] = static_cast<double>(rep.attempted);
  c["storm.report_fnv"] = [&] {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : rep.json()) h = (h ^ ch) * 0x100000001b3ull;
    return static_cast<double>(h >> 11);  // exact in a double
  }();
  r.timings["fabric.schedule_ms"] = static_cast<double>(draw_ns) / 1e6;
  r.timings["fabric.bytes_per_vm"] =
      vms > 0 ? (rss1 - rss0) * kMiB / vms : 0;
  return r;
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

WorkloadFn find_workload(const std::string& name) {
  if (name == "kvs") return run_kvs;
  if (name == "bulk_write") return run_bulk_write;
  if (name == "conn_churn") return run_conn_churn;
  if (name == "storm_100k") return run_storm;
  return nullptr;
}

std::size_t workload_threads(const std::string& workload) {
  return workload == "storm_100k" ? kStormThreads : 1;
}

std::vector<std::string> corruption_hooks(const std::string& workload) {
  if (workload == "kvs") return {"drop_completion", "nondeterminism"};
  if (workload == "bulk_write") return {"flip_payload", "nondeterminism"};
  if (workload == "conn_churn") return {"leak_qp", "nondeterminism"};
  if (workload == "storm_100k") return {"drop_completion", "nondeterminism"};
  return {};
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.events", "count"},
      {"sim.events_per_op", "events/op"},
      {"sim.ns_per_event", "ns"},
      {"sim.virtual_ms", "ms"},
      {"mem.buffer_io_ns_per_kib", "ns/KiB"},
      {"mem.guest_mapped_mb", "MB"},
      {"mem.host_dram_used_mb", "MB"},
      {"hyp.boot_us", "us"},
      {"rnic.tx_msgs", "count"},
      {"rnic.rx_msgs", "count"},
      {"rnic.retransmits", "count"},
      {"rnic.drops", "count"},
      {"rnic.post_send_ns", "ns"},
      {"rnic.poll_cq_ns", "ns"},
      {"net.peak_active_flows", "count"},
      {"net.spine_util", "ratio"},
      {"virtio.kicks", "count"},
      {"virtio.interrupts", "count"},
      {"virtio.coalesced_kicks", "count"},
      {"virtio.peak_waiting_callers", "count"},
      {"verbs.sim_us.verbs_lib", "us/conn"},
      {"verbs.sim_us.virtio", "us/conn"},
      {"verbs.sim_us.masq_driver", "us/conn"},
      {"verbs.sim_us.rdma_driver", "us/conn"},
      {"verbs.control_calls", "calls/conn"},
      {"masq.qps_created", "count"},
      {"masq.conntrack_validations", "count"},
      {"masq.live_qps_end", "count"},
      {"masq.conntrack_rows_end", "count"},
      {"masq.dedup_hits", "count"},
      {"masq.control_retries", "count"},
      {"masq.deadline_failures", "count"},
      {"overlay.oob_messages", "count"},
      {"overlay.oob_blocked", "count"},
      {"sdn.cache_hit_rate", "ratio"},
      {"sdn.cache_misses", "count"},
      {"sdn.coalesced", "count"},
      {"sdn.agent_batches", "count"},
      {"sdn.batched_keys", "count"},
      {"sdn.max_queue_depth", "count"},
      {"sdn.degraded_serves", "count"},
      {"sdn.unreachable", "count"},
      {"sdn.not_found", "count"},
      {"fabric.schedule_ms", "ms"},
      {"fabric.bytes_per_vm", "bytes"},
      {"apps.kvs.get_hit_rate", "ratio"},
      {"apps.kvs.value_mismatches", "count"},
      {"conn.sim_setup_p50_us", "us"},
      {"conn.sim_setup_p99_us", "us"},
      {"conn.sim_setup_samples", "count"},
      {"trace.untraced_run_s", "s"},
      {"trace.traced_run_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

}  // namespace perfbench
