// Partition-parallel scale-storm engine (DESIGN.md §13).
//
// The storm is split into cfg.shards partitions — partition p owns every
// host h with h % shards == p (so a VM's agent/cache state is purely
// local) and *is* the home of shard p's query service. Each partition has
// its own sim::EventLoop and, crucially, a full REPLICA of the control
// plane: a Controller with every VM registered and every churn event
// (IP change, outage toggle) scheduled at identical times in every
// partition. Replicas never exchange state — they stay identical because
// they apply the identical mutation schedule — which lets the reply path
// evaluate lookups locally.
//
// The only cross-partition traffic is the HostAgent batch round trip,
// intercepted via set_batch_transport: a flush records (send_time, shard,
// keys) in its partition's outbox and suspends on a promise. Between
// windows the single-threaded coordinator merges all outboxes by
// (send_time, partition, arrival-order) — a deterministic total order —
// replays each shard's FIFO service queue analytically (same recurrence
// ServiceQueue implements event-by-event), and schedules the reply at
// end_of_service + rtt back into the REQUESTING partition, which
// evaluates reachability + lookup against its own replica at reply time.
//
// Conservative lookahead: windows end at (earliest pending event + rtt).
// A batch sent inside a window replies no earlier than send + rtt, i.e.
// at or after the window barrier — so no partition ever needs an event
// another partition hasn't produced yet, and the event schedule is a pure
// function of (config, seed): byte-identical at any worker-thread count.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.h"
#include "check/ownership_audit.h"
#include "fabric/scale.h"
#include "fabric/storm_schedule.h"
#include "fabric/traffic.h"
#include "net/addr.h"
#include "sdn/controller.h"
#include "sdn/host_agent.h"
#include "sim/flat_map.h"
#include "sim/partition.h"
#include "sim/ready_queue.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace fabric {

namespace {

using sdn::Controller;
using sdn::VirtKey;

// One host→shard batch query, captured at its send time and sequenced by
// the coordinator against every other partition's traffic.
struct BatchRequest {
  sim::Time t = 0;        // send time
  std::size_t shard = 0;  // destination shard
  std::size_t part = 0;   // requesting partition
  std::vector<VirtKey> keys;
  sim::Promise<std::vector<Controller::QueryReply>> reply;
};

struct PartDriver {
  const ScaleConfig& cfg;
  std::size_t part;
  sim::EventLoop& loop;
  Controller controller;  // full replica (see file comment)
  // Indexed by GLOBAL host id; only this partition's hosts are non-null.
  std::vector<std::unique_ptr<sdn::HostAgent>> agents;
  std::vector<std::uint32_t> gen;  // full per-VM generation replica
  sim::Stats setup_us;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t not_found = 0;
  std::uint64_t attempted = 0;
  // Reply-side per-shard counters. The replica Controllers never see query
  // traffic (the transport bypasses query_batch), so the legacy shard
  // counters are accumulated here instead — by the partition that ASKED,
  // then summed; the totals match because every key is counted exactly
  // once either way.
  std::vector<std::uint64_t> q_queries;
  std::vector<std::uint64_t> q_batched;
  std::vector<std::uint64_t> q_unreachable;
  // Batches sent this window; drained by the coordinator at the barrier.
  std::vector<BatchRequest> outbox;
  // Warm-path state (cfg.warm only). Keyed/updated exactly like the
  // single-loop engine; a pair's state is only ever touched by its src
  // VM's partition, so no cross-partition traffic is added.
  std::vector<storm::WarmTokens> warm_vm;
  sim::FlatMap<std::uint64_t, storm::ParkedConn> parked;
  std::uint64_t warm_pooled = 0;
  std::uint64_t warm_reused = 0;
  std::uint64_t warm_cold = 0;
  // Armed by cfg.check / MASQ_CHECK: hot paths report their driver access
  // so the auditor can verify the calling thread owns this partition's
  // window. Null when unarmed (one branch per entry point).
  check::PartitionOwnershipAuditor* audit = nullptr;
  // Feeds this partition its slice of the storm schedule.
  std::optional<storm::ArrivalCursor<PartDriver>> cursor;

  PartDriver(const ScaleConfig& c, std::size_t p, sim::EventLoop& l)
      : cfg(c),
        part(p),
        loop(l),
        controller(l,
                   sdn::ControllerConfig{
                       .query_rtt = c.query_rtt,
                       .num_shards = c.shards,
                       .query_service = c.query_service,
                   }),
        gen(storm::total_vms(c), 0),
        q_queries(c.shards, 0),
        q_batched(c.shards, 0),
        q_unreachable(c.shards, 0) {
    agents.resize(c.hosts);
    for (std::size_t h = 0; h < c.hosts; ++h) {
      if (storm::partition_of_host(c, h) != part) continue;
      agents[h] = std::make_unique<sdn::HostAgent>(
          loop, controller,
          sdn::HostAgentConfig{
              .cache_hit_cost = c.cache_hit_cost,
              .cache_staleness_bound = c.staleness_bound,
              .batch_window = c.batch_window,
              .max_batch = c.max_batch,
              .speculative_prefill = c.warm,
          });
      agents[h]->set_batch_transport(
          [this](std::size_t shard, std::vector<VirtKey> keys) {
            return batch_transport(this, shard, std::move(keys));
          });
    }
    for (std::size_t vm = 0; vm < storm::total_vms(c); ++vm) register_vm(vm);
    if (c.warm) {
      warm_vm.assign(storm::total_vms(c), storm::WarmTokens{c.warm_pool, 0});
    }
  }

  void register_vm(std::size_t vm) {
    controller.register_vgid(storm::vni_of(cfg, vm),
                             storm::gid_of(vm, gen[vm]),
                             storm::pgid_of_host(storm::host_of(cfg, vm)));
  }

  // Parks the batch in the outbox for the coordinator; resumes when the
  // reply delivery fires in this partition at reply time.
  static sim::Task<std::vector<Controller::QueryReply>> batch_transport(
      PartDriver* d, std::size_t shard, std::vector<VirtKey> keys) {
    if (d->audit) d->audit->note_state_access(d);
    sim::Promise<std::vector<Controller::QueryReply>> promise(d->loop);
    auto fut = promise.get_future();
    d->outbox.push_back(BatchRequest{d->loop.now(), shard, d->part,
                                     std::move(keys), std::move(promise)});
    co_return co_await fut;
  }

  // One scheduled arrival, fired by this partition's storm::ArrivalCursor.
  static void arrive(PartDriver* d, const storm::Arrival& a) {
    if (a.dst == storm::Arrival::kIpChange) {
      d->ip_change(a.src);
    } else {
      d->loop.start(connect(d, a.src, a.dst));
    }
  }

  // Same connection attempt as the single-loop engine (scale.cc), against
  // this partition's local agent and replica state.
  static sim::Task<void> connect(PartDriver* d, std::size_t src,
                                 std::size_t dst) {
    if (d->audit) d->audit->note_state_access(d);
    ++d->attempted;
    const sim::Time t0 = d->loop.now();
    const std::uint32_t dst_gen = d->gen[dst];
    const std::uint64_t pair =
        static_cast<std::uint64_t>(src) * storm::total_vms(d->cfg) + dst;
    if (d->cfg.warm) {
      // Connection reuse — identical decision sequence to scale.cc.
      auto it = d->parked.find(pair);
      if (it != d->parked.end()) {
        const bool live = it->second.expires > t0 && it->second.gen == dst_gen;
        d->parked.erase(pair);
        if (live) {
          co_await sim::delay(d->loop, d->cfg.warm_reuse_cost);
          ++d->ok;
          ++d->warm_reused;
          d->setup_us.add(sim::to_us(d->loop.now() - t0));
          d->parked.insert_or_assign(
              pair, storm::ParkedConn{
                        dst_gen, d->loop.now() + d->cfg.warm_reuse_ttl});
          co_return;
        }
      }
    }
    const net::Gid peer = storm::gid_of(dst, dst_gen);
    const auto res =
        co_await d->agents[storm::host_of(d->cfg, src)]->resolve_ex(
            storm::vni_of(d->cfg, dst), peer);
    switch (res.status) {
      case sdn::MappingCache::ResolveStatus::kOk:
      case sdn::MappingCache::ResolveStatus::kOkDegraded: {
        res.status == sdn::MappingCache::ResolveStatus::kOk ? ++d->ok
                                                            : ++d->degraded;
        sim::Time ladder = d->cfg.ladder_cost;
        if (d->cfg.warm) {
          if (storm::take_warm_token(d->cfg, d->warm_vm[src],
                                     d->loop.now())) {
            ladder = d->cfg.warm_ladder_cost;
            ++d->warm_pooled;
          } else {
            ++d->warm_cold;
          }
        }
        co_await sim::delay(d->loop, ladder);
        d->setup_us.add(sim::to_us(d->loop.now() - t0));
        if (d->cfg.warm) {
          d->parked.insert_or_assign(
              pair, storm::ParkedConn{
                        dst_gen, d->loop.now() + d->cfg.warm_reuse_ttl});
        }
        break;
      }
      case sdn::MappingCache::ResolveStatus::kNotFound:
        ++d->not_found;
        break;
      case sdn::MappingCache::ResolveStatus::kUnavailable:
        ++d->unavailable;
        break;
    }
  }

  // Replica mutations: scheduled in EVERY partition at identical times, so
  // the replicas stay identical without exchanging state.
  void ip_change(std::size_t vm) {
    if (audit) audit->note_state_access(this);
    controller.unregister_vgid(storm::vni_of(cfg, vm),
                               storm::gid_of(vm, gen[vm]));
    ++gen[vm];
    register_vm(vm);
  }

  static sim::Task<void> shard_down(PartDriver* d, std::size_t shard,
                                    sim::Time from, sim::Time until) {
    co_await sim::delay(d->loop, from);
    if (d->audit) d->audit->note_state_access(d);
    d->controller.set_shard_reachable(shard, false);
    co_await sim::delay(d->loop, until - from);
    d->controller.set_shard_reachable(shard, true);
  }
};

// Analytic replay of one shard's FIFO query service (sim::ServiceQueue's
// recurrence, applied to the merged request order instead of event order):
// service starts at max(send, busy_until) and runs keys × budget;
// max_depth samples in-system requests + 1 at submit, exactly where
// Controller::charge_query_path samples queue.depth() + 1.
struct ShardService {
  sim::Time busy_until = 0;
  std::deque<sim::Time> ends;  // completion times of in-system requests
  std::size_t max_depth = 0;
};

}  // namespace

ScaleReport run_scale_storm_parallel(const ScaleConfig& cfg,
                                     std::size_t threads) {
  // Pass-through mode (batch_window == 0) resolves misses via
  // Controller::query_ex inside the cache — there is no transport seam to
  // intercept — and a zero RTT gives zero lookahead. Both fall back.
  if (cfg.batch_window <= 0 || cfg.query_rtt <= 0) {
    return run_scale_storm(cfg);
  }

  const std::size_t nparts = cfg.shards;
  sim::PartitionGroup group(nparts, threads);
  if (cfg.trace) group.enable_trace();

  std::vector<std::unique_ptr<PartDriver>> parts;
  parts.reserve(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    parts.push_back(std::make_unique<PartDriver>(cfg, p, group.loop(p)));
  }

  // Partition-ownership auditor (DESIGN.md §16): installed before any
  // event is scheduled so it sees the whole run. Observation-only, so the
  // report and trace hash below are byte-identical armed or unarmed.
  std::unique_ptr<check::PartitionOwnershipAuditor> auditor;
  if (cfg.check || check::env_enabled()) {
    auditor = std::make_unique<check::PartitionOwnershipAuditor>(group);
    for (std::size_t p = 0; p < nparts; ++p) {
      const std::string tag = "[" + std::to_string(p) + "]";
      auditor->tag_state(parts[p].get(), "PartDriver" + tag, p);
      auditor->tag_state(&parts[p]->controller, "Controller-replica" + tag,
                         p);
      auditor->tag_state(&parts[p]->parked, "parked-conn-table" + tag, p);
      parts[p]->audit = auditor.get();
    }
  }

  // Identical schedule (same seed, same draw order) as the single-loop
  // engine. Each partition gets one arrival cursor over its slice: its own
  // hosts' connections plus every IP change (replica mutation), with
  // sequence numbers reserved in the same relative order, so
  // same-timestamp ties break the same way within every partition. The
  // schedule itself is dropped before the run; the traffic phase, a pure
  // function of it, runs first.
  TrafficReport traffic;
  {
    const storm::StormSchedule sched = storm::StormSchedule::draw(cfg);
    for (auto& d : parts) {
      auto owns = [&cfg, p = d->part](std::size_t vm) {
        return storm::partition_of_host(cfg, storm::host_of(cfg, vm)) == p;
      };
      d->cursor.emplace(d->loop, d.get(), &PartDriver::arrive,
                        storm::arrivals_for(sched, d->loop, owns));
    }
    // Fabric traffic phase: pure function of (config, schedule) on its own
    // single-threaded loop — byte-identical to the single-loop engine's
    // block at any worker-thread count.
    if (cfg.traffic.enabled) traffic = run_traffic_phase(cfg, sched);
  }
  if (cfg.down_shard >= 0) {
    const std::size_t shard =
        static_cast<std::size_t>(cfg.down_shard) % cfg.shards;
    for (auto& d : parts) {
      d->loop.spawn(
          PartDriver::shard_down(d.get(), shard, cfg.down_from,
                                 cfg.down_until));
    }
  }

  // ---- coordinator loop ----
  std::vector<ShardService> svc(cfg.shards);
  std::vector<BatchRequest> reqs;
  const sim::Time lookahead = cfg.query_rtt;
  while (true) {
    // Deliver the batches captured in the window that just ran. Merge
    // order (send_time, partition, per-partition arrival order) is a
    // deterministic total order; stable_sort preserves the third key
    // because each outbox is already time-sorted.
    reqs.clear();
    for (auto& d : parts) {
      for (auto& r : d->outbox) reqs.push_back(std::move(r));
      d->outbox.clear();
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const BatchRequest& a, const BatchRequest& b) {
                       return a.t != b.t ? a.t < b.t : a.part < b.part;
                     });
    for (BatchRequest& r : reqs) {
      sim::Time reply_time;
      if (cfg.query_service > 0 && !r.keys.empty()) {
        ShardService& m = svc[r.shard];
        while (!m.ends.empty() && m.ends.front() <= r.t) m.ends.pop_front();
        m.max_depth = std::max(m.max_depth, m.ends.size() + 1);
        const sim::Time start = std::max(r.t, m.busy_until);
        const sim::Time end =
            start + cfg.query_service * static_cast<sim::Time>(r.keys.size());
        m.busy_until = end;
        m.ends.push_back(end);
        reply_time = end + cfg.query_rtt;
      } else {
        reply_time = r.t + cfg.query_rtt;
      }
      // Reply evaluation runs in the REQUESTING partition at reply time,
      // against its own replica — valid because replicas are identical at
      // every simulated time.
      PartDriver* d = parts[r.part].get();
      d->loop.schedule_at(
          reply_time, [d, shard = r.shard, keys = std::move(r.keys),
                       reply = std::move(r.reply)]() mutable {
            // Fires inside the requesting partition's window: the replica
            // read below is exactly the access the auditor validates.
            if (d->audit) d->audit->note_state_access(&d->controller);
            std::vector<Controller::QueryReply> out;
            out.reserve(keys.size());
            const bool up = d->controller.shard_reachable(shard);
            for (const VirtKey& k : keys) {
              if (!up) {
                ++d->q_unreachable[shard];
                out.push_back(Controller::QueryReply{true, std::nullopt});
              } else {
                ++d->q_queries[shard];
                ++d->q_batched[shard];
                out.push_back(Controller::QueryReply{
                    false, d->controller.lookup(k.vni, k.vgid)});
              }
            }
            reply.set_value(std::move(out));
          });
    }
    const sim::Time next = group.min_next_event_time();
    if (next == sim::ReadyQueue::kMaxTime) break;  // drained, nothing in flight
    group.run_window_before(next + lookahead);
  }

  // ---- report assembly (mirrors run_scale_storm field for field) ----
  ScaleReport r;
  r.tenants = cfg.tenants;
  r.hosts = cfg.hosts;
  r.vms = storm::total_vms(cfg);
  r.shards = cfg.shards;
  r.seed = cfg.seed;
  sim::Stats setup_us;
  for (const auto& d : parts) {
    r.attempted += d->attempted;
    r.ok += d->ok;
    r.degraded += d->degraded;
    r.unavailable += d->unavailable;
    r.not_found += d->not_found;
    r.warm_pooled += d->warm_pooled;
    r.warm_reused += d->warm_reused;
    r.warm_cold += d->warm_cold;
    for (double s : d->setup_us.samples()) setup_us.add(s);
  }
  r.warm_enabled = cfg.warm;
  if (!setup_us.empty()) {
    r.p50_us = setup_us.percentile(50.0);
    r.p99_us = setup_us.percentile(99.0);
    r.max_us = setup_us.max();
  }
  r.elapsed_ms = sim::to_ms(group.last_event_time());
  if (r.elapsed_ms > 0) {
    r.kconn_per_s = static_cast<double>(r.ok + r.degraded) / r.elapsed_ms;
  }
  // Hosts in global order, same as the single-loop engine.
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    const auto& agent = parts[storm::partition_of_host(cfg, h)]->agents[h];
    const sdn::MappingCache& c = agent->cache();
    r.cache_hits += c.hits();
    r.cache_misses += c.misses();
    r.coalesced += c.single_flight_coalesced();
    r.agent_batches += agent->batches();
    r.agent_batched_keys += agent->batched_keys();
    r.warm_prefills += agent->prefills();
  }
  const std::uint64_t lookups = r.cache_hits + r.cache_misses + r.coalesced;
  if (lookups > 0) {
    r.hit_rate =
        static_cast<double>(r.cache_hits) / static_cast<double>(lookups);
  }
  r.per_shard.resize(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    ShardReport& sr = r.per_shard[s];
    for (const auto& d : parts) {
      sr.queries += d->q_queries[s];
      sr.batched_queries += d->q_batched[s];
      sr.unreachable += d->q_unreachable[s];
    }
    sr.max_queue_depth = svc[s].max_depth;
    sr.table_size = parts[0]->controller.shard_table_size(s);
    for (std::size_t h = 0; h < cfg.hosts; ++h) {
      sr.degraded_serves += parts[storm::partition_of_host(cfg, h)]
                                ->agents[h]
                                ->cache()
                                .degraded_serves(s);
    }
  }
  r.sim_events = group.total_events();
  r.trace_hash = cfg.trace ? group.combined_trace_hash() : 0;
  r.engine_threads = group.threads();
  r.traffic = traffic;
  return r;
}

}  // namespace fabric
