// Storm topology + pre-drawn schedule, shared by both scale-storm engines
// (DESIGN.md §12–§13).
//
// The single-loop engine (scale.cc) and the partition-parallel engine
// (scale_partition.cc) must describe the *same* storm: same VM→host/tenant
// geometry, same vGID arithmetic, and — critically — the same seeded
// random draws in the same order. Everything here is a pure function of
// (config, seed); neither engine consumes randomness after its loops
// start. Both engines also feed the schedule to their loops the same way,
// through one ArrivalCursor per loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fabric/scale.h"
#include "net/addr.h"
#include "sim/event_loop.h"

namespace fabric::storm {

// ---- topology (pure functions of the config) ----
inline std::size_t total_vms(const ScaleConfig& cfg) {
  return cfg.hosts * cfg.vms_per_host;
}
inline std::size_t host_of(const ScaleConfig& cfg, std::size_t vm) {
  return vm / cfg.vms_per_host;
}
inline std::size_t tenant_of(const ScaleConfig& cfg, std::size_t vm) {
  return vm % cfg.tenants;
}
inline std::uint32_t vni_of(const ScaleConfig& cfg, std::size_t vm) {
  return 100 + static_cast<std::uint32_t>(tenant_of(cfg, vm));
}
// vGID value space: low 14 bits the VM id, upper bits the generation — an
// IP change mints a vGID never seen before.
inline net::Gid gid_of(std::size_t vm, std::uint32_t generation) {
  return net::Gid::from_ipv4(
      net::Ipv4Addr{static_cast<std::uint32_t>(vm) | (generation << 14)});
}
inline net::Gid pgid_of_host(std::size_t h) {
  return net::Gid::from_ipv4(
      net::Ipv4Addr{0x0A000000u + static_cast<std::uint32_t>(h) + 1});
}
// Partition placement (partition engine): partitions are indexed like
// shards (cfg.shards of them, regardless of worker threads) and a host's
// VMs all live in one partition, so a VM's cache/agent state is local.
inline std::size_t partition_of_host(const ScaleConfig& cfg, std::size_t h) {
  return h % cfg.shards;
}

// ---- warm-path model (DESIGN.md §14), shared by both engines ----
// Analytic state only — no timer events — so the model is a pure function
// of each connect's virtual start time and both engines stay byte-equal.
// Token bucket: pre-staged QP/CQ ladders per VM. Parked pair: an RTS QP
// kept warm toward one peer generation until its idle TTL.
struct WarmTokens {
  std::uint64_t tokens = 0;
  sim::Time last = 0;  // restock clock (advanced by whole refill periods)
};
struct ParkedConn {
  std::uint32_t gen = 0;  // peer vGID generation the QP is bound to
  sim::Time expires = 0;  // lazy idle-timeout reclaim deadline
};

// Lazy restock + take: tokens refill one per warm_refill of elapsed
// virtual time — the background refill with no events of its own, so
// enabling warm changes latencies but never injects extra loop events.
inline bool take_warm_token(const ScaleConfig& cfg, WarmTokens& w,
                            sim::Time now) {
  if (w.tokens >= cfg.warm_pool) {
    w.last = now;  // full pool: the refill clock idles
  } else if (cfg.warm_refill > 0) {
    const std::uint64_t earned =
        static_cast<std::uint64_t>((now - w.last) / cfg.warm_refill);
    const std::uint64_t add =
        std::min<std::uint64_t>(earned, cfg.warm_pool - w.tokens);
    w.tokens += add;
    w.last += cfg.warm_refill * static_cast<sim::Time>(add);
    if (w.tokens >= cfg.warm_pool) w.last = now;
  }
  if (w.tokens == 0) return false;
  --w.tokens;
  return true;
}

// ---- the pre-drawn schedule ----
// Drawn up front from one seeded stream in one fixed order (wave
// connections, then IP changes, then rule resets); the vectors are in
// legacy spawn order, which is also each engine's tie-break order for
// same-timestamp events.
struct StormSchedule {
  struct Conn {
    std::size_t src;
    std::size_t dst;
    sim::Time start;
  };
  struct IpChange {
    std::size_t vm;
    sim::Time when;
  };

  std::vector<Conn> wave_conns;
  std::vector<IpChange> ip_changes;
  std::vector<Conn> reset_conns;

  static StormSchedule draw(const ScaleConfig& cfg);
};

// ---- arrivals: feeding the schedule to a loop (DESIGN.md §13) ----
// One storm arrival in compact form: a connection attempt src -> dst, or a
// vBond IP change of VM `src` (dst == kIpChange). `seq` is a sequence
// number reserved on the arrival's loop; it is the same-timestamp
// tie-break.
struct Arrival {
  static constexpr std::uint32_t kIpChange = 0xffffffffu;
  sim::Time t;
  std::uint64_t seq;
  std::uint32_t src;
  std::uint32_t dst;
};

// The slice of `s` that one loop runs: the connections whose source VM
// `owns_vm` accepts, and every IP change. Sequence numbers are reserved on
// `loop` in schedule order (wave connections, IP changes, reset
// connections), and the result is sorted by (t, seq), so each arrival
// fires exactly where a coroutine spawned per arrival at setup, sleeping
// until its start time, used to wake.
template <typename OwnsVm>
std::vector<Arrival> arrivals_for(const StormSchedule& s,
                                  sim::EventLoop& loop, OwnsVm owns_vm) {
  std::vector<Arrival> out;
  auto add = [&out](sim::Time t, std::size_t src, std::uint32_t dst) {
    out.push_back(Arrival{t, out.size(), static_cast<std::uint32_t>(src),
                          dst});
  };
  for (const auto& c : s.wave_conns) {
    if (owns_vm(c.src)) add(c.start, c.src, static_cast<std::uint32_t>(c.dst));
  }
  for (const auto& ch : s.ip_changes) add(ch.when, ch.vm, Arrival::kIpChange);
  for (const auto& c : s.reset_conns) {
    if (owns_vm(c.src)) add(c.start, c.src, static_cast<std::uint32_t>(c.dst));
  }
  const std::uint64_t first = loop.reserve_seqs(out.size());
  for (Arrival& a : out) a.seq += first;
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  return out;
}

// Feeds a loop its arrivals through ONE pending event: each firing hands
// the next arrival to `fire` and re-arms itself at the one after. The
// drivers' `fire` starts a connection coroutine inline
// (sim::EventLoop::start), so only in-flight arrivals hold a coroutine
// frame; the rest of the schedule waits as 24-byte records. Not movable:
// the pending event points at it.
template <typename Driver>
class ArrivalCursor {
 public:
  using FireFn = void (*)(Driver*, const Arrival&);

  ArrivalCursor(sim::EventLoop& loop, Driver* driver, FireFn fire,
                std::vector<Arrival> arrivals)
      : loop_(loop),
        driver_(driver),
        fire_(fire),
        arrivals_(std::move(arrivals)) {
    arm();
  }
  ArrivalCursor(const ArrivalCursor&) = delete;
  ArrivalCursor& operator=(const ArrivalCursor&) = delete;

 private:
  void arm() {
    if (next_ == arrivals_.size()) return;
    const Arrival& a = arrivals_[next_];
    loop_.schedule_at_seq(a.t, a.seq, [this] {
      fire_(driver_, arrivals_[next_++]);
      arm();
    });
  }

  sim::EventLoop& loop_;
  Driver* driver_;
  FireFn fire_;
  std::vector<Arrival> arrivals_;
  std::size_t next_ = 0;
};

}  // namespace fabric::storm
