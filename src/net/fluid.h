// Fluid (max-min fair) flow-level bandwidth model.
//
// Long-lived transfers are modeled as fluid flows over a set of links. On
// every topology event (flow start/finish/cancel, rate-cap change) rates are
// re-assigned by progressive filling: repeatedly saturate the most
// constrained resource — either a link shared by its remaining flows or an
// individual flow's rate cap — and fix the affected flows. This yields the
// classic max-min fair allocation with per-flow caps, which is what a
// lossless RoCEv2 fabric with hardware rate limiters converges to.
//
// The solver runs over flow classes: the live flows that share one
// (path, cap) pair get the same rate, so a class holds the path once plus
// a live count, and a round costs O(links + classes x path), not
// O(flows x path). An RDMA QP's in-flight messages all share one class,
// so ~1,000 messages in flight over 8 QPs are 8 classes. The results are
// bit-identical to filling flow by flow (see reallocate()). Settling a
// flow's bytes stays per flow: each event that changes the flow set
// walks the flows once or twice, in FlowId order.
//
// Finite flows complete after `bytes / rate` of serialization plus the
// path's propagation delay; unbounded flows (bytes == 0) run until
// cancelled and are sampled by the QoS/timeline benches via current_rate().
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/time.h"

namespace net {

using LinkId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr double kUncapped = std::numeric_limits<double>::infinity();

// 1 Gbps expressed in bytes per nanosecond.
inline constexpr double gbps_to_bytes_per_ns(double gbps) {
  return gbps / 8.0;  // 1 Gb/s = 1e9 b/s = 0.125e9 B/s = 0.125 B/ns
}
inline constexpr double bytes_per_ns_to_gbps(double bpn) { return bpn * 8.0; }

class FluidNet {
 public:
  explicit FluidNet(sim::EventLoop& loop) : loop_(loop) {}

  // Adds a unidirectional link of `gbps` capacity and `prop_delay` latency.
  LinkId add_link(double gbps, sim::Time prop_delay);

  double link_capacity_gbps(LinkId id) const;

  // Reprograms a link's capacity (models a hardware rate limiter exposed as
  // a virtual link; 0 blocks all flows through it).
  void set_link_capacity(LinkId id, double gbps);

  // Starts a flow over `path` (links traversed in order).
  //  bytes     > 0: finite transfer; on_complete fires once after the last
  //                 byte serializes and propagates down the path.
  //  bytes    == 0: unbounded flow; never completes; cancel explicitly.
  //  cap_gbps     : per-flow rate limiter (kUncapped for none).
  FlowId start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                    double cap_gbps, std::function<void()> on_complete);

  // Changes a flow's rate cap (hardware rate-limiter reprogramming).
  void set_flow_cap(FlowId id, double cap_gbps);

  // Removes a flow without firing its completion callback.
  void cancel_flow(FlowId id);

  bool has_flow(FlowId id) const { return flows_.count(id) != 0; }

  // Instantaneous allocated rate, in Gbps.
  double current_rate_gbps(FlowId id) const;
  // Bytes fully serialized so far (settled up to now()).
  std::uint64_t bytes_sent(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }
  // Live flow classes: distinct (path, cap) pairs among the live flows.
  std::size_t active_classes() const {
    return classes_.size() - free_classes_.size();
  }

  // Total propagation delay along a path (used for one-way latency math).
  sim::Time path_propagation(const std::vector<LinkId>& path) const;

  // Instantaneous offered load on a link (sum of crossing flows' rates),
  // in Gbps — what an ECN marking engine watches. The first call after a
  // reallocation sums every link at once, walking the flows in FlowId
  // order (O(flows x path)); later calls until the next reallocation are
  // O(1).
  double link_load_gbps(LinkId id) const;
  // The links a flow traverses (nullptr if the flow is gone). Valid until
  // the next call that starts, re-caps, cancels or completes a flow.
  const std::vector<LinkId>* flow_path(FlowId id) const;

 private:
  static constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

  struct Link {
    double capacity;  // bytes/ns
    sim::Time prop_delay;
  };
  // The live flows sharing one (path, cap) pair. A slot whose count drops
  // to 0 is freed and reused, keeping its path buffer.
  struct FlowClass {
    std::vector<LinkId> path;
    double cap = 0;                 // bytes/ns
    double rate = 0;                // bytes/ns, assigned by reallocate()
    std::uint64_t key = 0;          // class_key(path, cap)
    std::uint32_t flows = 0;        // live flows in the class; 0 = free
    std::uint32_t next = kNoClass;  // next live class with the same key
    bool fix_now = false;           // reallocate() scratch: fixed this round
    // Least bytes_remaining among the class's finite flows (infinity if
    // none); meaningful while min_remaining_valid_.
    double min_remaining = 0;
  };
  struct Flow {
    std::uint32_t cls;
    std::uint64_t bytes_total;      // 0 = unbounded
    double bytes_remaining;         // meaningful when bytes_total > 0
    double bytes_done = 0;
    std::function<void()> on_complete;
  };
  struct LinkState {
    double remaining;  // bytes/ns not yet handed to fixed flows
    int unfixed_flows;
  };

  static std::uint64_t class_key(const std::vector<LinkId>& path, double cap);
  // The class of (path, cap), created if absent, with one more flow in it.
  // `path` is moved from only when a class is created.
  std::uint32_t join_class(std::vector<LinkId>& path, double cap);
  // Drops one flow from class `c`, freeing it when it empties.
  // Otherwise the class's min_remaining goes stale.
  void leave_class(std::uint32_t c);

  // Advances every finite flow's remaining-byte count to now().
  void settle();
  // Recomputes every live class's min_remaining from its flows.
  void compute_min_remaining();
  // Recomputes the max-min allocation and re-arms the completion timer.
  void reallocate();
  void arm_completion_timer();
  void fire_completions();

  sim::EventLoop& loop_;
  std::vector<Link> links_;
  // Iterates in insertion order, and FlowIds are handed out increasing, so
  // every walk is in FlowId order. That order fixes the order of the
  // floating-point updates in capped rounds and of completion events,
  // which is what keeps every figure bit-exact and deterministic.
  sim::FlatMap<FlowId, Flow> flows_;
  std::vector<FlowClass> classes_;
  std::vector<std::uint32_t> free_classes_;
  // class_key -> the first live class with that key (chained by `next`).
  sim::FlatMap<std::uint64_t, std::uint32_t> class_by_key_;
  // Whether every live class's min_remaining is current. settle() and
  // fire_completions() recompute them as they walk the flows anyway, and
  // start_flow() and set_flow_cap() fold their flow in, so the completion
  // timer usually reads classes instead of walking every flow.
  bool min_remaining_valid_ = false;
  // reallocate() scratch, kept so a reallocation allocates nothing: the
  // per-link fill state, the unfixed classes, and the links still
  // carrying unfixed flows.
  std::vector<LinkState> link_state_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<LinkId> active_links_;
  std::vector<LinkId> path_scratch_;  // set_flow_cap's copy of a path
  // Per-link load in bytes/ns, summed lazily after each reallocation.
  mutable std::vector<double> link_load_;
  mutable bool link_load_stale_ = true;
  FlowId next_flow_id_ = 1;
  sim::Time last_settle_ = 0;
  std::uint64_t timer_generation_ = 0;
};

}  // namespace net
