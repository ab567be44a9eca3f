// Deterministic discrete-event loop.
//
// The loop owns simulated time. Events fire in (time, seq) order, where seq
// is insertion order unless reserved ahead (reserve_seqs); ties are broken
// FIFO so runs are bit-for-bit reproducible. Root coroutines
// (sim::Task<void>) may be attached with spawn(); their lifetime is owned by
// the loop and exceptions escaping a root task are rethrown from run().
//
// Hot-path machinery (DESIGN.md §13): events are arena-allocated nodes
// (sim::NodePool) ordered by a bucketed timer wheel (sim::ReadyQueue), and
// callbacks are small-buffer-optimized sim::Callback — no malloc and no
// std::function copy per scheduled event. The (time, seq) discipline, and
// therefore every event trace and golden number, is unchanged from the
// priority-queue implementation this replaced.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/ownership.h"
#include "sim/ready_queue.h"
#include "sim/time.h"

namespace sim {

template <typename T>
class Task;

class EventLoop {
 public:
  using Callback = sim::Callback;

  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  Time now() const { return now_; }

  // Schedules `cb` at absolute time `t` (clamped to now()).
  void schedule_at(Time t, Callback cb);
  // Schedules `cb` `delay` nanoseconds from now (negative delays clamp to 0).
  void schedule_after(Time delay, Callback cb);

  // Reserves `n` consecutive sequence numbers and returns the first. An
  // event later scheduled with schedule_at_seq(t, first + i, cb) ties at
  // `t` as if it had been scheduled at the moment of the reservation:
  // after every event scheduled before reserve_seqs(), before every event
  // scheduled after it. This lets a caller hold a long pre-drawn schedule
  // outside the queue and feed it in one event at a time, with the same
  // same-timestamp order as scheduling it all up front.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = seq_;
    seq_ += n;
    return first;
  }
  // Schedules `cb` at absolute time `t` (clamped to now()) with a sequence
  // number from an earlier reserve_seqs(). Each reserved number must be
  // used at most once.
  void schedule_at_seq(Time t, std::uint64_t seq, Callback cb);

  // Runs until the event queue drains. Returns the final simulated time.
  Time run();

  // Runs all events with timestamp <= deadline, then sets now() = deadline.
  void run_until(Time deadline);

  // Runs all events with timestamp strictly < end, then sets now() = end.
  // The partition engine's window primitive: events at exactly `end` belong
  // to the next window (or to a barrier), so cross-partition deliveries at
  // `end` scheduled after this returns still land in the future.
  void run_before(Time end);

  // Timestamp of the next pending event, or ReadyQueue::kMaxTime if none.
  Time next_event_time() { return queue_.next_time(); }

  // Attaches a root coroutine. It starts running at the current time (the
  // first resume is scheduled as an event, not executed inline).
  void spawn(Task<void> task);

  // Attaches a root coroutine and runs it inline, inside the caller's
  // event, up to its first suspension. Like spawn(), the loop owns the
  // frame and an exception escaping the task is rethrown from run().
  void start(Task<void> task);

  // Called by the final awaiter of a root task (see detail::PromiseBase):
  // records the frame for the next reap cycle so reaping is O(#finished),
  // not a scan of every live root.
  void note_root_finished(std::coroutine_handle<> h) {
    finished_roots_.push_back(h.address());
  }

  // Number of events executed so far (useful for tests / budget checks).
  std::uint64_t events_executed() const { return executed_; }

  // Timestamp of the last event actually executed. Unlike now(), this is
  // not advanced by run_until()/run_before() deadlines, so a partitioned
  // run can report when the simulation *ended* rather than where the last
  // window boundary happened to fall.
  Time last_event_time() const { return last_event_time_; }

  bool empty() const { return queue_.empty(); }

  // ------------------------------------------------------------------
  // Invariant auditing (src/check). The hook fires between events, every
  // `every_n_events` executed events. Cost when unset: one branch per
  // event. An exception thrown by the hook propagates out of run().
  // ------------------------------------------------------------------
  void set_audit_hook(std::uint64_t every_n_events, Callback hook) {
    audit_every_ = every_n_events == 0 ? 1 : every_n_events;
    audit_hook_ = std::move(hook);
  }
  void clear_audit_hook() { audit_hook_ = nullptr; }

  // ------------------------------------------------------------------
  // Event-trace hash (determinism auditing). When enabled, every executed
  // event mixes (time, seq) into an FNV-1a accumulator, and instrumented
  // components mix in content markers via trace(). Two runs of the same
  // (config, seed) must produce bit-identical hashes; a divergence means
  // something fed nondeterministic state (e.g. unordered-container
  // iteration order) into the event stream. Cost when disabled: one
  // branch per call.
  // ------------------------------------------------------------------
  // ------------------------------------------------------------------
  // Ownership auditing (src/check). When a probe is installed it observes
  // every loop mutation — each schedule_at() and each executed event — so
  // the partition-ownership auditor can verify the calling thread owns
  // this loop's partition window. Probes observe only; they never
  // schedule. Cost when unset: one branch per mutation.
  // ------------------------------------------------------------------
  void set_access_probe(LoopAccessProbe* probe) { probe_ = probe; }

  void enable_trace() { trace_enabled_ = true; }
  bool trace_enabled() const { return trace_enabled_; }
  void trace(std::uint64_t v) {
    if (trace_enabled_) mix_trace(v);
  }
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  void push(Time t, std::uint64_t seq, Callback cb);
  // Registers `task`'s frame as a root owned by this loop.
  std::coroutine_handle<> adopt_root(Task<void> task);
  // Pops and runs the next event. Precondition: !queue_.empty().
  void step();
  void reap_finished_tasks();

  void mix_trace(std::uint64_t v) {
    // FNV-1a over the 8 value bytes, folded in one multiply per word.
    trace_hash_ = (trace_hash_ ^ v) * 0x100000001b3ull;
  }

  ReadyQueue queue_;
  NodePool<EventNode> pool_;
  Time now_ = 0;
  Time last_event_time_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;

  std::uint64_t audit_every_ = 0;
  Callback audit_hook_;
  LoopAccessProbe* probe_ = nullptr;

  bool trace_enabled_ = false;
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis

  // Live root-coroutine frames, as raw handle addresses (the promise type
  // is only nameable in the .cc, which includes task.h). Each frame's
  // promise stores its index here; reap swap-erases and fixes indices up.
  std::vector<void*> roots_;
  std::vector<void*> finished_roots_;
};

}  // namespace sim
