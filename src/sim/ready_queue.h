// Cache-friendly ready queue for the event loop (DESIGN.md §13).
//
// Replaces std::priority_queue<Event> (a binary heap of ~72-byte elements
// whose std::function had to be *copied* out of a const top()). The queue
// orders arena-allocated EventNode pointers by (time, seq) — exactly the
// discipline the old heap enforced, so event traces are bit-identical —
// but organizes them as a two-level timer wheel:
//
//   ring      kBuckets buckets of kBucketWidth ns each (~1 ms horizon).
//             A push inside the horizon is an O(1) vector append keyed by
//             (t >> kBucketShift); the hot delays (cache hits 2 us, batch
//             windows 5 us, service budgets 1 us, RTTs 100 us) all land
//             here. A bucket becomes the *current* bucket lazily: its
//             events are heapified into `cur_` (24-byte entries, binary
//             heap) only when the cursor reaches it.
//   overflow  a (time, seq) binary heap for events beyond the horizon
//             (wave schedules, outage windows). When the ring drains, the
//             queue rebases: the horizon jumps to the earliest overflow
//             event and everything now inside it is redistributed into
//             buckets.
//
// Invariants that keep popping in strict (time, seq) order:
//   * every overflow event is >= base_ + horizon, so the ring always holds
//     the global minimum while it is nonempty;
//   * pushes at or before the current bucket's window join `cur_` directly
//     (schedule_at clamps t >= now, so nothing lands before the cursor).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace sim {

struct EventNode {
  Time t = 0;
  std::uint64_t seq = 0;
  Callback cb;
  EventNode* pool_next = nullptr;  // NodePool free-list linkage
};

class ReadyQueue {
 public:
  static constexpr int kBucketShift = 12;  // 4096 ns per bucket
  static constexpr std::size_t kBuckets = 256;
  static constexpr Time kBucketWidth = Time{1} << kBucketShift;
  static constexpr Time kHorizon = kBucketWidth * static_cast<Time>(kBuckets);

  ReadyQueue() : ring_(kBuckets) {}
  ReadyQueue(const ReadyQueue&) = delete;
  ReadyQueue& operator=(const ReadyQueue&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(EventNode* n) {
    ++size_;
    const Time t = n->t;
    if (t >= base_ + kHorizon) {
      heap_push(overflow_, Entry{t, n->seq, n});
      return;
    }
    if (t < base_) {
      // run_until() can advance now_ into a window the wheel has already
      // rebased past; such pushes are earlier than every parked event and
      // simply compete in the live heap.
      heap_push(cur_, Entry{t, n->seq, n});
      return;
    }
    const std::size_t idx =
        static_cast<std::size_t>((t - base_) >> kBucketShift);
    if (idx <= cursor_) {
      // The current bucket window (or, after run_until advanced now_ past
      // it, an already-drained window): compete in the live heap.
      heap_push(cur_, Entry{t, n->seq, n});
      return;
    }
    ring_[idx].push_back(n);
    ++ring_count_;
  }

  // Smallest (time, seq) event time, or kMaxTime when empty. Settles the
  // wheel (advances the cursor / rebases) but never reorders.
  Time next_time() {
    if (!settle()) return kMaxTime;
    return cur_.front().t;
  }

  // Pops the (time, seq)-minimum event. Precondition: !empty().
  EventNode* pop() {
    const bool ok = settle();
    assert(ok);
    (void)ok;
    EventNode* n = cur_.front().node;
    heap_pop(cur_);
    --size_;
    return n;
  }

  // Empties the queue without running anything, handing every node to
  // `release`. Nodes are collected first, so `release` may push new events;
  // they stay queued for the caller to drain in turn.
  template <typename F>
  void drain(F&& release) {
    std::vector<EventNode*> nodes;
    nodes.reserve(size_);
    for (std::vector<EventNode*>& b : ring_) {
      nodes.insert(nodes.end(), b.begin(), b.end());
      b.clear();
    }
    for (const Entry& e : cur_) nodes.push_back(e.node);
    for (const Entry& e : overflow_) nodes.push_back(e.node);
    cur_.clear();
    overflow_.clear();
    ring_count_ = 0;
    size_ = 0;
    for (EventNode* n : nodes) release(n);
  }

  static constexpr Time kMaxTime =
      std::numeric_limits<Time>::max();  // sentinel for "queue empty"

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    EventNode* node;

    bool less_than(const Entry& o) const {
      if (t != o.t) return t < o.t;
      return seq < o.seq;
    }
  };

  // Ensures cur_ holds the global minimum. Returns false if empty.
  bool settle() {
    while (cur_.empty()) {
      if (ring_count_ > 0) {
        // Advance to the next nonempty bucket and make it current.
        std::size_t idx = cursor_ + 1;
        while (ring_[idx].empty()) ++idx;  // ring_count_ > 0 guarantees hit
        cursor_ = idx;
        adopt_bucket(idx);
        continue;
      }
      if (overflow_.empty()) return false;
      rebase();
    }
    return true;
  }

  void adopt_bucket(std::size_t idx) {
    std::vector<EventNode*>& b = ring_[idx];
    ring_count_ -= b.size();
    cur_.reserve(b.size());
    for (EventNode* n : b) cur_.push_back(Entry{n->t, n->seq, n});
    b.clear();
    // Bottom-up heapify: O(n) vs n heap pushes.
    for (std::size_t i = cur_.size() / 2; i-- > 0;) sift_down(cur_, i);
  }

  // Ring fully drained: jump the horizon to the earliest overflow event
  // and pull everything inside the new horizon back into buckets.
  void rebase() {
    assert(ring_count_ == 0 && cur_.empty() && !overflow_.empty());
    const Time min_t = overflow_.front().t;
    base_ = (min_t >> kBucketShift) << kBucketShift;
    cursor_ = 0;
    const Time limit = base_ + kHorizon;
    while (!overflow_.empty() && overflow_.front().t < limit) {
      Entry e = overflow_.front();
      heap_pop(overflow_);
      const std::size_t idx =
          static_cast<std::size_t>((e.t - base_) >> kBucketShift);
      if (idx == 0) {
        cur_.push_back(e);  // heapified below
      } else {
        ring_[idx].push_back(e.node);
        ++ring_count_;
      }
    }
    for (std::size_t i = cur_.size() / 2; i-- > 0;) sift_down(cur_, i);
  }

  // ---- small binary-heap helpers over vectors of Entry ----
  static void sift_up(std::vector<Entry>& h, std::size_t i) {
    Entry e = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.less_than(h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }
  static void sift_down(std::vector<Entry>& h, std::size_t i) {
    const std::size_t n = h.size();
    Entry e = h[i];
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && h[child + 1].less_than(h[child])) ++child;
      if (!h[child].less_than(e)) break;
      h[i] = h[child];
      i = child;
    }
    h[i] = e;
  }
  static void heap_push(std::vector<Entry>& h, Entry e) {
    h.push_back(e);
    sift_up(h, h.size() - 1);
  }
  static void heap_pop(std::vector<Entry>& h) {
    h.front() = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(h, 0);
  }

  std::vector<std::vector<EventNode*>> ring_;
  std::vector<Entry> cur_;       // current bucket, (t, seq) min-heap
  std::vector<Entry> overflow_;  // beyond the horizon, (t, seq) min-heap
  Time base_ = 0;                // ring start (bucket-aligned)
  std::size_t cursor_ = 0;       // current bucket index
  std::size_t ring_count_ = 0;   // events parked in ring_ (excluding cur_)
  std::size_t size_ = 0;
};

}  // namespace sim
