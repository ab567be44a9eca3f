#include "sim/partition.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/arena.h"
#include "sim/ready_queue.h"

namespace sim {

// Persistent worker pool. One round = one window. Partition→worker
// assignment is STATIC — worker w owns every partition p with
// p % nworkers == w (the coordinator thread doubles as worker 0) — for two
// reasons: it keeps a partition's coroutine frames on one thread for the
// whole run, so the arena's thread-local free lists actually hit (dynamic
// work-stealing sends every freed frame to a different thread's list and
// degrades allocation to the mutex-guarded global slab path), and it
// avoids per-round atomic work-claiming. Determinism does not depend on
// the assignment at all — only on each partition's own event order.
struct PartitionGroup::Pool {
  Pool(std::vector<std::unique_ptr<EventLoop>>& loops, std::size_t workers,
       WindowObserver* const* observer)
      : loops_(loops),
        nworkers_(workers),
        observer_(observer),
        errors_(loops.size()) {
    threads_.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Runs one window across all partitions; called from the coordinator
  // thread, which works slice 0. Rethrows the lowest-index partition
  // error, if any.
  void run_round(Time end) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      end_ = end;
      remaining_.store(nworkers_, std::memory_order_relaxed);
      ++round_;
    }
    start_cv_.notify_all();
    drain(0);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [this] {
        return remaining_.load(std::memory_order_acquire) == 0;
      });
    }
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      if (errors_[i]) {
        std::exception_ptr e = errors_[i];
        errors_[i] = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

 private:
  void worker_main(std::size_t w) {
    std::uint64_t seen_round = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk,
                       [&] { return shutdown_ || round_ != seen_round; });
        if (shutdown_) break;
        seen_round = round_;
      }
      drain(w);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(mu_);
        done_cv_.notify_all();
      }
    }
    // This thread's free coroutine frames would die with it; hand them to
    // the next thread that needs frames.
    detail::release_thread_frames();
  }

  void drain(std::size_t w) {
    // The observer pointer is published by the round-start handshake
    // (written between windows, read after observing the new round), so a
    // plain load here is race-free.
    WindowObserver* obs = *observer_;
    for (std::size_t i = w; i < loops_.size(); i += nworkers_) {
      if (obs) obs->on_window_begin(i);
      try {
        loops_[i]->run_before(end_);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      // end fires even when the window threw: the partition's window is
      // over either way, and a stuck-open window would poison the
      // observer's open-window accounting.
      if (obs) obs->on_window_end(i);
    }
  }

  std::vector<std::unique_ptr<EventLoop>>& loops_;
  std::size_t nworkers_;
  WindowObserver* const* observer_;  // points at the group's member
  std::vector<std::exception_ptr> errors_;  // slot i owned by its worker
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;
  Time end_ = 0;
  std::atomic<std::size_t> remaining_{0};
  bool shutdown_ = false;
};

PartitionGroup::PartitionGroup(std::size_t partitions, std::size_t threads) {
  if (partitions == 0) partitions = 1;
  loops_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  if (threads == 0) threads = 1;
  if (threads > partitions) threads = partitions;
  threads_ = threads;
  if (threads_ > 1) {
    // The coordinator thread doubles as worker 0; Pool spawns threads-1.
    pool_ = std::make_unique<Pool>(loops_, threads_, &observer_);
  }
}

PartitionGroup::~PartitionGroup() = default;

void PartitionGroup::run_window_before(Time end) {
  if (pool_) {
    pool_->run_round(end);
    return;
  }
  // Single-threaded: plain loop, no synchronization at all. Same event
  // order as the pooled path by construction, including the observer
  // bracketing (window end fires even when the window threw).
  std::exception_ptr first;
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    if (observer_) observer_->on_window_begin(i);
    try {
      loops_[i]->run_before(end);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
    if (observer_) observer_->on_window_end(i);
  }
  if (first) std::rethrow_exception(first);
}

Time PartitionGroup::min_next_event_time() {
  Time t = ReadyQueue::kMaxTime;
  for (auto& loop : loops_) {
    const Time n = loop->next_event_time();
    if (n < t) t = n;
  }
  return t;
}

bool PartitionGroup::all_empty() const {
  for (const auto& loop : loops_) {
    if (!loop->empty()) return false;
  }
  return true;
}

void PartitionGroup::enable_trace() {
  for (auto& loop : loops_) loop->enable_trace();
}

std::uint64_t PartitionGroup::total_events() const {
  std::uint64_t n = 0;
  for (const auto& loop : loops_) n += loop->events_executed();
  return n;
}

Time PartitionGroup::last_event_time() const {
  Time t = 0;
  for (const auto& loop : loops_) {
    if (loop->last_event_time() > t) t = loop->last_event_time();
  }
  return t;
}

std::uint64_t PartitionGroup::combined_trace_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& loop : loops_) {
    h = (h ^ loop->trace_hash()) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace sim
