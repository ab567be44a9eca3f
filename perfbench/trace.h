// Outside-in span recording for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer's public API. Two kinds:
//   * sync spans nest on the wall clock (a stack): add_instance, the app
//     entry points, EventLoop::run_until slices, data-path verbs, buffer
//     I/O. Their self time is duration minus the time of their children.
//   * async spans belong to one simulated request (a connection or a QP)
//     and cover a coroutine that suspends across simulated time: control
//     verbs and ControlBatch::commit. Their parent is given explicitly.
// Every span keeps wall and simulated start/end, its parent and a request
// ID. Spans stay in memory and are written once, as Chrome trace-event
// JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "verbs/api.h"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t wall_start = 0;
    std::int64_t wall_end = 0;
    sim::Time sim_start = 0;
    sim::Time sim_end = 0;
    int parent = -1;
    std::uint64_t req = 0;
    int lane = 0;  // 0: the sync stack; >0: an async request lane
    std::uint64_t bytes = 0;
  };

  // The loop whose clock stamps simulated times (null: stamps 0).
  void set_loop(sim::EventLoop* loop) { loop_ = loop; }

  // Sync span: parent is the innermost open sync span.
  int begin(const char* name, std::uint64_t req = 0);
  // Async span on `lane` (> 0) with an explicit parent (-1: none).
  int begin_async(const char* name, std::uint64_t req, int lane, int parent);
  void end(int id, std::uint64_t bytes = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Total wall ns and call count per span name.
  struct Total {
    std::int64_t wall_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, Total> totals() const;

  // Writes the first `max_spans` spans as Chrome trace-event JSON (opens
  // in Perfetto). Metrics use every span; the cap bounds the file size.
  bool write_chrome_json(const std::string& path,
                         std::size_t max_spans) const;

 private:
  sim::Time sim_now() const { return loop_ ? loop_->now() : 0; }

  sim::EventLoop* loop_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII sync span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint64_t req = 0)
      : t_(t), id_(t ? t->begin(name, req) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->end(id_, bytes_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void add_bytes(std::uint64_t n) { bytes_ += n; }

 private:
  Tracer* t_;
  int id_;
  std::uint64_t bytes_ = 0;
};

// verbs::Context decorator: forwards every verb to `inner` unchanged and
// records a span around it. Control verbs and batch commits become async
// spans on `lane` under `parent`, tagged with request `req`; data-path
// verbs and buffer I/O become sync spans.
std::unique_ptr<verbs::Context> make_tracing_context(verbs::Context& inner,
                                                     Tracer& tracer,
                                                     std::uint64_t req,
                                                     int lane, int parent);

}  // namespace perfbench
