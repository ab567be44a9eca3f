// Unit tests for the discrete-event loop, coroutine tasks, futures, RNG and
// stats accumulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"

using namespace sim::literals;

namespace {

TEST(TimeTest, LiteralsAndConversions) {
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_DOUBLE_EQ(sim::to_us(2500_ns), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_ms(1500_us), 1.5);
  EXPECT_EQ(sim::microseconds(2.5), 2500);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(sim::format_time(500_ns), "500 ns");
  EXPECT_EQ(sim::format_time(12500_ns), "12.500 us");
  EXPECT_EQ(sim::format_time(3100_us), "3.100 ms");
  EXPECT_EQ(sim::format_time(2_s), "2.000 s");
}

TEST(EventLoopTest, EventsFireInTimeOrder) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30_us, [&] { order.push_back(3); });
  loop.schedule_at(10_us, [&] { order.push_back(1); });
  loop.schedule_at(20_us, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30_us);
}

TEST(EventLoopTest, TiesBreakFifo) {
  sim::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, NestedSchedulingAdvancesTime) {
  sim::EventLoop loop;
  sim::Time inner_fired = -1;
  loop.schedule_at(10_us, [&] {
    loop.schedule_after(5_us, [&] { inner_fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner_fired, 15_us);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  sim::EventLoop loop;
  int fired = 0;
  loop.schedule_at(10_us, [&] { ++fired; });
  loop.schedule_at(20_us, [&] { ++fired; });
  loop.run_until(15_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15_us);
  loop.run();
  EXPECT_EQ(fired, 2);
}

// A loop destroyed with events still queued releases them unrun, whether
// they sit in the live heap, a wheel bucket or the overflow heap.
TEST(EventLoopTest, DestructorReleasesQueuedCallbacks) {
  auto token = std::make_shared<int>(7);
  bool ran_late = false;
  {
    sim::EventLoop loop;
    loop.schedule_at(10, [t = token] {});
    loop.schedule_at(20, [t = token, &ran_late] { ran_late = true; });
    loop.schedule_at(50_us, [t = token] {});
    loop.schedule_at(2_s, [t = token] {});
    loop.run_until(15);
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_FALSE(ran_late);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventLoopTest, PastEventsClampToNow) {
  sim::EventLoop loop;
  loop.run_until(100_us);
  sim::Time fired = -1;
  loop.schedule_at(10_us, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, 100_us);
}

sim::Task<int> add_after(sim::EventLoop& loop, sim::Time d, int a, int b) {
  co_await sim::delay(loop, d);
  co_return a + b;
}

sim::Task<void> driver(sim::EventLoop& loop, int* out) {
  const int x = co_await add_after(loop, 10_us, 1, 2);
  const int y = co_await add_after(loop, 5_us, x, 10);
  *out = y;
}

TEST(TaskTest, NestedTasksComputeAndAdvanceClock) {
  sim::EventLoop loop;
  int result = 0;
  loop.spawn(driver(loop, &result));
  loop.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(loop.now(), 15_us);
}

sim::Task<void> thrower(sim::EventLoop& loop) {
  co_await sim::delay(loop, 1_us);
  throw std::runtime_error("boom");
}

TEST(TaskTest, RootTaskExceptionPropagatesFromRun) {
  sim::EventLoop loop;
  loop.spawn(thrower(loop));
  EXPECT_THROW(loop.run(), std::runtime_error);
}

// A reserved sequence number holds its place in the same-timestamp order:
// the event fires after everything scheduled before the reservation and
// before everything scheduled after it, even though it is pushed last.
TEST(EventLoopTest, ReservedSeqKeepsItsPlaceAmongTies) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(5_us, [&] { order.push_back(1); });
  const std::uint64_t seq = loop.reserve_seqs(2);
  loop.schedule_at(5_us, [&] { order.push_back(4); });
  loop.schedule_at(3_us, [&] {
    // Scheduled from inside the run, after the reservation was made.
    loop.schedule_at(5_us, [&] { order.push_back(5); });
    loop.schedule_at_seq(5_us, seq + 1, [&] { order.push_back(3); });
    loop.schedule_at_seq(5_us, seq, [&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

sim::Task<void> record_then_sleep(sim::EventLoop& loop,
                                  std::vector<int>* order) {
  order->push_back(1);
  co_await sim::delay(loop, 1_us);
  order->push_back(3);
}

TEST(TaskTest, StartRunsInlineUntilFirstSuspension) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.start(record_then_sleep(loop, &order));
  order.push_back(2);  // start() returned at the co_await
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 1_us);
}

TEST(TaskTest, StartedRootExceptionPropagatesFromRun) {
  sim::EventLoop loop;
  loop.schedule_at(2_us, [&] { loop.start(thrower(loop)); });
  EXPECT_THROW(loop.run(), std::runtime_error);
}

sim::Task<int> rethrow_child(sim::EventLoop& loop) {
  co_await sim::delay(loop, 1_us);
  throw std::runtime_error("child failed");
}

sim::Task<void> catching_parent(sim::EventLoop& loop, bool* caught) {
  try {
    (void)co_await rethrow_child(loop);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(TaskTest, ChildExceptionCatchableInParent) {
  sim::EventLoop loop;
  bool caught = false;
  loop.spawn(catching_parent(loop, &caught));
  loop.run();
  EXPECT_TRUE(caught);
}

sim::Task<void> producer(sim::EventLoop& loop, sim::Promise<int> p) {
  co_await sim::delay(loop, 20_us);
  p.set_value(99);
}

sim::Task<void> consumer(sim::Future<int> f, int* out, sim::EventLoop& loop,
                         sim::Time* when) {
  *out = co_await f;
  *when = loop.now();
}

TEST(FutureTest, RendezvousAcrossTasks) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  int out = 0;
  sim::Time when = -1;
  loop.spawn(consumer(p.get_future(), &out, loop, &when));
  loop.spawn(producer(loop, std::move(p)));
  loop.run();
  EXPECT_EQ(out, 99);
  EXPECT_EQ(when, 20_us);
}

TEST(FutureTest, AwaitAlreadyReadyFutureDoesNotSuspend) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  p.set_value(7);
  int out = 0;
  sim::Time when = -1;
  loop.spawn(consumer(p.get_future(), &out, loop, &when));
  loop.run();
  EXPECT_EQ(out, 7);
  EXPECT_EQ(when, 0);
}

TEST(FutureTest, MultipleAwaitersAllWake) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  int a = 0, b = 0;
  sim::Time ta, tb;
  loop.spawn(consumer(p.get_future(), &a, loop, &ta));
  loop.spawn(consumer(p.get_future(), &b, loop, &tb));
  loop.spawn(producer(loop, p));
  loop.run();
  EXPECT_EQ(a, 99);
  EXPECT_EQ(b, 99);
}

TEST(RngTest, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  sim::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(RngTest, NextRangeInclusive) {
  sim::Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  sim::Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  sim::Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(StatsTest, BasicMoments) {
  sim::Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(StatsTest, PercentileInterpolation) {
  sim::Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(StatsTest, ClearResets) {
  sim::Stats s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.summary(), "n=0");
}

}  // namespace
