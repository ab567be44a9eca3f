// Differential test: net::FluidNet against a frozen copy of the original
// map-based progressive-filling solver.
//
// The figure benches (Fig. 10/11/12/17, the fabric ablations) print numbers
// that are a pure function of the fluid model's floating-point arithmetic.
// Any rewrite of the solver's data structures must therefore reproduce the
// reference bit for bit: same rates, same byte counts, same completion
// times, same link loads. Every comparison below is `==` on doubles.
//
// RefFluid is the solver as it stood when every figure in EXPERIMENTS.md
// was recorded: flows in a std::map ordered by FlowId, a std::map of
// unfixed flows rebuilt on every reallocation, and link loads summed over
// all flows on demand. It is test-local on purpose and must not be
// "optimized" — it is the definition the production solver is held to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fluid.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

using namespace sim::literals;

namespace {

using net::FlowId;
using net::LinkId;

class RefFluid {
 public:
  explicit RefFluid(sim::EventLoop& loop) : loop_(loop) {}

  LinkId add_link(double gbps, sim::Time prop_delay) {
    links_.push_back(Link{net::gbps_to_bytes_per_ns(gbps), prop_delay});
    return static_cast<LinkId>(links_.size() - 1);
  }

  void set_link_capacity(LinkId id, double gbps) {
    settle();
    links_.at(id).capacity = net::gbps_to_bytes_per_ns(gbps);
    reallocate();
  }

  FlowId start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                    double cap_gbps, std::function<void()> on_complete) {
    settle();
    Flow f;
    f.path = std::move(path);
    f.bytes_total = bytes;
    f.bytes_remaining = static_cast<double>(bytes);
    f.cap = cap_gbps == net::kUncapped ? net::kUncapped
                                       : net::gbps_to_bytes_per_ns(cap_gbps);
    f.on_complete = std::move(on_complete);
    const FlowId id = next_flow_id_++;
    flows_.emplace(id, std::move(f));
    reallocate();
    return id;
  }

  void set_flow_cap(FlowId id, double cap_gbps) {
    auto it = flows_.find(id);
    if (it == flows_.end()) throw std::out_of_range("set_flow_cap");
    settle();
    it->second.cap = cap_gbps == net::kUncapped
                         ? net::kUncapped
                         : net::gbps_to_bytes_per_ns(cap_gbps);
    reallocate();
  }

  void cancel_flow(FlowId id) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    settle();
    flows_.erase(it);
    reallocate();
  }

  bool has_flow(FlowId id) const { return flows_.count(id) != 0; }
  std::size_t active_flows() const { return flows_.size(); }

  double current_rate_gbps(FlowId id) const {
    auto it = flows_.find(id);
    if (it == flows_.end()) return 0.0;
    return net::bytes_per_ns_to_gbps(it->second.rate);
  }

  std::uint64_t bytes_sent(FlowId id) {
    settle();
    auto it = flows_.find(id);
    if (it == flows_.end()) return 0;
    return static_cast<std::uint64_t>(it->second.bytes_done);
  }

  double link_load_gbps(LinkId id) const {
    double load = 0;
    for (const auto& [fid, f] : flows_) {
      for (LinkId l : f.path) {
        if (l == id) {
          load += f.rate;
          break;
        }
      }
    }
    return net::bytes_per_ns_to_gbps(load);
  }

 private:
  struct Link {
    double capacity;
    sim::Time prop_delay;
  };
  struct Flow {
    std::vector<LinkId> path;
    std::uint64_t bytes_total;
    double bytes_remaining;
    double bytes_done = 0;
    double cap;
    double rate = 0;
    std::function<void()> on_complete;
  };

  sim::Time path_propagation(const std::vector<LinkId>& path) const {
    sim::Time t = 0;
    for (LinkId l : path) t += links_.at(l).prop_delay;
    return t;
  }

  void settle() {
    const sim::Time now = loop_.now();
    const double dt = static_cast<double>(now - last_settle_);
    if (dt > 0) {
      for (auto& [id, f] : flows_) {
        const double sent = f.rate * dt;
        f.bytes_done += sent;
        if (f.bytes_total > 0) {
          f.bytes_remaining = std::max(0.0, f.bytes_remaining - sent);
        }
      }
    }
    last_settle_ = now;
  }

  void reallocate() {
    struct LinkState {
      double remaining;
      int unfixed_flows = 0;
    };
    std::vector<LinkState> ls(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      ls[i].remaining = links_[i].capacity;
    }
    std::map<FlowId, Flow*> unfixed;
    for (auto& [id, f] : flows_) {
      f.rate = 0;
      unfixed.emplace(id, &f);
      for (LinkId l : f.path) ++ls[l].unfixed_flows;
    }
    while (!unfixed.empty()) {
      double bottleneck_share = std::numeric_limits<double>::infinity();
      for (const auto& s : ls) {
        if (s.unfixed_flows > 0) {
          bottleneck_share =
              std::min(bottleneck_share, s.remaining / s.unfixed_flows);
        }
      }
      std::vector<FlowId> capped;
      for (auto& [id, f] : unfixed) {
        if (f->cap <= bottleneck_share) capped.push_back(id);
      }
      if (!capped.empty()) {
        for (FlowId id : capped) {
          Flow* f = unfixed[id];
          f->rate = f->cap;
          for (LinkId l : f->path) {
            ls[l].remaining = std::max(0.0, ls[l].remaining - f->rate);
            --ls[l].unfixed_flows;
          }
          unfixed.erase(id);
        }
        continue;
      }
      if (!std::isfinite(bottleneck_share)) {
        for (auto& [id, f] : unfixed) {
          if (f->path.empty()) {
            throw std::logic_error("flow with empty path and no cap");
          }
        }
        break;
      }
      std::vector<FlowId> at_bottleneck;
      for (auto& [id, f] : unfixed) {
        for (LinkId l : f->path) {
          if (ls[l].unfixed_flows > 0 &&
              ls[l].remaining / ls[l].unfixed_flows <=
                  bottleneck_share * (1 + 1e-12)) {
            at_bottleneck.push_back(id);
            break;
          }
        }
      }
      assert(!at_bottleneck.empty());
      for (FlowId id : at_bottleneck) {
        Flow* f = unfixed[id];
        f->rate = bottleneck_share;
        for (LinkId l : f->path) {
          ls[l].remaining = std::max(0.0, ls[l].remaining - f->rate);
          --ls[l].unfixed_flows;
        }
        unfixed.erase(id);
      }
    }
    arm_completion_timer();
  }

  void arm_completion_timer() {
    ++timer_generation_;
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& [id, f] : flows_) {
      if (f.bytes_total == 0) continue;
      if (f.bytes_remaining <= kByteEpsilon) {
        earliest = 0;
        break;
      }
      if (f.rate > 0) {
        earliest = std::min(earliest, f.bytes_remaining / f.rate);
      }
    }
    if (!std::isfinite(earliest)) return;
    const auto gen = timer_generation_;
    const sim::Time dt = static_cast<sim::Time>(std::ceil(earliest));
    loop_.schedule_after(dt, [this, gen] {
      if (gen != timer_generation_) return;
      fire_completions();
    });
  }

  void fire_completions() {
    settle();
    std::vector<std::pair<std::function<void()>, sim::Time>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      Flow& f = it->second;
      if (f.bytes_total > 0 && f.bytes_remaining <= kByteEpsilon) {
        done.emplace_back(std::move(f.on_complete), path_propagation(f.path));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [cb, prop] : done) {
      if (cb) loop_.schedule_after(prop, std::move(cb));
    }
    reallocate();
  }

  static constexpr double kByteEpsilon = 1e-6;

  sim::EventLoop& loop_;
  std::vector<Link> links_;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;
  sim::Time last_settle_ = 0;
  std::uint64_t timer_generation_ = 0;
};

// ---- seeded scenarios ----------------------------------------------------

enum class OpKind { kStart, kSetCap, kCancel, kSetLinkCap, kProbe };

struct Op {
  sim::Time at = 0;
  OpKind kind = OpKind::kProbe;
  std::vector<LinkId> path;   // kStart
  std::uint64_t bytes = 0;    // kStart (0 = unbounded)
  double gbps = 0;            // kStart cap, kSetCap, kSetLinkCap
  std::uint64_t target = 0;   // flow index (kSetCap/kCancel) or link
};

struct Scenario {
  std::vector<double> link_gbps;
  std::vector<sim::Time> link_delay;
  std::vector<Op> ops;  // sorted by time
};

// A random cap draw: uncapped, a finite rate, or 0 (a blocked flow, as the
// Fig. 17 security kill programs it).
double draw_cap(sim::Rng& rng) {
  const std::uint64_t k = rng.next_below(10);
  if (k < 5) return net::kUncapped;
  if (k == 5) return 0.0;
  return 0.5 + static_cast<double>(rng.next_below(400)) / 10.0;
}

Scenario make_scenario(std::uint64_t seed) {
  sim::Rng rng(seed);
  Scenario s;
  const std::size_t n_links = 2 + rng.next_below(9);
  for (std::size_t i = 0; i < n_links; ++i) {
    // A few fixed speeds make exact ties between links likely.
    static constexpr double kSpeeds[] = {10.0, 25.0, 40.0, 40.0, 100.0, 7.3};
    s.link_gbps.push_back(kSpeeds[rng.next_below(6)]);
    s.link_delay.push_back(static_cast<sim::Time>(rng.next_below(3)) * 500);
  }
  // A handful of shared path shapes (like leaf-spine paths through the
  // same uplinks), plus fully random paths.
  std::vector<std::vector<LinkId>> shapes;
  for (int i = 0; i < 4; ++i) {
    std::vector<LinkId> p;
    const std::size_t len = 1 + rng.next_below(4);
    for (std::size_t j = 0; j < len; ++j) {
      const auto l = static_cast<LinkId>(rng.next_below(n_links));
      if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
    }
    shapes.push_back(p);
  }

  const int n_ops = 30 + static_cast<int>(rng.next_below(50));
  sim::Time t = 0;
  std::uint64_t started = 0;
  for (int i = 0; i < n_ops; ++i) {
    // Several ops at the same instant are common (a batch of posts).
    if (!rng.next_bool(0.3)) t += static_cast<sim::Time>(rng.next_below(40'000));
    Op op;
    op.at = t;
    const std::uint64_t k = started == 0 ? 0 : rng.next_below(100);
    if (k < 50) {
      op.kind = OpKind::kStart;
      if (rng.next_bool(0.6)) {
        op.path = shapes[rng.next_below(shapes.size())];
      } else {
        const std::size_t len = 1 + rng.next_below(3);
        for (std::size_t j = 0; j < len; ++j) {
          const auto l = static_cast<LinkId>(rng.next_below(n_links));
          if (std::find(op.path.begin(), op.path.end(), l) == op.path.end()) {
            op.path.push_back(l);
          }
        }
      }
      op.bytes = rng.next_bool(0.2) ? 0 : 1 + rng.next_below(400'000);
      op.gbps = draw_cap(rng);
      ++started;
    } else if (k < 68) {
      op.kind = OpKind::kSetCap;
      op.target = rng.next_below(started);
      op.gbps = draw_cap(rng);
    } else if (k < 80) {
      op.kind = OpKind::kCancel;
      op.target = rng.next_below(started);
    } else if (k < 90) {
      op.kind = OpKind::kSetLinkCap;
      op.target = rng.next_below(n_links);
      // Includes outages (0) and restores.
      static constexpr double kCaps[] = {0.0, 5.0, 10.0, 40.0, 100.0, 33.3};
      op.gbps = kCaps[rng.next_below(6)];
    } else {
      op.kind = OpKind::kProbe;
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

// Everything a model exposes, recorded in a fixed order so two logs compare
// element-wise. Doubles are stored raw: the comparison is bit-exact.
struct Observation {
  std::string what;
  sim::Time at;
  double value;
};

template <typename Model>
std::vector<Observation> run_scenario(const Scenario& s) {
  sim::EventLoop loop;
  Model m(loop);
  std::vector<LinkId> links;
  for (std::size_t i = 0; i < s.link_gbps.size(); ++i) {
    links.push_back(m.add_link(s.link_gbps[i], s.link_delay[i]));
  }
  std::vector<FlowId> ids;  // by start order
  std::vector<Observation> log;

  auto snapshot = [&](const char* tag) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!m.has_flow(ids[i])) continue;
      log.push_back({std::string(tag) + " rate f" + std::to_string(i),
                     loop.now(), m.current_rate_gbps(ids[i])});
      log.push_back({std::string(tag) + " bytes f" + std::to_string(i),
                     loop.now(), static_cast<double>(m.bytes_sent(ids[i]))});
    }
    for (LinkId l : links) {
      log.push_back({std::string(tag) + " load l" + std::to_string(l),
                     loop.now(), m.link_load_gbps(l)});
    }
    log.push_back({std::string(tag) + " active", loop.now(),
                   static_cast<double>(m.active_flows())});
  };

  for (const Op& op : s.ops) {
    loop.schedule_at(op.at, [&, op] {
      switch (op.kind) {
        case OpKind::kStart: {
          const std::size_t idx = ids.size();
          ids.push_back(m.start_flow(op.path, op.bytes, op.gbps, [&, idx] {
            log.push_back({"done f" + std::to_string(idx), loop.now(), 0.0});
            snapshot("on-done");
          }));
          break;
        }
        case OpKind::kSetCap:
          if (m.has_flow(ids[op.target])) m.set_flow_cap(ids[op.target], op.gbps);
          break;
        case OpKind::kCancel:
          m.cancel_flow(ids[op.target]);
          break;
        case OpKind::kSetLinkCap:
          m.set_link_capacity(links[op.target], op.gbps);
          break;
        case OpKind::kProbe:
          break;
      }
      snapshot("after-op");
    });
  }
  // Drain: the last flows either finish or stay blocked; stop well after
  // the final op so blocked/unbounded flows do not run forever.
  const sim::Time horizon = (s.ops.empty() ? 0 : s.ops.back().at) + 50_ms;
  loop.run_until(horizon);
  snapshot("end");
  for (std::size_t i = 0; i < ids.size(); ++i) m.cancel_flow(ids[i]);
  loop.run();
  log.push_back({"end time", loop.now(), 0.0});
  return log;
}

void expect_bit_identical(const std::vector<Observation>& want,
                          const std::vector<Observation>& got) {
  ASSERT_EQ(want.size(), got.size()) << "observation streams diverged";
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].what, got[i].what) << "at observation " << i;
    ASSERT_EQ(want[i].at, got[i].at) << want[i].what;
    // == on doubles (not EXPECT_DOUBLE_EQ): the solver must be bit-exact.
    ASSERT_TRUE(want[i].value == got[i].value ||
                (std::isnan(want[i].value) && std::isnan(got[i].value)))
        << want[i].what << " at t=" << want[i].at << ": reference "
        << want[i].value << " vs " << got[i].value;
  }
}

class FluidReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidReferenceTest, BitIdenticalToMapBasedSolver) {
  const Scenario s = make_scenario(static_cast<std::uint64_t>(GetParam()));
  expect_bit_identical(run_scenario<RefFluid>(s),
                       run_scenario<net::FluidNet>(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidReferenceTest, ::testing::Range(1, 129));

// ---- bulk scenarios --------------------------------------------------------
//
// The shape RDMA traffic gives the solver: hundreds of live finite flows
// over a few shared paths, run closed-loop (each completion posts the next
// flow on its path, like a full send window), with a link-capacity drop
// mid-run. On the capped path, consecutive flows take different finite
// caps, so flows with distinct caps interleave in FlowId order on the
// shared link and rounds that fix several caps at once are order-sensitive.

struct BulkScenario {
  std::vector<double> link_gbps;
  std::vector<std::vector<LinkId>> paths;  // <= 4, all through link 0
  std::vector<int> window;                 // live flows per path
  std::vector<double> caps;                // cycled on path 0 (Gbps)
  std::uint64_t min_bytes = 0, max_bytes = 0;
  int messages = 0;                        // flows posted in all
  LinkId drop_link = 0;                    // cut after messages / 2 finish
  double drop_gbps = 0;
  std::uint64_t seed = 0;
};

BulkScenario make_bulk_scenario(std::uint64_t seed) {
  sim::Rng rng(seed);
  BulkScenario s;
  s.seed = seed;
  // Link 0 is the shared spine; then a tx and an rx link per path.
  const std::size_t n_paths = 2 + rng.next_below(3);
  s.link_gbps.push_back(rng.next_bool(0.5) ? 40.0 : 100.0);
  for (std::size_t p = 0; p < n_paths; ++p) {
    const auto tx = static_cast<LinkId>(s.link_gbps.size());
    s.link_gbps.push_back(rng.next_bool(0.5) ? 25.0 : 40.0);
    s.link_gbps.push_back(40.0);
    s.paths.push_back({tx, 0, tx + 1});
  }
  int live = 0;
  for (std::size_t p = 0; p < n_paths; ++p) {
    s.window.push_back(50 + static_cast<int>(rng.next_below(200)));
    live += s.window.back();
  }
  // Around the per-flow fair share of the spine, so caps sometimes bind
  // together and sometimes not at all.
  const double share = s.link_gbps[0] / live;
  for (double k : {0.35, 0.8, 1.6}) {
    s.caps.push_back(share * k * (0.9 + 0.2 * rng.next_double()));
  }
  s.min_bytes = 2'000;
  s.max_bytes = 2'000 + rng.next_below(30'000);
  s.messages = 2 * live;
  s.drop_link = rng.next_bool(0.5) ? 0 : s.paths[0][0];
  s.drop_gbps = rng.next_bool(0.5) ? 10.0 : 1.0;
  return s;
}

template <typename Model>
std::vector<Observation> run_bulk_scenario(const BulkScenario& s) {
  sim::EventLoop loop;
  Model m(loop);
  std::vector<LinkId> links;
  for (double g : s.link_gbps) links.push_back(m.add_link(g, 700));
  sim::Rng rng(s.seed * 7919 + 1);
  std::vector<Observation> log;
  std::vector<FlowId> ids;  // by start order
  std::vector<std::size_t> posted(s.paths.size(), 0);
  int completed = 0;

  auto snapshot = [&](const char* tag) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!m.has_flow(ids[i])) continue;
      log.push_back({std::string(tag) + " rate f" + std::to_string(i),
                     loop.now(), m.current_rate_gbps(ids[i])});
      log.push_back({std::string(tag) + " bytes f" + std::to_string(i),
                     loop.now(), static_cast<double>(m.bytes_sent(ids[i]))});
    }
    for (LinkId l : links) {
      log.push_back({std::string(tag) + " load l" + std::to_string(l),
                     loop.now(), m.link_load_gbps(l)});
    }
  };

  std::function<void(std::size_t)> post = [&](std::size_t p) {
    const std::uint64_t bytes =
        s.min_bytes + rng.next_below(s.max_bytes - s.min_bytes + 1);
    const double cap =
        p == 0 && posted[p] % (s.caps.size() + 1) != 0
            ? s.caps[posted[p] % (s.caps.size() + 1) - 1]
            : net::kUncapped;
    ++posted[p];
    const std::size_t idx = ids.size();
    log.push_back({"cap f" + std::to_string(idx), loop.now(), cap});
    ids.push_back(m.start_flow(s.paths[p], bytes, cap, [&, p, idx] {
      ++completed;
      log.push_back({"done f" + std::to_string(idx), loop.now(), 0.0});
      if (completed == s.messages / 4 || completed == 3 * s.messages / 4) {
        loop.schedule_after(1, [&] { snapshot("probe"); });
      }
      if (completed == s.messages / 2) {
        loop.schedule_after(1, [&] {
          m.set_link_capacity(links[s.drop_link], s.drop_gbps);
          snapshot("drop");
          log.push_back({"drop active", loop.now(),
                         static_cast<double>(m.active_flows())});
        });
      }
      if (completed + static_cast<int>(m.active_flows()) <= s.messages) {
        post(p);
        log.push_back({"rate f" + std::to_string(ids.size() - 1), loop.now(),
                       m.current_rate_gbps(ids.back())});
      }
    }));
  };
  // Windows open interleaved, so every path's flows mix in FlowId order.
  int max_window = 0;
  for (int w : s.window) max_window = std::max(max_window, w);
  for (int k = 0; k < max_window; ++k) {
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      if (k < s.window[p]) post(p);
    }
  }
  snapshot("start");
  loop.run();
  snapshot("end");
  log.push_back({"completed", loop.now(), static_cast<double>(completed)});
  return log;
}

class FluidBulkReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidBulkReferenceTest, BitIdenticalToMapBasedSolver) {
  const BulkScenario s =
      make_bulk_scenario(static_cast<std::uint64_t>(GetParam()));
  expect_bit_identical(run_bulk_scenario<RefFluid>(s),
                       run_bulk_scenario<net::FluidNet>(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidBulkReferenceTest, ::testing::Range(1, 9));

// The bulk family must reach the shape it claims: 200-1,000 live flows over
// <= 4 paths, the capacity drop landing while flows still run, and
// snapshots where flows of two or more distinct caps sit at their caps on
// the shared link at once.
TEST(FluidBulkReferenceCoverage, ScenariosReachTheirShape) {
  int multi_cap_snapshots = 0;
  for (int seed = 1; seed < 9; ++seed) {
    const BulkScenario s = make_bulk_scenario(static_cast<std::uint64_t>(seed));
    int live = 0;
    for (int w : s.window) live += w;
    EXPECT_GE(live, 200);
    EXPECT_LE(live, 1000);
    EXPECT_LE(s.paths.size(), 4u);

    std::map<std::string, double> cap_of;  // "f<i>" -> cap
    std::map<std::string, std::vector<double>> binding;  // snapshot -> caps
    double active_at_drop = 0;
    for (const Observation& o : run_bulk_scenario<net::FluidNet>(s)) {
      const auto sp = o.what.rfind(' ');
      const std::string head = o.what.substr(0, sp);
      const std::string flow = o.what.substr(sp + 1);
      if (head == "cap") cap_of[flow] = o.value;
      if (o.what == "drop active") active_at_drop = o.value;
      const auto rate = head.find(" rate");
      if (rate != std::string::npos && std::isfinite(cap_of[flow]) &&
          o.value == cap_of[flow]) {
        auto& caps = binding[head + "@" + std::to_string(o.at)];
        if (std::find(caps.begin(), caps.end(), o.value) == caps.end()) {
          caps.push_back(o.value);
        }
      }
    }
    EXPECT_GT(active_at_drop, 0) << "seed " << seed;
    for (const auto& [snap, caps] : binding) {
      if (caps.size() >= 2) ++multi_cap_snapshots;
    }
  }
  EXPECT_GT(multi_cap_snapshots, 4);
}

// Scenarios must actually exercise the features they claim to cover.
TEST(FluidReferenceCoverage, ScenariosCoverEveryOperation) {
  int starts = 0, caps = 0, zero_caps = 0, cancels = 0, link_caps = 0,
      outages = 0, multi_link = 0;
  for (int seed = 1; seed < 129; ++seed) {
    for (const Op& op : make_scenario(static_cast<std::uint64_t>(seed)).ops) {
      switch (op.kind) {
        case OpKind::kStart:
          ++starts;
          if (op.path.size() > 1) ++multi_link;
          break;
        case OpKind::kSetCap:
          ++caps;
          if (op.gbps == 0.0) ++zero_caps;
          break;
        case OpKind::kCancel:
          ++cancels;
          break;
        case OpKind::kSetLinkCap:
          ++link_caps;
          if (op.gbps == 0.0) ++outages;
          break;
        case OpKind::kProbe:
          break;
      }
    }
  }
  EXPECT_GT(starts, 1000);
  EXPECT_GT(multi_link, 300);
  EXPECT_GT(caps, 200);
  EXPECT_GT(zero_caps, 10);
  EXPECT_GT(cancels, 100);
  EXPECT_GT(link_caps, 100);
  EXPECT_GT(outages, 10);
}

}  // namespace
