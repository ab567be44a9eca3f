// Wall-clock micro-benchmarks (google-benchmark) for the hot software data
// structures on MasQ's control path: security-rule evaluation, the
// (VNI,vGID) mapping cache, max-min rate reallocation, page-table walks,
// and the simulator-core substitutions from DESIGN.md §13 — sim::FlatMap
// vs the std node-based maps it replaced, and arena event allocation vs
// plain heap. These bound how much host CPU the *real* implementation of
// each mechanism would burn, and justify the container swap with numbers
// kept in-repo.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "mem/address_space.h"
#include "net/fluid.h"
#include "overlay/security.h"
#include "sdn/controller.h"
#include "sim/arena.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"

namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr{v}; }

void BM_RuleChainEvaluate(benchmark::State& state) {
  overlay::RuleChain chain;
  const int rules = static_cast<int>(state.range(0));
  for (int i = 0; i < rules; ++i) {
    chain.add_rule(overlay::Rule::allow(
        net::Ipv4Cidr{ip(0xC0A80000u + static_cast<std::uint32_t>(i) * 256),
                      24},
        net::Ipv4Cidr::any(), overlay::Proto::kRdma, i));
  }
  overlay::FlowTuple t{ip(0xC0A80001), ip(0x0A000001),
                       overlay::Proto::kRdma};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.evaluate(t));
  }
}
BENCHMARK(BM_RuleChainEvaluate)->Arg(10)->Arg(100)->Arg(1000);

void BM_MappingCacheLookup(benchmark::State& state) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop);
  const auto peers = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < peers; ++i) {
    ctl.register_vgid(100, net::Gid::from_ipv4(ip(0xC0A80000u + i)),
                      net::Gid::from_ipv4(ip(0x0A000001u + (i % 16))));
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctl.lookup(100, net::Gid::from_ipv4(ip(0xC0A80000u + (i++ % peers)))));
  }
  state.SetLabel(std::to_string(peers * sdn::kRecordBytes / 1024) +
                 " KiB table");
}
BENCHMARK(BM_MappingCacheLookup)->Arg(100)->Arg(10000);

void BM_FluidReallocate(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventLoop loop;
    net::FluidNet fnet(loop);
    auto l1 = fnet.add_link(40.0, 0);
    auto l2 = fnet.add_link(40.0, 0);
    state.ResumeTiming();
    for (int i = 0; i < flows; ++i) {
      fnet.start_flow({l1, l2}, 0, i % 4 == 0 ? 10.0 : net::kUncapped,
                      nullptr);
    }
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidReallocate)->Arg(16)->Arg(128)->Arg(1024);

// The shape RDMA traffic actually gives the solver: every message is a
// finite flow, and each completion posts the next message on the same
// path (a full send window). 1,024 live 64 KiB flows over 8 paths that
// share two spine links; each message costs a reallocation at its start
// and one at its completion. Reported as wall time per message
// (`time_per_msg`).
void BM_FluidMessageChurn(benchmark::State& state) {
  constexpr int kLiveFlows = 1024;
  constexpr int kPaths = 8;
  sim::EventLoop loop;
  net::FluidNet fnet(loop);
  std::vector<net::LinkId> spines = {fnet.add_link(100.0, 0),
                                     fnet.add_link(100.0, 0)};
  std::vector<std::vector<net::LinkId>> paths;
  for (int p = 0; p < kPaths; ++p) {
    paths.push_back({fnet.add_link(40.0, 0), spines[p % 2],
                     fnet.add_link(40.0, 0)});
  }
  std::uint64_t messages = 0;
  std::function<void(int)> post = [&](int p) {
    fnet.start_flow(paths[p], 65536, net::kUncapped, [&post, &messages, p] {
      ++messages;
      post(p);
    });
  };
  for (int i = 0; i < kLiveFlows; ++i) post(i % kPaths);
  const std::uint64_t first = messages;
  for (auto _ : state) {
    const std::uint64_t target = messages + kLiveFlows;
    while (messages < target) loop.run_until(loop.next_event_time());
  }
  const auto done = static_cast<double>(messages - first);
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  // Inverted rate: wall seconds per message, printed with an SI prefix.
  state.counters["time_per_msg"] = benchmark::Counter(
      done, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FluidMessageChurn)->Unit(benchmark::kMillisecond);

void BM_PageTableResolve(benchmark::State& state) {
  mem::HostPhysMap phys(64 << 20);
  mem::AddressSpace hva("hva", &phys);
  mem::AddressSpace gpa("gpa", &hva);
  mem::AddressSpace gva("gva", &gpa);
  const mem::Addr hpa = phys.alloc_pages(64);
  hva.map(0x10000000, hpa, 64 * mem::kPageSize);
  gpa.map(0, 0x10000000, 64 * mem::kPageSize);
  gva.map(0x7f0000000000ull, 0, 64 * mem::kPageSize);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gva.resolve_hpa(0x7f0000000000ull + (i++ % 64) * mem::kPageSize));
  }
}
BENCHMARK(BM_PageTableResolve);

// ---- container swap: sim::FlatMap vs std::map / std::unordered_map ----
// The access pattern the RNIC/SDN hot paths actually have: build a table
// of `n` integer-keyed entries once, then hammer exact-key lookups. Keys
// are splitmix-scrambled so neither tree order nor bucket distribution
// gets an artificially friendly sequence.

std::uint64_t scramble(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Map>
void map_lookup_bench(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  Map m;
  for (std::uint64_t i = 0; i < n; ++i) {
    m.emplace(static_cast<std::uint32_t>(scramble(i)), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.find(static_cast<std::uint32_t>(scramble(i++ % n))));
  }
}

void BM_FlatMapLookup(benchmark::State& state) {
  map_lookup_bench<sim::FlatMap<std::uint32_t, std::uint64_t>>(state);
}
void BM_StdMapLookup(benchmark::State& state) {
  map_lookup_bench<std::map<std::uint32_t, std::uint64_t>>(state);
}
void BM_StdUnorderedMapLookup(benchmark::State& state) {
  map_lookup_bench<std::unordered_map<std::uint32_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookup)->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK(BM_StdMapLookup)->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK(BM_StdUnorderedMapLookup)->Arg(64)->Arg(4096)->Arg(65536);

template <typename Map>
void map_churn_bench(benchmark::State& state) {
  // QP pending-table shape: insert a window of entries, erase the oldest —
  // the steady-state churn a send queue with outstanding WQEs produces.
  constexpr std::uint64_t kWindow = 256;
  Map m;
  std::uint64_t next = 0;
  for (; next < kWindow; ++next) {
    m.emplace(static_cast<std::uint32_t>(next), next);
  }
  for (auto _ : state) {
    m.erase(static_cast<std::uint32_t>(next - kWindow));
    m.emplace(static_cast<std::uint32_t>(next), next);
    ++next;
    benchmark::DoNotOptimize(m);
  }
}

void BM_FlatMapChurn(benchmark::State& state) {
  map_churn_bench<sim::FlatMap<std::uint32_t, std::uint64_t>>(state);
}
void BM_StdMapChurn(benchmark::State& state) {
  map_churn_bench<std::map<std::uint32_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapChurn);
BENCHMARK(BM_StdMapChurn);

// ---- event allocation: NodePool arena vs heap new/delete ----
// The event loop's per-event allocation, isolated: acquire + release in
// LIFO order (the pool's free list) against the same node from the heap.

struct BenchNode {
  sim::Time t = 0;
  std::uint64_t seq = 0;
  sim::Callback cb;
  BenchNode* pool_next = nullptr;
};

void BM_ArenaEventAlloc(benchmark::State& state) {
  sim::NodePool<BenchNode> pool;
  for (auto _ : state) {
    BenchNode* n = pool.acquire();
    benchmark::DoNotOptimize(n);
    pool.release(n);
  }
}
void BM_HeapEventAlloc(benchmark::State& state) {
  for (auto _ : state) {
    // masq-lint: allow(naked-new) — this IS the heap baseline under test.
    BenchNode* n = new BenchNode();
    benchmark::DoNotOptimize(n);
    delete n;
  }
}
BENCHMARK(BM_ArenaEventAlloc);
BENCHMARK(BM_HeapEventAlloc);

// End-to-end: schedule+drain a burst of timer events through the loop —
// the composite cost the ready-queue + arena + SBO-callback refactor
// targets (pre-refactor this path was priority_queue<std::function> with
// two heap allocations per event).
void BM_EventLoopScheduleDrain(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < burst; ++i) {
      loop.schedule_at(static_cast<sim::Time>(scramble(i) % 1000000),
                       [&sink] { ++sink; });
    }
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_EventLoopScheduleDrain)->Arg(1024)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
