// The four benchmark workloads. Each builds its simulated world from the
// seed (set-up phase), runs a fixed amount of simulated work (run phase),
// checks the outputs and reads every layer's counters through public
// accessors. Nothing here changes the program being measured: counters
// and samples are read between events, and the traced run only adds the
// span-recording decorator around the benchmark's own calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  // Non-null on the traced run only.
  Tracer* tracer = nullptr;
  // Corruption hook for the benchmark's self-test: names one correctness
  // check to break on purpose ("" = none).
  std::string corrupt;
};

struct Result {
  double setup_s = 0;  // wall: simulated world built, before the run phase
  double run_s = 0;    // wall: the fixed simulated work
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  double sim_kops_per_s = 0;
  // Deterministic outputs: per-layer counts and simulated results. Must be
  // identical across repetitions and between untraced and traced runs.
  std::map<std::string, double> counts;
  // Wall-clock or memory readings for per-layer metrics (not compared).
  std::map<std::string, double> timings;

  bool correct() const { return errors.empty(); }
};

using WorkloadFn = Result (*)(const Options&);

// Returns null for an unknown name.
WorkloadFn find_workload(const std::string& name);
// Threads a workload runs its simulation on.
std::size_t workload_threads(const std::string& workload);
// Checks whose corruption hook a workload honours (for the self-test).
std::vector<std::string> corruption_hooks(const std::string& workload);

// Peak resident memory of this process so far, in MiB.
double peak_rss_mb();

// Every per-layer metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
