// masq_perfbench: the repository's benchmark driver.
//
//   masq_perfbench --workload kvs|bulk_write|conn_churn|storm_100k
//                  --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--corrupt CHECK]
//
// --trace 0 repeats the workload with the same seed until S seconds have
// passed (at least three times), checks every repetition's simulated
// outputs are identical, and reports the end-to-end metrics as medians.
// --trace 1 runs the workload once untraced and once with spans on, checks
// the two agree on every simulated output and count, and reports the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check prints correct=false and exits 1.
//
// The driver runs with address-space layout randomisation off (it
// re-executes itself once to get there), so that runs of one binary see
// one memory layout, and moves a single-threaded workload to the next CPU
// for each repetition.
#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Result;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string corrupt;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "masq_perfbench: %s\nusage: masq_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--corrupt CHECK]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else if (k == "--corrupt") {
        a.corrupt = v;
      } else {
        usage(("unknown option " + k).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!perfbench::find_workload(a.workload)) usage("unknown --workload");
  const auto hooks = perfbench::corruption_hooks(a.workload);
  if (!a.corrupt.empty() &&
      std::find(hooks.begin(), hooks.end(), a.corrupt) == hooks.end()) {
    usage("unknown --corrupt hook for this workload");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// Turns address-space layout randomisation off for this process by
// re-executing it with ADDR_NO_RANDOMIZE set; returns whether it is off.
// Otherwise where the heap, stack and mappings land, and so how they meet
// in the caches, changes from one run of the same binary to the next.
bool aslr_off(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1) return false;
  if (current & ADDR_NO_RANDOMIZE) return true;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return false;
  }
  execv("/proc/self/exe", argv);
  personality(static_cast<unsigned long>(current));  // exec failed
  return false;
}

// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;  // a run stopped by a failed check
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Empty when every simulated output of `b` equals `a`'s.
std::string first_difference(const Result& a, const Result& b) {
  if (a.attempted != b.attempted) return "attempted";
  if (a.failed != b.failed) return "failed";
  if (a.sim_kops_per_s != b.sim_kops_per_s) return "sim_kops_per_s";
  if (a.counts.size() != b.counts.size()) return "counter set";
  for (const auto& [name, value] : a.counts) {
    const auto it = b.counts.find(name);
    if (it == b.counts.end() || it->second != value) return name;
  }
  return "";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Result& r,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void report_errors(const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
}

int run_untraced(const Args& a, perfbench::WorkloadFn fn) {
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 1000;
  const perfbench::Options opts{a.seed, nullptr, a.corrupt};
  std::vector<double> setup, run;
  const std::int64_t t0 = perfbench::wall_ns();
  std::vector<Result> reps;
  std::vector<std::string> errors;
  // Peak RSS of one workload instance: read after the first repetition,
  // before allocator reuse across repetitions can blur it.
  double first_peak_rss_mb = 0;
  // A single-threaded workload moves to the next allowed CPU for each
  // repetition, so a CPU slowed for a while by whatever else shares its
  // core slows a minority of the repetitions, which the median mostly
  // ignores, instead of the whole run. Multi-threaded workloads stay
  // unpinned.
  const std::vector<int> cpus = allowed_cpus();
  const bool rotate = perfbench::workload_threads(a.workload) == 1;
  // A further repetition starts only if it should end within --seconds,
  // judged by the longest repetition so far.
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(a.seconds * 1e9);
  std::int64_t longest_ns = 0;
  while (static_cast<int>(reps.size()) < kMinReps ||
         (static_cast<int>(reps.size()) < kMaxReps &&
          perfbench::wall_ns() + longest_ns <= deadline)) {
    const std::int64_t rep_t0 = perfbench::wall_ns();
    if (rotate && !cpus.empty()) pin_to(cpus[reps.size() % cpus.size()]);
    Result r = fn(opts);
    if (a.corrupt == "nondeterminism" && reps.size() == 1) {
      r.counts["sim.events"] += 1;
    }
    std::printf("# rep %zu: setup_s=%.6f run_s=%.6f attempted=%llu "
                "failed=%llu\n",
                reps.size(), r.setup_s, r.run_s,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (!reps.empty()) {
      const std::string d = first_difference(reps.front(), r);
      if (!d.empty()) {
        errors.push_back("repetition " + std::to_string(reps.size()) +
                         " differs from repetition 0 in " + d);
      }
    }
    // The first repetition is a warm-up: checked like the others, but it
    // pays the process's first-touch costs, so it is left out of the
    // timing medians.
    if (!reps.empty()) {
      setup.push_back(r.setup_s);
      run.push_back(r.run_s);
    }
    reps.push_back(std::move(r));
    longest_ns = std::max(longest_ns, perfbench::wall_ns() - rep_t0);
    if (reps.size() == 1) first_peak_rss_mb = perfbench::peak_rss_mb();
    if (!errors.empty()) break;
  }
  const Result& first = reps.front();
  const auto find = [&](const char* k) {
    const auto it = first.counts.find(k);
    return it == first.counts.end() ? 0.0 : it->second;
  };
  std::printf("# reps=%zu sim.events=%.0f "
              "conn.sim_setup_p50_us=%.3f conn.sim_setup_p99_us=%.3f "
              "samples=%.0f\n",
              reps.size(), find("sim.events"),
              find("conn.sim_setup_p50_us"), find("conn.sim_setup_p99_us"),
              find("conn.sim_setup_samples"));
  report_errors(errors);
  const std::vector<Metric> metrics = {
      {"run_s", median(run), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", first_peak_rss_mb, "MB"},
      {"sim_kops_per_s", first.sim_kops_per_s, "kop/s"},
  };
  print_result(errors.empty(), first, metrics);
  return errors.empty() ? 0 : 1;
}

int run_traced(const Args& a, perfbench::WorkloadFn fn) {
  // The first run pays the process's first-touch costs (and is where the
  // memory readings come from); the untraced time that the tracing
  // overhead is measured against comes from a second, warm run.
  perfbench::Options opts{a.seed, nullptr, a.corrupt};
  const Result first = fn(opts);
  const Result u = fn(opts);
  perfbench::Tracer tracer;
  opts.tracer = &tracer;
  Result t = fn(opts);
  if (a.corrupt == "nondeterminism") t.counts["sim.events"] += 1;

  std::vector<std::string> errors = first.errors;
  errors.insert(errors.end(), u.errors.begin(), u.errors.end());
  errors.insert(errors.end(), t.errors.begin(), t.errors.end());
  std::string d = first_difference(first, u);
  if (!d.empty()) errors.push_back("repetition differs in " + d);
  d = first_difference(u, t);
  if (!d.empty()) errors.push_back("traced run differs from untraced in " + d);

  const auto totals = tracer.totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? perfbench::Tracer::Total{} : it->second;
  };
  const auto per_call_ns = [&](const char* name) {
    const auto x = total(name);
    return x.count ? static_cast<double>(x.wall_ns) / x.count : 0.0;
  };
  std::map<std::string, double> v = t.counts;
  const double events = v["sim.events"];
  v["sim.events_per_op"] = t.attempted ? events / t.attempted : 0;
  v["sim.ns_per_event"] = events > 0 ? u.run_s * 1e9 / events : 0;
  const auto wr = total("mem.write_buffer");
  const auto rd = total("mem.read_buffer");
  const double kib = static_cast<double>(wr.bytes + rd.bytes) / 1024.0;
  v["mem.buffer_io_ns_per_kib"] =
      kib > 0 ? static_cast<double>(wr.wall_ns + rd.wall_ns) / kib : 0;
  v["hyp.boot_us"] = per_call_ns("hyp.add_instance") / 1e3;
  v["rnic.post_send_ns"] = per_call_ns("rnic.post_send");
  v["rnic.poll_cq_ns"] = per_call_ns("rnic.poll_cq");
  std::uint64_t control_calls = 0;
  for (const auto& [name, x] : totals) {
    if (name.rfind("verbs.", 0) == 0) control_calls += x.count;
  }
  const double conns = v["conn.connections"];
  v["verbs.control_calls"] = conns > 0 ? control_calls / conns : 0;
  for (const auto& [name, value] : first.timings) v[name] = value;
  v["trace.untraced_run_s"] = u.run_s;
  v["trace.traced_run_s"] = t.run_s;
  v["trace.overhead_s"] = t.run_s - u.run_s;

  std::printf("# %-36s %10s %12s %12s\n", "span", "count", "wall_ms",
              "self_ms");
  for (const auto& [name, x] : totals) {
    std::printf("# %-36s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(x.count), x.wall_ns / 1e6,
                x.self_ns / 1e6);
  }
  if (!a.trace_out.empty()) {
    constexpr std::size_t kMaxWrittenSpans = 100'000;
    if (tracer.write_chrome_json(a.trace_out, kMaxWrittenSpans)) {
      std::printf("# trace: %zu of %zu spans written to %s\n",
                  std::min(tracer.spans().size(), kMaxWrittenSpans),
                  tracer.spans().size(), a.trace_out.c_str());
    } else {
      errors.push_back("cannot write " + a.trace_out);
    }
  }
  report_errors(errors);
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : perfbench::layer_metrics()) {
    const auto it = v.find(name);
    metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  print_result(errors.empty(), t, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fixed_layout = aslr_off(argv);
  const Args a = parse(argc, argv);
  // Pin what is measured: invariant auditing stays off whatever the
  // environment says.
  unsetenv("MASQ_CHECK");
  unsetenv("MASQ_CHECK_LOG");
  std::printf("# masq_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  std::printf("# cpu=\"%s\" nproc=%u build=%s aslr=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, fixed_layout ? "off" : "on");
  std::fflush(stdout);
  const perfbench::WorkloadFn fn = perfbench::find_workload(a.workload);
  try {
    return a.trace ? run_traced(a, fn) : run_untraced(a, fn);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masq_perfbench: %s\n", e.what());
    return 1;
  }
}
