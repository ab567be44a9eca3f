#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload kvs --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the driver's JSON result. With --trace 1 the span trace is
also written to .bench_build/perfbench/trace_<workload>_seed<N>.json
(Chrome trace-event format; open it in Perfetto).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "masq_perfbench")
WORKLOADS = ("kvs", "bulk_write", "conn_churn", "storm_100k")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="break one correctness check (self-test only)")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace_{args.workload}_seed{args.seed}.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    env = {k: v for k, v in os.environ.items()
           if k not in ("MASQ_CHECK", "MASQ_CHECK_LOG")}
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
