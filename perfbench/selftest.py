#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names for that mode, each with its declared unit, and
   passes its correctness gate.
2. Every corruption hook breaks the check it targets, untraced and traced:
   the run must name that check, print "correct": false and exit non-zero.

Runs are short (--seconds 1); the storm workload dominates the ~2 minutes.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (sibling module: build + binary location)

# Corruption hook -> text of the check it must trip, per workload.
DIFFERS = "differs"
HOOKS = {
    "kvs": {"drop_completion": "gets + puts != ops",
            "nondeterminism": DIFFERS},
    "bulk_write": {"flip_payload": "payload mismatch",
                   "nondeterminism": DIFFERS},
    "conn_churn": {"leak_qp": "left after teardown",
                   "nondeterminism": DIFFERS},
    "storm_100k": {"drop_completion": "do not sum to attempted",
                   "nondeterminism": DIFFERS},
}


def invoke(workload, trace, corrupt=""):
    cmd = [run.BINARY, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    failed_checks = [l for l in lines if l.startswith("# CHECK FAILED")]
    return p.returncode, result, failed_checks


def main():
    run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(HOOKS), "BENCHMARK.json workloads")
    for w in workloads:
        for trace in (0, 1):
            rc, res, _ = invoke(w, trace)
            check(rc == 0 and res is not None and res["correct"] is True,
                  f"{w} trace={trace}: exit 0 and correct")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace],
                  f"{w} trace={trace}: metric names and units match")
            check(res["attempted"] >= 1, f"{w} trace={trace}: attempted")
        for trace in (0, 1):
            for hook, text in HOOKS[w].items():
                rc, res, failed = invoke(w, trace, hook)
                check(rc != 0 and res is not None and
                      res["correct"] is False and
                      any(text in f for f in failed),
                      f"{w} trace={trace} --corrupt {hook}: "
                      f"'{text}' fails, correct=false, non-zero exit")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
