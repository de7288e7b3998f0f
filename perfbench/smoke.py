#!/usr/bin/env python3
"""Smoke check of the benchmark: a short run of every workload, untraced and
traced, asserting that it passes its own checks, that nothing failed, and
that it prints exactly the metrics BENCHMARK.json names, with their units.

    python3 perfbench/smoke.py [--seconds 1]

Run it from the repository root. Exits 0 when every run is as expected.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d: %s" % (proc.returncode, proc.stderr[-500:]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0 or not result.get("attempted"):
        problems.append("attempted %r, failed %r (failed_frac must be 0)"
                        % (result.get("attempted"), result.get("failed")))
    if not trace and not any(l.startswith("metric failed_frac = 0")
                             for l in lines):
        problems.append("failed_frac is not printed as 0")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append("metrics differ: missing %s, extra %s, wrong unit %s"
                        % (missing, extra, units))
    for k, v in result.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append("%s has no numeric value" % k)
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace, args.seconds)
            status = "ok" if not problems else "FAIL"
            print("%-6s trace=%d %s" % (w["name"], trace, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
