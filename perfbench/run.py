#!/usr/bin/env python3
"""Builds the benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload rpc|kv|churn --seed N --seconds S \
        --trace 0|1

Run it from the repository root. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo, like the repository's default build) and is reused
by later runs. The last line of standard output is the JSON result; build
output goes to standard error. Exits 0 when every check passed.

An untraced run starts processes on the same seed, each measuring for
PROCESS_SECONDS (or S, if shorter), until S seconds have passed, and reports
each end-to-end metric as the median over them: on a shared virtual machine
the speed of one process drifts by several percent over seconds, and a
median over processes started at different times is steadier than one long
process. A churn process ends early, at its lifetime cap, so churn gets more
of them. A traced run is one process.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
PROCESS_SECONDS = 2.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "threads", "CMakeLists.txt")):
        fail("no repository sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_sha1():
    """A digest of the sources the binary is built from, for checkouts
    without git history."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_binary(args, seconds, deadline):
    """Runs the benchmark binary once; returns its exit code and stdout."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_build", "traces"),
           "--git-sha", args.git_sha, "--src-sha1", args.src_sha1]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["rpc", "kv", "churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    build()
    args.git_sha = git_sha()
    args.src_sha1 = src_sha1()
    if args.trace:
        code, lines = run_binary(args, args.seconds, deadline)
        result_of(lines)
        print("\n".join(lines))
        sys.exit(code)

    codes, results = [], []
    start = time.monotonic()
    while not results or time.monotonic() - start < args.seconds:
        code, lines = run_binary(args, min(PROCESS_SECONDS, args.seconds),
                                 deadline)
        codes.append(code)
        results.append(result_of(lines))
        if len(results) == 1:
            print(lines[0])  # the stamp
        for line in lines[1:-1]:
            if line.startswith("check failed"):
                print(line)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("metric failed_frac = %r ratio (%d of %d ops)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
        print("metric %s = %r %s (median of %s)"
              % (name, metrics[name]["value"], first["unit"],
                 ", ".join("%.6g" % v for v in values)))
    correct = all(r["correct"] for r in results) and not any(codes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
