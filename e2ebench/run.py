#!/usr/bin/env python3
"""Builds and runs the end-to-end join benchmark.

Usage, from the root of a pasjoin checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/ (the pasjoin library from src/ plus the e2e_bench binary)
in Release under $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when
the variable is unset, then runs one workload in one process. Build output
goes to standard error; the last line of standard output is the result
JSON. Exits non-zero without printing a result when the build or the run
fails. e2ebench/README.md describes the workloads and the metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "e2ebench"))


def build(out_dir):
    """Configures and builds the benchmark; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out_dir, "--target", "e2e_bench",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return None
    return os.path.join(out_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier in (0, 1] (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("e2ebench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(proc.stdout)
        print("e2ebench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
