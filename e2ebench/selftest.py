#!/usr/bin/env python3
"""Small-size self-test of the end-to-end join benchmark.

Usage, from the root of a pasjoin checkout:

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json through e2ebench/run.py at reduced
input size, twice untraced and twice traced, and checks that:
  * every metric named in BENCHMARK.json is printed exactly once, with its
    unit, both as a "metric" line and in the result JSON;
  * metric names use only [A-Za-z0-9_.-];
  * the output check passes (correct, no failed job, jobs_failed_frac 0);
  * the exact counts repeat across the two invocations.
Exits 0 when all checks pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SCALE = "0.02"
SECONDS = "1"
# Metrics that are exact counts of the inputs, so repeat bit for bit.
EXACT = {"replicated", "shuffle_remote_mb", "grid.sampled",
         "plan.marked_edges", "plan.locked_edges", "assign.replicas",
         "shuffle.tuples", "shuffle.mb", "join.candidates",
         "join.results_per_candidate"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (cmd, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def metric_lines(lines):
    """name -> list of (value, unit) from the 'metric NAME VALUE UNIT' lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            found.setdefault(parts[1], []).append((float(parts[2]), parts[3]))
    return found


def exact_counts(lines, result):
    """What must repeat exactly between two invocations."""
    counts = [line for line in lines if line.startswith("reference ")]
    counts += sorted((name, m["value"]) for name, m in result["metrics"].items()
                     if name in EXACT)
    return counts


def check_run(lines, result, declared, extra):
    assert result["correct"] is True, "output check failed"
    assert result["failed"] == 0, "failed jobs: %d" % result["failed"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared), "result metrics %s != declared %s" % (
        sorted(metrics), sorted(declared))
    printed = metric_lines(lines)
    for name, unit in list(declared.items()) + list(extra.items()):
        assert NAME_RE.match(name), "bad metric name %r" % name
        assert len(printed.get(name, [])) == 1, (
            "metric %s printed %d times" % (name, len(printed.get(name, []))))
        assert printed[name][0][1] == unit, "metric %s unit %s, want %s" % (
            name, printed[name][0][1], unit)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name
    if "jobs_failed_frac" in extra:
        assert printed["jobs_failed_frac"][0][0] == 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        assert NAME_RE.match(workload), workload
        for trace, declared, extra in (
                (0, end_to_end, {"jobs_failed_frac": "fraction"}),
                (1, per_layer, {})):
            runs = [run(workload, trace) for _ in range(2)]
            for lines, result in runs:
                check_run(lines, result, declared, extra)
            first, second = (exact_counts(*r) for r in runs)
            assert first == second, "%s trace %d: counts differ:\n%s\n%s" % (
                workload, trace, first, second)
            print("ok %s --trace %d (%d jobs, %d exact counts repeat)" % (
                workload, trace, runs[0][1]["attempted"], len(first)))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
