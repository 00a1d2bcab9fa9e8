#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload warm-100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first run configures and builds the harness (with the xsm library from
src/) under .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr. Each workload prints its metrics by name with
their units; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero on a build failure,
a set-up failure or any failed correctness check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["warm-100k", "cold-100k"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def run_workload(workload, args):
    """Runs one workload; returns (exit code, result dict or None)."""
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{\"correct\""):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, lines, result = run_workload(workload, args)
        if result is None:
            print("perfbench: %s produced no result (exit %d)"
                  % (workload, code), file=sys.stderr)
            return code or 2
        worst = max(worst, code)
        if len(workloads) == 1:
            combined = result
        else:
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
        for line in lines:
            print(line)
    print(json.dumps(combined))
    sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
