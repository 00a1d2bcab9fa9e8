#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the captured stdout of one or more runs of one workload
(run.py prints an {"env": ...} line before each result line). The compare
refuses, with exit code 2, to put side by side results whose environments
differ in nproc or build type, or that come from different workloads, trace
modes, repositories (corpus seed or size) or window lengths: such numbers are
not comparable. Otherwise it prints each
metric's median on both sides and the relative change.
"""
import json
import statistics
import sys

GUARDED = ("nproc", "build_type", "workload", "trace", "corpus_seed",
           "corpus_elements", "seconds")


def load(path):
    envs, results = [], []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                envs.append(record["env"])
            elif "metrics" in record:
                results.append(record)
    return envs, results


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv[1:]]
    envs = sides[0][0] + sides[1][0]
    if not envs or not all(results for _, results in sides):
        print("compare: each file needs env and result lines",
              file=sys.stderr)
        return 2
    for key in GUARDED:
        seen = sorted({str(env.get(key)) for env in envs})
        if len(seen) > 1:
            print("compare: refusing, %s differs: %s" % (key, seen),
                  file=sys.stderr)
            return 2
    failed = [r for _, results in sides for r in results if not r["correct"]]
    if failed:
        print("compare: %d run(s) failed their correctness check"
              % len(failed), file=sys.stderr)
    print("%-36s %14s %14s %9s" % ("metric", "base", "new", "change"))
    for name in sides[0][1][0]["metrics"]:
        medians = []
        for _, results in sides:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            medians.append(statistics.median(values) if values else None)
        base, new = medians
        change = ("%+8.1f%%" % (100.0 * (new - base) / base)
                  if base and new is not None else "")
        print("%-36s %14.4f %14.4f %9s" % (name, base or 0, new or 0, change))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
