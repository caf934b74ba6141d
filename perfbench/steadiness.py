#!/usr/bin/env python3
"""Steadiness record: runs the benchmark several times per workload, each
with another seed, and reports each end-to-end metric's median, quartiles
and spread (inter-quartile distance over the median) against its bound.

    python3 perfbench/steadiness.py [--runs 10] [--workload W ...] [--out FILE]

Run from the repository root. Writes the record as JSON to --out (default:
print only).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", nargs="*", choices=names, default=names)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for w in args.workload:
        values = {name: [] for name in bounds}
        runs = []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            lines = out.splitlines()
            result, full = json.loads(lines[-1]), json.loads(lines[-2])
            if not result["correct"]:
                raise SystemExit("%s seed %d: not correct: %s" % (w, seed, full["failures"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            runs.append({"seed": seed, "elapsed_s": time.monotonic() - start,
                         "load1_before": full["provenance"]["load1_before"],
                         "host_factor": full["host_factor"],
                         "steal_s": full["provenance"]["steal_s"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print("%s seed %d: %.1f s" % (w, seed, runs[-1]["elapsed_s"]), file=sys.stderr)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            print("%-14s %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)"
                  % (w, name, med, q1, q3, spread, bounds[name]))
        record["workloads"][w] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
