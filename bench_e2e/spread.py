#!/usr/bin/env python3
"""Run the end-to-end benchmark once per seed on each workload and print
every metric's median, quartiles and spread ((Q3 - Q1) / median, quartiles
as statistics.quantiles(n=4) gives them) as JSON, with the build identity
and the wall time each workload's runs took. BASELINE.json in this
directory holds its output.

Usage, from the repository root:
  python3 bench_e2e/spread.py [--seeds 1,2,...,10] [--seconds 20]
                              [--trace 0|1] [--workloads a,b,...]
"""

import argparse
import json
import os
import statistics
import subprocess
import time

WORKLOADS = ["overhead", "detect", "sidechannel", "campaign"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["sh", "bench_e2e/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    build = next(line for line in out if line.startswith("build: "))
    return build[len("build: "):], json.loads(out[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "workloads": {}}
    for w in args.workloads.split(","):
        t0 = time.monotonic()
        runs = [run(w, seed, args.seconds, args.trace) for seed in seeds]
        results = [r for _, r in runs]
        doc["build"] = json.loads(runs[0][0])
        doc["workloads"][w] = {
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "seconds_per_run": (time.monotonic() - t0) / len(seeds),
            "metrics": {
                name: dict(unit=m["unit"],
                           **summary([r["metrics"][name]["value"]
                                      for r in results]))
                for name, m in results[0]["metrics"].items()},
        }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
