#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the repository root.  For every workload it runs one benchmark per
seed, then prints for every metric (the end-to-end ones and the raw host.*
figures the run prints on stderr) the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median.  End-to-end metrics are
flagged when their spread reaches a third of their bound in BENCHMARK.json.
The raw values go to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in p.stderr.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("host."):
            values[parts[0]] = float(parts[1])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    for w in workloads:
        runs = [run_once(w, args.first_seed + i, seconds, args.trace)
                for i in range(args.seeds)]
        with open(os.path.join("perfbench", "out", f"spread-{w}.json"), "w") as f:
            json.dump(runs, f, indent=1)
        print(f"{w}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1}, {seconds} s each")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
                flag = f"  >= bound/3 ({bounds[name]})"
            print(f"  {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}{flag}")


if __name__ == "__main__":
    main()
