#!/usr/bin/env python3
"""Runs each workload repeatedly and prints every metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds S]

Run k uses seed `--seed + k`; the workloads and the default run length
come from BENCHMARK.json. For each end-to-end metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the bound, marked OVER when the spread exceeds the
bound and >1/3 when it exceeds a third of it. It also prints the share of
failed operations per run, which must not vary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            res = run_once(workload, args.seed + k, args.seconds)
            results.append(res)
            print(f"# {workload} seed {args.seed + k}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        print(f"\n{workload}: {len(results)} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {args.seconds:g}s each")
        print(f"{'metric':24} {'unit':10} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = " OVER" if spread > bound else (
                " >1/3" if spread > bound / 3 else "")
            print(f"{name:24} {results[0]['metrics'][name]['unit']:10} "
                  f"{med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:6.2f}{mark}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"failed share per run: {shares}; all correct: "
              f"{all(r['correct'] for r in results)}\n", flush=True)


if __name__ == "__main__":
    main()
