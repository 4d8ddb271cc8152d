#!/usr/bin/env python3
"""Steadiness mode of the ledger benchmark.

Runs the benchmark several times per workload, each run with another seed,
and reports the median and quartiles of every end-to-end metric, with the
spread (interquartile distance over the median) beside the metric's bound
from BENCHMARK.json. Run it from the checkout root:

    python3 ledger/steady.py --runs 10 --workloads fig2-stream,memaxis

A spread under a third of the bound is steady. setup_s is reported but is
judged by its median, not its spread.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    steady = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: not correct", file=sys.stderr)
                steady = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        print(f"{wl} ({args.runs} runs)")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, v in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0)
            mark = ""
            if name != "setup_s" and spread >= bound / 3:
                mark = "  NOT STEADY"
                steady = False
            print(f"  {name:22} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound:6.2f}{mark}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
