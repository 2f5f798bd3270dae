#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly, alternating
workloads, each run with another seed, and prints for each metric its
median, quartiles and spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads serve_zipf,query_long] [--trace 0|1] [--same-seed]

The spread is the distance between the first and third quartile as a
share of the median (`statistics.quantiles(values, n=4)`). An end-to-end
metric, `setup_s` included, is steady ("ok") when its spread is below a
third of its bound, "WIDE" when it is within the bound, and "OVER" past
it. The share of failed operations must be the same in every run of a
workload. Exits non-zero unless every verdict is "ok".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed: run-to-run noise without corpus variation")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            out = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stdout.write(out.stdout[-4000:])
                sys.stderr.write(out.stderr[-4000:])
                sys.exit(f"steady.py: {w} seed {seed} failed")
            stamp = [l for l in out.stdout.splitlines() if l.startswith("stamp: attempted")]
            result = json.loads(out.stdout.splitlines()[-1])
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {stamp[0] if stamp else ''}", flush=True)

    unsteady = 0
    for w in workloads:
        print(f"\n{w}: failed share {sorted(shares[w])}")
        if len(shares[w]) != 1:
            unsteady += 1
        print(f"  {'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
                unsteady += verdict != "ok"
            print(f"  {name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
