#!/usr/bin/env python3
"""Steadiness check: repeat each workload over seeds and compare the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--save set1.json] [--against set0.json]

For each workload it runs `bench/run.py` once per seed, one run at a time,
and prints per metric the median, the quartiles, and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median.  A spread within a third of the bound is
steady; within the bound is acceptable; beyond it fails (setup_s is
exempt from the spread test).  With --against, it also compares each
median with the median of an earlier saved set and fails a metric that is
worse by more than its bound, and fails a workload whose total ops
attempted or failed differ from the earlier set's (the ops of a run are
fixed by --seconds, so two sets must agree exactly).  Exit code 0 when
nothing fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--save", help="write the values of this set as JSON")
    ap.add_argument("--against", help="a set saved earlier with --save")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    values = {}
    failures = 0
    for workload in args.workload or names:
        runs = []
        counts = [0, 0]
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(bench, workload, seed)
            flag = "" if res["correct"] else "  INCORRECT"
            print(f"{workload} seed {seed}: attempted {res['attempted']}, failed {res['failed']}{flag}",
                  flush=True)
            failures += not res["correct"]
            counts[0] += res["attempted"]
            counts[1] += res["failed"]
            runs.append(res["metrics"])
        values[workload] = {m: [r[m]["value"] for r in runs] for m in metrics}
        values[workload]["attempted_failed"] = counts
        line = f"  {workload:16s} {counts[1]} of {counts[0]} ops failed"
        if earlier is not None and workload in earlier:
            before = earlier[workload].get("attempted_failed")
            line += f"; earlier set {before[1]} of {before[0]}" if before else ""
            if before != counts:
                line += " DIFFERENT"
                failures += 1
        print(line, flush=True)
        for name, spec in metrics.items():
            vals = values[workload][name]
            med = statistics.median(vals)
            q1, q3, s = spread(vals)
            bound = spec["bound"]
            if name == "setup_s":
                verdict = "exempt"
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                failures += 1
            line = (f"  {workload:16s} {name:15s} median {med:<12.6g} q1 {q1:<12.6g}"
                    f" q3 {q3:<12.6g} spread {s:6.3f} (bound {bound}) {verdict}")
            if earlier is not None and workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (med - before) / before if spec["better"] == "lower" else (before - med) / before
                line += f"; vs earlier median {before:.6g}: worse by {worse:+.3f}"
                if worse > bound:
                    line += " OVER BOUND"
                    failures += 1
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
