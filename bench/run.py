#!/usr/bin/env python3
"""Benchmark for immtools: three workloads, each run in a fresh child process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is immersion_sweep, immersion_deep, decompose_cli, or `all` for the
three in turn.  Run it from the repository root; it imports immtools from
src/.  With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it replays the same ops with spans around every layer and
prints the per-layer metrics and the tracing overhead (span dump under
.bench_work/).  Human-readable lines come first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}
(for `all`, one such object per workload).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("immersion_sweep", "immersion_deep", "decompose_cli")
TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Run one workload in a fresh interpreter; its parsed output or None."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in time", file=sys.stderr)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(x) -> str:
    return "inf" if isinstance(x, float) and math.isinf(x) else f"{x:.6g}"


def print_report(out) -> None:
    res, rep = out["result"], out["report"]
    head = f"{out['workload']} seed={out['seed']}"
    n = res["attempted"]
    if out["trace"]:
        print(f"{head} traced: {n} ops replayed, {rep['spans']} spans"
              f" -> {rep['spans_file']}; answers identical: {rep['identical_answers']}")
        print(f"  tracing overhead: {rep['traced_op_seconds'] - rep['untraced_op_seconds']:.3f} s"
              f" ({rep['untraced_op_seconds']:.3f} s untraced, {rep['traced_op_seconds']:.3f} s traced)")
        print(f"  {'layer':48s} {'calls':>9s} {'self_s':>9s}")
        for name, v in rep["per_layer"].items():
            print(f"  {name:48s} {v['calls']:9d} {v['self_ns'] / 1e9:9.3f}")
        spans = sorted(rep["per_span"].items(), key=lambda kv: -kv[1]["self_ns"])
        print(f"  {'span':48s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s}")
        for name, v in spans:
            print(f"  {name:48s} {v['calls']:9d} {v['self_ns'] / 1e9:9.3f} {v['total_ns'] / 1e9:9.3f}")
    else:
        m = res["metrics"]
        print(f"{head}: {n} ops in {rep['passes']} passes, {rep['op_seconds']:.2f} s of op time"
              f" ({rep['ref_op_seconds']:.2f} reference s; host speed {rep['host_speed']:.3f}"
              f" of the reference, {rep['probe_samples']} probe samples)")
        print(f"  ops_per_ref_s  {_fmt(m['ops_per_ref_s']['value']):>12s} ops/s  (n={n};"
              f" {_fmt(rep['ops_per_s'])} ops/s on this host)")
        print(f"  op_p50_ref_ms  {_fmt(m['op_p50_ref_ms']['value']):>12s} ms     (n={n};"
              f" {_fmt(rep['op_p50_ms'])} ms on this host; failed ops count as infinite)")
        tail, ref_tail = rep["op_tail_ms"], rep["op_tail_ref_ms"]
        if tail:
            print(f"  op_tail_ref_ms {_fmt(ref_tail['value_ms']):>12s} ms     (p{tail['percentile']:g},"
                  f" n={n}, {tail['beyond']} beyond; {_fmt(tail['value_ms'])} ms on this host)")
        else:
            print(f"  op_tail_ref_ms {'-':>12s}        (n={n}: no percentile has 10 samples beyond it)")
        print(f"  answered_ratio {_fmt(m['answered_ratio']['value']):>12s}")
        print(f"  setup_s        {_fmt(m['setup_s']['value']):>12s} s      (reference s, median of"
              f" {rep['setup_reps']}; {_fmt(rep['setup_raw_s'])} s on this host)")
        print(f"  peak_rss_mb    {_fmt(m['peak_rss_mb']['value']):>12s} MB")
    print(f"  failed_ratio   {_fmt(res['failed'] / n):>12s}        ({res['failed']} of {n};"
          f" causes {rep['failed_causes'] or 'none'})")
    if "unchecked_negatives" in rep:
        print(f"  exit-2 answers without a checkable witness: {rep['unchecked_negatives']}")
    print(f"  correct: {res['correct']}")
    if out["trace"]:
        width = max(len(k) for k in res["metrics"])
        for name, v in res["metrics"].items():
            print(f"  {name:{width}s} {_fmt(v['value']):>12s} {v['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="immtools benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "immtools", "__init__.py")):
        print(f"error: no immtools sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S * (3 if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_child(name, args.seed, args.seconds, args.trace, deadline)
        if out is None:
            return 1
        print_report(out)
        sys.stdout.flush()
        results[name] = out["result"]
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
