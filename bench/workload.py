#!/usr/bin/env python3
"""Run one benchmark workload in this process; print the result as one JSON line.

run.py starts this file in a fresh interpreter for every workload, so peak
RSS is per workload, no cache survives from one workload to the next and
assertions stay on (never run it under ``python -O``):

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: the next op starts when the
previous one returns.  Only the op itself is timed; its answer is checked
between ops, outside the timed region.  The ops of a run are fixed by
--seconds: each workload does as many ops (or passes) as take --seconds of
reference time (see calib.py), so runs of any seed do the same work and fail the same
ops; the seed sets their order.  Latencies are scaled to the reference
host's speed by a host-speed probe (calib.py) that samples while ops run.
"""

from __future__ import annotations

import argparse
import array
import base64
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import immtools  # noqa: E402
from immtools import cli, immersion  # noqa: E402  (looked up per call, so tracing applies)

import calib  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

SEARCH_BUDGET = 1_200_000
CLOCK = time.perf_counter_ns

# Causes of a failed op.  The first group are wrong answers: any of them
# makes the run incorrect.  The rest are ops that gave no answer.
WRONG = ("wrong_verdict", "bad_certificate", "verify_rejected", "bad_cut_witness",
         "bad_output", "assertion")
NO_ANSWER = ("budget", "exit_1", "exit_3", "raised")
CAUSES = WRONG + NO_ANSWER
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)


class BenchmarkError(Exception):
    """The benchmark cannot run its checks (not a failed op)."""


# -- immersion_sweep ------------------------------------------------------


def _search_signature(result) -> str:
    cert = result.certificate
    if cert is None:
        return result.status
    return repr((sorted(cert.vertex_map.items()),
                 sorted((e, sorted(r)) for e, r in cert.edge_map.items())))


class ImmersionSweep:
    """Sample of criterion 2's queries: every host class with at most
    4 vertices and 6 edges, every pattern class with at most 4 vertices and
    5 edges, strong and weak.  One op is one find_immersion call.

    The population is ordered as in the verdict table.  A run takes the
    first OPS_PER_SECOND * seconds points of a golden-ratio sequence over it,
    so the sample is spread evenly over hosts and patterns and is the same
    for every seed; the seed shuffles the order.  The cost of a query is
    heavy-tailed (median ~20 us, p99.9 ~3 ms), so a sample drawn per seed
    would make the throughput depend on the seed more than on the program.
    """

    name = "immersion_sweep"
    OPS_PER_SECOND = 21_000  # reference-time rate: sets the sample size
    PHI = (math.sqrt(5) - 1) / 2

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        with open(os.path.join(HERE, "sweep_verdicts.json")) as fh:
            self.table = json.load(fh)
        self.bits = zlib.decompress(base64.b64decode(self.table["bits_zlib_base64"]))
        self.classes = []

    def setup(self) -> None:
        self.classes = inputs.multigraph_classes(
            4, 6, immtools.Multigraph, immtools.canonical_key
        )

    def prepare(self) -> None:
        forms = [inputs.stable_form(G.vertices, G.edges.values()) for G in self.classes]
        order = sorted(range(len(forms)), key=forms.__getitem__)
        host_forms = [forms[i] for i in order]
        patterns = [i for i in order if len(self.classes[i].edges) <= 5]
        pattern_forms = [forms[i] for i in patterns]
        if (
            len(set(forms)) != len(forms)
            or len(order) != self.table["hosts"]
            or len(patterns) != self.table["patterns"]
            or inputs.forms_digest(host_forms) != self.table["host_forms_sha256"]
            or inputs.forms_digest(pattern_forms) != self.table["pattern_forms_sha256"]
        ):
            raise BenchmarkError(
                "canonical_key dedupe gave a class list that differs from the"
                f" verdict table ({len(order)} hosts, {len(patterns)} patterns)"
            )
        self.host_rows = order
        self.pattern_cols = patterns
        self.population = len(order) * len(patterns) * 2

    def batches(self, seconds: float):
        n = max(1, round(seconds * self.OPS_PER_SECOND))
        ops = [int(((j * self.PHI) % 1.0) * self.population) for j in range(n)]
        self.rng.shuffle(ops)
        return [ops]

    def op_args(self, q: int):
        row, rest = divmod(q, len(self.pattern_cols) * 2)
        col, strong = divmod(rest, 2)
        return (
            self.classes[self.host_rows[row]],
            self.classes[self.pattern_cols[col]],
            bool(strong),
        )

    @staticmethod
    def call(G, H, strong):
        return immersion.find_immersion(G, H, strong=strong)

    def check(self, q: int, args, result):
        G, H, strong = args
        expected = bool(self.bits[q >> 3] >> (q & 7) & 1)
        if result.status == immersion.BUDGET:
            return "budget"
        if (result.status == immersion.FOUND) != expected:
            return "wrong_verdict"
        if result.status == immersion.FOUND and immtools.verify_immersion(
            G, H, result.certificate, strong
        ):
            return "bad_certificate"
        return None

    signature = staticmethod(_search_signature)


# -- immersion_deep -------------------------------------------------------


def _deep_cases():
    K3, K4, K5 = inputs.complete(3), inputs.complete(4), inputs.complete(5)
    cases = [(f"K3 strong in pk({k})", inputs.pk(k), K3, True, True) for k in range(3, 7)]
    cases += [(f"K4 strong in pk_chorded({k})", inputs.pk_chorded(k), K4, True, True)
              for k in range(3, 6)]
    cases.append(("K5 weak in pk(4)", inputs.pk(4), K5, False, False))
    # eight times per pass: its latency is the median, which needs samples
    # spread over the whole run
    random_host = inputs.random_multigraph(8, 30, 2, 3)
    cases += [("K5 weak in random(8, 30, mult 2, generator seed 3)", random_host, K5, False, False)] * 8
    return cases


class ImmersionDeep:
    """The witness family and one random host, all under one step budget
    (SEARCH_BUDGET).  One op is one find_immersion call; a pass runs the
    sixteen queries (the random host's eight times) in a seeded order, and a
    run makes as many passes as take --seconds of reference time.

    The inputs are the same for every seed; the seed orders each pass.  A
    random host's search time ranges from a millisecond to the whole budget
    depending on its generator seed, so drawing hosts per run seed would
    make every metric depend on the seed more than on the program.
    """

    name = "immersion_deep"
    PASS_SECONDS = 19.5  # reference time of one pass

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.cases = []

    def setup(self) -> None:
        self.cases = [
            (label, inputs.to_multigraph(g, immtools.Multigraph),
             inputs.to_multigraph(h, immtools.Multigraph), strong, family)
            for label, g, h, strong, family in _deep_cases()
        ]
        # first-call warm-up: the interpreter specialises the search code
        # while it runs, so the first ops would otherwise pay for it
        self.call(*self.op_args(0))

    def prepare(self) -> None:
        pass

    def batches(self, seconds: float):
        out = []
        for _ in range(max(1, math.ceil(seconds / self.PASS_SECONDS))):
            order = list(range(len(self.cases)))
            self.rng.shuffle(order)
            out.append(order)
        return out

    def op_args(self, i: int):
        _, G, H, strong, _ = self.cases[i]
        return G, H, strong

    @staticmethod
    def call(G, H, strong):
        return immersion.find_immersion(G, H, strong=strong, budget=SEARCH_BUDGET)

    def check(self, i: int, args, result):
        G, H, strong = args
        family = self.cases[i][4]
        if result.status == immersion.BUDGET:
            return "budget"
        if result.status == immersion.FOUND:
            if immtools.verify_immersion(G, H, result.certificate, strong):
                return "bad_certificate"
            if family:
                # pk(k) has no strong K3 and pk_chorded(k) no strong K4
                return "wrong_verdict"
        return None

    signature = staticmethod(_search_signature)


# -- decompose_cli --------------------------------------------------------


def write_in_place(path: str, text: str) -> None:
    """Write `text` to `path`, overwriting an existing file in place.

    On a shared ext4 disk, creating a file, or truncating one to zero and
    writing it again (which starts writeback on close), costs 0.03 to 0.6
    ms per file and varies tenfold from minute to minute; writing over the
    file's existing blocks costs ~10 us and does not vary.  Set-up repeats
    with the same contents and ops rewrite the same artifacts, so after
    the first write every write is in place.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


class DecomposeCli:
    """The README pipelines through immtools.cli.main, in process, on JSON
    files written during setup.  One op is `decompose structure` then
    `verify structure`, or `decompose linear` then `verify linear` at the
    achieved (a, w, p).

    A pass is 59 ops, in an order shuffled by the seed:
      - 42 small ops: pk(2..5) and pk_chorded(3..5), each through both
        pipelines three times (mostly argparse and JSON, so they set the
        median);
      - 6 necklaces of about 20, 40, ..., 120 vertices (alpha 4);
      - 3 paths P_n, n = 100, 200, 300 plus or minus 8 (alpha 2), the tail;
      - 8 random multigraphs, n = 12, 16, 20, 24 with 3n edges and
        multiplicity at most 2, each through both pipelines (alpha 4;
        linear with W = all, m = 1, w-limit 4).  Those with more than 16
        high-degree vertices hit the linearity ceiling and exit 1.
    Setup writes PASSES distinct passes, drawn from INPUT_SEED: the ops
    that exit 1 at the ceiling depend on the random graphs, so inputs drawn
    per seed would change the failed count from seed to seed.  A run makes
    as many passes as take --seconds of reference time, cycling through
    the PASSES distinct ones.
    """

    name = "decompose_cli"
    PASSES = 4
    INPUT_SEED = 1
    PASS_SECONDS = 4.5  # reference time of one pass

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.specs = []
        self.pass_lists = []
        self.unchecked_negatives = 0  # exit-2 answers whose witness has no check

    @staticmethod
    def _graphs(rng, small):
        """(graph, pipeline) for each op of one pass."""
        out = []
        for g, k in small:
            for _ in range(3):
                out.append((g, ("structure", 4)))
                out.append((g, ("linear", k, k)))
        for target in range(20, 121, 20):
            out.append((inputs.necklace(rng, target + rng.randint(0, 4)), ("structure", 4)))
        for n in (100, 200, 300):
            out.append((inputs.path(n + rng.randint(-8, 8)), ("structure", 2)))
        for n in (12, 16, 20, 24):
            g = inputs.random_multigraph(n, 3 * n, 2, rng.randrange(2**31))
            out.append((g, ("structure", 4)))
            g = inputs.random_multigraph(n, 3 * n, 2, rng.randrange(2**31))
            out.append((g, ("linear", 1, 4)))
        return out

    def setup(self) -> None:
        rng = random.Random(self.INPUT_SEED)
        small = [(inputs.pk(k), k) for k in range(2, 6)]
        small += [(inputs.pk_chorded(k), k) for k in range(3, 6)]
        self.specs = []
        self.pass_lists = []
        files = {}  # id(graph) -> its file: a graph used by several ops is written once
        for _ in range(self.PASSES):
            ops = []
            for graph, pipeline in self._graphs(rng, small):
                path = files.get(id(graph))
                if path is None:
                    path = files[id(graph)] = os.path.join(self.workdir, f"g{len(files)}.json")
                    write_in_place(path, json.dumps(inputs.to_json(graph)))
                i = len(self.specs)
                self.specs.append((path, os.path.join(self.workdir, f"out{i}.json"), pipeline, graph))
                ops.append(i)
            self.pass_lists.append(ops)
        # first-call warm-up of argparse and the command handlers
        warm = os.path.join(self.workdir, "warmup.json")
        write_in_place(warm, json.dumps(inputs.to_json(inputs.pk(2))))
        self.call(warm, os.path.join(self.workdir, "warmup-out.json"), ("structure", 4))

    def prepare(self) -> None:
        # the artifact files exist before the ops write them, so no op
        # pays for creating a file
        for _, artifact, _, _ in self.specs:
            write_in_place(artifact, "")

    def batches(self, seconds: float):
        out = []
        for i in range(max(1, math.ceil(seconds / self.PASS_SECONDS))):
            ops = list(self.pass_lists[i % self.PASSES])
            self.rng.shuffle(ops)
            out.append(ops)
        return out

    def op_args(self, i: int):
        path, artifact, pipeline, _ = self.specs[i]
        return path, artifact, pipeline

    @staticmethod
    def call(path, artifact, pipeline):
        if pipeline[0] == "structure":
            alpha = str(pipeline[1])
            code, text = _cli(["decompose", "structure", "--graph", path, "--alpha", alpha])
        else:
            _, m, w_limit = pipeline
            code, text = _cli(["decompose", "linear", "--graph", path, "--W", "all",
                               "--m", str(m), "--w-limit", str(w_limit)])
        if code != 0:
            return code, text, None
        write_in_place(artifact, text)
        if pipeline[0] == "structure":
            verify = ["verify", "structure", "--graph", path, "--structure", artifact,
                      "--alpha", alpha]
        else:
            achieved = json.loads(text)["achieved"]
            verify = ["verify", "linear", "--graph", path, "--W", "all", "--cert", artifact,
                      "--a", str(achieved["a"]), "--w", str(achieved["w"]),
                      "--p", str(achieved["p"])]
        vcode, _ = _cli(verify)
        return code, text, vcode

    def check(self, i: int, args, result):
        code, text, vcode = result
        if code == 0:
            return None if vcode == 0 else "verify_rejected"
        if code in (1, 3):
            return f"exit_{code}"
        if code != 2:
            return "raised"
        try:
            witness = json.loads(text)
            if witness["kind"] != "small-cut":
                self.unchecked_negatives += 1
                return None
            payload = witness["payload"]
            side, cut = set(payload["source_side"]), set(payload["cut"])
            value = payload["value"]
        except (ValueError, KeyError, TypeError):
            return "bad_output"
        vertices, edges = self.specs[i][3]
        # a cut of the graph this op was given: delta_G(side), of size value
        if not side <= set(vertices) or cut != inputs.boundary(edges, side) or value != len(cut):
            return "bad_cut_witness"
        return None

    @staticmethod
    def signature(result):
        return repr(result)


WORKLOADS = {w.name: w for w in (ImmersionSweep, ImmersionDeep, DecomposeCli)}


# -- the loop and its metrics ---------------------------------------------


RECORD_CAPACITY = 1 << 20  # ops per run at most


class Record:
    """Latency and failure cause of each op, in buffers filled in up front
    so that peak RSS does not grow with the number of ops a run makes.
    `first`/`last` are the speed probe's sample counts at the op's start
    and end.  The op ids and answer signatures that a traced run compares
    are kept only when asked for."""

    def __init__(self, keep_answers: bool = False):
        self.latency = array.array("q", bytes(8 * RECORD_CAPACITY))
        self.cause = bytearray(RECORD_CAPACITY)  # 0 = answered, else 1 + index into CAUSES
        self.first = array.array("i", bytes(4 * RECORD_CAPACITY))
        self.last = array.array("i", bytes(4 * RECORD_CAPACITY))
        self.n = 0
        self.ops = array.array("l") if keep_answers else None
        self.signatures = array.array("q") if keep_answers else None
        self.op_ns = 0
        self.passes = 0

    def __len__(self):
        return self.n

    def full(self) -> bool:
        return self.n == RECORD_CAPACITY

    def add(self, dt: int, cause, first: int = 0, last: int = 0) -> None:
        self.latency[self.n] = dt
        self.cause[self.n] = CAUSES.index(cause) + 1 if cause else 0
        self.first[self.n] = first
        self.last[self.n] = last
        self.n += 1
        self.op_ns += dt

    def causes(self) -> Counter:
        return Counter(CAUSES[c - 1] for c in self.cause[:self.n] if c)


def run_loop(wl, batches, check=True, keep_answers=False, probe=None) -> Record:
    """Run the ops of `batches` (lists of op ids) in order.  With a speed
    probe, the time it spends inside an op is taken out of that op."""
    rec = Record(keep_answers)
    reported = set()
    samples = probe.samples if probe is not None else ()
    spent0 = spent1 = first = last = 0
    for batch in batches:
        for op in batch:
            if rec.full():
                return rec
            args = wl.op_args(op)
            err = None
            t0 = CLOCK()
            if probe is not None:
                spent0, first = probe.spent_ns, len(samples)
            try:
                result = wl.call(*args)
            except AssertionError:
                err = "assertion"
            except Exception:  # recorded as a failed op; the loop goes on
                err = "raised"
            if probe is not None:
                spent1, last = probe.spent_ns, len(samples)
            dt = CLOCK() - t0 - (spent1 - spent0)
            if err is not None:
                result = None
                if err not in reported:
                    reported.add(err)
                    traceback.print_exc(file=sys.stderr)
            rec.add(dt, err or (wl.check(op, args, result) if check else None), first, last)
            if keep_answers:
                rec.ops.append(op)
                rec.signatures.append(hash(err or wl.signature(result)))
        rec.passes += 1
    return rec


def timed_setups(wl, probe, min_reps=3, min_seconds=2.0, max_reps=10000):
    """Repeat the whole setup while the speed probe runs.  Returns the raw
    times and the times in reference seconds; setup_s is the median of
    the latter."""
    raw, first, last = [], [], []
    while len(raw) < min_reps or (sum(raw) < min_seconds and len(raw) < max_reps):
        t0 = CLOCK()
        spent0, a = probe.spent_ns, len(probe.samples)
        wl.setup()
        spent1, b = probe.spent_ns, len(probe.samples)
        raw.append((CLOCK() - t0 - (spent1 - spent0)) / 1e9)
        first.append(a)
        last.append(b)
    return raw, [t * k for t, k in zip(raw, probe.scale(first, last))]


def latency_summary(latencies, causes):
    """Median and tail latency in ms; failed ops count as infinitely slow."""
    n = len(latencies)
    ok = sorted(lat for lat, c in zip(latencies, causes) if not c)

    def at_rank(rank):  # 1-based; ranks past the answered ops are failures
        return ok[rank - 1] if rank <= len(ok) else math.inf

    p50 = (at_rank((n + 1) // 2) + at_rank(n // 2 + 1)) / 2
    tail = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            tail = {"percentile": p, "value_ms": at_rank(rank) / 1e6, "beyond": n - rank}
    return p50 / 1e6, tail


def summarize(rec: Record, probe, setup_times, rss_mb):
    """End-to-end metrics.  Times are in reference time: each op's latency
    and each setup's time scaled by the host speed sampled around it."""
    setup_raw, setup_ref = setup_times
    n = len(rec)
    causes = rec.causes()
    failed = sum(causes.values())
    answered = n - failed
    scale = probe.scale(rec.first[:n], rec.last[:n])
    ref = [lat * k for lat, k in zip(rec.latency[:n], scale)]
    ref_p50_ms, ref_tail = latency_summary(ref, rec.cause[:n])
    p50_ms, tail = latency_summary(rec.latency[:n], rec.cause[:n])
    if math.isinf(p50_ms):
        raise BenchmarkError(f"{failed} of {n} ops failed: the median latency is infinite")
    ref_seconds = math.fsum(ref) / 1e9
    metrics = {
        "ops_per_ref_s": {"value": answered / ref_seconds, "unit": "ops/s"},
        "op_p50_ref_ms": {"value": ref_p50_ms, "unit": "ms"},
        "answered_ratio": {"value": answered / n, "unit": "fraction"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    report = {
        "samples": n,
        "passes": rec.passes,
        "op_seconds": rec.op_ns / 1e9,
        "ref_op_seconds": ref_seconds,
        "host_speed": probe.mean_speed(),
        "probe_samples": len(probe.samples),
        "ops_per_s": answered / (rec.op_ns / 1e9),
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail,
        "op_tail_ref_ms": ref_tail,
        "failed_ratio": failed / n,
        "failed_causes": dict(causes),
        "setup_reps": len(setup_raw),
        "setup_raw_s": statistics.median(setup_raw),
    }
    return failed, metrics, report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced(wl, rec: Record, seed: int):
    """Replay the ops of an untraced run with spans on: same inputs, same
    order.  Returns (identical answers?, per-layer metrics, span table)."""
    tr = tracer.Tracer()
    tr.install(immtools)
    try:
        t0 = CLOCK()
        wl.setup()
        setup_ns = CLOCK() - t0
        replay = run_loop(wl, [list(rec.ops)], check=False, keep_answers=True)
    finally:
        tr.uninstall()
    same = replay.signatures == rec.signatures
    per = tr.aggregate()
    totals = tr.layer_totals(per)
    overhead_s = (replay.op_ns - rec.op_ns) / 1e9
    metrics = tr.layer_metrics(totals, setup_ns + replay.op_ns, overhead_s)
    path = os.path.join(ROOT, ".bench_work", f"trace-{wl.name}-seed{seed}.tsv.gz")
    tr.write(path)
    details = {
        "spans": len(tr.start),
        "spans_file": os.path.relpath(path, ROOT),
        "untraced_op_seconds": rec.op_ns / 1e9,
        "traced_op_seconds": replay.op_ns / 1e9,
        "traced_setup_seconds": setup_ns / 1e9,
        "per_layer": totals,
        "per_span": {k: v for k, v in per.items() if v["calls"]},
    }
    return same, metrics, details


def run(args, workdir):
    wl = WORKLOADS[args.workload](args.seed, workdir)
    if not args.trace:
        with calib.SpeedProbe() as probe:
            setup_times = timed_setups(wl, probe)
            wl.prepare()
            batches = wl.batches(args.seconds)
            rec = run_loop(wl, batches, probe=probe)
        failed, metrics, report = summarize(rec, probe, setup_times, peak_rss_mb())
        causes = rec.causes()
        correct = not any(causes[c] for c in WRONG)
    else:
        wl.setup()
        wl.prepare()
        rec = run_loop(wl, wl.batches(args.seconds / 4), keep_answers=True)
        causes = rec.causes()
        failed = sum(causes.values())
        same, metrics, report = traced(wl, rec, args.seed)
        report["identical_answers"] = same
        report["failed_causes"] = dict(causes)
        correct = same and not any(causes[c] for c in WRONG)
    if isinstance(wl, DecomposeCli):
        report["unchecked_negatives"] = wl.unchecked_negatives
    return {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "result": {"correct": correct, "attempted": len(rec), "failed": failed,
                   "metrics": metrics},
        "report": report,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not __debug__:
        print("error: run without -O; find_immersion's certificate assert must stay on",
              file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(immtools.__file__)) != os.path.join(SRC, "immtools"):
        print(f"error: imported immtools from {immtools.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        out = run(args, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
