#!/usr/bin/env python3
"""Smoke test of the benchmark's answer checks, at tiny sizes:

    python3 bench/smoke.py

A few immersion_sweep queries run with find_immersion returning a
corrupted certificate, and one decompose_cli op runs with the command
line emitting a wrong cut witness.  Each must be counted as a failed op
with the right cause, and the same ops without the fault must pass.
Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
from unittest import mock

import inputs
import workload as wl
from immtools import cli, immersion, jsonio

FIND = immersion.find_immersion
TO_JSON = jsonio.failure_to_json


def corrupted_search(G, H, strong=False, budget=None):
    """find_immersion, but a found certificate loses the image of one edge."""
    result = FIND(G, H, strong=strong, budget=budget)
    if result.status != immersion.FOUND:
        return result
    cert = result.certificate
    first = min(cert.edge_map)
    bad = dataclasses.replace(cert, edge_map={**cert.edge_map, first: frozenset()})
    return immersion.SearchResult(status=immersion.FOUND, certificate=bad)


def wrong_witness_json(witness):
    """failure_to_json, but a cut witness claims one edge fewer."""
    out = TO_JSON(witness)
    if witness.kind == "small-cut":
        out["payload"]["cut"] = out["payload"]["cut"][1:]
    return out


def sweep_case(workdir):
    sweep = wl.ImmersionSweep(0, workdir)
    sweep.setup()
    sweep.prepare()
    ops = []
    q = 0
    while len(ops) < 5:
        G, H, strong = sweep.op_args(q)
        if H.edges and sweep.bits[q >> 3] >> (q & 7) & 1:
            ops.append(q)
        q += 1
    clean = wl.run_loop(sweep, [ops])
    with mock.patch.object(immersion, "find_immersion", corrupted_search):
        faulty = wl.run_loop(sweep, [ops])
    return ops, clean, faulty, "bad_certificate"


def decompose_case(workdir):
    # two doubled edges joined by a single edge: with W = all and m = 2 the
    # auxiliary graph is disconnected, so `decompose linear` exits 2 with
    # the cut {bc} as its witness
    graph = (["a", "b", "c", "d"],
             {"e0": ("a", "b"), "e1": ("a", "b"), "e2": ("b", "c"),
              "e3": ("c", "d"), "e4": ("c", "d")})
    dec = wl.DecomposeCli(0, workdir)
    path = os.path.join(workdir, "g.json")
    with open(path, "w") as fh:
        json.dump(inputs.to_json(graph), fh)
    dec.specs = [(path, os.path.join(workdir, "out.json"), ("linear", 2, 4), graph)]
    clean = wl.run_loop(dec, [[0]])
    with mock.patch.object(cli, "failure_to_json", wrong_witness_json):
        faulty = wl.run_loop(dec, [[0]])
    return [0], clean, faulty, "bad_cut_witness"


def main() -> int:
    os.makedirs(os.path.join(wl.ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(wl.ROOT, ".bench_work"))
    ok = True
    try:
        for case in (sweep_case, decompose_case):
            ops, clean, faulty, cause = case(workdir)
            clean_causes, faulty_causes = clean.causes(), faulty.causes()
            passed = not clean_causes and faulty_causes == {cause: len(ops)}
            ok &= passed
            print(f"{case.__name__}: {len(ops)} ops; without the fault {dict(clean_causes) or 'no failures'};"
                  f" with it {dict(faulty_causes)} -> {'ok' if passed else 'FAILED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
