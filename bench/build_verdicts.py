#!/usr/bin/env python3
"""Build bench/sweep_verdicts.json, the verdict table of immersion_sweep.

For every host class (at most 4 vertices, 6 edges), pattern class (at most
4 vertices, 5 edges) and strong/weak flag, the table holds whether the
pattern is immersed in the host.  Verdicts come from the brute-force
lift/split closure oracle in tests/oracle_lift_closure.py (imported, never
modified), and every one is cross-checked against find_immersion before
the table is written.  Rows and columns are ordered by `stable_form`.

Run from the repository root (takes about a minute):

    python3 bench/build_verdicts.py
"""

from __future__ import annotations

import base64
import json
import os
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import inputs  # noqa: E402
from immtools import FOUND, Multigraph, canonical_key, find_immersion  # noqa: E402
from oracle_lift_closure import strong_closure, weak_closure  # noqa: E402

TABLE = os.path.join(HERE, "sweep_verdicts.json")
MAX_N, HOST_MAX_E, PATTERN_MAX_E = 4, 6, 5


def ordered_classes():
    """Host and pattern representatives, each sorted by stable form."""
    hosts = inputs.multigraph_classes(MAX_N, HOST_MAX_E, Multigraph, canonical_key)
    keyed = sorted(
        (inputs.stable_form(G.vertices, G.edges.values()), G) for G in hosts
    )
    host_forms = [f for f, _ in keyed]
    if len(set(host_forms)) != len(host_forms):
        raise SystemExit("two host representatives share a stable form")
    patterns = [(f, G) for f, G in keyed if len(G.edges) <= PATTERN_MAX_E]
    return keyed, patterns


def main() -> int:
    start = time.perf_counter()
    hosts, patterns = ordered_classes()
    pattern_keys = [canonical_key(H) for _, H in patterns]
    bits = bytearray((len(hosts) * len(patterns) * 2 + 7) // 8)
    found = 0
    for hi, (_, G) in enumerate(hosts):
        closures = {True: strong_closure(G), False: weak_closure(G)}
        for pi, (_, H) in enumerate(patterns):
            for strong in (False, True):
                expected = pattern_keys[pi] in closures[strong]
                got = find_immersion(G, H, strong=strong).status == FOUND
                if got != expected:
                    raise SystemExit(
                        f"oracle and find_immersion disagree (strong={strong}):"
                        f" host {sorted(G.edges.values())}"
                        f" pattern {sorted(H.edges.values())}"
                    )
                if expected:
                    idx = (hi * len(patterns) + pi) * 2 + strong
                    bits[idx >> 3] |= 1 << (idx & 7)
                    found += 1
    table = {
        "hosts": len(hosts),
        "patterns": len(patterns),
        "host_forms_sha256": inputs.forms_digest(f for f, _ in hosts),
        "pattern_forms_sha256": inputs.forms_digest(f for f, _ in patterns),
        "index": "bit (host * patterns + pattern) * 2 + strong, LSB first",
        "found": found,
        "bits_zlib_base64": base64.b64encode(zlib.compress(bytes(bits), 9)).decode(),
    }
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    checks = len(hosts) * len(patterns) * 2
    print(
        f"{len(hosts)} hosts x {len(patterns)} patterns x 2: {checks} verdicts,"
        f" {found} found, oracle and find_immersion agree;"
        f" wrote {os.path.relpath(TABLE, ROOT)} in {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
