#!/usr/bin/env python3
"""Replay criterion 2's immersion queries once and print a digest of the
answers, so that two checkouts can be compared byte for byte.

    python3 scripts/replay_search.py

The queries are the ones `tests/test_acceptance.py` decides for criterion
2: every host class with at most 4 vertices and 6 edges against every
pattern class with at most 4 vertices and 5 edges, strong then weak, the
classes as `tests/enumerate_graphs.multigraph_classes` lists them.  Each
runs through `find_immersion` with no budget, which reports its search
steps (0 for a query the counting tests rule out before a search).  The
script prints the query count, how many have an immersion, the total
steps, and one SHA-256 over one JSON line per query: its status, its
sorted vertex map, its sorted edge map (each image a sorted edge list)
and its steps.  Only the standard library
is used; the checkout's src and tests come first on the path.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from enumerate_graphs import multigraph_classes  # noqa: E402
from immtools.immersion import FOUND, find_immersion  # noqa: E402


def main() -> int:
    hosts, patterns = multigraph_classes(4, 6), multigraph_classes(4, 5)
    digest = hashlib.sha256()
    queries = found = total = 0
    for G in hosts:
        for H in patterns:
            for strong in (True, False):
                result = find_immersion(G, H, strong=strong)
                cert = result.certificate
                line = [
                    result.status,
                    sorted(cert.vertex_map.items()) if cert else None,
                    sorted((e, sorted(p)) for e, p in cert.edge_map.items()) if cert else None,
                    result.steps,
                ]
                digest.update((json.dumps(line) + "\n").encode())
                queries += 1
                found += result.status == FOUND
                total += result.steps
    print(f"queries {queries}")
    print(f"found {found}")
    print(f"steps {total}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
