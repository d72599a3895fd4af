#!/usr/bin/env python3
"""Build a graph by gluing two triangles along matched boundary edges,
run the structure decomposition, and print the resulting tree, bags,
adhesion, and per-torso linearity certificates."""

import json
import os
import sys

from immtools import (
    FailureWitness,
    Multigraph,
    adhesion,
    edge_sum,
    structure_decompose,
    verify_structure,
)
from immtools.jsonio import structure_to_json


def main() -> None:
    G1 = Multigraph(
        frozenset({"a1", "a2", "a3"}),
        {"t1": ("a1", "a2"), "t2": ("a2", "a3"), "t3": ("a1", "a3")},
    )
    G2 = Multigraph(
        frozenset({"b1", "b2", "b3"}),
        {"u1": ("b1", "b2"), "u2": ("b2", "b3"), "u3": ("b1", "b3")},
    )
    G = edge_sum(G1, "a3", G2, "b3", {"t2": "u2", "t3": "u3"})
    print(f"glued graph: {sorted(G.vertices)}")
    for e in sorted(G.edges):
        print(f"  {e}: {G.edges[e]}")

    alpha = 3
    result = structure_decompose(G, alpha)
    if isinstance(result, FailureWitness):
        print(f"decomposition failed: {result.kind}")
        return
    D = result.decomposition
    print(f"\ntree nodes: {sorted(D.tree_nodes)}")
    print(f"tree edges: {sorted(sorted(e) for e in D.tree_edges)}")
    for n in sorted(D.bags):
        print(f"  bag {n}: {sorted(D.bags[n])}")
    print(f"adhesion: {adhesion(G, D)} (< alpha = {alpha})")
    bad = verify_structure(G, D, result.certificates, alpha)
    print(f"verification: {'accepted' if not bad else bad}")
    print("\nfull artifact:")
    print(json.dumps(structure_to_json(result), sort_keys=True, indent=2))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed pipe is found here, not at exit
    except BrokenPipeError:  # as the immtools CLI: exit 141, nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
