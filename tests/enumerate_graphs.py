"""Exhaustive enumeration of small graphs up to isomorphism.

Multigraph classes are generated by choosing an edge multiset over the
possible sites (vertex pairs and loop sites) and deduplicating by
canonical key.  Connected simple graphs are generated by vertex
augmentation: every connected graph on n vertices arises from one on
n-1 vertices by adding a vertex joined to a non-empty neighborhood.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from immtools import Multigraph, SimpleGraph, canonical_key


def _names(n: int) -> List[str]:
    return [f"v{i}" for i in range(n)]


def multigraphs(
    max_n: int, max_e: int, include_loops: bool = True
) -> Iterator[Multigraph]:
    """Every edge multiset over the vertex pairs (and loop sites) of
    v0..v{n-1}, for n up to max_n, with at most max_e edges."""
    for n in range(0, max_n + 1):
        names = _names(n)
        sites: List[Tuple[str, str]] = [
            (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
        ]
        if include_loops:
            sites += [(v, v) for v in names]
        for e in range(0, max_e + 1):
            for combo in itertools.combinations_with_replacement(sites, e):
                yield Multigraph(
                    frozenset(names),
                    {f"e{i}": pair for i, pair in enumerate(combo)},
                )


def multigraph_classes(
    max_n: int, max_e: int, include_loops: bool = True
) -> List[Multigraph]:
    """One representative per isomorphism class with at most max_n
    vertices and at most max_e edges (isolated vertices matter: classes
    with different vertex counts are distinct)."""
    reps: Dict[tuple, Multigraph] = {}
    for G in multigraphs(max_n, max_e, include_loops):
        reps.setdefault(canonical_key(G), G)
    return list(reps.values())


def connected_simple_graphs(max_n: int) -> Iterator[SimpleGraph]:
    """All connected simple graphs with 1..max_n vertices, one per
    isomorphism class."""
    current = [SimpleGraph(frozenset(["v0"]), frozenset())]
    yield current[0]
    for n in range(2, max_n + 1):
        new = _names(n)[-1]
        seen = set()
        nxt: List[SimpleGraph] = []
        for H in current:
            old = sorted(H.vertices)
            for r in range(1, n):
                for nbrs in itertools.combinations(old, r):
                    G = SimpleGraph(
                        H.vertices | {new},
                        H.edges | {frozenset((new, u)) for u in nbrs},
                    )
                    key = canonical_key(_as_multigraph(G))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(G)
                        yield G
        current = nxt


def _as_multigraph(H: SimpleGraph) -> Multigraph:
    return Multigraph(
        H.vertices,
        {
            "-".join(sorted(e)): tuple(sorted(e))
            for e in H.edges
        },
    )
