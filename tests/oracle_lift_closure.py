"""Independent brute-force immersion oracle via operation closures.

A pattern is strongly immersed in a host iff the pattern can be obtained
from the host by vertex splittings (lift a perfect pairing of the edges
at a loop-free vertex, then remove it; an empty pairing removes an
isolated vertex) and edge removals.  The weak variant additionally
allows single lifts without removing the vertex and arbitrary vertex
deletions.  The oracle computes the full closure of a host under these
operations, up to isomorphism, and answers membership queries by
canonical key.  Closure sets are memoized globally by canonical key, so
hosts sharing intermediate graphs share work.

The two operations of the definition, `lift` and `split_off_vertex`, live
here: the oracle is their only caller, and the property tests of
`tests/test_multigraph.py` and `tests/test_properties.py` check them.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from immtools import Multigraph, canonical_key
from immtools.multigraph import _fresh_name


def _lift_pivot(G: Multigraph, e: str, f: str, pivot: str | None) -> str:
    ea, eb = G.edges[e]
    fa, fb = G.edges[f]
    shared = {ea, eb} & {fa, fb}
    if not shared:
        raise ValueError(f"edges {e!r} and {f!r} are not incident")
    if len(shared) == 2 and pivot is None:
        raise ValueError(
            f"edges {e!r} and {f!r} share both endpoints; name the pivot explicitly"
        )
    if pivot is None:
        (pivot,) = shared
    elif pivot not in shared:
        raise ValueError(f"{pivot!r} is not a shared endpoint of {e!r} and {f!r}")
    return pivot


def lift(G: Multigraph, e: str, f: str, pivot: str | None = None) -> Multigraph:
    """Replace incident edges e = uv, f = vw by a single edge uw.

    Loops cannot be lifted.  When e and f are parallel, the pivot vertex
    must be named by the caller; the result is then a loop at the other
    endpoint.
    """
    if e == f:
        raise ValueError("lift needs two distinct edges")
    for eid in (e, f):
        if eid not in G.edges:
            raise ValueError(f"unknown edge {eid!r}")
        if len(set(G.edges[eid])) == 1:
            raise ValueError(f"cannot lift the loop {eid!r}")
    v = _lift_pivot(G, e, f, pivot)
    ea, eb = G.edges[e]
    fa, fb = G.edges[f]
    u = ea if eb == v else eb
    w = fa if fb == v else fb
    edges = {k: ab for k, ab in G.edges.items() if k not in (e, f)}
    new_id = _fresh_name(f"{e}*{f}", edges.keys())
    edges[new_id] = (u, w)
    return Multigraph(G.vertices, edges)


def split_off_vertex(
    G: Multigraph, v: str, pairing: Iterable[Tuple[str, str]]
) -> Multigraph:
    """Lift each pair of the pairing at v, then delete v and its leftovers."""
    if v not in G.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    pairing = list(pairing)
    seen = set()
    for e, f in pairing:
        for eid in (e, f):
            if eid not in G.edges:
                raise ValueError(f"unknown edge {eid!r}")
            if v not in G.edges[eid]:
                raise ValueError(f"edge {eid!r} is not incident with {v!r}")
            if len(set(G.edges[eid])) == 1:
                raise ValueError(f"loop {eid!r} cannot take part in a splitting")
            if eid in seen:
                raise ValueError(f"edge {eid!r} appears in two pairs")
            seen.add(eid)
        if e == f:
            raise ValueError("a pair must consist of two distinct edges")
    H = G
    for e, f in pairing:
        H = lift(H, e, f, pivot=v)
    return H.without_vertices({v})


_strong_memo: Dict[tuple, FrozenSet[tuple]] = {}
_weak_memo: Dict[tuple, FrozenSet[tuple]] = {}


def _perfect_pairings(edges: List[str]) -> Iterator[List[Tuple[str, str]]]:
    if not edges:
        yield []
        return
    first = edges[0]
    for i in range(1, len(edges)):
        rest = edges[1:i] + edges[i + 1:]
        for tail in _perfect_pairings(rest):
            yield [(first, edges[i])] + tail


def _strong_successors(G: Multigraph) -> Iterator[Multigraph]:
    for e in sorted(G.edges):
        yield G.without_edges({e})
    for v in sorted(G.vertices):
        inc = G.incident(v)
        if any(len(set(G.edges[e])) == 1 for e in inc) or len(inc) % 2 != 0:
            continue
        for pairing in _perfect_pairings(inc):
            yield split_off_vertex(G, v, pairing)


def _weak_successors(G: Multigraph) -> Iterator[Multigraph]:
    for e in sorted(G.edges):
        yield G.without_edges({e})
    for v in sorted(G.vertices):
        yield G.without_vertices({v})
    eids = sorted(e for e in G.edges if len(set(G.edges[e])) != 1)
    for e, f in itertools.combinations(eids, 2):
        shared = set(G.edges[e]) & set(G.edges[f])
        for pivot in sorted(shared):
            yield lift(G, e, f, pivot=pivot)


def _closure(G: Multigraph, memo: Dict[tuple, FrozenSet[tuple]], successors) -> FrozenSet[tuple]:
    key = canonical_key(G)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out = {key}
    for H in successors(G):
        out |= _closure(H, memo, successors)
    result = frozenset(out)
    memo[key] = result
    return result


def strong_closure(G: Multigraph) -> FrozenSet[tuple]:
    return _closure(G, _strong_memo, _strong_successors)


def weak_closure(G: Multigraph) -> FrozenSet[tuple]:
    return _closure(G, _weak_memo, _weak_successors)


def oracle_immersed(G: Multigraph, H: Multigraph, strong: bool) -> bool:
    closure = strong_closure(G) if strong else weak_closure(G)
    return canonical_key(H) in closure
