"""Shared builders and checkers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from immtools import Multigraph, SimpleGraph


def mg(vertices: Iterable[str], edges: Dict[str, str | Tuple[str, str]]) -> Multigraph:
    """Compact multigraph builder; edge endpoints may be given as a
    two-character string ("ab") or a pair."""
    parsed = {}
    for eid, ends in edges.items():
        if isinstance(ends, str):
            if len(ends) != 2:
                raise ValueError(f"endpoint shorthand must be 2 chars: {ends!r}")
            parsed[eid] = (ends[0], ends[1])
        else:
            parsed[eid] = tuple(ends)
    return Multigraph(frozenset(vertices), parsed)


def sg(vertices: Iterable[str], edges: Iterable[str | Tuple[str, str]]) -> SimpleGraph:
    pairs = []
    for e in edges:
        if isinstance(e, str):
            pairs.append((e[0], e[1]))
        else:
            pairs.append(tuple(e))
    return SimpleGraph(frozenset(vertices), frozenset(frozenset(p) for p in pairs))


def random_multigraph(
    rng: random.Random,
    max_n: int = 6,
    max_edges: int = 10,
    allow_loops: bool = True,
) -> Multigraph:
    """A small random multigraph for property tests, with its shape drawn
    from the given generator."""
    n = rng.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    e = rng.randint(0, max_edges)
    edges = {}
    for idx in range(e):
        u = rng.choice(names)
        v = rng.choice(names)
        if u == v and (n > 1 and not allow_loops):
            v = rng.choice([x for x in names if x != u])
        if u == v and not allow_loops:
            continue
        edges[f"e{idx}"] = (u, v)
    return Multigraph(frozenset(names), edges)


def check_path(G: Multigraph, path: Sequence[str], sources, sinks) -> None:
    """Assert that a list of edge ids forms a walk from a source to a sink
    with no repeated edges."""
    assert path, "empty path"
    assert len(set(path)) == len(path), "path repeats an edge"
    sources = frozenset(sources)
    sinks = frozenset(sinks)
    a, b = G.edges[path[0]]
    starts = {a, b} & sources
    assert starts, f"path does not start at a source: {path}"
    # walk forward from a source endpoint
    here = next(iter(starts))
    for eid in path:
        u, v = G.edges[eid]
        assert here in (u, v), f"edges {path} do not chain at {here!r}"
        here = v if here == u else u
    assert here in sinks, f"path ends at {here!r}, not a sink"


def all_min_cut_sides(G: Multigraph, S, T, value: int) -> List[frozenset]:
    """Every source side achieving the minimum cut value, by subset
    enumeration; intended for graphs with few vertices."""
    import itertools

    S = frozenset(S)
    T = frozenset(T)
    middle = sorted(G.vertices - S - T)
    sides = []
    for r in range(len(middle) + 1):
        for extra in itertools.combinations(middle, r):
            side = S | frozenset(extra)
            if len(G.boundary(side)) == value:
                sides.append(side)
    return sides


def isomorphic_with_pins(
    G: Multigraph,
    H: Multigraph,
    pins: Dict[str, str],
    max_size: int = 10,
) -> Optional[bool]:
    """Does an isomorphism G -> H extend the given partial map?

    Returns True/False, or None when either graph exceeds max_size and the
    check is skipped as unverified.
    """
    if len(G.vertices) > max_size or len(H.vertices) > max_size:
        return None
    if len(G.vertices) != len(H.vertices) or len(G.edges) != len(H.edges):
        return False
    for g, h in pins.items():
        if g not in G.vertices or h not in H.vertices:
            return False
    mg = Counter(G.edges.values())  # sorted end pair -> multiplicity
    mh = Counter(H.edges.values())
    gverts = sorted(pins) + sorted(G.vertices - set(pins))
    mapped: Dict[str, str] = {}
    used = set()

    def consistent(v: str, w: str) -> bool:
        if G.degree(v) != H.degree(w):
            return False
        if mg[(v, v)] != mh[(w, w)]:
            return False
        for u, x in mapped.items():
            a, b = (v, u) if v <= u else (u, v)
            c, d = (w, x) if w <= x else (x, w)
            if mg[(a, b)] != mh[(c, d)]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(gverts):
            return True
        v = gverts[i]
        candidates = [pins[v]] if v in pins else sorted(H.vertices - used)
        for w in candidates:
            if w in used or not consistent(v, w):
                continue
            mapped[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapped[v]
            used.discard(w)
        return False

    return extend(0)
