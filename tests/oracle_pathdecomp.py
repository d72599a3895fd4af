"""Reference versions of the linearity layer.

- `min_linearizing_set` and `has_k1k_minor` build a new `SimpleGraph` for
  every subset they try.  `immtools.pathdecomp` tests the same star-minor
  center sets, in the same order, on vertex bitmasks, so both return the
  same first hit.
- `min_linearizing_mask` tests every subset of each size, in lexicographic
  order, on vertex bitmasks.  `immtools.pathdecomp` finds the same first
  smallest set by a depth-first search that stops a branch once its kept
  vertices cannot end as a path union.
- `build_auxiliary_graph` runs one flow per pair of W, on one network of
  G with the rest of W closed.  `immtools.pathdecomp` runs flows only for
  the pairs below m that share a component of G - W.
- `verify_linear_certificate` builds G - A and measures the width as the
  largest `xi_cut` and each boundedness by `boundedness`.
  `immtools.pathdecomp` measures both in one sweep over G's edges.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Union

from immtools import (
    LinearityCertificate,
    Multigraph,
    SimpleGraph,
    StarMinorModel,
    boundedness,
    width,
)
from immtools.flow import FlowNetwork
from immtools.pathdecomp import _SUBSET_SEARCH_LIMIT, _star_model
from immtools.simplegraph import _is_path_union


def has_k1k_minor(H: SimpleGraph, k: int) -> Union[StarMinorModel, bool]:
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(H.vertices) > _SUBSET_SEARCH_LIMIT:
        raise ValueError("instance above configured size limit")
    verts = sorted(H.vertices)
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            C = frozenset(combo)
            sub = SimpleGraph(C, frozenset(e for e in H.edges if e <= C))
            if not sub.is_connected():
                continue
            outside = frozenset().union(*(H.neighbors(v) for v in C)) - C
            if len(outside) >= k:
                return _star_model(H, C, sorted(outside)[:k])
    return False


def min_linearizing_set(H: SimpleGraph) -> FrozenSet[str]:
    if len(H.vertices) > _SUBSET_SEARCH_LIMIT:
        raise ValueError("instance above configured size limit")
    verts = sorted(H.vertices)
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if H.without(combo).is_disjoint_union_of_paths():
                return frozenset(combo)
    raise AssertionError("removing every vertex always leaves a path union")


def min_linearizing_mask(nbr: List[int]) -> int:
    n = len(nbr)
    if n > _SUBSET_SEARCH_LIMIT:
        raise ValueError("instance above configured size limit")
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            removed = 0
            for i in combo:
                removed |= 1 << i
            if _is_path_union(nbr, full ^ removed):
                return removed
    raise AssertionError("removing every vertex always leaves a path union")


def build_auxiliary_graph(G: Multigraph, W: Iterable[str], m: int) -> SimpleGraph:
    W = frozenset(W)
    edges = []
    if len(W) > 1:
        net = FlowNetwork(G)
        index = net.index
        for x, y in itertools.combinations(sorted(W), 2):
            closed = [index[w] for w in W - {x, y}]
            if net.max_flow([index[x]], [index[y]], closed, limit=m) >= m:
                edges.append((x, y))
    return SimpleGraph.build(W, edges)


def verify_linear_certificate(
    G: Multigraph, W: Iterable[str], cert: LinearityCertificate, a: int, w: int, p: int
) -> List[str]:
    W = frozenset(W)
    out = []
    if not cert.A <= W:
        out.append(f"A is not a subset of W: {sorted(cert.A - W)}")
    if len(cert.A) > a:
        out.append(f"|A| = {len(cert.A)} exceeds a = {a}")
    if not cert.A <= G.vertices:
        out.append(f"A contains unknown vertices: {sorted(cert.A - G.vertices)}")
        return out
    reduced = G.without_vertices(cert.A)
    out.extend(cert.decomposition.violations(reduced.vertices, W - cert.A))
    if out:
        return out
    got_w = width(reduced, cert.decomposition)
    if got_w >= w:
        out.append(f"width {got_w} is not less than w = {w}")
    for v in sorted(cert.A):
        Z = G.neighbors(v) & reduced.vertices
        b = boundedness(reduced, cert.decomposition, Z)
        if b > p:
            out.append(f"neighborhood of {v!r} has boundedness {b} > p = {p}")
    return out
