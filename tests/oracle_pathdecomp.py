"""Reference versions of the linearity layer.

- `min_linearizing_set` and `has_k1k_minor` build a new `SimpleGraph` for
  every subset they try.  `immtools.pathdecomp` tests the same star-minor
  center sets, in the same order, on vertex bitmasks, so both return the
  same first hit.
- `_star_model` builds a star model on names: a depth-first spanning tree
  of the center set from its smallest vertex, one pendant edge per leaf to
  its smallest neighbour in the set, then a prune of every other tree
  leaf, the centre the smallest vertex left that is not a leaf.
  `immtools.pathdecomp` builds the same model in one walk over the
  search's bitmasks, without a prune.
- `min_linearizing_mask` tests every subset of each size, in lexicographic
  order, on vertex bitmasks.  Like the string versions above, it stops
  above `ENUMERATION_LIMIT` vertices, since it tries up to 2^n subsets.
- `pruned_linearizing_mask` is the reference above that range: a
  depth-first search for each size in turn that decides the vertices in
  order, tries deleting each one before keeping it, and stops a branch
  once its kept vertices cannot end as a path union.  The first set it
  finds is the first smallest one in lexicographic order.
  `immtools.pathdecomp` finds the same set by a decision search that
  branches on the vertices of degree >= 3, then decides the vertices in
  order.
- `build_auxiliary_graph` runs one flow per pair of W, on one network of
  G with the rest of W closed.  `immtools.pathdecomp` runs flows only for
  the pairs below m that share a component of G - W.
- `xi_cut`, `width` and `boundedness` measure a decomposition by their
  definitions: the edges across the split at each x_i, the most of them,
  and the ordering vertices and bags that a vertex set meets.
- `verify_linear_certificate` builds G - A and measures the width as the
  largest `xi_cut` and each boundedness by `boundedness`.
  `immtools.pathdecomp` measures both in one sweep over G's edges.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Optional, Union

from helpers import sg
from immtools import (
    LinearityCertificate,
    Multigraph,
    PathLikeDecomposition,
    SimpleGraph,
    StarMinorModel,
)
from immtools.flow import FlowNetwork
from immtools.simplegraph import _is_path_union

ENUMERATION_LIMIT = 16  # the subset enumerators stop above this many vertices


def has_k1k_minor(H: SimpleGraph, k: int) -> Union[StarMinorModel, bool]:
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(H.vertices) > ENUMERATION_LIMIT:
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


def _star_model(H: SimpleGraph, C: FrozenSet[str], leaf_list: List[str]) -> StarMinorModel:
    # spanning tree of H[C] plus one pendant edge per designated leaf,
    # pruned so the designated leaves are exactly the tree's leaves
    tree_edges = set()
    seen = {min(C)}
    frontier = [min(C)]
    adj = H.adjacency()
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u in C and u not in seen:
                seen.add(u)
                tree_edges.add(frozenset((v, u)))
                frontier.append(u)
    nodes = set(C)
    for leaf in leaf_list:
        anchor = min(u for u in adj[leaf] if u in C)
        tree_edges.add(frozenset((leaf, anchor)))
        nodes.add(leaf)
    designated = set(leaf_list)
    while True:
        tree = SimpleGraph(frozenset(nodes), frozenset(tree_edges))
        prune = sorted(
            v for v in nodes if tree.degree(v) <= 1 and v not in designated
        )
        if not prune:
            break
        v = prune[0]
        nodes.discard(v)
        tree_edges = {e for e in tree_edges if v not in e}
    tree = SimpleGraph(frozenset(nodes), frozenset(tree_edges))
    center = min(v for v in nodes if v not in tree.leaves())
    return StarMinorModel(center=center, leaves=frozenset(designated), tree=tree)


def min_linearizing_set(H: SimpleGraph) -> FrozenSet[str]:
    if len(H.vertices) > ENUMERATION_LIMIT:
        raise ValueError("instance above configured size limit")
    verts = sorted(H.vertices)
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if H.without(combo).is_disjoint_union_of_paths():
                return frozenset(combo)
    raise AssertionError("removing every vertex always leaves a path union")


def min_linearizing_mask(nbr: List[int]) -> int:
    n = len(nbr)
    if n > ENUMERATION_LIMIT:
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


def pruned_linearizing_mask(nbr: List[int]) -> int:
    n = len(nbr)
    for size in range(n + 1):
        removed = _linearizing_within(nbr, n, 0, 0, size)
        if removed is not None:
            return removed
    raise AssertionError("removing every vertex always leaves a path union")


def _linearizing_within(nbr: List[int], n: int, i: int, removed: int, left: int) -> Optional[int]:
    """The first mask, in lexicographic order, that extends `removed` by at
    most `left` of the vertices i..n-1 and leaves a path union, or None.

    The vertices below i that `removed` keeps induce a path union, and each
    has at most 2 + left neighbours outside `removed`.  A branch stops as
    soon as either fails: deleting vertices never joins two kept ones, and
    a kept vertex loses at most one neighbour per deletion."""
    live = ((1 << n) - 1) ^ removed
    if not left or i == n:
        return removed if _is_path_union(nbr, live) else None
    bit = 1 << i
    kept = live & (bit - 1)
    # delete i: the kept vertices it does not touch lose a deletion, not a neighbour
    rest = kept & ~nbr[i]
    while rest:
        low = rest & -rest
        if (nbr[low.bit_length() - 1] & live).bit_count() > left + 1:
            break
        rest ^= low
    else:
        found = _linearizing_within(nbr, n, i + 1, removed | bit, left - 1)
        if found is not None:
            return found
    # keep i
    if (nbr[i] & live).bit_count() <= 2 + left and _is_path_union(nbr, kept | bit):
        return _linearizing_within(nbr, n, i + 1, removed, left)
    return None


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
    return sg(W, edges)


def xi_cut(G: Multigraph, P: PathLikeDecomposition, i: int) -> FrozenSet[str]:
    """Edges crossing the prefix/suffix split around x_i (1-based)."""
    t = len(P.ordering)
    if not 1 <= i <= t:
        raise ValueError(f"index {i} out of range 1..{t}")
    left = set(P.ordering[: i - 1])
    for bag in P.bags[:i]:
        left |= bag
    right = set(P.ordering[i:])
    for bag in P.bags[i:]:
        right |= bag
    return frozenset(
        e
        for e, (a, b) in G.edges.items()
        if (a in left and b in right) or (b in left and a in right)
    )


def width(G: Multigraph, P: PathLikeDecomposition) -> int:
    t = len(P.ordering)
    if t == 0:
        return 0
    return max(len(xi_cut(G, P, i)) for i in range(1, t + 1))


def boundedness(G: Multigraph, P: PathLikeDecomposition, Z: Iterable[str]) -> int:
    Z = frozenset(Z)
    hit_bags = sum(1 for bag in P.bags if bag & Z)
    return len(Z & set(P.ordering)) + hit_bags


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
