"""Path-like decompositions and linearity certificates: the data model,
the verifier, the pairwise-connectivity auxiliary graph, star-minor and
linearizing-set search, and the decomposition algorithm built from nested
minimal separators."""

from __future__ import annotations

import dataclasses
import itertools
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from .connectivity import CutWitness, _set_flow, max_flow_min_cut
from .flow import FlowNetwork
from .multigraph import Multigraph
from .simplegraph import SimpleGraph, StarMinorModel

SMALL_CUT = "small-cut"
STAR_MINOR = "star-minor"
NOT_PATH_SHAPED = "not-path-shaped"

_SUBSET_SEARCH_LIMIT = 16


class SizeLimitError(ValueError):
    """The input is valid but larger than a search or an output accepts."""


@dataclasses.dataclass(frozen=True)
class PathLikeDecomposition:
    """Ordering x_1..x_t of X plus a near-partition B_0..B_t of V(G) - X."""

    ordering: Tuple[str, ...]
    bags: Tuple[FrozenSet[str], ...]

    def violations(self, G: Multigraph, X: Iterable[str]) -> List[str]:
        X = frozenset(X)
        out = []
        if len(self.bags) != len(self.ordering) + 1:
            out.append(
                f"{len(self.ordering)} ordering vertices need"
                f" {len(self.ordering) + 1} bags, got {len(self.bags)}"
            )
        if len(set(self.ordering)) != len(self.ordering):
            out.append("ordering repeats a vertex")
        if set(self.ordering) != X:
            out.append("ordering is not exactly the decomposed vertex set")
        owner, overlaps = _bag_owners(enumerate(self.bags))
        out += overlaps
        if owner.keys() & set(self.ordering):
            out.append("a bag contains an ordering vertex")
        return out + _cover_violations(owner.keys(), G.vertices - X)


def _bag_owners(bags: Iterable[Tuple[object, AbstractSet[str]]]) -> Tuple[dict, List[str]]:
    """The owner map of (label, bag) pairs, vertex -> label of the first
    bag that holds it, and a message for each later bag that holds it
    again."""
    owner: dict = {}
    overlaps = []
    for label, bag in bags:
        for v in bag:
            if v in owner:
                overlaps.append(f"bags {owner[v]!r} and {label!r} both contain {v!r}")
            else:
                owner[v] = label
    return owner, overlaps


def _cover_violations(covered: AbstractSet[str], expected: AbstractSet[str]) -> List[str]:
    """Where bags whose union is `covered` fail to cover exactly `expected`:
    the vertices they miss, then those they hold beyond it."""
    out = []
    missing = expected - covered
    extra = covered - expected
    if missing:
        out.append(f"bags miss vertices: {sorted(missing)}")
    if extra:
        out.append(f"bags contain foreign vertices: {sorted(extra)}")
    return out


@dataclasses.dataclass(frozen=True)
class LinearityCertificate:
    A: FrozenSet[str]
    decomposition: PathLikeDecomposition
    achieved_a: int
    achieved_w: int
    achieved_p: int


@dataclasses.dataclass(frozen=True)
class FailureWitness:
    kind: str  # SMALL_CUT, STAR_MINOR or NOT_PATH_SHAPED
    payload: object


# -- decomposition measurements ---------------------------------------


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


def is_p_bounded(G: Multigraph, P: PathLikeDecomposition, Z: Iterable[str], p: int) -> bool:
    return boundedness(G, P, Z) <= p


def verify_linear_certificate(
    G: Multigraph,
    W: Iterable[str],
    cert: LinearityCertificate,
    a: int,
    w: int,
    p: int,
) -> List[str]:
    """Checks |A| <= a, a valid decomposition of G - A w.r.t. W - A of width
    strictly below w, and p-bounded neighborhoods for every vertex of A."""
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
    out.extend(cert.decomposition.violations(reduced, W - cert.A))
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


# -- auxiliary graph and its structure --------------------------------


def build_auxiliary_graph(G: Multigraph, W: Iterable[str], m: int) -> SimpleGraph:
    """Simple graph on W: x ~ y iff G - (W - {x, y}) has >= m edge-disjoint
    x-y paths."""
    W = frozenset(W)
    unknown = W - G.vertices
    if unknown:
        raise ValueError(f"unknown vertices in W: {sorted(unknown)}")
    if m < 1:
        raise ValueError("m must be at least 1")
    edges = []
    if len(W) > 1:
        net = FlowNetwork(G)  # one network serves every pair
        index = net.index
        for x, y in itertools.combinations(sorted(W), 2):
            closed = [index[w] for w in W - {x, y}]
            if net.max_flow([index[x]], [index[y]], closed, limit=m) >= m:
                edges.append((x, y))
    return SimpleGraph.build(W, edges)


def has_k1k_minor(H: SimpleGraph, k: int) -> Union[StarMinorModel, bool]:
    """A K_{1,k} minor model (as a subtree with k leaves and a non-leaf
    vertex) or False after exhaustive search over connected center sets,
    by increasing size, each size in lexicographic order."""
    if k < 2:
        raise ValueError("k must be at least 2")
    verts, nbr = _neighbour_masks(H)
    n = len(verts)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            C = outside = 0
            for i in combo:
                C |= 1 << i
                outside |= nbr[i]
            outside &= ~C
            if outside.bit_count() >= k and _components(nbr, C) == 1:
                leaves = [verts[i] for i in range(n) if outside >> i & 1][:k]
                return _star_model(H, frozenset(verts[i] for i in combo), leaves)
    return False


def _neighbour_masks(H: SimpleGraph) -> Tuple[List[str], List[int]]:
    """H's vertices in sorted order, and for the i-th of them the bitmask
    of its neighbours, bit j standing for the j-th vertex.  Raises above
    the subset-search ceiling."""
    if len(H.vertices) > _SUBSET_SEARCH_LIMIT:
        raise SizeLimitError("instance above configured size limit")
    verts = sorted(H.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for e in H.edges:
        u, v = e
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    return verts, nbr


def _components(nbr: List[int], keep: int) -> int:
    """The number of components of the subgraph induced on the mask keep."""
    count = 0
    while keep:
        comp = frontier = keep & -keep
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & keep & ~comp
            comp |= new
            frontier |= new
        keep &= ~comp
        count += 1
    return count


def _is_path_union(nbr: List[int], keep: int) -> bool:
    """Whether the subgraph induced on the mask keep is a disjoint union
    of paths: max degree <= 2 and acyclic, i.e. edges = vertices -
    components."""
    degrees = 0
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        d = (nbr[low.bit_length() - 1] & keep).bit_count()
        if d > 2:
            return False
        degrees += d
    return degrees // 2 == keep.bit_count() - _components(nbr, keep)


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
    """Smallest X with H - X a disjoint union of paths, by increasing-size
    subset enumeration (first hit in lexicographic order)."""
    verts, nbr = _neighbour_masks(H)
    n = len(verts)
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            removed = 0
            for i in combo:
                removed |= 1 << i
            if _is_path_union(nbr, full ^ removed):
                return frozenset(verts[i] for i in combo)
    raise AssertionError("removing every vertex always leaves a path union")


# -- the decomposition algorithm --------------------------------------


def compute_separator(
    G: Multigraph,
    A: Iterable[str],
    ordering: Sequence[str],
    i: int,
) -> Tuple[FrozenSet[str], int]:
    """The i-separator L_i of minimum crossing cost, then of minimum size.

    Realized as the inclusion-minimal min cut in G - A - x_i between the
    consolidated ordering prefix and suffix, a flow on a network of G with
    A and x_i closed; edges at x_i never count.
    """
    t = len(ordering)
    if not 2 <= i <= t - 1:
        raise ValueError(f"index {i} out of range 2..{t - 1}")
    closed = frozenset(A) | {ordering[i - 1]}
    net, value = _set_flow(G, ordering[: i - 1], ordering[i:], closed)
    names = net.names
    return frozenset(names[v] for v in net.residual_side), value


def _component_ordering(H_minus_A: SimpleGraph) -> List[str]:
    """Concatenate the path components, ascending by smallest vertex, each
    walked from its smaller endpoint."""
    ordering: List[str] = []
    comps = sorted(H_minus_A.connected_components(), key=min)
    adj = H_minus_A.adjacency()
    for comp in comps:
        if len(comp) == 1:
            ordering.extend(comp)
            continue
        endpoints = sorted(v for v in comp if len(adj[v]) == 1)
        cur = endpoints[0]
        prev = None
        walk = [cur]
        while len(walk) < len(comp):
            nxt = next(u for u in adj[cur] if u != prev)
            prev, cur = cur, nxt
            walk.append(cur)
        ordering.extend(walk)
    return ordering


def linear_decompose(
    G: Multigraph,
    W: Iterable[str],
    m: int,
    w_limit: int,
) -> Union[LinearityCertificate, FailureWitness]:
    """Decompose G with respect to W via the auxiliary graph: delete a
    minimum linearizing set A, order W - A along the leftover paths, and
    cut the graph by nested minimal separators.

    Returns a small-cut witness when the auxiliary graph is disconnected or
    some separator cost reaches w_limit.
    """
    W = frozenset(W)
    if m < 1:
        raise ValueError("m must be at least 1")
    if w_limit < 1:
        raise ValueError("w_limit must be at least 1")
    H = build_auxiliary_graph(G, W, m)
    comps = H.connected_components()
    if len(comps) > 1:
        X1 = comps[0]
        X2 = frozenset().union(*comps[1:])
        cut = max_flow_min_cut(G, X1, X2)
        return FailureWitness(kind=SMALL_CUT, payload=cut)

    A = min_linearizing_set(H)
    ordering = tuple(_component_ordering(H.without(A)))
    t = len(ordering)
    rest = G.vertices - A - set(ordering)

    if t == 0:
        bags = (frozenset(rest),)
    elif t == 1:
        bags = (frozenset(), frozenset(rest))
    else:
        seps: Dict[int, FrozenSet[str]] = {1: frozenset()}
        for i in range(2, t):
            L, cost = compute_separator(G, A, ordering, i)
            if cost >= w_limit:
                reduced = G.without_vertices(A | {ordering[i - 1]})
                witness = CutWitness(cost, reduced.boundary(L), L)
                return FailureWitness(kind=SMALL_CUT, payload=witness)
            seps[i] = L
        seps[t] = G.vertices - A - {ordering[t - 1]}
        bag_list = [frozenset()]
        for i in range(1, t):
            bag_list.append(seps[i + 1] - (seps[i] | {ordering[i - 1]}))
        bag_list.append(frozenset())
        bags = tuple(bag_list)

    decomposition = PathLikeDecomposition(ordering=ordering, bags=bags)
    reduced = G.without_vertices(A)
    achieved_w = width(reduced, decomposition) + 1
    achieved_p = 0
    for v in sorted(A):
        Z = G.neighbors(v) & reduced.vertices
        achieved_p = max(achieved_p, boundedness(reduced, decomposition, Z))
    cert = LinearityCertificate(
        A=A,
        decomposition=decomposition,
        achieved_a=len(A),
        achieved_w=achieved_w,
        achieved_p=achieved_p,
    )
    bad = verify_linear_certificate(G, W, cert, len(A), achieved_w, achieved_p)
    assert not bad, f"emitted certificate fails its own achieved values: {bad}"
    return cert
