"""Path-like decompositions and linearity certificates: the data model,
the verifier, the pairwise-connectivity auxiliary graph, star-minor and
linearizing-set search, and the decomposition algorithm built from nested
minimal separators.

The decomposer and the verifier work on integers.  The auxiliary graph is
a list of neighbour bitmasks over W in sorted order (`MaskGraph`), and a
decomposition is a position for every vertex of G - A (`_positions`), so
that width and boundedness come from one pass over G's edges (`_sweep`)
and no reduced graph is built."""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .connectivity import CutWitness, _set_flow, _witness
from .flow import FlowNetwork
from .multigraph import Multigraph
from .simplegraph import (
    MaskGraph, SimpleGraph, StarMinorModel, _components, _is_path_union, _join,
)

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

    def violations(self, vertices: AbstractSet[str], X: Iterable[str]) -> List[str]:
        """Where the ordering and bags fail to be a decomposition of a graph
        on `vertices` with respect to X."""
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
        return out + _cover_violations(owner.keys(), frozenset(vertices) - X)


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


def _positions(P: PathLikeDecomposition) -> Dict[str, int]:
    """x_k at 2k and the vertices of bag j at 2j + 1, so that an edge ab
    crosses the cut at x_i iff pos(a) < 2i < pos(b)."""
    pos = {x: 2 * k for k, x in enumerate(P.ordering, 1)}
    for j, bag in enumerate(P.bags):
        pos.update(dict.fromkeys(bag, 2 * j + 1))
    return pos


def _sweep(
    G: Multigraph, A: AbstractSet[str], pos: Dict[str, int], t: int
) -> Tuple[int, Dict[str, int]]:
    """Width and boundedness in one pass over G's edges, for a valid
    decomposition of G - A with t ordering vertices whose vertices have
    the positions `pos`: the width, and for each vertex of A the
    boundedness of its neighbourhood in G - A, which is the number of
    distinct positions among those neighbours."""
    crossing = [0] * (t + 2)  # differences of the count of edges crossing at x_i
    seen: Dict[str, set] = {v: set() for v in A}
    for a, b in G.edges.values():
        pa, pb = pos.get(a), pos.get(b)
        if pa is None or pb is None:
            # an edge at A: only a neighbour in G - A counts
            if pb is not None:
                seen[a].add(pb)
            elif pa is not None:
                seen[b].add(pa)
            continue
        lo, hi = (pa, pb) if pa < pb else (pb, pa)
        first, last = lo // 2 + 1, (hi - 1) // 2  # the i with lo < 2i < hi
        if first <= last:
            crossing[first] += 1
            crossing[last + 1] -= 1
    widest = running = 0
    for i in range(1, t + 1):
        running += crossing[i]
        widest = max(widest, running)
    return widest, {v: len(s) for v, s in seen.items()}


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
    A = cert.A
    out = []
    if not A <= W:
        out.append(f"A is not a subset of W: {sorted(A - W)}")
    if len(A) > a:
        out.append(f"|A| = {len(A)} exceeds a = {a}")
    if not A <= G.vertices:
        out.append(f"A contains unknown vertices: {sorted(A - G.vertices)}")
        return out
    P = cert.decomposition
    out.extend(P.violations(G.vertices - A, W - A))
    if out:
        return out
    got_w, bounded = _sweep(G, A, _positions(P), len(P.ordering))
    if got_w >= w:
        out.append(f"width {got_w} is not less than w = {w}")
    for v in sorted(A):
        if bounded[v] > p:
            out.append(f"neighborhood of {v!r} has boundedness {bounded[v]} > p = {p}")
    return out


# -- auxiliary graph and its structure --------------------------------


def _auxiliary(
    G: Multigraph, W: FrozenSet[str], m: int
) -> Tuple[MaskGraph, Optional[FlowNetwork]]:
    """The auxiliary graph of `build_auxiliary_graph`, and G's flow network
    if a flow ran (else None).

    A path from x to y in G - (W - {x, y}) is an x-y edge or has its
    interior in one component of G - W.  So a pair joined by m edges is
    an edge with no flow, a pair joined by fewer that shares no component
    is not an edge, and only the remaining pairs run a flow, all on one
    network, each stopped at m.
    """
    unknown = W - G.vertices
    if unknown:
        raise ValueError(f"unknown vertices in W: {sorted(unknown)}")
    if m < 1:
        raise ValueError("m must be at least 1")
    verts = sorted(W)
    if len(verts) < 2:
        return MaskGraph(verts, [0] * len(verts)), None  # no pair to join
    index = {v: i for i, v in enumerate(verts)}
    mult: Counter = Counter()  # (i, j), i < j -> edges joining verts[i] and verts[j]
    parent: Dict[str, str] = {}  # union-find over the vertices of G - W
    touches = []  # (index in W, vertex of G - W) for each edge between W and G - W

    def root(v: str) -> str:
        while (up := parent.get(v, v)) != v:
            parent[v] = parent.get(up, up)
            v = up
        return v

    for a, b in G.edges.values():  # a <= b, so i < j below
        if a == b:
            continue
        i, j = index.get(a), index.get(b)
        if i is None and j is None:
            parent[root(a)] = root(b)
        elif i is None:
            touches.append((j, a))
        elif j is None:
            touches.append((i, b))
        else:
            mult[i, j] += 1
    nbr = [0] * len(verts)
    for (i, j), count in mult.items():
        if count >= m:
            _join(nbr, i, j)
    attached: Dict[str, set] = {}  # component root -> indices of its neighbours in W
    for i, v in touches:
        attached.setdefault(root(v), set()).add(i)
    candidates = {
        pair
        for ends in attached.values()
        for pair in itertools.combinations(sorted(ends), 2)
        if mult[pair] < m
    }
    net = None
    if candidates:
        net = FlowNetwork(G)
        nodes = [net.index[v] for v in verts]
        for i, j in sorted(candidates):
            closed = nodes[:i] + nodes[i + 1:j] + nodes[j + 1:]
            if net.max_flow([nodes[i]], [nodes[j]], closed, limit=m) >= m:
                _join(nbr, i, j)
    return MaskGraph(verts, nbr), net


def build_auxiliary_graph(G: Multigraph, W: Iterable[str], m: int) -> SimpleGraph:
    """Simple graph on W: x ~ y iff G - (W - {x, y}) has >= m edge-disjoint
    x-y paths."""
    return _auxiliary(G, frozenset(W), m)[0].graph()


def has_k1k_minor(H: SimpleGraph, k: int) -> Union[StarMinorModel, bool]:
    """A K_{1,k} minor model (as a subtree with k leaves and a non-leaf
    vertex) or False after exhaustive search over connected center sets,
    by increasing size, each size in lexicographic order."""
    if k < 2:
        raise ValueError("k must be at least 2")
    _check_ceiling(len(H.vertices))
    verts, nbr = aux = H.masks
    n = len(verts)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            C = outside = 0
            for i in combo:
                C |= 1 << i
                outside |= nbr[i]
            outside &= ~C
            if outside.bit_count() >= k and len(_components(nbr, C)) == 1:
                leaves = aux.names(outside)[:k]
                return _star_model(H, frozenset(aux.names(C)), leaves)
    return False


def _check_ceiling(n: int) -> None:
    """The subset searches stop above this many vertices."""
    if n > _SUBSET_SEARCH_LIMIT:
        raise SizeLimitError(
            f"{n} vertices, more than the {_SUBSET_SEARCH_LIMIT}-vertex limit of the"
            " linearizing-set and star-minor searches"
        )


def _path_ordering(nbr: List[int], keep: int) -> List[int]:
    """The vertices of keep, which induces a disjoint union of paths: the
    components in the order of their lowest vertices, each walked from its
    lower endpoint."""
    order = []
    for comp in _components(nbr, keep):
        rest = comp
        while (nbr[(rest & -rest).bit_length() - 1] & comp).bit_count() > 1:
            rest &= rest - 1  # an inner vertex: try the next one
        v = (rest & -rest).bit_length() - 1
        walked = 1 << v
        order.append(v)
        while step := nbr[v] & comp & ~walked:
            v = step.bit_length() - 1
            walked |= step
            order.append(v)
    return order


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
    """Smallest X with H - X a disjoint union of paths, the first such set
    in lexicographic order, by a pruned depth-first search (see
    `_min_linearizing_mask`)."""
    _check_ceiling(len(H.vertices))
    aux = H.masks
    return frozenset(aux.names(_min_linearizing_mask(aux.nbr)))


def _min_linearizing_mask(nbr: List[int]) -> int:
    """`min_linearizing_set` on bitmasks: a depth-first search for each
    size of the set in turn, deciding the vertices in order and trying to
    delete each one before keeping it, so that the first set found is the
    first smallest one in lexicographic order."""
    n = len(nbr)
    _check_ceiling(n)
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
    some separator cost reaches w_limit.  Either witness is a cut of G:
    its edges are delta_G(source_side) and its value is their number.  A
    separator's witness has its side L, so its value is at least the cost.
    """
    return _linear_decompose(G, W, m, w_limit)[0]


def _linear_decompose(
    G: Multigraph, W: Iterable[str], m: int, w_limit: int
) -> Tuple[Union[LinearityCertificate, FailureWitness], MaskGraph]:
    """`linear_decompose`, and the auxiliary graph it was built from.

    Every flow runs on one network of G, built on first need: the
    auxiliary graph's, the small cut's and the t - 2 separators'.  The
    separator L_i is the residual side of a maximum flow between
    x_1..x_{i-1} and x_{i+1}..x_t with A and x_i closed, the unique
    inclusion-minimal minimum cut, as in `compute_separator`.
    """
    W = frozenset(W)
    if m < 1:
        raise ValueError("m must be at least 1")
    if w_limit < 1:
        raise ValueError("w_limit must be at least 1")
    aux, net = _auxiliary(G, W, m)
    verts, nbr = aux
    full = (1 << len(verts)) - 1
    comps = aux.components()
    if len(comps) > 1:
        net = net or FlowNetwork(G)
        X1, X2 = (net.nodes(aux.names(X)) for X in (comps[0], full ^ comps[0]))
        cut = _witness(G, net, net.max_flow(X1, X2))
        return FailureWitness(kind=SMALL_CUT, payload=cut), aux

    removed = _min_linearizing_mask(nbr)
    A = frozenset(aux.names(removed))
    ordering = tuple(verts[i] for i in _path_ordering(nbr, full ^ removed))
    t = len(ordering)
    rest = G.vertices - A - set(ordering)

    if t == 0:
        bags = (frozenset(rest),)
    elif t == 1:
        bags = (frozenset(), frozenset(rest))
    else:
        seps = [frozenset()]  # L_1, L_2, ..., L_t
        if t > 2:
            net = net or FlowNetwork(G)
            names, index = net.names, net.index
            nodes = [index[x] for x in ordering]
            closed = [index[v] for v in A]
            for i in range(2, t):
                cost = net.max_flow(
                    sorted(nodes[: i - 1]), sorted(nodes[i:]), closed + [nodes[i - 1]]
                )
                L = frozenset(names[v] for v in net.residual_side)
                if cost >= w_limit:
                    # the cut of G around L: the separator's cost edges
                    # and L's edges to the closed vertices
                    cut = G.boundary(L)
                    witness = CutWitness(len(cut), cut, L)
                    return FailureWitness(kind=SMALL_CUT, payload=witness), aux
                seps.append(L)
        seps.append(G.vertices - A - {ordering[t - 1]})
        bag_list = [frozenset()]
        for i in range(1, t):
            bag_list.append(seps[i] - (seps[i - 1] | {ordering[i - 1]}))
        bag_list.append(frozenset())
        bags = tuple(bag_list)

    decomposition = PathLikeDecomposition(ordering=ordering, bags=bags)
    widest, bounded = _sweep(G, A, _positions(decomposition), t)
    return LinearityCertificate(
        A=A,
        decomposition=decomposition,
        achieved_a=len(A),
        achieved_w=widest + 1,
        achieved_p=max(bounded.values(), default=0),
    ), aux
