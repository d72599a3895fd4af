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
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .connectivity import CutWitness, _set_flow, _witness
from .flow import FlowNetwork
from .multigraph import Multigraph, _check_known, _check_work, bit_positions
from .simplegraph import (
    MaskGraph, SimpleGraph, StarMinorModel, _components, _is_path_union, _join,
)

SMALL_CUT = "small-cut"
STAR_MINOR = "star-minor"
NOT_PATH_SHAPED = "not-path-shaped"

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
    interior in one component of G - W, and each component that both x
    and y attach to holds such a path.  So a pair whose parallel edges and
    shared components number m or more is an edge with no flow, any other
    pair that shares no component is not an edge, and only the remaining
    pairs run a flow, all on one network, each stopped at m.  At m = 1 no
    flow runs.
    """
    _check_known(W, G.vertices, "unknown vertices in W")
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
    attached: Dict[str, set] = {}  # component root -> indices of its neighbours in W
    for i, v in touches:
        attached.setdefault(root(v), set()).add(i)
    shared = Counter(  # (i, j), i < j -> components of G - W both attach to
        pair for ends in attached.values() for pair in itertools.combinations(sorted(ends), 2)
    )
    paths = mult + shared  # edge-disjoint paths known without a flow
    nbr = [0] * len(verts)
    for (i, j), count in paths.items():
        if count >= m:
            _join(nbr, i, j)
    candidates = sorted(pair for pair in shared if paths[pair] < m)
    net = None
    if candidates:
        net = FlowNetwork(G)
        nodes = [net.index[v] for v in verts]
        for i, j in candidates:
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
    by increasing size up to n - k (a larger set leaves no room for k
    leaves), each size in lexicographic order; False at once when k >= n.
    The search tests at most `multigraph._WORK_LIMIT` center sets, and
    raises SizeLimitError past that."""
    if k < 2:
        raise ValueError("k must be at least 2")
    verts, nbr = aux = H.masks
    n = len(verts)
    tested = 0
    for size in range(1, n - k + 1):
        for combo in itertools.combinations(range(n), size):
            tested += 1
            _check_work(tested, "center sets", "star-minor")
            C = outside = 0
            for i in combo:
                C |= 1 << i
                outside |= nbr[i]
            outside &= ~C
            if outside.bit_count() >= k and len(_components(nbr, C)) == 1:
                return _star_model(aux, C, itertools.islice(bit_positions(outside), k))
    return False


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


def _star_model(aux: MaskGraph, C: int, leaves: Iterable[int]) -> StarMinorModel:
    """The star model of the connected center set C, the first one by size
    with at least k outside neighbours, and k of them as its leaves: a
    depth-first spanning tree of C from its lowest vertex, and each leaf
    joined to its lowest neighbour in C.

    No vertex of C ends as a leaf of the tree: a leaf c of the spanning
    tree with no leaf joined to it would leave C - c a smaller connected
    center set, with c and the k leaves outside it.  So the tree's leaves
    are the k leaves, and the center is C's lowest vertex."""
    verts, nbr = aux
    root = (C & -C).bit_length() - 1
    edges = []
    seen = 1 << root
    stack = [root]
    while stack:
        v = stack.pop()
        new = nbr[v] & C & ~seen
        seen |= new
        for u in bit_positions(new):
            edges.append(frozenset((verts[v], verts[u])))
            stack.append(u)
    leaf_names = []
    for leaf in leaves:
        anchors = nbr[leaf] & C
        leaf_names.append(verts[leaf])
        edges.append(frozenset((verts[leaf], verts[(anchors & -anchors).bit_length() - 1])))
    tree = SimpleGraph(frozenset(aux.names(C)).union(leaf_names), frozenset(edges))
    return StarMinorModel(center=verts[root], leaves=frozenset(leaf_names), tree=tree)


def min_linearizing_set(H: SimpleGraph) -> FrozenSet[str]:
    """Smallest X with H - X a disjoint union of paths, the first such set
    in lexicographic order, by a branching search (see
    `_LinearizingSearch`)."""
    aux = H.masks
    return frozenset(aux.names(_LinearizingSearch(aux.nbr).first_smallest()))


_Node = Tuple[int, int, int, int]  # live, kept, k, and the vertices deleted so far


class _LinearizingSearch:
    """The first smallest linearizing set of a graph on bitmasks, from a
    decision search that branches on the vertices of degree >= 3.

    `feasible(live, kept, k)` asks whether deleting at most k vertices of
    live, none of them in kept, leaves a path union.  It branches at the
    live vertex v of highest live degree d >= 3 (the lowest such v on a
    tie): either delete v, or keep v with a set S of at most 2 of its live
    neighbours, S holding every kept one and no two adjacent ones, and
    delete the other d - |S|.
    Once every live degree is at most 2, each cycle costs one deletion of
    a vertex outside kept.  A node is cut off when k deletions cannot
    remove enough edges, or enough degree at the vertices that stay (see
    `_out_of_reach`).

    `first_smallest` finds the size k of a smallest set by trying
    k = 0, 1, ... in turn, then decides the vertices 0..n-1 in order,
    deleting each one whenever the rest can still be finished with the
    deletions left.  So the set it returns is the first smallest one in
    lexicographic order.

    The search runs on an explicit stack, so its depth is not bounded by
    the interpreter's recursion limit.  `nodes` counts the decision nodes
    made; one search makes at most `multigraph._WORK_LIMIT`, and raises
    SizeLimitError past that."""

    def __init__(self, nbr: List[int]):
        self.nbr = nbr
        self.nodes = 0

    def first_smallest(self) -> int:
        n = len(self.nbr)
        live = (1 << n) - 1
        if _is_path_union(self.nbr, live):
            return 0
        k = 1
        while (witness := self.feasible(live, 0, k)) is None:
            k += 1
        # witness: deletions that finish the current state; a vertex in it
        # can be deleted with no further search
        kept = removed = 0
        for i in range(n):
            if not k:
                break
            bit = 1 << i
            if witness & bit:
                witness ^= bit
            else:
                found = self.feasible(live ^ bit, kept, k - 1)
                if found is None:
                    kept |= bit
                    continue
                witness = found
            removed |= bit
            live ^= bit
            k -= 1
        return removed

    def feasible(self, live: int, kept: int, k: int) -> Optional[int]:
        """The vertices to delete, at most k of live outside kept, that
        leave a path union, or None if there are none."""
        nbr = self.nbr
        # each frame yields the nodes below one branching vertex
        stack = [iter([(live, kept, k, 0)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            self.nodes += 1
            _check_work(self.nodes, "decision nodes", "linearizing-set")
            live, kept, k, deleted = node
            if not k:
                if _is_path_union(nbr, live):
                    return deleted
                continue
            top = 2
            v = ends = total = 0
            kept_degrees = []
            free_degrees = []
            rest = live
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = (nbr[u] & live).bit_count()
                total += d
                if d > top:
                    top, v = d, u
                elif d < 2:
                    ends |= low
                (kept_degrees if kept & low else free_degrees).append(d)
            if _out_of_reach(total // 2, kept_degrees, free_degrees, k):
                continue
            if top > 2:
                stack.append(_branches(nbr, node, v, top))
                continue
            # a path union but for its cycles: each costs one deletion
            for comp in _components(nbr, live):
                if comp & ends:
                    continue
                free = comp & ~kept
                if not free or not k:
                    break
                k -= 1
                deleted |= free & -free
            else:
                return deleted
        return None


def _branches(nbr: List[int], node: _Node, v: int, d: int) -> Iterator[_Node]:
    """The nodes below `node` = (live, kept, k, deleted) when it branches
    at v, of live degree d >= 3: delete v, unless it is kept; or keep v
    with some of its live neighbours (`_kept_sets`) and delete the rest."""
    live, kept, k, deleted = node
    bv = 1 << v
    if not kept & bv:
        yield live ^ bv, kept, k - 1, deleted | bv
    around = nbr[v] & live
    # keeping fewer than d - k neighbours would cost more than k deletions
    for S in _kept_sets(nbr, around & ~kept, around & kept, d - k):
        gone = around ^ S
        yield live ^ gone, kept | bv | S, k - gone.bit_count(), deleted | gone


def _kept_sets(nbr: List[int], free: int, fixed: int, least: int) -> Iterator[int]:
    """The neighbour sets a kept vertex can keep, when fixed are its kept
    neighbours and free the others: S = fixed + some of free, with
    least <= |S| <= 2 and no two vertices of S adjacent (they would close
    a triangle with the kept vertex)."""
    size = fixed.bit_count()
    if size > 2 or least > 2:
        return
    if size == 2:
        if not nbr[(fixed & -fixed).bit_length() - 1] & fixed:
            yield fixed
        return
    if size >= least:
        yield fixed
    if size:
        for u in bit_positions(free & ~nbr[fixed.bit_length() - 1]):
            yield fixed | 1 << u
        return
    for u in bit_positions(free):
        if least <= 1:
            yield 1 << u
        for w in bit_positions(free & ~nbr[u] & -(2 << u)):
            yield 1 << u | 1 << w


def _out_of_reach(edges: int, kept_degrees: List[int], free_degrees: List[int], k: int) -> bool:
    """Whether no j = min(k, len(free_degrees)) deletions among the free
    vertices, of the given live degrees, can leave a path union: the
    r vertices left would keep more than r - 1 edges, or a degree sum
    above 2r - 2 although each of them loses at most j neighbours.
    Deleting more vertices never spoils a path union, so testing j
    deletions covers every smaller number."""
    j = min(k, len(free_degrees))
    r = len(kept_degrees) + len(free_degrees) - j
    if r <= 0:
        return False
    free_degrees.sort()
    stays = len(free_degrees) - j
    if edges - sum(free_degrees[stays:]) > r - 1:
        return True
    return sum(d - j for d in kept_degrees + free_degrees[:stays] if d > j) > 2 * r - 2


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
        return FailureWitness(kind=SMALL_CUT, payload=cut)

    removed = _LinearizingSearch(nbr).first_smallest()
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
                    return FailureWitness(kind=SMALL_CUT, payload=witness)
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
    )
