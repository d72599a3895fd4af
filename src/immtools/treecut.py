"""Tree-cut decompositions: adhesion, torsos, edge sums, groundedness and
decomposition composition (which check their glue vertices with one
helper, `_glue_edges`), alpha-basic testing and the structure algorithm
that splits on small cuts between high-degree vertices."""

from __future__ import annotations

import bisect
import dataclasses
import functools
from typing import (
    AbstractSet, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set,
    Tuple, Union,
)

from .connectivity import _first_violation
from .flow import FlowNetwork
from .multigraph import Multigraph, _fresh_name
from .pathdecomp import (
    NOT_PATH_SHAPED,
    STAR_MINOR,
    FailureWitness,
    LinearityCertificate,
    _bag_owners,
    _cover_violations,
    build_auxiliary_graph,
    has_k1k_minor,
    linear_decompose,
    verify_linear_certificate,
)
from .simplegraph import SimpleGraph


class _Shape(NamedTuple):
    problems: Tuple[str, ...]
    owner: Optional[Dict[str, str]]  # vertex -> first node, sorted, whose bag has it


@dataclasses.dataclass(frozen=True)
class TreeCutDecomposition:
    tree_nodes: FrozenSet[str]
    tree_edges: FrozenSet[FrozenSet[str]]
    bags: Dict[str, FrozenSet[str]]

    @functools.cached_property
    def tree(self) -> SimpleGraph:
        """The decomposition tree, built on the first read and shared."""
        return SimpleGraph(self.tree_nodes, self.tree_edges)

    @functools.cached_property
    def _shape(self) -> _Shape:
        """The checks that do not depend on G, made once: do not modify the bags."""
        if not self.tree_nodes:
            return _Shape(("decomposition tree has no nodes",), None)
        out = []
        if not self.tree.is_tree():
            out.append("decomposition tree is not a tree")
        if set(self.bags) != set(self.tree_nodes):
            out.append("bag index set differs from the tree nodes")
            return _Shape(tuple(out), None)
        owner, overlaps = _bag_owners((n, self.bags[n]) for n in sorted(self.bags))
        return _Shape(tuple(out + overlaps), owner)

    def violations(self, G: Multigraph) -> List[str]:
        """The shape problems, then whether the bags cover exactly G.vertices."""
        problems, owner = self._shape
        if owner is None:
            return list(problems)
        return list(problems) + _cover_violations(owner.keys(), G.vertices)


@dataclasses.dataclass(frozen=True)
class Torso:
    graph: Multigraph
    core: FrozenSet[str]
    peripheral: FrozenSet[str]


@dataclasses.dataclass(frozen=True)
class StructureDecomposition:
    decomposition: TreeCutDecomposition
    certificates: Dict[str, LinearityCertificate]


def _require_valid(bad: List[str]) -> None:
    if bad:
        raise ValueError("malformed decomposition: " + "; ".join(bad))


def adhesion(G: Multigraph, D: TreeCutDecomposition) -> int:
    """The largest |delta_G(Z)| over the sides Z of the tree edges."""
    return _adhesion(torsos(G, D))


def _adhesion(parts: Mapping[str, Torso]) -> int:
    """Adhesion read off the torsos: Z's peripheral vertex keeps exactly the
    edges with one end in Z, so its degree is |delta_G(Z)|.  An empty side
    makes no vertex, and delta(empty) = 0."""
    return max(
        (T.graph.degree(z) for T in parts.values() for z in T.peripheral), default=0
    )


def torso_at(G: Multigraph, D: TreeCutDecomposition, t: str) -> Torso:
    """The torso of D at node t; see `torsos`."""
    parts = torsos(G, D)
    if t not in parts:
        raise ValueError(f"unknown tree node {t!r}")
    return parts[t]


def torsos(G: Multigraph, D: TreeCutDecomposition) -> Dict[str, Torso]:
    """Every torso of D, by node, in one pass over G's edges.

    The torso at t consolidates the bag union of each component of T - t
    to one peripheral vertex, named `peri:<n>` after the neighbour n it
    hangs off; components whose union is empty contribute nothing.  An
    edge whose ends lie in the bags of p and q is kept, with its ends
    replaced by peripheral vertices, exactly in the torsos of the nodes on
    the tree path from p to q (only in p's when p == q), and the edges of
    each torso keep G's order.  The cost is O(|T| + the size of all
    torsos), which is the size of the output.
    """
    _require_valid(D.violations(G))
    owner = D._shape.owner
    adj = D.tree.adjacency()
    root = min(D.tree_nodes)
    parent: Dict[str, Optional[str]] = {root: None}
    depth = {root: 0}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    owned = dict.fromkeys(order, 0)  # vertices owned in the subtree below a node
    for n in owner.values():
        owned[n] += 1
    for x in reversed(order[1:]):
        owned[parent[x]] += owned[x]

    def side(t: str, x: str) -> str:
        """The neighbour of t whose component of T - t holds the node x != t."""
        while depth[x] > depth[t] + 1:
            x = parent[x]
        return x if parent[x] == t else parent[t]

    # Name each side as consolidating the sides one by one in adjacency
    # order would: the name must avoid what is left of G at that step, the
    # bag, the earlier peripheral vertices and the vertices of later sides.
    peri: Dict[str, Dict[str, str]] = {}
    for t in order:
        bag = D.bags[t]
        rank = {n: i for i, n in enumerate(adj[t])}
        names: Dict[str, str] = {}
        used = set()
        for i, n in enumerate(adj[t]):
            if not (owned[n] if parent[n] == t else owned[root] - owned[t]):
                continue
            name = f"peri:{n}"
            while (
                name in bag
                or name in used
                or (name in owner and rank[side(t, owner[name])] > i)
            ):
                name += "'"
            names[n] = name
            used.add(name)
        peri[t] = names

    edges: Dict[str, Dict[str, Tuple[str, str]]] = {t: {} for t in order}
    for e, (a, b) in G.edges.items():
        up, down = [owner[a]], [owner[b]]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        path = up + down[-2::-1]
        last = len(path) - 1
        for i, t in enumerate(path):
            edges[t][e] = (
                a if i == 0 else peri[t][path[i - 1]],
                b if i == last else peri[t][path[i + 1]],
            )
    out = {}
    for t in sorted(D.tree_nodes):
        core = D.bags[t]
        peripheral = frozenset(peri[t].values())
        out[t] = Torso(
            graph=Multigraph(core | peripheral, edges[t]), core=core, peripheral=peripheral
        )
    return out


def _glue_edges(G: Multigraph, v: str) -> List[str]:
    """The edges at the glue vertex v of a summand, sorted; v must be a
    vertex of G without a loop, since a loop has v at both ends."""
    edges = G.incident(v)
    if any(G.edges[e] == (v, v) for e in edges):
        raise ValueError(f"{v!r} carries a loop; edge sums require loop-free ends")
    return edges


def edge_sum(
    G1: Multigraph,
    v1: str,
    G2: Multigraph,
    v2: str,
    pi: Mapping[str, str],
) -> Multigraph:
    """Glue G1 - v1 and G2 - v2 by matching the boundary edges of the two
    deleted degree-k vertices via the bijection pi."""
    d1, d2 = _glue_edges(G1, v1), _glue_edges(G2, v2)
    k = len(d1)
    if k < 1 or len(d2) != k:
        raise ValueError(f"degree mismatch: |delta(v1)| = {k}, |delta(v2)| = {len(d2)}")
    if set(pi) != set(d1) or set(pi.values()) != set(d2):
        raise ValueError("pi is not a bijection from delta(v1) to delta(v2)")
    V1, V2 = G1.vertices - {v1}, G2.vertices - {v2}
    if V1 & V2:
        raise ValueError(f"summand vertex sets overlap: {sorted(V1 & V2)}")
    edges = {e: ab for e, ab in G1.edges.items() if v1 not in ab}
    rest = {e: ab for e, ab in G2.edges.items() if v2 not in ab}
    if edges.keys() & rest.keys():
        raise ValueError(f"summand edge ids overlap: {sorted(edges.keys() & rest.keys())}")
    edges.update(rest)
    for e1 in d1:
        e2 = pi[e1]
        a, b = G1.edges[e1]
        c, d = G2.edges[e2]
        edges[_fresh_name(f"{e1}~{e2}", edges)] = (b if a == v1 else a, d if c == v2 else c)
    return Multigraph(V1 | V2, edges)


def is_grounded(G1: Multigraph, v1: str, G2: Multigraph, v2: str) -> bool:
    """True iff each summand links its glue vertex to some other vertex by
    deg-many edge-disjoint paths."""
    for G, v in ((G1, v1), (G2, v2)):
        k = len(_glue_edges(G, v))
        if k < 1:
            raise ValueError(f"{v!r} has degree 0")
        net = FlowNetwork(G)
        i = net.index[v]
        if not any(net.max_flow([i], [u], limit=k) >= k for u in net.nodes(G.vertices - {v})):
            return False
    return True


def compose_decompositions(
    G1: Multigraph,
    D1: TreeCutDecomposition,
    G2: Multigraph,
    D2: TreeCutDecomposition,
    v1: str,
    v2: str,
) -> TreeCutDecomposition:
    """Decomposition of G1 (+)_k G2: join the trees by an edge between the
    nodes owning v1 and v2, and drop the glued vertices from their bags.
    The bags do not depend on the edge bijection of the sum, so it takes
    none; `edge_sum` checks it."""
    _require_valid(D1.violations(G1) + D2.violations(G2))
    _glue_edges(G1, v1)
    _glue_edges(G2, v2)
    return _join_trees(D1, D1._shape.owner[v1], {v1}, D2, D2._shape.owner[v2], {v2})


def _join_trees(
    D1: TreeCutDecomposition,
    n1: str,
    drop1: AbstractSet[str],
    D2: TreeCutDecomposition,
    n2: str,
    drop2: AbstractSet[str],
) -> TreeCutDecomposition:
    """The two trees (nodes prefixed "1:" and "2:") joined by an edge
    between n1 and n2, with drop1 and drop2 removed from their bags."""
    nodes = {f"1:{n}" for n in D1.tree_nodes} | {f"2:{n}" for n in D2.tree_nodes}
    edges = (
        {frozenset((f"1:{a}", f"1:{b}")) for a, b in map(sorted, D1.tree_edges)}
        | {frozenset((f"2:{a}", f"2:{b}")) for a, b in map(sorted, D2.tree_edges)}
        | {frozenset((f"1:{n1}", f"2:{n2}"))}
    )
    bags = {f"1:{n}": bag - drop1 for n, bag in D1.bags.items()}
    bags.update({f"2:{n}": bag - drop2 for n, bag in D2.bags.items()})
    return TreeCutDecomposition(
        tree_nodes=frozenset(nodes), tree_edges=frozenset(edges), bags=bags
    )


def is_alpha_basic(H: Multigraph, alpha: int) -> Union[LinearityCertificate, FailureWitness]:
    """Certify that the set of degree->=alpha vertices of H is alpha-linear,
    via the auxiliary-graph decomposition with thresholds a = w = p = alpha
    and m = 1."""
    if alpha < 1:
        raise ValueError("alpha must be positive")
    W = frozenset(v for v, d in H.degrees.items() if d >= alpha)
    result = linear_decompose(H, W, m=1, w_limit=alpha)
    if isinstance(result, FailureWitness):
        return result
    # the certificate holds at its achieved values, so it holds at alpha
    # exactly when none of them exceeds alpha
    if max(result.achieved_a, result.achieved_w, result.achieved_p) <= alpha:
        return result
    if len(result.A) > alpha:
        # a linearizing set above 4k forces a K_{1,k} minor of the
        # auxiliary graph; surface the largest such star
        k_max = (len(result.A) - 1) // 4
        if k_max >= 2:
            model = has_k1k_minor(build_auxiliary_graph(H, W, 1), k_max)
            if model is not False:
                return FailureWitness(kind=STAR_MINOR, payload=model)
    detail = {
        "violations": verify_linear_certificate(H, W, result, alpha, alpha, alpha),
        # a certificate comes only from a connected auxiliary graph
        "auxiliary_components": [sorted(W)] if W else [],
        "achieved": {
            "a": result.achieved_a,
            "w": result.achieved_w,
            "p": result.achieved_p,
        },
    }
    return FailureWitness(kind=NOT_PATH_SHAPED, payload=detail)


def structure_decompose(
    G: Multigraph, alpha: int
) -> Union[StructureDecomposition, FailureWitness]:
    """Split on minimum cuts below alpha between high-degree vertices until
    every piece is done, make each piece a tree node, and certify every
    torso of the result as alpha-basic."""
    if alpha < 1:
        raise ValueError("alpha must be positive")
    D = _structure_tree(G, alpha)
    parts = torsos(G, D)
    assert _adhesion(parts) < alpha
    certs: Dict[str, LinearityCertificate] = {}
    for t, torso in parts.items():
        outcome = is_alpha_basic(torso.graph, alpha)
        if isinstance(outcome, FailureWitness):
            return outcome
        certs[t] = outcome
    return StructureDecomposition(decomposition=D, certificates=certs)


# A piece of the split loop: its network, its live nodes there, its high
# vertices in sorted order, its edge count, and the number of the first
# node of the X side when it is the Y side of a zero cut.
_Piece = Tuple[FlowNetwork, Set[int], List[str], int, Optional[int]]


def _structure_tree(G: Multigraph, alpha: int) -> TreeCutDecomposition:
    """The tree-cut tree of G, one split per loop step over a stack of
    pieces.

    A piece whose high-degree vertices (degree >= alpha) are pairwise
    alpha-edge-connected is finished and becomes a tree node, its bag
    the piece's vertices less the glue vertices.  Any other piece splits
    on the witness of its first violating pair, a cut of order k < alpha
    with the inclusion-minimal side X:
      - k > 0: the X side keeps X and consolidates the rest to a fresh
        glue vertex vy, the other side consolidates X to vx, and the
        tree edge joins the nodes whose bags end up holding vy and vx
        (the two summands of a k-edge sum, each grounded at its glue
        vertex);
      - k = 0: the sides are G[X] and G - X, and the tree edge joins the
        first node of each side.
    The X side is done first, so the nodes come out in depth-first
    order, X before Y, and the first node of a piece is the first one
    finished after it is taken.  Node names are `n` and the node's number
    in that order, zero-padded to one width, so sorting them keeps the
    order.

    No piece is built as a graph.  A piece is a set of live nodes of a
    flow network, its high vertices in sorted order and its edge count.
    Degrees never change: a real vertex keeps all its edges in its piece,
    and a glue vertex has degree k < alpha, so it is never high.  One
    network is built from G; a split moves the smaller side into a fresh
    network and leaves the larger one on its parent's (`FlowNetwork.split`),
    so its network surgery costs the size of the smaller side.  Each flow
    on a network still pays for its dead nodes and arcs, so a network is
    copied again once fewer than half of its nodes, or of its arcs, are
    live.  The split's witness is the unique inclusion-minimal minimum
    cut, so it does not depend on how the network was built.  Every glue
    vertex is grounded by construction, so no flow checks it: the k
    paths of the split pair cross the cut once each, so they join vy to
    the pair's vertex in X and vx to its vertex in the other side.
    """
    degree = dict(G.degrees)  # glue vertices are added with their order k
    glue: Set[str] = set()
    owner: Dict[str, int] = {}  # glue vertex -> number of the node holding it
    links: List[Tuple[str, str]] = []  # glue vertices whose owners are joined
    zero_links: List[Tuple[int, int]] = []  # numbers of the nodes joined
    bags: List[FrozenSet[str]] = []
    net = FlowNetwork(G)
    high = [v for v in net.names if degree[v] >= alpha]
    stack: List[_Piece] = [(net, set(range(len(net.names))), high, len(G.edges), None)]
    while stack:
        net, live, high, m, joined_to = stack.pop()
        first = len(bags)
        if joined_to is not None:
            zero_links.append((joined_to, first))
        names = net.names
        found = _first_violation(net, map(net.index.__getitem__, high), alpha)
        if found is None:
            vertices = {names[u] for u in live}
            for u in vertices & glue:
                owner[u] = first
            bags.append(frozenset(vertices - glue))
            continue
        _, k = found
        X = net.residual_side
        vy = vx = None
        if k:
            vy = _fresh_name(f"cut:{len(glue)}", G.vertices)
            vx = _fresh_name(f"cut:{len(glue) + 1}", G.vertices)
            glue |= {vy, vx}
            degree[vy] = degree[vx] = k
            links.append((vy, vx))
        # move the smaller side to a fresh network; the other one stays
        stays = set(X)
        assert stays <= live, "a flow reached a node outside its piece"
        live -= stays
        move_x = len(X) <= len(live)
        if move_x:
            moved, g = net.split(X, vy, vx)
            stays = live
        else:
            moved, g = net.split(list(live), vx, vy)
        if g is not None:
            stays.add(g)
        if 2 * len(stays) < len(net.names) or 2 * net.dead_arcs > len(net.head):
            net, _ = net.split(list(stays))
            stays = set(range(len(net.names)))
        moved_high = sorted(v for v in moved.names if degree[v] >= alpha)
        for v in moved_high:
            del high[bisect.bisect_left(high, v)]
        moved_m = sum(degree[v] for v in moved.names) // 2
        stays_m = m + k - moved_m  # the k cut edges are on both sides
        assert moved_m < m and stays_m < m, (
            "splitting on the witness cut must shed edges on both sides"
        )
        X_piece = (moved, set(range(len(moved.names))), moved_high, moved_m)
        Y_piece = (net, stays, high, stays_m)
        if not move_x:
            X_piece, Y_piece = Y_piece, X_piece
        stack += ((*Y_piece, None if k else first), (*X_piece, None))
    width = len(str(len(bags) - 1))
    names = [f"n{i:0{width}d}" for i in range(len(bags))]
    edges = [(owner[a], owner[b]) for a, b in links] + zero_links
    return TreeCutDecomposition(
        tree_nodes=frozenset(names),
        tree_edges=frozenset(frozenset((names[i], names[j])) for i, j in edges),
        bags=dict(zip(names, bags)),
    )


def verify_structure(
    G: Multigraph,
    D: TreeCutDecomposition,
    certs: Mapping[str, LinearityCertificate],
    alpha: int,
) -> List[str]:
    """Near-partition validity, adhesion strictly below alpha, and one
    accepted alpha-basic certificate per torso."""
    out = D.violations(G)
    if out:
        return out
    parts = torsos(G, D)
    a = _adhesion(parts)
    if a >= alpha:
        out.append(f"adhesion {a} is not less than alpha = {alpha}")
    if set(certs) != set(D.tree_nodes):
        out.append("certificate index set differs from the tree nodes")
        return out
    for t, torso in parts.items():
        W = frozenset(v for v, d in torso.graph.degrees.items() if d >= alpha)
        bad = verify_linear_certificate(torso.graph, W, certs[t], alpha, alpha, alpha)
        for msg in bad:
            out.append(f"torso at {t!r}: {msg}")
    return out
