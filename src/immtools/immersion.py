"""Weak and strong immersions: certificates, verification, exhaustive
search, and the star-minor-to-immersion construction.

The searcher backtracks over injective branch-vertex assignments (pattern
vertices in descending degree order) and then routes pattern edges one at
a time, enumerating every simple path (or cycle, for loops) over the
still-unused host edges.  "Absent" is reported only after the whole space
is exhausted; the optional budget caps the number of search steps.

Parallel host edges are interchangeable.  When a route grows from a vertex
and two parallel edges to the same neighbour are both available and both
off the partial route, swapping them is an automorphism of the host that
fixes the assignment, every route chosen so far and the partial route.  Any
completion through the second edge maps to one through the first, so once
the first has been tried (and failed) the second is skipped.  The same
holds for two available loops at the vertex a loop is routed from.

Three more necessary conditions cut subtrees that hold no immersion.  The
depth-first order is unchanged, so the first certificate found is the one
the unpruned search finds.

- Counting and degree domination.  Every immersion needs at least as many
  host vertices and edges as the pattern has, and an injective map onto
  host vertices of at least the pattern degree (a loop counting 2).  So
  H's degrees, sorted in descending order, must be at most G's, place by
  place.  A query that fails this is absent before any search step.
- Residual slack, weak routing.  Once the assignment is complete, each
  branch image gv = phi(a) gets slack deg_G(gv) - deg_H(a).  A route uses
  one edge-end at each of its own ends, and a loop route two at its
  vertex, so slack changes only where a route passes through a branch
  image, by 2.  Slack below 0 leaves some remaining pattern edge without
  a free host edge-end, so a path enters a branch image as an interior
  vertex only when its slack is at least 2.  A strong route has no branch
  image inside, so the rule applies to weak routing only.
- Pattern twins.  Two pattern vertices are twins when they have the same
  loop count and the same multiplicity to every third vertex.  Swapping
  them is an automorphism of H, and twinhood is an equivalence relation.
  Swapping two twins' images maps an immersion to an immersion, and it
  makes the assignment lexicographically smaller (in pattern order, then
  host vertex name) when the earlier twin has the larger image.  The
  first feasible assignment therefore gives twins increasing images, so
  each pattern vertex takes only images greater than its nearest earlier
  twin's.
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .flow import INF, FlowNetwork
from .multigraph import Multigraph
from .simplegraph import StarMinorModel

FOUND = "found"
ABSENT = "absent"
BUDGET = "budget"


@dataclasses.dataclass(frozen=True)
class ImmersionCertificate:
    vertex_map: Dict[str, str]
    edge_map: Dict[str, FrozenSet[str]]
    strong: bool


@dataclasses.dataclass(frozen=True)
class SearchResult:
    status: str
    certificate: Optional[ImmersionCertificate] = None


# -- verification -----------------------------------------------------


def _reach(G: Multigraph, edge_ids: AbstractSet[str], x: str) -> Set[str]:
    """Vertices reachable from x over the host edges in edge_ids."""
    adj = G.adjacency()
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for e, u in adj[v]:
            if e in edge_ids and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def verify_immersion(
    G: Multigraph,
    H: Multigraph,
    cert: ImmersionCertificate,
    strong: Optional[bool] = None,
) -> List[str]:
    """Empty list on accept; otherwise one message per violated condition.

    References to nonexistent vertices or edges raise ValueError.
    """
    if strong is None:
        strong = cert.strong
    vm, em = cert.vertex_map, cert.edge_map
    if set(vm) != H.vertices:
        raise ValueError("vertex_map keys do not match the pattern's vertices")
    if set(em) != set(H.edges):
        raise ValueError("edge_map keys do not match the pattern's edges")
    for hv, gv in vm.items():
        if gv not in G.vertices:
            raise ValueError(f"vertex_map sends {hv!r} to unknown vertex {gv!r}")
    for he, ge in em.items():
        for e in ge:
            if e not in G.edges:
                raise ValueError(f"edge_map of {he!r} references unknown edge {e!r}")

    violations: List[str] = []
    images: Dict[str, List[str]] = {}
    for hv, gv in vm.items():
        images.setdefault(gv, []).append(hv)
    for gv, hvs in sorted(images.items()):
        if len(hvs) > 1:
            violations.append(
                f"vertex_map not injective: {sorted(hvs)} all map to {gv!r}"
            )

    claimed: Dict[str, str] = {}
    for he in sorted(em):
        for e in sorted(em[he]):
            if e in claimed:
                violations.append(
                    f"edges {claimed[e]!r} and {he!r} share host edge {e!r}"
                )
            else:
                claimed[e] = he

    for he in sorted(H.edges):
        hu, hv = H.ends(he)
        edge_ids = frozenset(em[he])
        spanned = {v for e in edge_ids for v in G.edges[e]}
        if hu == hv:
            # A cycle through x: a loop at x, or an edge at x whose other
            # end still reaches x without it.
            x = vm[hu]
            if not any(
                e in edge_ids and (u == x or x in _reach(G, edge_ids - {e}, u))
                for e, u in G.adjacency()[x]
            ):
                violations.append(
                    f"loop {he!r}: image contains no cycle through {x!r}"
                )
        else:
            if vm[hu] not in spanned or vm[hv] not in spanned:
                violations.append(
                    f"edge {he!r}: image misses an endpoint image"
                )
        if spanned and _reach(G, edge_ids, next(iter(spanned))) != spanned:
            violations.append(f"edge {he!r}: image is not connected")
        if strong:
            ends = {hu, hv}
            for hw in sorted(H.vertices - ends):
                if vm[hw] in spanned:
                    violations.append(
                        f"edge {he!r}: image contains branch vertex {vm[hw]!r}"
                        f" (= image of non-incident {hw!r})"
                    )
    return violations


# -- exhaustive search ------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _degrees_dominated(G: Multigraph, H: Multigraph) -> bool:
    """Whether G has as many vertices and edges as H, and H's degrees,
    sorted in descending order, are at most G's, place by place."""
    if len(H.vertices) > len(G.vertices) or len(H.edges) > len(G.edges):
        return False
    gdeg = sorted(G.degrees.values(), reverse=True)
    hdeg = sorted(H.degrees.values(), reverse=True)
    return all(h <= g for h, g in zip(hdeg, gdeg))


def _earlier_twins(H: Multigraph, horder: List[str]) -> List[Optional[str]]:
    """For each pattern vertex in horder, its nearest earlier twin, or None.

    Twins have the same loop count and the same multiplicity to every
    third vertex, so they have equal degree and sit in one run of horder.
    Within such a run, equal multiplicities to third vertices already
    force equal loop counts.
    """
    adj = H.adjacency()
    mult: Dict[str, Dict[str, int]] = {}
    for v in horder:
        counts: Dict[str, int] = {}
        for _, u in adj[v]:
            counts[u] = counts.get(u, 0) + 1
        mult[v] = counts

    def third(v: str, other: str) -> Dict[str, int]:
        return {u: m for u, m in mult[v].items() if u != other and u != v}

    twin: List[Optional[str]] = [None] * len(horder)
    for i in range(1, len(horder)):
        v = horder[i]
        for u in reversed(horder[:i]):
            if H.degrees[u] != H.degrees[v]:
                break
            if third(u, v) == third(v, u):
                twin[i] = u
                break
    return twin


class _Searcher:
    def __init__(self, G: Multigraph, H: Multigraph, strong: bool, budget: Optional[int]):
        self.G = G
        self.H = H
        self.strong = strong
        self.steps_left = budget if budget is not None else -1
        self.gadj = G.adjacency()
        self.hdeg = H.degrees
        self.gdeg = G.degrees
        self.horder = sorted(H.vertices, key=lambda v: (-self.hdeg[v], v))
        self.twin = _earlier_twins(H, self.horder)
        self.hedges = sorted(H.edges)
        self.assign: Dict[str, str] = {}
        self.used_g: Set[str] = set()
        self.avail: Set[str] = set(G.edges)
        self.routes: Dict[str, Tuple[str, ...]] = {}
        # branch image -> free edge-ends minus the pattern edge-ends still
        # to route there; filled for weak routing only
        self.slack: Dict[str, int] = {}

    def tick(self) -> None:
        if self.steps_left == 0:
            raise _BudgetExhausted
        if self.steps_left > 0:
            self.steps_left -= 1

    def run(self) -> Optional[ImmersionCertificate]:
        if self._assign(0):
            return ImmersionCertificate(
                vertex_map=dict(self.assign),
                edge_map={e: frozenset(r) for e, r in self.routes.items()},
                strong=self.strong,
            )
        return None

    def _assign(self, i: int) -> bool:
        self.tick()
        if i == len(self.horder):
            if not self.strong:
                self.slack = {
                    gv: self.gdeg[gv] - self.hdeg[hv] for hv, gv in self.assign.items()
                }
            return self._route(0)
        hv = self.horder[i]
        need = self.hdeg[hv]
        twin = self.twin[i]
        low = None if twin is None else self.assign[twin]
        for gv in sorted(self.G.vertices - self.used_g):
            if self.gdeg[gv] < need or (low is not None and gv <= low):
                continue
            self.assign[hv] = gv
            self.used_g.add(gv)
            if self._assign(i + 1):
                return True
            del self.assign[hv]
            self.used_g.discard(gv)
        return False

    def _route(self, j: int) -> bool:
        self.tick()
        if j == len(self.hedges):
            return True
        he = self.hedges[j]
        hu, hv = self.H.ends(he)
        if self.strong:
            forbidden = {self.assign[w] for w in self.H.vertices if w not in (hu, hv)}
        else:
            forbidden = set()
        if hu == hv:
            gen = self._cycles(self.assign[hu], forbidden)
        else:
            gen = self._paths(self.assign[hu], self.assign[hv], forbidden)
        for route in gen:
            self.avail.difference_update(route)
            self.routes[he] = route
            if self._route(j + 1):
                return True
            del self.routes[he]
            self.avail.update(route)
        return False

    def _paths(
        self, x: str, y: str, forbidden: Set[str]
    ) -> Iterator[Tuple[str, ...]]:
        """All simple x-y paths over available edges, interiors avoiding
        the forbidden vertex set, up to swapping parallel edges.  With
        y == x these are the non-loop cycles through x."""
        path: List[str] = []
        visited = {x}
        slack = self.slack

        def step(cur: str) -> Iterator[Tuple[str, ...]]:
            self.tick()
            # Neighbours reached by an edge already tried from cur.  A later
            # parallel edge to one of them is also available and off the
            # path, so swapping it with the tried edge is a host automorphism
            # fixing the assignment, the earlier routes and the path so far:
            # its completions mirror ones that have already failed.
            tried: Set[str] = set()
            for e, nb in self.gadj[cur]:
                if e not in self.avail or e in path or nb == cur or nb in tried:
                    continue
                if nb == y:
                    tried.add(nb)
                    # With y == x the closing edge e ends a cycle that the
                    # search also walks the other way round, leaving x by e
                    # and returning by path[0].  Both end edges are tried
                    # from x in sorted order, so keeping the traversal that
                    # leaves by the smaller one keeps each cycle's first
                    # occurrence and the order of the distinct routes.
                    if y == x and e < path[0]:
                        continue
                    path.append(e)
                    yield tuple(path)
                    path.pop()
                elif nb not in visited and nb not in forbidden:
                    # passing through a branch image takes two of its
                    # edge-ends, and its remaining pattern edges need theirs
                    branch = nb in slack
                    if branch:
                        if slack[nb] < 2:
                            continue
                        slack[nb] -= 2
                    tried.add(nb)
                    path.append(e)
                    visited.add(nb)
                    yield from step(nb)
                    visited.discard(nb)
                    path.pop()
                    if branch:
                        slack[nb] += 2

        return step(x)

    def _cycles(self, x: str, forbidden: Set[str]) -> Iterator[Tuple[str, ...]]:
        """All cycles through x over available edges, each in one
        direction and up to swapping parallel edges or loops: a loop at x,
        or a closed simple walk with distinct edges and interior vertices."""
        # Two available loops at x are swapped by a host automorphism that
        # fixes everything chosen so far, so only the first is offered.
        for e, nb in self.gadj[x]:
            if nb == x and e in self.avail:
                yield (e,)
                break
        yield from self._paths(x, x, forbidden)


def find_immersion(
    G: Multigraph,
    H: Multigraph,
    strong: bool = False,
    budget: Optional[int] = None,
) -> SearchResult:
    """Exhaustive immersion search; certificates always re-verify.  A
    budget caps the search steps (0 allows none); None means no cap."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not _degrees_dominated(G, H):
        return SearchResult(status=ABSENT)
    searcher = _Searcher(G, H, strong, budget)
    try:
        cert = searcher.run()
    except _BudgetExhausted:
        return SearchResult(status=BUDGET)
    if cert is None:
        return SearchResult(status=ABSENT)
    assert not verify_immersion(G, H, cert, strong), "searcher emitted a bad certificate"
    return SearchResult(status=FOUND, certificate=cert)


# -- star minor to immersion ------------------------------------------


def star_minor_to_immersion(
    G: Multigraph,
    W,
    m: int,
    model: StarMinorModel,
    F: Multigraph,
) -> ImmersionCertificate:
    """Turn a star minor of the auxiliary graph into a strong immersion of F.

    Pattern vertices map to the first |V(F)| leaves; 2|E(F)| edge-disjoint
    leaf-to-center paths are extracted by a single flow computation (leaf z
    supplying one path per half-edge at its pattern vertex, with transit
    through used leaves blocked); each pattern edge, in sorted order,
    takes the next path at each of its ends and becomes their union.
    """
    from .pathdecomp import build_auxiliary_graph

    W = frozenset(W)
    if m < 2 * len(F.edges):
        raise ValueError("m must be at least twice the pattern's edge count")
    aux = build_auxiliary_graph(G, W, m)
    bad = model.violations(aux)
    if bad:
        raise ValueError("invalid star minor model: " + "; ".join(bad))
    leaves = sorted(model.leaves)
    fverts = sorted(F.vertices)
    if len(leaves) < len(fverts):
        raise ValueError("model has fewer leaves than the pattern has vertices")
    theta = dict(zip(fverts, leaves))
    center = model.center

    # Used leaves are the sources and the center feeds the sink.  A path may
    # neither pass through a used leaf nor leave the center, so no arc into a
    # used leaf and no arc out of the center has capacity: an edge at a used
    # leaf is only an arc out of it, an edge at the center only an arc into
    # it, and an edge between two used leaves carries nothing.
    used_leaves = {theta[v] for v in fverts}
    net = FlowNetwork(G)
    index, src, snk = net.index, net.source, net.sink
    sources = {index[z] for z in used_leaves}
    hub = index[center]
    head, cap = net.head, net.cap
    for i in range(len(head)):
        if head[i] in sources or head[i ^ 1] == hub:
            cap[i] = 0
    for v in fverts:  # theta keeps the order, so the leaves come sorted
        net.add_arc(src, index[theta[v]], F.degree(v))
    net.add_arc(hub, snk, INF)

    total = 2 * len(F.edges)
    value = net.max_flow(src, snk)
    if value < total:
        raise ValueError(
            f"only {value} of {total} leaf-to-center paths exist;"
            " m is too small or the model is wrong"
        )
    by_leaf: Dict[str, List[List[str]]] = {z: [] for z in used_leaves}
    for arcs in net.extract_paths(src, snk):
        leaf = net.names[net.head[arcs[0]]]  # first arc is super-source -> z
        by_leaf[leaf].append(net.path_edges(arcs))
    for v in fverts:
        if len(by_leaf[theta[v]]) != F.degree(v):
            raise ValueError("path extraction does not match the half-edge counts")

    unused = {v: iter(by_leaf[theta[v]]) for v in fverts}
    edge_map: Dict[str, FrozenSet[str]] = {}
    for e in sorted(F.edges):
        u, v = F.ends(e)
        edge_map[e] = frozenset(next(unused[u])) | frozenset(next(unused[v]))

    cert = ImmersionCertificate(vertex_map=theta, edge_map=edge_map, strong=True)
    bad = verify_immersion(G, F, cert, strong=True)
    if bad:
        raise ValueError("construction produced an invalid certificate: " + "; ".join(bad))
    return cert
