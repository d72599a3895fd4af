"""Weak and strong immersions: certificates, verification, exhaustive
search, and the star-minor-to-immersion construction.

The searcher backtracks over injective branch-vertex assignments (pattern
vertices in descending degree order) and then routes pattern edges one at
a time, enumerating every simple path (or cycle, for loops) over the
still-unused host edges.  "Absent" is reported only after the whole space
is exhausted; the optional budget caps the number of search steps.

A route from x to y != x closes first: each vertex of its path tries its
lowest available edge to y before its other edges, which follow in edge
order, so a route takes a direct edge before any detour that would block
the routes after it (the cheapest form of "fail first": Haralick and
Elliott, "Increasing tree search efficiency for constraint satisfaction
problems", AI 14, 1980).  A loop's cycles are tried in edge order.  The
order decides which immersion comes first and the first-found step
counts, but not what an exhaustive search counts.  A path frame has the
same children in either order, one per parallel class of its edges, each
by its lowest edge, and the pruning rules below read a frame's state, not
when it is reached.  So a search that finds nothing, or a full
enumeration, counts the frames of one tree, whatever the order its
children are taken in.

Verification reads only the host edges that a certificate names and
builds no index, so its cost follows the certificate, not the host.  The
search runs on each graph's integer numbering (`Multigraph.numbering`,
built once per graph and kept): vertex ids in name order and edge
positions in id order, with their end ids and the degrees.  The host
adds its incidence masks (`Multigraph.index`): one bit per edge
position, per vertex the bits of its non-loop edges (`links`) and of
its loops (`loops`), and per edge the xor of its end ids (`other`), so
the edge k leads from v to other[k] ^ v.  The available host edges are
one int bitmask, and branch images and slack are lists indexed by vertex
id.  The pattern's vertex order and twins, and the counts that rule a
query out before the search (`Multigraph.counts`), are also kept on each
graph; the counts read the numbering, not the masks, so a query they
rule out builds no masks.

The search is one loop over an explicit stack of frames: one frame per
assigned pattern vertex, per pattern edge being routed, and per vertex of
the path being grown after its first; the path frame at a route's first
vertex x is the route frame itself.  So its depth is bounded by memory,
not by the interpreter's recursion limit, and a route may run along
thousands of host vertices.  Each frame is one search step, and so is a
route frame's turn into the path frame at x.  The frames come in the
depth-first order of a recursion (assign, then route, then extend the
path), so step counts, the budget boundary and the first certificate are
those of the recursive search this loop replaced.  A path frame holds its
untried edges as one mask: the available non-loop edges at its vertex
that it has not tried yet.

A descent of the assignment is taken in one pass of the loop: once a
pattern vertex takes an image, each next one takes its first feasible
image, one frame per level, and a complete assignment starts its
routing, before the loop checks the budget again.  Likewise a route frame
takes its first path step in the pass that turns it into the path frame
at x.  So a descent or that step may push frames past the limit, as a
skipped subtree (below) may charge steps past it.  None of these yields
an immersion, so the search stops where a check per frame would stop it,
and its step count reads limit + 1.

Route states that have failed are not searched again.  Once the
assignment is fixed, what a route frame can still reach depends only on
its level j and the available edges: the weak-routing slack of a branch
image is its free edge-ends (a function of the available edges) minus the
pattern edge-ends it still has to route (a function of j), and in strong
routing it is 0.  So each assignment keeps a table from (j, available
edges) to the steps its subtree took, for every route frame whose subtree
yielded no immersion, and a route frame that meets a recorded state adds
those steps to the count and returns at once (nogood recording: Dechter,
"Enhancement schemes for constraint processing", AI 41(3), 1990).  Step
counts, the budget boundary, the order and the first certificate are
those of the search without the table.  The frames open when an immersion
is yielded are not recorded, so the enumeration is the same too.  The
table is consulted only where a state can repeat.  Levels 0 and 1 cannot:
under one assignment a route's edge set determines the route.  Nor can a
level j whose earlier routes hold only j edges, that is, one edge each: a
one-edge route is the first available edge (or loop) between its ends,
because the parallel-edge rule below skips the others, so each earlier
route follows from the ones before it and the state has a single history.
The table holds at most one entry per refuted route frame and is emptied
when the assignment changes.

Parallel host edges are interchangeable.  When a route grows from a vertex
and two parallel edges to the same neighbour are both available and both
off the partial route, swapping them is an automorphism of the host that
fixes the assignment, every route chosen so far and the partial route.  Any
completion through the second edge maps to one through the first, so once
the first has been tried (and failed) the second is skipped: a path frame
at cur that tries an edge to nb drops every edge joining the two from its
untried mask at once (untried &= ~links[nb]).  The same holds for two
available loops at the vertex a loop is routed from, so only the lowest
bit of the available loops there is offered.

Three more necessary conditions cut subtrees that hold no immersion.  The
depth-first order is unchanged, so the first certificate found is the one
the unpruned search finds.

- Counting, degree, pair and edge domination.  Every immersion needs at
  least as many host vertices and edges as the pattern has, and an
  injective map onto host vertices of at least the pattern degree (a loop
  counting 2).  So H's degrees, sorted in descending order, must be at
  most G's, place by place.  Pattern edges become edge-disjoint paths,
  so the images of two pattern vertices joined by a path, or by two
  edge-disjoint paths, are joined in the same way; the map is injective,
  so G has at least as many pairs in one component, and in one component
  once the bridges are removed, as H (p1 and p2 of `Multigraph.counts`).  H
  arises from a subgraph of G by lifting pairs of edges and deleting
  edges and isolated vertices; a lift or an edge deletion lowers m by
  one and raises the number of components c by at most one, and an
  isolated vertex takes one from n and from c.  So H's cycle rank
  m - n + c is at most G's.
  Each pattern edge is either one host edge between the images of its
  ends (a host loop, for a loop) or a route of two host edges or more.
  Sort both graphs' pair multiplicities, and their loop counts, in
  descending order.  Then need, the sum of
  (h_i - g_i)+ over the pairs plus the same sum over the loops, is a
  lower bound on the pattern edges that take two host edges or more:
  the vertex map matches H's pairs to distinct pairs of G, and H's loop
  sites to distinct ones of G, and matching the sorted lists place by
  place minimises this convex cost over all such matchings.  So need is
  at most m_G - m_H.  In a strong immersion each of those routes also
  passes through a host vertex that is no branch image, taking two of
  its edge-ends, so need is at most the sum of the n_G - n_H largest
  values of deg_G // 2 (the spare capacity).  A query that fails any
  of this is absent before any search step.
- Residual slack, weak routing.  Once the assignment is complete, each
  branch image gv = phi(a) gets slack deg_G(gv) - deg_H(a).  A route uses
  one edge-end at each of its own ends, and a loop route two at its
  vertex, so slack changes only where a route passes through a branch
  image, by 2.  Slack below 0 leaves some remaining pattern edge without
  a free host edge-end, so a path enters a branch image as an interior
  vertex only when its slack is at least 2.  A strong route has no branch
  image inside, so the rule applies to weak routing only.
- Pattern twins.  Two pattern vertices are twins when they have the same
  loop count and the same multiplicity to every third vertex; the classes
  come from `multigraph.twin_classes`, as canonical keys' do.  Swapping
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
import operator
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .flow import FlowNetwork
from .multigraph import Multigraph, _fresh_name
from .pathdecomp import build_auxiliary_graph
from .simplegraph import StarMinorModel, _spread

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


# The answers without a certificate.  A result is immutable, so every such
# answer is one of these two objects.
_NO_IMMERSION = SearchResult(status=ABSENT)
_OUT_OF_BUDGET = SearchResult(status=BUDGET)


# -- verification -----------------------------------------------------


def verify_immersion(
    G: Multigraph,
    H: Multigraph,
    cert: ImmersionCertificate,
    strong: Optional[bool] = None,
) -> List[str]:
    """Empty list on accept; otherwise one message per violated condition.

    The checks read only the host edges the certificate names: each image
    is one adjacency, vertex -> the other end of each of its edges there,
    a loop listed once.  References to nonexistent vertices or edges raise
    ValueError.
    """
    if strong is None:
        strong = cert.strong
    vm, em = cert.vertex_map, cert.edge_map
    if set(vm) != H.vertices:
        raise ValueError("vertex_map keys do not match the pattern's vertices")
    if set(em) != H.edges.keys():
        raise ValueError("edge_map keys do not match the pattern's edges")
    preimages: Dict[str, List[str]] = {}
    for hv, gv in vm.items():
        if gv not in G.vertices:
            raise ValueError(f"vertex_map sends {hv!r} to unknown vertex {gv!r}")
        preimages.setdefault(gv, []).append(hv)
    images: Dict[str, Dict[str, List[str]]] = {}
    for he, ge in em.items():
        adj = images[he] = {}
        for e in ge:
            if e not in G.edges:
                raise ValueError(f"edge_map of {he!r} references unknown edge {e!r}")
            a, b = G.edges[e]
            adj.setdefault(a, []).append(b)
            if a != b:
                adj.setdefault(b, []).append(a)

    violations: List[str] = []
    for gv, hvs in sorted(preimages.items()):
        if len(hvs) > 1:
            violations.append(f"vertex_map not injective: {sorted(hvs)} all map to {gv!r}")

    claimed: Dict[str, str] = {}
    for he in sorted(em):
        for e in sorted(em[he]):
            if e in claimed:
                violations.append(f"edges {claimed[e]!r} and {he!r} share host edge {e!r}")
            else:
                claimed[e] = he

    for he in sorted(H.edges):
        hu, hv = H.edges[he]
        adj = images[he]
        if hu == hv:
            # A cycle through x leaves it by one edge and comes back by
            # another: leave by each edge in turn and spread without x, and
            # an edge to a vertex already reached closes one (a loop at
            # once, as its other end is x).
            x = vm[hu]
            reached = {x}
            for u in adj.get(x, ()):
                if u in reached:
                    break
                _spread(adj, u, reached)
            else:
                violations.append(f"loop {he!r}: image contains no cycle through {x!r}")
        elif vm[hu] not in adj or vm[hv] not in adj:
            violations.append(f"edge {he!r}: image misses an endpoint image")
        # one edge is connected; more are when one of their ends reaches
        # all the others
        if len(em[he]) > 1 and len(_spread(adj, next(iter(adj)), set())) < len(adj):
            violations.append(f"edge {he!r}: image is not connected")
        if strong:
            inside = [hw for gv in adj for hw in preimages.get(gv, ()) if hw != hu and hw != hv]
            for hw in sorted(inside):
                violations.append(
                    f"edge {he!r}: image contains branch vertex {vm[hw]!r}"
                    f" (= image of non-incident {hw!r})"
                )
    return violations


# -- exhaustive search ------------------------------------------------


def _dominated(G: Multigraph, H: Multigraph, strong: bool) -> bool:
    """Whether G passes the counting tests of the module docstring for H:
    as many vertices, edges, pairs in one component and pairs in one
    2-edge-connected class, at least H's cycle rank, H's degrees, sorted
    in descending order, at most G's place by place, and room for the
    pattern edges that no single host edge can carry."""
    g, h = G.counts, H.counts
    if h.n > g.n or h.m > g.m or h.p1 > g.p1 or h.p2 > g.p2 or h.cycle_rank > g.cycle_rank:
        return False
    if not all(map(operator.le, h.degree_sequence, g.degree_sequence)):
        return False
    # need, the sum of (h_i - g_i)+, is m_H less the sums of min(h_i, g_i):
    # the most pattern edges that single host edges can carry
    need = (
        h.m
        - sum(map(min, h.pair_multiplicities, g.pair_multiplicities))
        - sum(map(min, h.loop_counts, g.loop_counts))
    )
    if need > g.m - h.m:
        return False
    return not strong or need <= g.spare_capacity[g.n - h.n]


# Frame kinds of the search stack.
_ASSIGN, _ROUTE, _STEP = 0, 1, 2
# The slack of a host vertex that is no branch image: a path may always
# pass through it.
_FREE = 1 << 62


class _Searcher:
    """Depth-first search for immersions of H in G on their integer
    indexes; see the module docstring.  `steps` counts the search steps
    so far, a skipped subtree's steps charged as if they were taken.  A
    descent of the assignment, a route's first path step and a skipped
    subtree may each go past the budget in one pass; when the budget runs
    out, `immersions()` returns with `steps` at budget + 1, the one sign
    of a spent budget.
    `refuted_hits` counts the route frames skipped as refuted states, and
    `refuted_steps` the steps charged for them."""

    def __init__(self, G: Multigraph, H: Multigraph, strong: bool, budget: Optional[int]):
        self.G = G
        self.H = H
        self.strong = strong
        self.budget = budget
        self.steps = 0
        self.refuted_hits = 0
        self.refuted_steps = 0

    def immersions(self) -> Iterator[ImmersionCertificate]:
        """The immersions the search reaches, in depth-first order, until
        the budget runs out; the pruning skips those that differ from an
        earlier one only by swapping parallel host edges or twins' images."""
        gindex, gnum, hnum = self.G.index, self.G.numbering, self.H.numbering
        links, loops, other, gdeg = gindex.links, gindex.loops, gindex.other, gnum.degree
        ng = len(gdeg)
        order, twin = self.H.degree_order, self.H.earlier_twins
        hdeg, hends = hnum.degree, hnum.ends
        nh, mh = len(order), len(hends)
        strong = self.strong
        limit = sys.maxsize if self.budget is None else self.budget
        full = (1 << len(gnum.edges)) - 1

        img = [-1] * nh  # pattern vertex id -> host vertex id
        used = [False] * ng
        # host vertex id -> free edge-ends minus the pattern edge-ends still
        # to route there, for branch images in weak routing; 0 (never pass)
        # for branch images in strong routing; _FREE for every other vertex
        slack = [_FREE] * ng
        # per route level: its ends, its first path edge, and the available
        # edges when it began (so its route is what later levels lack)
        xs, ys, firsts = [-1] * mh, [-1] * mh, [0] * mh
        level_avail = [0] * (mh + 1)
        # (route level, available edges) -> the steps its subtree took, for
        # the route frames of the current assignment that yielded nothing;
        # starts[j]: the step count when level j began, -1 when it is not
        # to be recorded (states that cannot repeat, levels open at a
        # yield, and the find level mh)
        refuted: Dict[Tuple[int, int], int] = {}
        starts = [-1] * (mh + 1)
        j = -1  # the route level being built
        x = y = -1
        first = 0
        # the non-loop edges at y, for a route with y != x; 0 for a loop
        to_y = 0

        # Frames:
        #   [_ASSIGN, i, gv]: pattern vertex order[i] takes image gv (-1:
        #     none yet); with i == nh, gv is 0 while its routing runs, and
        #     -1 only in the start frame of a pattern without vertices;
        #   [_ROUTE, phase, untried, avail]: route pattern edge j; phase 0
        #     to start (or to skip a refuted state), 1 after the loop
        #     route, 2 while it is the path frame at x; j == mh is a find;
        #   [_STEP, cur, untried, path vertices (bits), avail]: a path of
        #     level j at cur.
        # untried: the available non-loop edges at the path's vertex that
        # it has not tried.  Pushing a frame is one search step, and so is
        # a route frame's turn to the path at x.  A frame resumes with its
        # own avail, which undoes its children's routes, and a path frame
        # gives back its vertex's slack when it is popped.
        steps = 1
        stack: List[list] = [[_ASSIGN, 0, -1]]
        while stack:
            if steps > limit:
                # a descent, a route's first path step or a skipped
                # subtree may take steps past the limit at once
                steps = limit + 1
                break
            f = stack[-1]
            kind = f[0]
            if kind == _STEP:
                _, cur, untried, visited, avail = f
            elif kind == _ROUTE:
                _, phase, untried, avail = f
                if phase == 0:
                    if j == mh:
                        level_avail[mh] = avail
                        self.steps = steps
                        yield self._certificate(img, level_avail)
                        # every open route level leads to this immersion
                        for k in range(2, mh):
                            starts[k] = -1
                        phase = 3  # the route frame ends without a path
                    elif j > 1 and (full ^ avail).bit_count() > j:
                        skipped = refuted.get((j, avail))
                        if skipped is None:
                            starts[j] = steps
                        else:
                            # the subtree of this state has failed before:
                            # charge its steps and leave it
                            steps += skipped
                            self.refuted_hits += 1
                            self.refuted_steps += skipped
                            starts[j] = -1
                            phase = 3
                    elif j > 1:
                        # every route below is one edge: a new state
                        starts[j] = -1
                    if phase == 0:
                        level_avail[j] = avail
                        hu, hv = hends[j]
                        x = xs[j] = img[hu]
                        y = ys[j] = img[hv]
                        to_y = links[y] if y != x else 0
                        # Two available loops at x are swapped by a host
                        # automorphism that fixes everything chosen so far,
                        # so only the first is offered, before the cycles.
                        loop = avail & loops[x] if hu == hv else 0
                        if loop:
                            f[1] = 1
                            stack.append([_ROUTE, 0, 0, avail & ~(loop & -loop)])
                            j += 1
                            steps += 1
                            continue
                if phase < 2:
                    # the route frame turns into the path frame at x
                    f[1] = 2
                    untried = avail & links[x]
                    steps += 1
                # the path at x: nb is never x, so its vertex set is
                # wanted only by the frame it pushes
                cur, visited = x, 0
            else:
                _, i, gv = f
                if gv >= 0:
                    if i == nh:
                        # the routing under this assignment is over
                        stack.pop()
                        for gv in img:
                            slack[gv] = _FREE
                        continue
                    used[gv] = False
                # The descent: this and each next pattern vertex take their
                # first feasible image, one pushed frame (one step) per
                # level, in this one pass.
                low = gv + 1
                while i < nh:
                    hv = order[i]
                    need = hdeg[hv]
                    if twin[i] >= 0 and img[twin[i]] >= low:
                        low = img[twin[i]] + 1
                    for gv in range(low, ng):
                        if not used[gv] and gdeg[gv] >= need:
                            break
                    else:
                        stack.pop()
                        break
                    f[2] = img[hv] = gv
                    used[gv] = True
                    i += 1
                    f = [_ASSIGN, i, -1]
                    stack.append(f)
                    steps += 1
                    low = 0
                else:
                    # the assignment is complete: start the routing
                    f[2] = 0
                    for hv in range(nh):
                        gv = img[hv]
                        slack[gv] = 0 if strong else gdeg[gv] - hdeg[hv]
                    refuted.clear()
                    stack.append([_ROUTE, 0, 0, full])
                    j = 0
                    steps += 1
                continue

            # The path at cur tries its lowest untried edge to y first, when
            # y != x, and then its other untried edges in edge order.  Every
            # edge joining cur and the neighbour nb leaves the untried set
            # at once: a later parallel edge is also available and off the
            # path, so swapping it with the tried edge is a host
            # automorphism fixing the assignment, the earlier routes and
            # the path so far, and its completions mirror ones that have
            # already failed (or, past a visited or saturated nb, fail
            # the same way).
            while untried:
                e = untried & to_y
                if e:
                    e &= -e
                    nb = y
                else:
                    e = untried & -untried
                    nb = other[e.bit_length() - 1] ^ cur
                untried &= ~links[nb]
                if nb == y:
                    # With y == x the closing edge e ends a cycle that the
                    # search also walks the other way round, leaving x by e
                    # and returning by the first edge.  Both end edges are
                    # tried from x in edge order, so keeping the traversal
                    # that leaves by the smaller one keeps each cycle's
                    # first occurrence and the order of the distinct routes.
                    if y == x and e < first:
                        continue
                    f[2] = untried
                    stack.append([_ROUTE, 0, 0, avail & ~e])
                    j += 1
                    steps += 1
                    break
                if visited >> nb & 1:
                    continue
                # passing through a branch image takes two of its
                # edge-ends, and its remaining pattern edges need theirs
                s = slack[nb]
                if s < 2:
                    continue
                slack[nb] = s - 2
                f[2] = untried
                if cur == x:
                    first = firsts[j] = e
                    visited = 1 << x
                rest = avail & ~e
                stack.append([_STEP, nb, rest & links[nb], visited | 1 << nb, rest])
                steps += 1
                break
            else:
                stack.pop()
                if cur != x:
                    slack[cur] += 2
                else:
                    # the route frame of level j ends
                    if starts[j] >= 0:
                        refuted[j, avail] = steps - starts[j]
                    j -= 1
                    if j >= 0:
                        x, y, first = xs[j], ys[j], firsts[j]
                        to_y = links[y] if y != x else 0
        self.steps = steps

    def _certificate(self, img: List[int], level_avail: List[int]) -> ImmersionCertificate:
        """The immersion of the routes now open: pattern edge k takes the
        host edges of level_avail[k] that level k + 1 lacks."""
        G, H = self.G, self.H
        gedges = G.numbering.edges
        edge_map: Dict[str, FrozenSet[str]] = {}
        before = level_avail[0]
        for k, he in enumerate(H.numbering.edges):
            after = level_avail[k + 1]
            route = before & ~after
            before = after
            names = []
            while route:
                e = route & -route
                names.append(gedges[e.bit_length() - 1])
                route ^= e
            edge_map[he] = frozenset(names)
        hnames, gnames = H.numbering.names, G.numbering.names
        return ImmersionCertificate(
            vertex_map={hnames[h]: gnames[img[h]] for h in H.degree_order},
            edge_map=edge_map,
            strong=self.strong,
        )


def find_immersion(
    G: Multigraph,
    H: Multigraph,
    strong: bool = False,
    budget: Optional[int] = None,
) -> SearchResult:
    """Exhaustive immersion search.  A budget caps the search steps (0
    allows none); None means no cap.  A query that the counting tests
    rule out (see the module docstring) is absent without a step,
    whatever the budget.  A search that finds no immersion answers
    budget exactly when it took more steps than the budget.  A certificate
    is not re-checked here: `verify_immersion` checks one when asked."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not _dominated(G, H, strong):
        return _NO_IMMERSION
    searcher = _Searcher(G, H, strong, budget)
    cert = next(searcher.immersions(), None)
    if cert is not None:
        return SearchResult(status=FOUND, certificate=cert)
    if budget is not None and searcher.steps > budget:
        return _OUT_OF_BUDGET
    return _NO_IMMERSION


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

    # A fresh vertex s is the source and the center the sink.  s feeds
    # each used leaf theta(v) by deg_F(v) parallel edges, their ids in leaf
    # order (theta keeps the order, so the leaves come sorted).  A path may
    # not pass through a used leaf, so only the arcs from s enter one.
    used_leaves = {theta[v] for v in fverts}
    total = 2 * len(F.edges)
    s = _fresh_name("source", G.vertices)
    edges = dict(G.edges)
    feeds = [theta[v] for v in fverts for _ in range(F.degree(v))]
    for k, z in enumerate(feeds):
        edges[_fresh_name(f"{s}:{k:0{len(str(total))}d}", edges)] = (s, z)
    net = FlowNetwork(Multigraph(G.vertices | {s}, edges))
    index, head, cap = net.index, net.head, net.cap
    blocked = set(net.nodes(used_leaves))
    for i in range(len(head)):
        if head[i] in blocked and head[i ^ 1] != index[s]:
            cap[i] = 0

    value = net.max_flow([index[s]], [index[center]])
    if value < total:
        raise ValueError(
            f"only {value} of {total} leaf-to-center paths exist;"
            " m is too small or the model is wrong"
        )
    by_leaf: Dict[str, List[List[str]]] = {z: [] for z in used_leaves}
    for arcs in net.extract_paths():
        leaf = net.names[head[arcs[0]]]  # the first arc runs s -> leaf
        by_leaf[leaf].append(net.path_edges(arcs[1:]))
    for v in fverts:
        if len(by_leaf[theta[v]]) != F.degree(v):
            raise ValueError("path extraction does not match the half-edge counts")

    unused = {v: iter(by_leaf[theta[v]]) for v in fverts}
    edge_map: Dict[str, FrozenSet[str]] = {}
    for e in sorted(F.edges):
        u, v = F.edges[e]
        edge_map[e] = frozenset(next(unused[u])) | frozenset(next(unused[v]))

    cert = ImmersionCertificate(vertex_map=theta, edge_map=edge_map, strong=True)
    bad = verify_immersion(G, F, cert, strong=True)
    if bad:
        raise ValueError("construction produced an invalid certificate: " + "; ".join(bad))
    return cert
