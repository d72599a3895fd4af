"""Value-semantics multigraphs with identified edges.

Vertices and edge identifiers are opaque strings.  Parallel edges are
distinct entries with equal endpoint pairs; a loop stores the same vertex
twice.  All operations are pure and return new graphs.

The general queries scan the edge list.  Each graph works out its degree
map, its integer numbering and the facts that the immersion search reads
(see `Multigraph`), once, on the first read, and keeps them: they are
shared by every later query and caller, and must not be modified.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Sequence, Tuple

# the work limit of every search but the immersion search, whose budget
# the caller sets: decision nodes of one linearizing-set search, center
# sets of one star-minor search, labelled forms of one canonical key
_WORK_LIMIT = 100_000


class SizeLimitError(ValueError):
    """The input is valid but larger than a search or an output accepts."""


def _check_work(done: int, units: str, search: str) -> None:
    """Raise SizeLimitError if a search has done more than `_WORK_LIMIT`
    of its units."""
    if done > _WORK_LIMIT:
        raise SizeLimitError(
            f"more than {_WORK_LIMIT} {units}, the work limit of the {search} search"
        )


def _check_known(X: FrozenSet[str], vertices: FrozenSet[str], what: str) -> None:
    """Raise a ValueError that names, after `what`, the members of X outside
    `vertices` in sorted order, if there are any."""
    unknown = X - vertices
    if unknown:
        raise ValueError(f"{what}: {sorted(unknown)}")


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def twin_classes(group: Sequence[int], nbrs: Sequence[List[int]]) -> List[List[int]]:
    """The twin classes of `group`, vertex ids of one degree, each in group
    order, the classes in the order of their first members.  nbrs[v] holds
    the other end of each non-loop edge at v (see `neighbour_lists`).

    Twins have the same loop count and the same multiplicity to every third
    vertex; at one degree the second gives the first.  Twinhood is an
    equivalence, and the members of a class are pairwise joined by one
    number of edges, so a class is unjoined or joined throughout (twins are
    the two-vertex modules: Habib and Paul, Comput. Sci. Rev. 4(1), 2010).
    Unjoined twins have one sorted neighbour list, which keys them.  A
    joined twin of v is its neighbour, and so is the first member of its
    class, so v is compared only with the first members among its
    neighbours, each of the two removed from the other's list."""
    keyed: Dict[Tuple[int, ...], List[int]] = {}  # a first member's key -> its class
    firsts: Dict[int, Tuple[int, ...]] = {}  # a class's first member -> its key
    for v in group:
        key = tuple(sorted(nbrs[v]))
        cls = keyed.get(key)
        if cls is None:
            for w in key:
                if w in firsts and [x for x in firsts[w] if x != v] == [x for x in key if x != w]:
                    cls = keyed[firsts[w]]
                    break
            else:
                firsts[v] = key
                cls = keyed[key] = []
        cls.append(v)
    return list(keyed.values())


class Numbering(NamedTuple):
    """A multigraph on integers, each fact linear in its size: vertex i is
    the i-th smallest name and position k the k-th smallest edge id, so
    comparing ids or positions compares names."""

    names: Tuple[str, ...]  # vertex id -> name
    edges: Tuple[str, ...]  # position -> edge id, sorted
    ends: Tuple[Tuple[int, int], ...]  # position -> end ids, the smaller first
    degree: Tuple[int, ...]  # vertex id -> degree, a loop counting 2


def number(G: Multigraph) -> Numbering:
    """G's `Numbering`, in one pass over its sorted edge ids."""
    names = tuple(sorted(G.vertices))
    ids = dict(zip(names, range(len(names))))
    edges = tuple(sorted(G.edges))
    ends = []
    degree = [0] * len(names)
    for e in edges:
        a, b = G.edges[e]
        u, v = ids[a], ids[b]
        ends.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return Numbering(names, edges, tuple(ends), tuple(degree))


def neighbour_lists(numbering: Numbering) -> List[List[int]]:
    """vertex id -> the other end of each non-loop edge at it, by position."""
    nbrs: List[List[int]] = [[] for _ in numbering.names]
    for u, v in numbering.ends:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


class GraphIndex(NamedTuple):
    """The immersion search's masks over a `Numbering`: position k is the
    bit 1 << k, the edges at v are links[v] | loops[v], and the non-loop
    edge k leads from v to other[k] ^ v.  The masks take space quadratic
    in the size of the graph, so nothing but the search builds them."""

    links: Tuple[int, ...]  # vertex id -> the bits of its non-loop edges
    loops: Tuple[int, ...]  # vertex id -> the bits of its loops
    other: Tuple[int, ...]  # k -> the xor of its end ids (0 for a loop)


@dataclasses.dataclass(frozen=True, slots=True)
class GraphCounts:
    """The counting facts that `find_immersion` compares before it
    searches; see `Multigraph.counts`.  Slots, not a NamedTuple: the
    interpreter reads a slot without a lookup, and every call reads
    these."""

    n: int  # vertices
    m: int  # edges
    p1: int  # vertex pairs joined by a path
    p2: int  # vertex pairs joined by two edge-disjoint paths
    cycle_rank: int  # m - n + components: the edges a spanning forest leaves out
    degree_sequence: Tuple[int, ...]  # the degrees, in descending order
    # the edge counts of the vertex pairs joined by an edge, and the loop
    # counts of the vertices with a loop, each in descending order
    pair_multiplicities: Tuple[int, ...]
    loop_counts: Tuple[int, ...]
    # k -> the sum of the k largest values of deg // 2, for k from 0 to n.
    # A path through a vertex takes two of its edge-ends, so this bounds
    # how many edge-disjoint paths k vertices carry through them.
    spare_capacity: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; loops contribute 2 to the degree.

    Facts cached on first use (lazy, so building a graph costs nothing
    more; equality still compares only the vertices and edges):

    - `degrees`, the map behind `degree()`;
    - `numbering`: the one `Numbering` of G, which the facts below, its
      flow networks and a search's certificates read.  It counts degrees
      in its own edge loop, so it does not build `degrees`;
    - `index`: the search's `GraphIndex` masks, built from `numbering`.
      Nothing else reads them, so a graph that is not searched, or whose
      query `counts` rules out, never builds them;
    - `counts`: one `GraphCounts` record of the vertex and edge counts,
      the pairs in one component and in one component once the bridges
      are removed, the cycle rank, the sorted degrees, pair
      multiplicities and loop counts (read off `numbering.ends`), and the
      spare capacity;
    - `degree_order`: vertex ids by descending degree, then name; the
      order in which a pattern's vertices are assigned;
    - `earlier_twins`: for each place in `degree_order`, the id of the
      member before it in its class of `twin_classes`, or -1.

    No fact but `numbering` and `index` keeps a value per edge: a
    search's certificates build their own edge sets.
    """

    vertices: FrozenSet[str]
    edges: Dict[str, Tuple[str, str]]

    def __post_init__(self):
        norm = {}
        for eid, ends in self.edges.items():
            u, v = ends
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {eid!r} has an unknown endpoint")
            norm[eid] = (u, v) if u <= v else (v, u)
        object.__setattr__(self, "edges", norm)

    # -- basic queries -------------------------------------------------

    def incident(self, v: str) -> List[str]:
        """Edge ids touching v (loops listed once), sorted."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return sorted(e for e, ends in self.edges.items() if v in ends)

    def degree(self, v: str) -> int:
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return self.degrees[v]

    def neighbors(self, v: str) -> FrozenSet[str]:
        """Vertices joined to v by a non-loop edge."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return frozenset(
            b if a == v else a for a, b in self.edges.values() if (a == v) != (b == v)
        )

    def boundary(self, X: Iterable[str]) -> FrozenSet[str]:
        """delta(X): non-loop edges with exactly one endpoint in X."""
        X = frozenset(X)
        _check_known(X, self.vertices, "boundary of unknown vertices")
        return frozenset(
            e for e, (a, b) in self.edges.items() if (a in X) != (b in X)
        )

    def adjacency(self) -> Dict[str, Tuple[Tuple[str, str], ...]]:
        """vertex -> (edge id, other endpoint) pairs sorted by edge id;
        loops appear once.  A fresh mapping on each call."""
        adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in sorted(self.vertices)}
        for e in sorted(self.edges):
            a, b = self.edges[e]
            adj[a].append((e, b))
            if a != b:
                adj[b].append((e, a))
        return {v: tuple(pairs) for v, pairs in adj.items()}

    @functools.cached_property
    def degrees(self) -> Dict[str, int]:
        """vertex -> degree, a loop counting 2.  Shared: do not modify it."""
        deg = dict.fromkeys(self.vertices, 0)
        for a, b in self.edges.values():
            deg[a] += 1
            deg[b] += 1
        return deg

    numbering = functools.cached_property(number)

    @functools.cached_property
    def counts(self) -> GraphCounts:
        numbering = self.numbering
        n, m = len(numbering.names), len(numbering.edges)
        p1, p2, components = self._bridge_search()
        sequence = tuple(sorted(numbering.degree, reverse=True))
        mult = Counter(numbering.ends)  # end ids -> edges between them
        pairs, loops = [], []
        for (u, v), k in mult.items():
            (loops if u == v else pairs).append(k)
        return GraphCounts(
            n, m, p1, p2, m - n + components, sequence,
            tuple(sorted(pairs, reverse=True)), tuple(sorted(loops, reverse=True)),
            tuple(accumulate((d // 2 for d in sequence), initial=0)),
        )

    def _bridge_search(self) -> Tuple[int, int, int]:
        """(p1, p2), the pairs in one component and in one component of G
        minus its bridges, and the number of components, one per root.
        One depth-first search on an explicit stack finds the bridges
        (Tarjan, "A note on finding the bridges of a graph", IPL 1974).  A
        frame skips one entry for its parent in its vertex's neighbour
        list, the edge it came in by, so a doubled edge is never a bridge."""
        nbrs = neighbour_lists(self.numbering)
        n = len(nbrs)
        disc = [0] * n  # discovery time from 1; 0 while unseen
        low = [0] * n  # the earliest disc reached by one back edge below
        came = [-1] * n  # the parent, until the edge from it is skipped
        pending: List[int] = []  # vertices whose 2-edge-connected class is open
        p1 = p2 = time = roots = 0
        for root in range(n):
            if disc[root]:
                continue
            roots += 1
            time += 1
            disc[root] = low[root] = time
            # (vertex, its unscanned neighbours, len(pending) when it was found)
            stack = [(root, iter(nbrs[root]), len(pending))]
            pending.append(root)
            while stack:
                v, scan, at = stack[-1]
                for u in scan:
                    if u == came[v]:
                        came[v] = -1
                        continue
                    if not disc[u]:
                        time += 1
                        disc[u] = low[u] = time
                        came[u] = v
                        stack.append((u, iter(nbrs[u]), len(pending)))
                        pending.append(u)
                        break
                    if disc[u] < low[v]:
                        low[v] = disc[u]
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        if low[v] < low[p]:
                            low[p] = low[v]
                    if not stack or low[v] > disc[p]:
                        # the edge into v is a bridge, or v is the root:
                        # v's class is v and the open vertices found after it
                        s = len(pending) - at
                        del pending[at:]
                        p2 += s * (s - 1) // 2
            c = time - disc[root] + 1
            p1 += c * (c - 1) // 2
        return p1, p2, roots

    @functools.cached_property
    def index(self) -> GraphIndex:
        numbering = self.numbering
        links, loops = [0] * len(numbering.names), [0] * len(numbering.names)
        for k, (u, v) in enumerate(numbering.ends):
            bit = 1 << k
            if u == v:
                loops[u] |= bit
            else:
                links[u] |= bit
                links[v] |= bit
        return GraphIndex(tuple(links), tuple(loops), tuple(u ^ v for u, v in numbering.ends))

    @functools.cached_property
    def degree_order(self) -> Tuple[int, ...]:
        degree = self.numbering.degree
        return tuple(sorted(range(len(degree)), key=lambda v: -degree[v]))

    @functools.cached_property
    def earlier_twins(self) -> Tuple[int, ...]:
        """Twins have equal degree, so each run of `degree_order` at one
        degree is split by `twin_classes`."""
        order, degree = self.degree_order, self.numbering.degree
        nbrs = neighbour_lists(self.numbering)
        prev = [-1] * len(order)  # vertex id -> the one before it in its class
        runs: Dict[int, List[int]] = {}  # degree -> its run of degree_order
        for v in order:
            runs.setdefault(degree[v], []).append(v)
        for run in runs.values():
            for cls in twin_classes(run, nbrs):
                for u, v in zip(cls, cls[1:]):
                    prev[v] = u
        return tuple(map(prev.__getitem__, order))

    # -- derived graphs ------------------------------------------------

    def induced(self, X: Iterable[str]) -> "Multigraph":
        X = frozenset(X)
        _check_known(X, self.vertices, "induced on unknown vertices")
        return Multigraph(
            X, {e: ab for e, ab in self.edges.items() if ab[0] in X and ab[1] in X}
        )

    def without_vertices(self, X: Iterable[str]) -> "Multigraph":
        return self.induced(self.vertices - frozenset(X))

    def without_edges(self, K: Iterable[str]) -> "Multigraph":
        K = frozenset(K)
        return Multigraph(self.vertices, {e: ab for e, ab in self.edges.items() if e not in K})


# -- rewriting operations ---------------------------------------------


def consolidate(G: Multigraph, X: Iterable[str], name: str | None = None) -> Multigraph:
    """Identify X to a single fresh vertex; edges inside X (future loops) die.

    The fresh name defaults to a deterministic encoding of sorted(X), so
    repeated runs produce identical graphs.
    """
    X = frozenset(X)
    if not X:
        raise ValueError("cannot consolidate an empty vertex set")
    _check_known(X, G.vertices, "consolidate of unknown vertices")
    rest = G.vertices - X
    if name is None:
        name = "(" + "+".join(sorted(X)) + ")"
    vx = _fresh_name(name, rest)
    edges = {}
    for e, (a, b) in G.edges.items():
        ina, inb = a in X, b in X
        if ina and inb:
            continue
        edges[e] = (vx if ina else a, vx if inb else b)
    return Multigraph(rest | {vx}, edges)
