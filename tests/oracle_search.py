"""Reference immersion search: the exhaustive searcher without the
residual-slack, twin, degree-domination and pair-count pruning that
`immtools.immersion.find_immersion` applies.

It backtracks over every degree-feasible injective assignment in the same
order, and routes in the same order (each path tries its edge to the
route's end first) with the same parallel-edge rule, so for every query
without a budget it gives the same status and the same certificate as
`find_immersion`; only its step counts are larger.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from immtools import Multigraph, verify_immersion
from immtools.immersion import (
    ABSENT,
    BUDGET,
    FOUND,
    ImmersionCertificate,
    SearchResult,
)


class _BudgetExhausted(Exception):
    pass


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
        self.hedges = sorted(H.edges)
        self.assign: Dict[str, str] = {}
        self.used_g: Set[str] = set()
        self.avail: Set[str] = set(G.edges)
        self.routes: Dict[str, Tuple[str, ...]] = {}

    def tick(self) -> None:
        if self.steps_left == 0:
            raise _BudgetExhausted
        if self.steps_left > 0:
            self.steps_left -= 1

    def run(self) -> Optional[ImmersionCertificate]:
        if len(self.H.vertices) > len(self.G.vertices):
            return None
        if len(self.H.edges) > len(self.G.edges):
            return None
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
            return self._route(0)
        hv = self.horder[i]
        need = self.hdeg[hv]
        for gv in sorted(self.G.vertices - self.used_g):
            if self.gdeg[gv] < need:
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
        hu, hv = self.H.edges[he]
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
        the forbidden vertex set, up to swapping parallel edges, in the
        search's order: each vertex tries its edge to y first.  With
        y == x these are the non-loop cycles through x, in edge order."""
        path: List[str] = []
        visited = {x}

        def step(cur: str) -> Iterator[Tuple[str, ...]]:
            self.tick()
            # Neighbours reached by an edge already tried from cur.  A later
            # parallel edge to one of them is also available and off the
            # path, so swapping it with the tried edge is a host automorphism
            # fixing the assignment, the earlier routes and the path so far:
            # its completions mirror ones that have already failed.
            tried: Set[str] = set()
            # A route with y != x closes first: the lowest available edge
            # from cur to y, before the other edges in sorted order.
            if y != x:
                for e, nb in self.gadj[cur]:
                    if nb == y and e in self.avail and e not in path:
                        tried.add(nb)
                        path.append(e)
                        yield tuple(path)
                        path.pop()
                        break
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
                    tried.add(nb)
                    path.append(e)
                    visited.add(nb)
                    yield from step(nb)
                    visited.discard(nb)
                    path.pop()

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
    searcher = _Searcher(G, H, strong, budget)
    try:
        cert = searcher.run()
    except _BudgetExhausted:
        return SearchResult(status=BUDGET)
    if cert is None:
        return SearchResult(status=ABSENT)
    assert not verify_immersion(G, H, cert, strong), "searcher emitted a bad certificate"
    return SearchResult(status=FOUND, certificate=cert)
