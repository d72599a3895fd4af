"""Reference flow core: the dict-keyed network, built edge by edge with
one fresh network per query, that `immtools.flow.FlowNetwork` replaced.

Nodes are any hashable values (vertex names and the two super
terminals), every arc is added by a method call, and `_augment` reads
residuals through `_residual`.  `max_flow_min_cut`, `edge_disjoint_paths`,
`is_k_edge_connected_set` and `build_auxiliary_graph` are the
per-query versions built on it; each gives the same value, source side,
cut, edge sequences or auxiliary graph as its `immtools` namesake.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Hashable, List, Optional, Union

from helpers import sg
from immtools import CutWitness, Multigraph, SimpleGraph

INF = 10**9

_SRC = ("super", "source")
_SNK = ("super", "sink")


class FlowNetwork:
    def __init__(self):
        self.adj: Dict[Hashable, List[int]] = {}
        self.head: List[Hashable] = []
        self.cap: List[int] = []
        self.flow: List[int] = []
        # arc index -> caller label (e.g. multigraph edge id)
        self.label: List[Optional[str]] = []

    def add_node(self, n: Hashable) -> None:
        self.adj.setdefault(n, [])

    def _add_pair(self, u, v, cap, back_cap, label) -> int:
        i = len(self.head)
        self.head += (v, u)
        self.cap += (cap, back_cap)
        self.flow += (0, 0)
        self.label += (label, label)
        self.adj.setdefault(u, []).append(i)
        self.adj.setdefault(v, []).append(i + 1)
        return i

    def add_arc(self, u, v, cap, label=None) -> int:
        """Directed arc u->v; its companion at index+1 has capacity 0."""
        return self._add_pair(u, v, cap, 0, label)

    def add_undirected(self, u, v, cap, label=None) -> int:
        """Undirected edge: one arc whose companion has the same capacity."""
        return self._add_pair(u, v, cap, cap, label)

    # -- residual helpers ---------------------------------------------

    def _residual(self, i: int) -> int:
        return self.cap[i] - self.flow[i]

    def _augment(self, source, sink) -> int:
        """One BFS round; returns the amount pushed (0 when done)."""
        prev_arc: Dict[Hashable, int] = {source: -1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for i in self.adj[u]:
                v = self.head[i]
                if v not in prev_arc and self._residual(i) > 0:
                    prev_arc[v] = i
                    queue.append(v)
        if sink not in prev_arc:
            return 0
        # bottleneck
        amt = INF
        v = sink
        while v != source:
            i = prev_arc[v]
            amt = min(amt, self._residual(i))
            v = self.head[i ^ 1]
        v = sink
        while v != source:
            i = prev_arc[v]
            self.flow[i] += amt
            self.flow[i ^ 1] -= amt
            v = self.head[i ^ 1]
        return amt

    def max_flow(self, source, sink) -> int:
        self.add_node(source)
        self.add_node(sink)
        total = 0
        while True:
            pushed = self._augment(source, sink)
            if pushed == 0:
                return total
            total += pushed

    def residual_reachable(self, source) -> set:
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for i in self.adj[u]:
                v = self.head[i]
                if v not in seen and self._residual(i) > 0:
                    seen.add(v)
                    queue.append(v)
        return seen

    # -- flow decomposition -------------------------------------------

    def extract_paths(self, source, sink) -> List[List[int]]:
        """Decompose the current flow into unit source->sink arc paths.

        Only arcs with positive flow are walked, so an arc pair contributes
        at most one of its two arcs.  Cycles met on a walk are trimmed off
        (their flow stays consumed) and leftover circulations are dropped,
        so the returned paths are simple and use each edge at most once.
        """
        remaining = [max(f, 0) for f in self.flow]
        paths: List[List[int]] = []
        while True:
            walk: List[int] = []
            nodes: List[Hashable] = [source]
            node = source
            while node != sink:
                chosen = next((i for i in self.adj[node] if remaining[i] > 0), None)
                if chosen is None:
                    return paths
                remaining[chosen] -= 1
                nxt = self.head[chosen]
                if nxt in nodes:
                    # trim the cycle; its flow stays consumed
                    p = nodes.index(nxt)
                    walk = walk[:p]
                    nodes = nodes[:p + 1]
                else:
                    walk.append(chosen)
                    nodes.append(nxt)
                node = nxt
            paths.append(walk)


def _build_network(G: Multigraph, S, T) -> FlowNetwork:
    net = FlowNetwork()
    for v in sorted(G.vertices):
        net.add_node(v)
    for e in sorted(G.edges):
        u, v = G.edges[e]
        if u == v:
            continue
        net.add_undirected(u, v, 1, label=e)
    for s in sorted(S):
        net.add_arc(_SRC, s, INF)
    for t in sorted(T):
        net.add_arc(t, _SNK, INF)
    return net


def max_flow_min_cut(G: Multigraph, S, T) -> CutWitness:
    net = _build_network(G, S, T)
    value = net.max_flow(_SRC, _SNK)
    side = frozenset(net.residual_reachable(_SRC)) & G.vertices
    return CutWitness(value=value, cut_edges=G.boundary(side), source_side=side)


def edge_disjoint_paths(G: Multigraph, S, T) -> List[List[str]]:
    net = _build_network(G, S, T)
    net.max_flow(_SRC, _SNK)
    return [
        [net.label[i] for i in arcs if net.label[i] is not None]
        for arcs in net.extract_paths(_SRC, _SNK)
    ]


def is_k_edge_connected_set(G: Multigraph, W, k: int) -> Union[bool, CutWitness]:
    for x, y in itertools.combinations(sorted(W), 2):
        witness = max_flow_min_cut(G, {x}, {y})
        if witness.value < k:
            return witness
    return True


def build_auxiliary_graph(G: Multigraph, W, m: int) -> SimpleGraph:
    W = frozenset(W)
    edges = []
    for x, y in itertools.combinations(sorted(W), 2):
        reduced = G.without_vertices(W - {x, y})
        if max_flow_min_cut(reduced, {x}, {y}).value >= m:
            edges.append((x, y))
    return sg(W, edges)
