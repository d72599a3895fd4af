"""Unit-capacity max-flow core behind the connectivity queries.

Every arc i is stored with a residual companion at i ^ 1, and the flow on
the companion is always the negation of the flow on i.  A directed arc's
companion has capacity 0.  An undirected edge is one arc whose companion
has the same capacity, so the pair carries flow in at most one direction
and a flow can never use an edge both ways.  Augmentation is BFS
shortest-path with arcs visited in insertion order, which makes all
results deterministic when callers add arcs in sorted edge-id order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional

INF = 10**9


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
