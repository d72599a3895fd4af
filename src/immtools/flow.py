"""Unit-capacity max-flow core behind the connectivity queries.

Nodes are the integers 0..n-1.  Every arc i is stored with a residual
companion at i ^ 1, and the flow on the companion is always the negation
of the flow on i.  A directed arc's companion has capacity 0.  An
undirected edge is one arc whose companion has the same capacity, so the
pair carries flow in at most one direction and a flow can never use an
edge both ways.  Augmentation is BFS shortest-path with arcs visited in
insertion order, which makes all results deterministic when callers add
arcs in sorted edge-id order.

A network is built once per graph and serves a batch of flows: each
`max_flow` starts from the zero flow, and may close nodes, which its
search then skips as if they had been deleted.
"""

from __future__ import annotations

from typing import Iterable, List

from .multigraph import Multigraph

INF = 10**9

_UNSEEN = -2  # BFS predecessor arc of a node not reached yet
_ROOT = -1  # ... of the search's start node, and of a closed node


class FlowNetwork:
    """The network of a multigraph G.  Node i is `names[i]`, the i-th
    vertex of G in sorted order, and `index` maps each vertex to its node.
    Each non-loop edge is one undirected unit arc pair, pairs in the
    order of `edge_ids`, G's non-loop edge ids sorted, so every node lists
    its arcs in that order too.  Two more nodes without arcs follow the
    vertices: `source` and `sink`, for super-terminal arcs a query adds
    after G's.
    """

    def __init__(self, G: Multigraph):
        names = sorted(G.vertices)
        index = {v: i for i, v in enumerate(names)}
        adj: List[List[int]] = [[] for _ in range(len(names) + 2)]
        head: List[int] = []
        edges = G.edges
        ids = sorted(e for e, (a, b) in edges.items() if a != b)
        for i, e in enumerate(ids):
            a, b = edges[e]  # the pair's first arc runs a -> b
            a, b = index[a], index[b]
            head += (b, a)
            adj[a].append(2 * i)
            adj[b].append(2 * i + 1)
        self.names, self.index = names, index
        self.source, self.sink = len(names), len(names) + 1
        self.adj, self.head = adj, head
        self.cap: List[int] = [1] * len(head)
        self.edge_ids = ids

    def add_arc(self, u: int, v: int, cap: int) -> None:
        """An added directed arc u->v, with no edge id; its companion has
        capacity 0."""
        i = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(i)
        self.adj[v].append(i + 1)

    # -- searches -----------------------------------------------------

    def max_flow(self, source: int, sink: int, closed: Iterable[int] = ()) -> int:
        """A maximum source-sink flow, found from the zero flow; returns
        its value.  Closed nodes are never entered.  Sets `flow`, the flow
        on each arc, and `residual_side`, the nodes reachable from source
        in the residual network, in BFS order."""
        adj, head, cap = self.adj, self.head, self.cap
        self.flow = flow = [0] * len(head)
        start = [_UNSEEN] * len(adj)
        for c in closed:
            start[c] = _ROOT
        start[source] = _ROOT
        total = 0
        while True:
            # one BFS round; the sink's predecessor is fixed when it is
            # first reached, so the round can stop there
            prev = start.copy()
            queue = [source]
            for u in queue:
                for i in adj[u]:
                    v = head[i]
                    if prev[v] == _UNSEEN and cap[i] > flow[i]:
                        prev[v] = i
                        queue.append(v)
                if prev[sink] != _UNSEEN:
                    break
            else:
                self.residual_side = queue
                return total
            amt = INF
            v = sink
            while v != source:
                i = prev[v]
                amt = min(amt, cap[i] - flow[i])
                v = head[i ^ 1]
            v = sink
            while v != source:
                i = prev[v]
                flow[i] += amt
                flow[i ^ 1] -= amt
                v = head[i ^ 1]
            total += amt

    # -- flow decomposition -------------------------------------------

    def extract_paths(self, source: int, sink: int) -> List[List[int]]:
        """Decompose the current flow into unit source->sink arc paths.

        Only arcs with positive flow are walked, so an arc pair contributes
        at most one of its two arcs.  Cycles met on a walk are trimmed off
        (their flow stays consumed) and leftover circulations are dropped,
        so the returned paths are simple and use each edge at most once.
        """
        adj, head = self.adj, self.head
        remaining = [max(f, 0) for f in self.flow]
        paths: List[List[int]] = []
        while True:
            walk: List[int] = []
            nodes: List[int] = [source]
            node = source
            while node != sink:
                chosen = next((i for i in adj[node] if remaining[i] > 0), None)
                if chosen is None:
                    return paths
                remaining[chosen] -= 1
                nxt = head[chosen]
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

    def path_edges(self, arcs: Iterable[int]) -> List[str]:
        """The edge ids of G along an arc path; added arcs carry none."""
        ids = self.edge_ids
        return [ids[i >> 1] for i in arcs if i < 2 * len(ids)]
