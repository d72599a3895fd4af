"""Unit-capacity max-flow core behind the connectivity queries.

Nodes are the integers 0..n-1.  Every arc i is stored with a residual
companion at i ^ 1, and the flow on the companion is always the negation
of the flow on i.  An undirected edge is one arc whose companion has the
same capacity, so the pair carries flow in at most one direction and a
flow can never use an edge both ways.  One method lays out every network,
built from a graph or by a split: pair j is arcs 2j and 2j + 1, and each
node lists its arcs in pair order.  Augmentation is BFS shortest-path
with arcs visited in that order, which makes all results deterministic
when the pairs come in sorted edge-id order.

A network is built once per graph and serves a batch of flows.  Each
`max_flow` starts from the zero flow, runs between two disjoint node
lists, may close nodes, which its search then skips as if they had been
deleted, and may stop once its value reaches a threshold.  Capacities
are 0 or 1 and no flow enters a source, so every augmenting path carries
one unit.

`split` cuts a network in two along the arcs leaving a set of nodes, at
the cost of that set's size: the set moves into a fresh network, where
one glue node takes its outside ends, and here one appended glue node
takes the set's place.  By the Gomory-Hu lemma (Gomory and Hu,
"Multi-terminal network flows", 1961), contracting one side of a minimum
cut keeps the flow values between the vertices on the other side, so a
split of a network on such a cut leaves each side a network on which
its later flows give the same answers.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .multigraph import Multigraph

_UNSEEN = -2  # BFS predecessor arc of a node not reached yet
_ROOT = -1  # ... of a source, and of a closed node


class FlowNetwork:
    """The network of a multigraph G, laid out from `G.numbering`.  Node
    i is `names[i]`, G's vertex i, and `index` maps each vertex to its
    node.  Each non-loop edge is one undirected unit arc pair, pairs in
    the order of `edge_ids`, G's non-loop edge ids sorted (`_lay_out`).
    A caller may set an arc's capacity to 0.

    A network made by `split` lays out its pairs in the order it met them,
    and keeps no edge ids: flow values and residual sides do not depend
    on the order, and `path_edges` reads only a network built from G.
    """

    def __init__(self, G: Multigraph):
        numbering = G.numbering
        kept = [k for k, (a, b) in enumerate(numbering.ends) if a != b]
        self.edge_ids = [numbering.edges[k] for k in kept]
        ends = [numbering.ends[k] for k in kept]
        self._lay_out(list(numbering.names), ends, [1] * (2 * len(ends)))

    def _lay_out(self, names: List[str], ends: Iterable[Tuple[int, int]], cap: List[int]) -> None:
        """Lay the network out on the nodes `names`, a list it then owns:
        the j-th node pair (a, b) of `ends` becomes arc 2j from a to b, with
        capacity cap[2j], and its companion 2j + 1, with capacity
        cap[2j + 1], and every node lists its arcs in pair order."""
        adj: List[List[int]] = [[] for _ in names]
        head: List[int] = []
        for a, b in ends:
            adj[a].append(len(head))
            adj[b].append(len(head) + 1)
            head += (b, a)
        self.names, self.index = names, dict(zip(names, range(len(names))))
        self.adj, self.head, self.cap = adj, head, cap
        self.dead_arcs = 0

    def nodes(self, vertices: Iterable[str]) -> List[int]:
        """The nodes of `vertices`, in sorted vertex order."""
        index = self.index
        return [index[v] for v in sorted(vertices)]

    # -- searches -----------------------------------------------------

    def max_flow(
        self,
        sources: List[int],
        sinks: List[int],
        closed: Iterable[int] = (),
        limit: Optional[int] = None,
    ) -> int:
        """A maximum flow from the nodes `sources` to the nodes `sinks`,
        disjoint lists, found from the zero flow; returns its value.  Each
        BFS round starts from all sources, in the given order, and stops at
        the first sink it reaches.  Closed nodes are never entered.  Sets
        `flow`, the flow on each arc, `terminals`, the two lists, and
        `residual_side`, the nodes reachable from the sources in the
        residual network, in BFS order.

        With a limit the flow stops once its value reaches the limit,
        without the failed search that would prove it maximum; it returns
        min(maximum, limit), and `residual_side` is then None."""
        adj, head, cap = self.adj, self.head, self.cap
        self.flow = flow = [0] * len(head)
        self.terminals = (sources, sinks)
        start = [_UNSEEN] * len(adj)
        for c in closed:
            start[c] = _ROOT
        for s in sources:
            start[s] = _ROOT
        targets = frozenset(sinks)
        total = 0
        while limit is None or total < limit:
            # one BFS round; a sink's predecessor is fixed when it is first
            # reached, so the round stops there, with that sink queued last
            prev = start.copy()
            queue = list(sources)
            for u in queue:
                for i in adj[u]:
                    v = head[i]
                    if prev[v] == _UNSEEN and cap[i] > flow[i]:
                        prev[v] = i
                        queue.append(v)
                        if v in targets:
                            break
                if queue[-1] in targets:
                    break
            else:
                self.residual_side = queue
                return total
            v = queue[-1]
            while (i := prev[v]) != _ROOT:
                flow[i] += 1
                flow[i ^ 1] -= 1
                v = head[i ^ 1]
            total += 1
        self.residual_side = None
        return total

    # -- splits -------------------------------------------------------

    def split(
        self, side: Sequence[int], glue: Optional[str] = None, rest_glue: Optional[str] = None
    ) -> Tuple["FlowNetwork", Optional[int]]:
        """Move the nodes `side` into a fresh network, node i there being
        side[i], and return it with the node that now stands for them here.

        In the fresh network a last node named `glue` takes the outside
        end of every arc leaving `side`.  Here a new node named `rest_glue`
        takes over the side's end of those arcs, so that no arc leads into
        `side` any more and its nodes become unreachable; they stay in the
        lists, and `dead_arcs` counts the arcs among them.  With no arc
        leaving `side` neither node is made and the returned node is None.
        The work is the size of `side` and of its arcs, whatever the size
        of the network; a later flow here still pays for the dead nodes
        and arcs, so a caller copies the network once most of it is dead.
        """
        adj, head, cap = self.adj, self.head, self.cap
        local = dict(zip(side, range(len(side))))  # node -> its node there
        ends: List[Tuple[int, int]] = []  # the moved pairs, then the cut's
        caps: List[int] = []
        cut: List[int] = []  # the arcs leaving side
        for j, u in enumerate(side):
            for i in adj[u]:
                w = local.get(head[i])
                if w is None:
                    cut.append(i)
                elif not i & 1:  # each pair once, from its first arc
                    ends.append((j, w))
                    caps += (cap[i], cap[i ^ 1])
        self.dead_arcs += len(caps)
        moved = [self.names[u] for u in side]
        rest = None
        if cut:
            assert glue is not None and rest_glue is not None, "a cut needs glue nodes"
            moved.append(glue)
            for i in cut:
                ends.append((local[head[i ^ 1]], len(side)))
                caps += (cap[i], cap[i ^ 1])
            rest = len(adj)
            adj.append(cut)  # each cut arc now leaves the new node ...
            for i in cut:
                head[i ^ 1] = rest  # ... and its companion enters it
            self.names.append(rest_glue)
            self.index[rest_glue] = rest
        net = object.__new__(FlowNetwork)
        net._lay_out(moved, ends, caps)
        return net, rest

    # -- flow decomposition -------------------------------------------

    def extract_paths(self) -> List[List[int]]:
        """Decompose the last flow into unit arc paths, each from a source
        to a sink of that flow, sources taken in their given order.

        Only arcs with positive flow are walked, so an arc pair contributes
        at most one of its two arcs.  Cycles met on a walk are trimmed off
        (their flow stays consumed) and leftover circulations are dropped,
        so the returned paths are simple and use each edge at most once.
        """
        adj, head = self.adj, self.head
        sources, sinks = self.terminals
        ends = frozenset(sinks)
        remaining = [max(f, 0) for f in self.flow]
        paths: List[List[int]] = []
        for source in sources:
            while any(remaining[i] for i in adj[source]):
                walk: List[int] = []
                nodes: List[int] = [source]
                node = source
                while node not in ends:
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
        return paths

    def path_edges(self, arcs: Iterable[int]) -> List[str]:
        """The edge ids of G along an arc path."""
        ids = self.edge_ids
        return [ids[i >> 1] for i in arcs]

