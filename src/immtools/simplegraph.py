"""Loop-free simple graphs (the pairwise-connectivity auxiliary graph,
decomposition trees) and star-minor models over them.

Queries read a string adjacency, linear in the graph's size.  The
linearizing-set and star-minor searches read `SimpleGraph.masks`, one
neighbour bitmask per vertex (`MaskGraph`), built on the first read from
the edge set, which on a large sparse graph such as a decomposition tree
would take space quadratic in the vertex count.  A graph built from masks
(`MaskGraph.graph`) does not keep them: the masks stay with the search
that made them."""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Sequence, Set, Tuple

from .multigraph import bit_positions


class MaskGraph(NamedTuple):
    """A simple graph on bitmasks: `verts` in sorted order, and `nbr[i]`
    the mask of the i-th vertex's neighbours, bit j standing for verts[j]."""

    verts: List[str]
    nbr: List[int]

    def names(self, mask: int) -> List[str]:
        """The vertices of a mask, in sorted order."""
        verts = self.verts
        return [verts[i] for i in bit_positions(mask)]

    def components(self) -> List[int]:
        return _components(self.nbr, (1 << len(self.verts)) - 1)

    def graph(self) -> "SimpleGraph":
        """The same graph on names."""
        verts = self.verts
        return SimpleGraph(frozenset(verts), frozenset(
            frozenset((u, v))
            for i, u in enumerate(verts) for v in self.names(self.nbr[i]) if u < v
        ))


@dataclasses.dataclass(frozen=True)
class SimpleGraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[FrozenSet[str]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"not a simple edge: {sorted(e)}")
            if not e <= self.vertices:
                raise ValueError(f"edge endpoint outside vertex set: {sorted(e)}")

    @functools.cached_property
    def masks(self) -> MaskGraph:
        """The graph on bitmasks, for the linearizing-set and star-minor
        searches; built on first read and shared: do not modify it."""
        verts = sorted(self.vertices)
        index = {v: i for i, v in enumerate(verts)}
        nbr = [0] * len(verts)
        for u, v in self.edges:
            _join(nbr, index[u], index[v])
        return MaskGraph(verts, nbr)

    def adjacency(self) -> Dict[str, Tuple[str, ...]]:
        """vertex -> sorted neighbours, built once and shared: do not
        modify it."""
        return self._adjacency

    @functools.cached_property
    def _adjacency(self) -> Dict[str, Tuple[str, ...]]:
        adj: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = e
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    def neighbors(self, v: str) -> FrozenSet[str]:
        return frozenset(self._adjacency.get(v, ()))

    def degree(self, v: str) -> int:
        return len(self._adjacency.get(v, ()))

    def without(self, X: Iterable[str]) -> "SimpleGraph":
        X = frozenset(X)
        keep = self.vertices - X
        return SimpleGraph(keep, frozenset(e for e in self.edges if e <= keep))

    def connected_components(self) -> List[FrozenSet[str]]:
        adj = self.adjacency()
        seen: Set[str] = set()
        comps = []
        for start in sorted(self.vertices):
            if start not in seen:
                comps.append(frozenset(_spread(adj, start, set())))
                seen |= comps[-1]
        return comps

    def is_connected(self) -> bool:
        return len(self.vertices) <= 1 or len(self.connected_components()) == 1

    def is_disjoint_union_of_paths(self) -> bool:
        """Every component is a path (single vertices and the empty graph count)."""
        if any(self.degree(v) > 2 for v in self.vertices):
            return False
        # max degree <= 2 and acyclic <=> path union
        return len(self.edges) == len(self.vertices) - len(self.connected_components())

    def is_tree(self) -> bool:
        return (
            bool(self.vertices)
            and self.is_connected()
            and len(self.edges) == len(self.vertices) - 1
        )

    def leaves(self) -> FrozenSet[str]:
        return frozenset(v for v in self.vertices if self.degree(v) == 1)


def _spread(adj: Mapping[str, Sequence[str]], v: str, reached: Set[str]) -> Set[str]:
    """Add v to `reached`, then every vertex that v reaches in adj through
    vertices not yet in it, and return it."""
    reached.add(v)
    stack = [v]
    while stack:
        for u in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    return reached


def _join(nbr: List[int], i: int, j: int) -> None:
    nbr[i] |= 1 << j
    nbr[j] |= 1 << i


def _components(nbr: List[int], keep: int) -> List[int]:
    """The components of the subgraph induced on the mask keep, as masks,
    in the order of their lowest vertices."""
    comps = []
    while keep:
        comp = frontier = keep & -keep
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & keep & ~comp
            comp |= new
            frontier |= new
        keep &= ~comp
        comps.append(comp)
    return comps


def _is_path_union(nbr: List[int], keep: int) -> bool:
    """Whether the subgraph induced on the mask keep is a disjoint union
    of paths: max degree <= 2 and acyclic, i.e. edges = vertices -
    components."""
    degrees = 0
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        d = (nbr[low.bit_length() - 1] & keep).bit_count()
        if d > 2:
            return False
        degrees += d
    return degrees // 2 == keep.bit_count() - len(_components(nbr, keep))


@dataclasses.dataclass(frozen=True)
class StarMinorModel:
    """A subtree of the host with a designated non-leaf center; the leaves
    witness a K_{1,k} minor with k = len(leaves)."""

    center: str
    leaves: FrozenSet[str]
    tree: SimpleGraph

    def violations(self, host: SimpleGraph) -> List[str]:
        out = []
        if not self.tree.vertices <= host.vertices:
            out.append("model tree uses vertices outside the host")
        if not self.tree.edges <= host.edges:
            out.append("model tree uses edges outside the host")
        if not self.tree.is_tree():
            out.append("connecting subgraph is not a tree")
            return out
        if self.tree.leaves() != self.leaves:
            out.append("tree leaves differ from the designated leaf set")
        if self.center not in self.tree.vertices or self.center in self.tree.leaves():
            out.append("center is not a non-leaf vertex of the tree")
        return out
