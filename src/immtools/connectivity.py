"""Edge connectivity queries: max-flow/min-cut duality, Menger path
extraction, k-edge-connected set testing.

All edges have unit capacity; multiplicity is realized by parallel edges.
Witness cuts always come with the inclusion-minimal source side (the
residual-reachable set of a maximum flow), which is the unique minimal
element of the min-cut lattice.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import FrozenSet, Iterable, List, Tuple, Union

from .flow import INF, FlowNetwork
from .multigraph import Multigraph

_SRC = ("super", "source")
_SNK = ("super", "sink")


@dataclasses.dataclass(frozen=True)
class CutWitness:
    value: int
    cut_edges: FrozenSet[str]
    source_side: FrozenSet[str]


def _check_terminals(G: Multigraph, S, T) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    S, T = frozenset(S), frozenset(T)
    if not S or not T:
        raise ValueError("source and sink sets must be non-empty")
    if S & T:
        raise ValueError(f"source and sink sets overlap: {sorted(S & T)}")
    unknown = (S | T) - G.vertices
    if unknown:
        raise ValueError(f"unknown terminal vertices: {sorted(unknown)}")
    return S, T


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


def max_flow_min_cut(G: Multigraph, S: Iterable[str], T: Iterable[str]) -> CutWitness:
    """Maximum number of edge-disjoint S-T paths and a minimum cut witness."""
    S, T = _check_terminals(G, S, T)
    net = _build_network(G, S, T)
    value = net.max_flow(_SRC, _SNK)
    side = frozenset(net.residual_reachable(_SRC)) & G.vertices
    cut = G.boundary(side)
    assert len(cut) == value, "min-cut/max-flow bookkeeping out of sync"
    return CutWitness(value=value, cut_edges=cut, source_side=side)


def edge_disjoint_paths(G: Multigraph, S: Iterable[str], T: Iterable[str]) -> List[List[str]]:
    """A maximum family of edge-disjoint S-T paths as edge-id sequences."""
    S, T = _check_terminals(G, S, T)
    net = _build_network(G, S, T)
    value = net.max_flow(_SRC, _SNK)
    arc_paths = net.extract_paths(_SRC, _SNK)
    paths = []
    for arcs in arc_paths:
        paths.append([net.label[i] for i in arcs if net.label[i] is not None])
    assert len(paths) == value, "flow decomposition lost a path"
    return paths


def is_k_edge_connected_set(
    G: Multigraph, W: Iterable[str], k: int
) -> Union[bool, CutWitness]:
    """True if every pair of W has min cut >= k, else a violating CutWitness."""
    W = frozenset(W)
    unknown = W - G.vertices
    if unknown:
        raise ValueError(f"unknown vertices in W: {sorted(unknown)}")
    if len(W) <= 1:
        return True
    for x, y in itertools.combinations(sorted(W), 2):
        witness = max_flow_min_cut(G, {x}, {y})
        if witness.value < k:
            return witness
    return True
