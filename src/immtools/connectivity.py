"""Edge connectivity queries: max-flow/min-cut duality, Menger path
extraction, k-edge-connected set testing.

All edges have unit capacity; multiplicity is realized by parallel edges.
Witness cuts always come with the inclusion-minimal source side (the
residual-reachable set of a maximum flow), which is the unique minimal
element of the min-cut lattice.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, List, Optional, Tuple, Union

from .flow import FlowNetwork
from .multigraph import Multigraph, _check_known


@dataclasses.dataclass(frozen=True)
class CutWitness:
    value: int
    cut_edges: FrozenSet[str]
    source_side: FrozenSet[str]


def _check_terminals(vertices: FrozenSet[str], S, T) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    S, T = frozenset(S), frozenset(T)
    if not S or not T:
        raise ValueError("source and sink sets must be non-empty")
    if S & T:
        raise ValueError(f"source and sink sets overlap: {sorted(S & T)}")
    _check_known(S | T, vertices, "unknown terminal vertices")
    return S, T


def _witness(G: Multigraph, net: FlowNetwork, value: int) -> CutWitness:
    """The cut of net's last maximum flow, whose value is `value`, with
    the inclusion-minimal source side."""
    names = net.names
    side = frozenset(names[i] for i in net.residual_side)
    cut = G.boundary(side)
    assert len(cut) == value, "min-cut/max-flow bookkeeping out of sync"
    return CutWitness(value=value, cut_edges=cut, source_side=side)


def _set_flow(G: Multigraph, S, T, closed: FrozenSet[str] = frozenset()) -> Tuple[FlowNetwork, int]:
    """A maximum S-T flow in G - closed, on a fresh network of G with the
    vertices `closed` closed; returns the network and the flow value."""
    S, T = _check_terminals(G.vertices - closed, S, T)
    net = FlowNetwork(G)
    return net, net.max_flow(net.nodes(S), net.nodes(T), net.nodes(closed))


def max_flow_min_cut(G: Multigraph, S: Iterable[str], T: Iterable[str]) -> CutWitness:
    """Maximum number of edge-disjoint S-T paths and a minimum cut witness."""
    net, value = _set_flow(G, S, T)
    return _witness(G, net, value)


def edge_disjoint_paths(G: Multigraph, S: Iterable[str], T: Iterable[str]) -> List[List[str]]:
    """A maximum family of edge-disjoint S-T paths as edge-id sequences."""
    net, value = _set_flow(G, S, T)
    paths = [net.path_edges(arcs) for arcs in net.extract_paths()]
    assert len(paths) == value, "flow decomposition lost a path"
    return paths


def is_k_edge_connected_set(
    G: Multigraph, W: Iterable[str], k: int
) -> Union[bool, CutWitness]:
    """True if every pair of W has min cut >= k, else the CutWitness of the
    first violating pair in sorted order."""
    W = frozenset(W)
    _check_known(W, G.vertices, "unknown vertices in W")
    if len(W) <= 1:
        return True
    net = FlowNetwork(G)
    found = _first_violation(net, net.nodes(W), k)
    return True if found is None else _witness(G, net, found[1])


def _first_violation(net: FlowNetwork, W: Iterable[int], k: int) -> Optional[Tuple[int, int]]:
    """The first pair of the nodes W, in their given order, joined by
    fewer than k edge-disjoint paths, as its second node and its flow
    value, or None if there is none.

    Only the pairs (W[0], w) are tested.  Since lambda(x, z) >=
    min(lambda(x, y), lambda(y, z)), some pair violates only if one of
    them does, and they come first among the pairs in order, so the first
    violating one is the first violating pair.  Each flow stops at k; the
    returned pair's flow fell short of k, so it ran to completion and is
    net's last, with its inclusion-minimal cut side in `residual_side`.
    """
    nodes = iter(W)
    first = next(nodes, None)
    for w in nodes:
        value = net.max_flow([first], [w], limit=k)
        if value < k:
            return w, value
    return None
