"""JSON wire formats for every artifact the command line reads or emits.

Encoders return plain dicts; decoders validate shape and raise ValueError
with a human-readable message on malformed input.  A decoder formats that
message only once a check has failed, never for an element that passes.
All list output is sorted so serialization is byte-stable for a fixed
input.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from .connectivity import CutWitness
from .immersion import ImmersionCertificate
from .multigraph import Multigraph
from .pathdecomp import (
    SMALL_CUT,
    STAR_MINOR,
    FailureWitness,
    LinearityCertificate,
    PathLikeDecomposition,
)
from .simplegraph import SimpleGraph, StarMinorModel
from .treecut import StructureDecomposition, Torso, TreeCutDecomposition


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _is_int(x: Any) -> bool:
    """A JSON integer; true and false decode to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str_list(obj: Any) -> bool:
    return isinstance(obj, list) and all(map(isinstance, obj, repeat(str)))


def _str_list(obj: Any, what: str) -> List[str]:
    """obj itself, once it is known to be a list of strings."""
    if not _is_str_list(obj):
        raise ValueError(f"{what} must be a list of strings")
    return obj


# -- multigraphs --------------------------------------------------------------

def graph_to_json(G: Multigraph) -> Dict[str, Any]:
    return {
        "vertices": sorted(G.vertices),
        "edges": [
            {"id": e, "ends": list(G.edges[e])} for e in sorted(G.edges)
        ],
    }


def graph_from_json(obj: Any) -> Multigraph:
    _expect(isinstance(obj, dict), "graph must be a JSON object")
    vertices = _str_list(obj.get("vertices"), '"vertices"')
    raw_edges = obj.get("edges")
    _expect(isinstance(raw_edges, list), '"edges" must be a list')
    vs = frozenset(vertices)
    _expect(len(vertices) == len(vs), "duplicate vertex names")
    edges: Dict[str, tuple] = {}
    for item in raw_edges:
        eid = item.get("id") if isinstance(item, dict) else None
        if not isinstance(eid, str):
            raise ValueError('each edge needs a string "id"')
        if eid in edges:
            raise ValueError(f"duplicate edge id {eid!r}")
        ends = item.get("ends")
        if not (isinstance(ends, list) and len(ends) == 2
                and isinstance(ends[0], str) and isinstance(ends[1], str)):
            raise ValueError(f'edge {eid!r} needs "ends": [u, v]')
        edges[eid] = tuple(ends)
    return Multigraph(vs, edges)


# -- cut witnesses ------------------------------------------------------------

def cut_witness_to_json(w: CutWitness) -> Dict[str, Any]:
    return {
        "value": w.value,
        "cut": sorted(w.cut_edges),
        "source_side": sorted(w.source_side),
    }


def cut_witness_from_json(obj: Any) -> CutWitness:
    _expect(isinstance(obj, dict) and _is_int(obj.get("value")),
            'cut witness needs an integer "value"')
    return CutWitness(
        value=obj["value"],
        cut_edges=frozenset(_str_list(obj.get("cut"), '"cut"')),
        source_side=frozenset(_str_list(obj.get("source_side"), '"source_side"')),
    )


# -- immersion certificates ---------------------------------------------------

def immersion_to_json(cert: ImmersionCertificate) -> Dict[str, Any]:
    return {
        "vertex_map": {v: cert.vertex_map[v] for v in sorted(cert.vertex_map)},
        "edge_map": {e: sorted(cert.edge_map[e]) for e in sorted(cert.edge_map)},
        "strong": cert.strong,
    }


def immersion_from_json(obj: Any) -> ImmersionCertificate:
    _expect(isinstance(obj, dict), "certificate must be a JSON object")
    vm = obj.get("vertex_map")
    em = obj.get("edge_map")
    _expect(isinstance(vm, dict) and all(map(isinstance, vm, repeat(str)))
            and all(map(isinstance, vm.values(), repeat(str))),
            '"vertex_map" must map strings to strings')
    _expect(isinstance(em, dict), '"edge_map" must be an object')
    edge_map = {}
    for k, v in em.items():
        if not _is_str_list(v):
            raise ValueError(f"edge image for {k!r} must be a list of strings")
        edge_map[k] = frozenset(v)
    _expect(isinstance(obj.get("strong"), bool), '"strong" must be a boolean')
    return ImmersionCertificate(
        vertex_map=dict(vm), edge_map=edge_map, strong=obj["strong"]
    )


# -- linearity certificates and failure witnesses -----------------------------

def linearity_to_json(cert: LinearityCertificate) -> Dict[str, Any]:
    return {
        "A": sorted(cert.A),
        "ordering": list(cert.decomposition.ordering),
        "bags": [sorted(b) for b in cert.decomposition.bags],
        "achieved": {
            "a": cert.achieved_a,
            "w": cert.achieved_w,
            "p": cert.achieved_p,
        },
    }


def linearity_from_json(obj: Any) -> LinearityCertificate:
    _expect(isinstance(obj, dict), "certificate must be a JSON object")
    A = frozenset(_str_list(obj.get("A"), '"A"'))
    ordering = tuple(_str_list(obj.get("ordering"), '"ordering"'))
    raw_bags = obj.get("bags")
    _expect(isinstance(raw_bags, list), '"bags" must be a list of lists')
    if not all(map(_is_str_list, raw_bags)):
        raise ValueError("bag must be a list of strings")
    bags = tuple(map(frozenset, raw_bags))
    ach = obj.get("achieved")
    _expect(isinstance(ach, dict) and _is_int(ach.get("a")) and _is_int(ach.get("w"))
            and _is_int(ach.get("p")),
            '"achieved" needs integer fields a, w, p')
    return LinearityCertificate(
        A=A,
        decomposition=PathLikeDecomposition(ordering=ordering, bags=bags),
        achieved_a=ach["a"],
        achieved_w=ach["w"],
        achieved_p=ach["p"],
    )


def _star_model_to_json(model: StarMinorModel) -> Dict[str, Any]:
    return {
        "center": model.center,
        "leaves": sorted(model.leaves),
        "tree": _tree_to_json(model.tree.vertices, model.tree.edges),
    }


def _star_model_from_json(obj: Any) -> StarMinorModel:
    _expect(isinstance(obj, dict) and isinstance(obj.get("center"), str),
            'star model needs a string "center"')
    nodes, edges = _tree_from_json(obj.get("tree"), "star model")
    return StarMinorModel(
        center=obj["center"],
        leaves=frozenset(_str_list(obj.get("leaves"), '"leaves"')),
        tree=SimpleGraph(nodes, edges),
    )


def failure_to_json(w: FailureWitness) -> Dict[str, Any]:
    if w.kind == SMALL_CUT:
        payload: Any = cut_witness_to_json(w.payload)
    elif w.kind == STAR_MINOR:
        payload = _star_model_to_json(w.payload)
    else:
        payload = w.payload
    return {"kind": w.kind, "payload": payload}


def failure_from_json(obj: Any) -> FailureWitness:
    _expect(isinstance(obj, dict) and isinstance(obj.get("kind"), str),
            'failure witness needs a string "kind"')
    kind = obj["kind"]
    payload = obj.get("payload")
    if kind == SMALL_CUT:
        payload = cut_witness_from_json(payload)
    elif kind == STAR_MINOR:
        payload = _star_model_from_json(payload)
    return FailureWitness(kind=kind, payload=payload)


# -- trees and tree-cut decompositions ----------------------------------------

def _tree_to_json(nodes: Iterable[str], edges: Iterable[FrozenSet[str]]) -> Dict[str, Any]:
    return {"nodes": sorted(nodes), "edges": sorted(sorted(e) for e in edges)}


def _tree_from_json(tree: Any, owner: str) -> Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]]:
    """The nodes and the edges of the "tree" object of an `owner`."""
    _expect(isinstance(tree, dict), f'{owner} needs a "tree" object')
    nodes = _str_list(tree.get("nodes"), '"nodes"')
    raw = tree.get("edges")
    _expect(isinstance(raw, list), '"edges" must be a list of pairs')
    edges = set()
    for e in raw:
        pair = frozenset(_str_list(e, "tree edge"))
        if len(pair) != 2:
            raise ValueError("tree edges must join two distinct nodes")
        edges.add(pair)
    return frozenset(nodes), frozenset(edges)


def treecut_to_json(D: TreeCutDecomposition) -> Dict[str, Any]:
    return {
        "tree": _tree_to_json(D.tree_nodes, D.tree_edges),
        "bags": {n: sorted(D.bags[n]) for n in sorted(D.bags)},
    }


def treecut_from_json(obj: Any) -> TreeCutDecomposition:
    _expect(isinstance(obj, dict), "decomposition must be a JSON object")
    nodes, edges = _tree_from_json(obj.get("tree"), "decomposition")
    bags_obj = obj.get("bags")
    _expect(isinstance(bags_obj, dict), '"bags" must be an object')
    bags = {}
    for n, b in bags_obj.items():
        if not _is_str_list(b):
            raise ValueError(f"bag at {n!r} must be a list of strings")
        bags[n] = frozenset(b)
    return TreeCutDecomposition(tree_nodes=nodes, tree_edges=edges, bags=bags)


def torso_to_json(t: Torso) -> Dict[str, Any]:
    return {
        "graph": graph_to_json(t.graph),
        "core": sorted(t.core),
        "peripheral": sorted(t.peripheral),
    }


def structure_to_json(result: StructureDecomposition) -> Dict[str, Any]:
    return {
        "decomposition": treecut_to_json(result.decomposition),
        "certificates": {
            n: linearity_to_json(result.certificates[n])
            for n in sorted(result.certificates)
        },
    }


def structure_from_json(obj: Any) -> StructureDecomposition:
    _expect(isinstance(obj, dict), "structure result must be a JSON object")
    D = treecut_from_json(obj.get("decomposition"))
    certs_obj = obj.get("certificates")
    _expect(isinstance(certs_obj, dict), '"certificates" must be an object')
    certs = {n: linearity_from_json(c) for n, c in certs_obj.items()}
    return StructureDecomposition(decomposition=D, certificates=certs)
