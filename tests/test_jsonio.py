import json

import pytest

from immtools import (
    CutWitness,
    gen_pk,
    find_immersion,
    gen_complete,
    linear_decompose,
    structure_decompose,
)
from immtools.jsonio import (
    cut_witness_from_json,
    cut_witness_to_json,
    failure_from_json,
    failure_to_json,
    graph_from_json,
    graph_to_json,
    immersion_from_json,
    immersion_to_json,
    linearity_from_json,
    linearity_to_json,
    structure_from_json,
    structure_to_json,
    treecut_from_json,
    treecut_to_json,
)
from helpers import mg


def test_graph_round_trip():
    G = mg("abc", {"1": "ab", "2": "bc", "l": "aa"})
    assert graph_from_json(graph_to_json(G)) == G


def test_graph_serialization_is_stable():
    G = gen_pk(2)
    a = json.dumps(graph_to_json(G), sort_keys=True)
    b = json.dumps(graph_to_json(gen_pk(2)), sort_keys=True)
    assert a == b


def test_graph_rejects_duplicate_edge_ids():
    with pytest.raises(ValueError):
        graph_from_json(
            {
                "vertices": ["a", "b"],
                "edges": [
                    {"id": "e", "ends": ["a", "b"]},
                    {"id": "e", "ends": ["a", "b"]},
                ],
            }
        )


def test_graph_rejects_unknown_endpoints():
    with pytest.raises(ValueError):
        graph_from_json(
            {"vertices": ["a"], "edges": [{"id": "e", "ends": ["a", "z"]}]}
        )


def test_graph_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        graph_from_json([])
    with pytest.raises(ValueError):
        graph_from_json({"vertices": "ab", "edges": []})
    with pytest.raises(ValueError):
        graph_from_json({"vertices": ["a"], "edges": [{"id": "e"}]})


def test_cut_witness_round_trip():
    w = CutWitness(2, frozenset({"e1", "e2"}), frozenset({"a"}))
    assert cut_witness_from_json(cut_witness_to_json(w)) == w


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_cut_witness_rejects_a_value_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match='integer "value"'):
        cut_witness_from_json({"value": value, "cut": [], "source_side": []})


def test_immersion_round_trip():
    G = gen_pk(2)
    r = find_immersion(G, gen_complete(3), strong=False)
    cert = r.certificate
    again = immersion_from_json(immersion_to_json(cert))
    assert again == cert


def test_linearity_round_trip():
    G = gen_pk(3)
    cert = linear_decompose(G, G.vertices, m=3, w_limit=3)
    assert linearity_from_json(linearity_to_json(cert)) == cert


@pytest.mark.parametrize("field", ["a", "w", "p"])
@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_linearity_rejects_an_achieved_field_that_is_not_an_integer(field, bad):
    G = gen_pk(3)
    obj = linearity_to_json(linear_decompose(G, G.vertices, m=3, w_limit=3))
    obj["achieved"][field] = bad
    with pytest.raises(ValueError, match="integer fields a, w, p"):
        linearity_from_json(obj)


def test_failure_round_trip_small_cut():
    G = mg(
        "abcdef",
        {"1": "ab", "2": "bc", "3": "ac", "4": "de", "5": "ef", "6": "df"},
    )
    w = linear_decompose(G, G.vertices, m=1, w_limit=3)
    again = failure_from_json(failure_to_json(w))
    assert again == w


def test_treecut_round_trip():
    G = mg("abc", {"1": "ab", "2": "bc"})
    r = structure_decompose(G, 4)
    D = r.decomposition
    assert treecut_from_json(treecut_to_json(D)) == D
    assert structure_from_json(structure_to_json(r)) == r


def test_star_model_rejects_a_tree_edge_with_one_node():
    obj = {
        "kind": "star-minor",
        "payload": {
            "center": "a",
            "leaves": ["b"],
            "tree": {"nodes": ["a", "b"], "edges": [["a", "a"]]},
        },
    }
    with pytest.raises(ValueError, match="tree edges must join two distinct nodes"):
        failure_from_json(obj)


def test_treecut_rejects_bad_tree_edges():
    with pytest.raises(ValueError):
        treecut_from_json(
            {"tree": {"nodes": ["n"], "edges": [["n", "n"]]}, "bags": {"n": []}}
        )


# -- exact error messages of the decoders --------------------------------------

def _graph(**change):
    obj = {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"]}]}
    obj.update(change)
    return obj


def _linearity(**change):
    obj = {"A": [], "ordering": ["a"], "bags": [[], ["b"]],
           "achieved": {"a": 0, "w": 1, "p": 0}}
    obj.update(change)
    return obj


def _treecut(**change):
    obj = {"tree": {"nodes": ["n", "m"], "edges": [["m", "n"]]}, "bags": {"n": ["a"], "m": []}}
    obj.update(change)
    return obj


def _immersion(**change):
    obj = {"vertex_map": {"x": "a"}, "edge_map": {"f": ["e"]}, "strong": False}
    obj.update(change)
    return obj


def _star(**change):
    obj = {"center": "c", "leaves": ["x", "y"],
           "tree": {"nodes": ["c", "x", "y"], "edges": [["c", "x"], ["c", "y"]]}}
    obj.update(change)
    return {"kind": "star-minor", "payload": obj}


def _cut(**change):
    obj = {"value": 1, "cut": ["e"], "source_side": ["a"]}
    obj.update(change)
    return {"kind": "small-cut", "payload": obj}


NO_STR_LIST = "must be a list of strings"
GRAPH, LIN, TREE, STRUCT, IMM, FAIL = (
    graph_from_json, linearity_from_json, treecut_from_json, structure_from_json,
    immersion_from_json, failure_from_json,
)
DECODER_ERRORS = [
    (GRAPH, [], "graph must be a JSON object"),
    (GRAPH, _graph(vertices="ab"), f'"vertices" {NO_STR_LIST}'),
    (GRAPH, _graph(vertices=["a", 1]), f'"vertices" {NO_STR_LIST}'),
    (GRAPH, _graph(edges={}), '"edges" must be a list'),
    (GRAPH, _graph(vertices=["a", "a"]), "duplicate vertex names"),
    (GRAPH, _graph(edges=["e"]), 'each edge needs a string "id"'),
    (GRAPH, _graph(edges=[{"id": 3, "ends": ["a", "b"]}]), 'each edge needs a string "id"'),
    (GRAPH, _graph(edges=[{"id": "e", "ends": ["a", "b"]}] * 2), "duplicate edge id 'e'"),
    (GRAPH, _graph(edges=[{"id": "e"}]), 'edge \'e\' needs "ends": [u, v]'),
    (GRAPH, _graph(edges=[{"id": "e", "ends": ["a"]}]), 'edge \'e\' needs "ends": [u, v]'),
    (GRAPH, _graph(edges=[{"id": "e", "ends": ["a", 1]}]), 'edge \'e\' needs "ends": [u, v]'),
    (GRAPH, _graph(edges=[{"id": "e", "ends": "ab"}]), 'edge \'e\' needs "ends": [u, v]'),
    (GRAPH, _graph(edges=[{"id": "e", "ends": ["a", "z"]}]), "edge 'e' has an unknown endpoint"),
    (LIN, [], "certificate must be a JSON object"),
    (LIN, _linearity(A="a"), f'"A" {NO_STR_LIST}'),
    (LIN, _linearity(ordering=None), f'"ordering" {NO_STR_LIST}'),
    (LIN, _linearity(bags={}), '"bags" must be a list of lists'),
    (LIN, _linearity(bags=[["a"], [1]]), f"bag {NO_STR_LIST}"),
    (LIN, _linearity(achieved=None), '"achieved" needs integer fields a, w, p'),
    (LIN, _linearity(achieved={"a": True, "w": 1, "p": 0}),
     '"achieved" needs integer fields a, w, p'),
    (LIN, _linearity(achieved={"a": 0, "w": 1}), '"achieved" needs integer fields a, w, p'),
    (LIN, _linearity(achieved={"a": 0, "w": 1, "p": 0.0}),
     '"achieved" needs integer fields a, w, p'),
    (TREE, [], "decomposition must be a JSON object"),
    (TREE, _treecut(tree=[]), 'decomposition needs a "tree" object'),
    (TREE, _treecut(tree={"nodes": "n", "edges": []}), f'"nodes" {NO_STR_LIST}'),
    (TREE, _treecut(tree={"nodes": ["n"], "edges": {}}), '"edges" must be a list of pairs'),
    (TREE, _treecut(tree={"nodes": ["n"], "edges": [["n", 1]]}), f"tree edge {NO_STR_LIST}"),
    (TREE, _treecut(tree={"nodes": ["n"], "edges": [["n", "n"]]}),
     "tree edges must join two distinct nodes"),
    (TREE, _treecut(bags=[]), '"bags" must be an object'),
    (TREE, _treecut(bags={"n": ["a"], "m": "b"}), f"bag at 'm' {NO_STR_LIST}"),
    (STRUCT, [], "structure result must be a JSON object"),
    (STRUCT, {"certificates": {}}, "decomposition must be a JSON object"),
    (STRUCT, {"decomposition": _treecut(), "certificates": []},
     '"certificates" must be an object'),
    (STRUCT, {"decomposition": _treecut(), "certificates": {"n": _linearity(
        achieved={"a": True, "w": 1, "p": 0})}}, '"achieved" needs integer fields a, w, p'),
    (STRUCT, {"decomposition": _treecut(bags={"n": [2]}), "certificates": {}},
     f"bag at 'n' {NO_STR_LIST}"),
    (IMM, [], "certificate must be a JSON object"),
    (IMM, _immersion(vertex_map={"x": 1}), '"vertex_map" must map strings to strings'),
    (IMM, _immersion(vertex_map=["x"]), '"vertex_map" must map strings to strings'),
    (IMM, _immersion(edge_map=[]), '"edge_map" must be an object'),
    (IMM, _immersion(edge_map={"f": ["e"], "g": "e"}), f"edge image for 'g' {NO_STR_LIST}"),
    (IMM, _immersion(strong=None), '"strong" must be a boolean'),
    (IMM, _immersion(strong=1), '"strong" must be a boolean'),
    (FAIL, [], 'failure witness needs a string "kind"'),
    (FAIL, {"kind": 1}, 'failure witness needs a string "kind"'),
    (FAIL, _cut(value=True), 'cut witness needs an integer "value"'),
    (FAIL, _cut(cut="e"), f'"cut" {NO_STR_LIST}'),
    (FAIL, _cut(source_side=[1]), f'"source_side" {NO_STR_LIST}'),
    (FAIL, _star(center=None), 'star model needs a string "center"'),
    (FAIL, _star(tree=None), 'star model needs a "tree" object'),
    (FAIL, _star(leaves="x"), f'"leaves" {NO_STR_LIST}'),
]


@pytest.mark.parametrize("decode, obj, message", DECODER_ERRORS,
                         ids=[f"{d.__name__}-{i}" for i, (d, _, _) in enumerate(DECODER_ERRORS)])
def test_decoders_name_the_first_malformed_part(decode, obj, message):
    with pytest.raises(ValueError) as exc:
        decode(obj)
    assert str(exc.value) == message


def test_the_well_formed_table_bases_decode():
    graph_from_json(_graph())
    linearity_from_json(_linearity())
    treecut_from_json(_treecut())
    structure_from_json({"decomposition": _treecut(), "certificates": {"n": _linearity()}})
    immersion_from_json(_immersion())
    for obj in (_star(), _cut()):
        assert failure_to_json(failure_from_json(obj)) == obj
