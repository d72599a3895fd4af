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
