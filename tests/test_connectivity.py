import pytest

from immtools import (
    CutWitness,
    edge_disjoint_paths,
    gen_pk,
    is_k_edge_connected_set,
    max_flow_min_cut,
)
from helpers import all_min_cut_sides, check_path, mg


def test_parallel_routes_through_p2():
    G = gen_pk(2)
    assert max_flow_min_cut(G, {"v0"}, {"v2"}).value == 2


def test_disconnected_endpoints_give_zero_cut():
    G = mg("ab", {})
    w = max_flow_min_cut(G, {"a"}, {"b"})
    assert w.value == 0
    assert w.cut_edges == frozenset()
    assert w.source_side == frozenset({"a"})


def test_p3_is_three_connected_end_to_end():
    G = gen_pk(3)
    assert max_flow_min_cut(G, {"v0"}, {"v3"}).value == 3


def test_witness_cut_is_the_boundary_of_its_side():
    G = mg("abcd", {"1": "ab", "2": "ab", "3": "bc", "4": "cd", "5": "bd"})
    w = max_flow_min_cut(G, {"a"}, {"d"})
    assert w.cut_edges == G.boundary(w.source_side)
    assert len(w.cut_edges) == w.value


def test_terminal_validation():
    G = mg("ab", {"1": "ab"})
    with pytest.raises(ValueError):
        max_flow_min_cut(G, set(), {"b"})
    with pytest.raises(ValueError):
        max_flow_min_cut(G, {"a"}, {"a"})
    with pytest.raises(ValueError):
        max_flow_min_cut(G, {"a"}, {"z"})


def test_paths_are_edge_disjoint_and_count_matches():
    G = gen_pk(2)
    paths = edge_disjoint_paths(G, {"v0"}, {"v2"})
    assert len(paths) == 2
    used = [e for p in paths for e in p]
    assert len(used) == len(set(used))
    for p in paths:
        check_path(G, p, {"v0"}, {"v2"})


def test_paths_never_use_an_edge_both_ways():
    # After s-b-a-t, the shortest augmenting path s-c-a-b-d-t crosses
    # edge 5 back from a to b.  The edge's single arc pair cancels that
    # flow instead of carrying it both ways, so the paths share no edge.
    G = mg("sabcdt", {"0": "ac", "1": "sb", "3": "at", "5": "ab", "6": "sc",
                      "7": "dt", "8": "bd"})
    paths = edge_disjoint_paths(G, {"s"}, {"t"})
    assert len(paths) == 2
    used = [e for p in paths for e in p]
    assert len(used) == len(set(used))
    for p in paths:
        check_path(G, p, {"s"}, {"t"})


def test_unique_tree_path():
    G = mg("abcd", {"1": "ab", "2": "bc", "3": "cd"})
    paths = edge_disjoint_paths(G, {"a"}, {"d"})
    assert paths == [["1", "2", "3"]]


def test_zero_value_instance_has_no_paths():
    G = mg("ab", {})
    assert edge_disjoint_paths(G, {"a"}, {"b"}) == []


def test_k_edge_connected_full_p3():
    G = gen_pk(3)
    assert is_k_edge_connected_set(G, G.vertices, 3) is True
    w = is_k_edge_connected_set(G, G.vertices, 4)
    assert isinstance(w, CutWitness)
    assert w.value == 3
    assert w.source_side == frozenset({"v0"})


def test_k_edge_connected_trivial_sets():
    G = mg("ab", {})
    assert is_k_edge_connected_set(G, set(), 99) is True
    assert is_k_edge_connected_set(G, {"a"}, 99) is True


def test_k_edge_connected_monotone_in_k():
    G = mg("abcd", {"1": "ab", "2": "bc", "3": "cd", "4": "ad", "5": "ac"})
    values = [is_k_edge_connected_set(G, G.vertices, k) is True for k in range(1, 5)]
    # once it fails it stays failed
    assert values == sorted(values, reverse=True)


def test_min_source_side_prefers_small_side():
    G = mg("sat", {"1": "as", "2": "as", "3": "at", "4": "at"})
    w = max_flow_min_cut(G, {"s"}, {"t"})
    assert w.value == 2
    assert w.source_side == frozenset({"s"})


def test_min_source_side_contained_in_every_min_cut():
    G = mg(
        "abcde",
        {"1": "ab", "2": "ab", "3": "bc", "4": "cd", "5": "de", "6": "be", "7": "ce"},
    )
    w = max_flow_min_cut(G, {"a"}, {"d"})
    for side in all_min_cut_sides(G, {"a"}, {"d"}, w.value):
        assert w.source_side <= side


def test_value_zero_side_is_reachable_set():
    G = mg("abc", {"1": "ab"})
    w = max_flow_min_cut(G, {"a"}, {"c"})
    assert w.value == 0
    assert w.source_side == frozenset({"a", "b"})
