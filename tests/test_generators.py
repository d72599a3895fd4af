import pytest

from immtools import (
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    gen_random_multigraph,
    is_k_edge_connected_set,
)


def test_pk_shape():
    for k in range(1, 7):
        G = gen_pk(k)
        assert len(G.vertices) == k + 1
        assert len(G.edges) == k * k
        assert G.degree("v0") == G.degree(f"v{k}") == k
        for i in range(1, k):
            assert G.degree(f"v{i}") == 2 * k


def test_pk_small_cases():
    assert len(gen_pk(1).edges) == 1
    G = gen_pk(2)
    assert [G.degree(f"v{i}") for i in range(3)] == [2, 4, 2]


def test_pk_edge_connectivity():
    for k in range(1, 7):
        G = gen_pk(k)
        assert is_k_edge_connected_set(G, G.vertices, k) is True
        assert is_k_edge_connected_set(G, G.vertices, k + 1) is not True


def test_pk_rejects_zero():
    with pytest.raises(ValueError):
        gen_pk(0)


def test_pk_chorded_counts():
    assert len(gen_pk_chorded(2).edges) == 5
    G = gen_pk_chorded(3)
    assert len(G.edges) == 11
    assert G.edges["chord0"] == ("v0", "v2")
    assert G.edges["chord1"] == ("v1", "v3")


def test_pk_chorded_rejects_small_k():
    with pytest.raises(ValueError):
        gen_pk_chorded(1)


def test_complete_counts():
    assert len(gen_complete(1).vertices) == 1
    assert len(gen_complete(1).edges) == 0
    G = gen_complete(3)
    assert len(G.edges) == 3
    assert all(G.degree(v) == 2 for v in G.vertices)
    assert gen_complete(0).vertices == frozenset()


def test_random_determinism():
    a = gen_random_multigraph(5, 9, 2, seed=7)
    b = gen_random_multigraph(5, 9, 2, seed=7)
    assert a == b
    c = gen_random_multigraph(5, 9, 2, seed=8)
    assert a != c  # overwhelmingly likely and fixed by the seeds


def test_random_respects_multiplicity_cap():
    from collections import Counter

    G = gen_random_multigraph(3, 12, 2, seed=1)
    counts = Counter(G.edges.values())
    assert len(G.edges) == 12
    assert max(counts.values()) <= 2


def test_random_parameter_validation():
    with pytest.raises(ValueError):
        gen_random_multigraph(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_random_multigraph(3, -1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_random_multigraph(3, 5, 0, seed=0)
    with pytest.raises(ValueError):
        gen_random_multigraph(2, 100, 1, seed=0)  # over capacity
