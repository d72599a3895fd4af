"""Hypothesis property tests for the structural invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from immtools import (
    CutWitness,
    FailureWitness,
    canonical_key,
    consolidate,
    edge_disjoint_paths,
    is_k_edge_connected_set,
    linear_decompose,
    max_flow_min_cut,
    verify_linear_certificate,
    Multigraph,
)
from helpers import all_min_cut_sides, check_path, random_multigraph
from oracle_lift_closure import lift

seeds = st.integers(min_value=0, max_value=10**9)


@given(seeds)
def test_boundary_symmetry_and_handshake(seed):
    G = random_multigraph(random.Random(seed))
    assert sum(G.degree(v) for v in G.vertices) == 2 * len(G.edges)
    verts = sorted(G.vertices)
    rng = random.Random(seed + 1)
    X = frozenset(v for v in verts if rng.random() < 0.5)
    if X and X != G.vertices:
        assert len(G.boundary(X)) == len(G.boundary(G.vertices - X))


@given(seeds)
@settings(max_examples=60)
def test_flow_duality_and_minimal_side(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng, max_n=6, max_edges=10)
    if len(G.vertices) < 2:
        return
    s, t = sorted(G.vertices)[:2]
    w = max_flow_min_cut(G, {s}, {t})
    paths = edge_disjoint_paths(G, {s}, {t})
    assert len(paths) == w.value
    used = [e for p in paths for e in p]
    assert len(used) == len(set(used))
    for p in paths:
        check_path(G, p, {s}, {t})
    assert w.cut_edges == G.boundary(w.source_side)
    for side in all_min_cut_sides(G, {s}, {t}, w.value):
        assert w.source_side <= side


@given(seeds)
@settings(max_examples=60)
def test_canonical_key_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng, max_n=5, max_edges=8)
    verts = sorted(G.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    relabel = dict(zip(verts, perm))
    H = Multigraph(
        frozenset(relabel.values()),
        {f"r{e}": (relabel[a], relabel[b]) for e, (a, b) in G.edges.items()},
    )
    assert canonical_key(G) == canonical_key(H)


@given(seeds)
@settings(max_examples=60)
def test_lift_degree_bookkeeping(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng, allow_loops=False)
    candidates = [
        (e, f)
        for e in sorted(G.edges)
        for f in sorted(G.edges)
        if e < f and set(G.edges[e]) & set(G.edges[f])
    ]
    if not candidates:
        return
    e, f = rng.choice(candidates)
    shared = sorted(set(G.edges[e]) & set(G.edges[f]))
    pivot = rng.choice(shared)
    H = lift(G, e, f, pivot=pivot)
    assert len(H.edges) == len(G.edges) - 1
    for v in G.vertices:
        expected = G.degree(v) - (2 if v == pivot else 0)
        assert H.degree(v) == expected


@given(seeds)
@settings(max_examples=60)
def test_consolidate_counts(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng)
    X = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.5)
    if not X:
        return
    H = consolidate(G, X)
    assert len(H.vertices) == len(G.vertices) - len(X) + 1
    assert set(H.edges) <= set(G.edges)  # surviving edges keep identities


@given(seeds)
@settings(max_examples=40)
def test_k_connectivity_is_monotone(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng, max_n=5, max_edges=9)
    W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.7)
    results = [is_k_edge_connected_set(G, W, k) is True for k in range(1, 5)]
    assert results == sorted(results, reverse=True)


# seeds on which a separator's witness was once a cut of G - A - {x_i}
# while it claimed to be a cut of G
WRONG_GRAPH_CUT_SEEDS = (
    93, 823, 2642, 2946, 3009, 4019, 4389, 5076, 5663, 5955, 6708, 7404,
    7423, 9593, 10941, 11582, 12243, 13225, 13737, 13741, 14583, 14756,
    15761, 17739, 18266, 19079, 19506, 19540, 19886, 1956275, 5100572,
)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_linear_decompose_output_contract(seed):
    _check_linear_decompose_contract(seed)


def test_linear_decompose_output_contract_on_wrong_graph_cut_seeds():
    for seed in WRONG_GRAPH_CUT_SEEDS:
        _check_linear_decompose_contract(seed)


def _check_linear_decompose_contract(seed):
    rng = random.Random(seed)
    G = random_multigraph(rng, max_n=6, max_edges=9)
    W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.7)
    m = rng.randint(1, 3)
    result = linear_decompose(G, W, m=m, w_limit=rng.randint(1, 6))
    if isinstance(result, FailureWitness):
        assert result.kind == "small-cut"
        assert isinstance(result.payload, CutWitness)
        assert result.payload.cut_edges == G.boundary(result.payload.source_side)
        assert result.payload.value == len(result.payload.cut_edges)
    else:
        bad = verify_linear_certificate(
            G, W, result, result.achieved_a, result.achieved_w, result.achieved_p
        )
        assert bad == []
