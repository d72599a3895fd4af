"""The two forms of a `SimpleGraph`: the string adjacency that its
queries read, and the neighbour masks (`SimpleGraph.masks`) that the
linearizing-set and star-minor searches read.

The masks must describe the same graph as the edge set, the mask-level
readers must agree with the string-level queries, and only the subset
searches may build the masks: on a large sparse graph they take space
quadratic in the vertex count."""

import itertools
import random
import tracemalloc

import oracle_flow
from enumerate_graphs import connected_simple_graphs
from helpers import random_multigraph, sg
from immtools import (
    Multigraph, SimpleGraph, TreeCutDecomposition, build_auxiliary_graph, has_k1k_minor,
    min_linearizing_set, torsos,
)
from immtools.pathdecomp import _auxiliary
from immtools.simplegraph import _is_path_union


def _graphs():
    """Every connected simple graph on 1..6 vertices, the empty graph,
    isolated vertices, and seeded random graphs, most of them
    disconnected, on up to 12 vertices (so that v10 sorts before v2)."""
    yield from connected_simple_graphs(6)
    yield sg([], [])
    yield sg(["a"], [])
    yield sg(["a", "b", "c"], [])
    yield sg(["a", "b", "c", "d"], [("b", "d")])
    rng = random.Random(29)
    for _ in range(200):
        verts = [f"v{i}" for i in range(rng.randint(2, 12))]
        p = rng.choice((0.1, 0.2, 0.35))
        yield sg(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def test_the_index_matches_an_edge_scan():
    graphs = 0
    for H in _graphs():
        verts, nbr = H.masks
        assert verts == sorted(H.vertices)
        assert len(nbr) == len(verts)
        for (i, u), (j, v) in itertools.product(enumerate(verts), repeat=2):
            assert bool(nbr[i] >> j & 1) == (frozenset((u, v)) in H.edges), (H, u, v)
        graphs += 1
    assert graphs == 143 + 4 + 200  # 143 connected simple graphs on 1..6 vertices


def test_the_mask_readers_match_the_queries():
    disconnected = paths = 0
    for H in _graphs():
        aux = H.masks
        full = (1 << len(aux.verts)) - 1
        assert H.adjacency() == {v: tuple(aux.names(n)) for v, n in zip(aux.verts, aux.nbr)}
        assert [H.degree(v) for v in aux.verts] == [n.bit_count() for n in aux.nbr]
        comps = H.connected_components()
        assert comps == [frozenset(aux.names(c)) for c in aux.components()]
        assert H.is_connected() == (len(comps) <= 1)
        assert H.is_disjoint_union_of_paths() == _is_path_union(aux.nbr, full)
        disconnected += len(comps) > 1
        paths += H.is_disjoint_union_of_paths()
    assert disconnected > 100 and paths > 50


def test_only_the_subset_searches_build_the_masks():
    H = sg("abcd", [("a", "b"), ("b", "c")])
    assert H == sg("dcba", [("c", "b"), ("b", "a")])
    assert frozenset(("a", "b")) in H.edges and {H: 1}[H] == 1
    assert H.without("a").vertices == frozenset("bcd")
    assert H.is_connected() is False and H.is_disjoint_union_of_paths()
    assert H.is_tree() is False and H.leaves() == frozenset("ac")
    assert H.connected_components() and H.adjacency() and H.neighbors("b") and H.degree("d") == 0
    assert "masks" not in vars(H)
    assert min_linearizing_set(H) == frozenset()
    assert vars(H)["masks"] is H.masks


def test_large_decomposition_trees_stay_linear():
    # A path-shaped tree of 10^4 nodes: its queries use a few hundred
    # bytes per node, where neighbour masks would take about n / 16.
    n = 10_000
    nodes = [f"t{i}" for i in range(n)]
    verts = [f"v{i}" for i in range(n)]
    G = Multigraph(frozenset(verts), {f"e{i}": e for i, e in enumerate(zip(verts, verts[1:]))})
    D = TreeCutDecomposition(
        frozenset(nodes),
        frozenset(frozenset(e) for e in zip(nodes, nodes[1:])),
        dict(zip(nodes, (frozenset([v]) for v in verts))),
    )
    T = D.tree
    tracemalloc.start()
    try:
        assert T.is_tree() and T.leaves() == {"t0", f"t{n - 1}"}
        assert len(T.adjacency()) == n and T.is_disjoint_union_of_paths()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * n, peak
    parts = torsos(G, D)
    assert len(parts) == n and parts["t1"].peripheral == {"peri:t0", "peri:t2"}
    assert "masks" not in vars(T)


def test_the_auxiliary_graph_rebuilds_the_masks_it_came_from():
    rng = random.Random(7)
    edges = stars = 0
    for _ in range(150):
        G = random_multigraph(rng, max_n=10, max_edges=24)
        W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.75)
        m = rng.randint(1, 3)
        aux = _auxiliary(G, W, m)[0]
        H = aux.graph()
        assert H == build_auxiliary_graph(G, W, m) == oracle_flow.build_auxiliary_graph(G, W, m)
        assert aux == SimpleGraph(H.vertices, H.edges).masks
        edges += len(H.edges)
        if len(H.vertices) >= 3:
            model = has_k1k_minor(H, 2)
            assert model is False or model.violations(H) == []
            stars += model is not False
    assert edges > 200 and stars > 20
