"""The integer flow core against the per-query reference in
`oracle_flow`, and the one-network-per-batch contract of its callers."""

import itertools
import math
import random

import oracle_flow
from immtools import (
    CutWitness,
    Multigraph,
    build_auxiliary_graph,
    consolidate,
    edge_disjoint_paths,
    gen_pk,
    gen_random_multigraph,
    is_grounded,
    is_k_edge_connected_set,
    linear_decompose,
    max_flow_min_cut,
)
from immtools import treecut
from immtools.flow import FlowNetwork
from helpers import mg


def _disjoint_terminals(rng, verts):
    """Non-empty disjoint S and T: single vertices half of the time."""
    if rng.random() < 0.5:
        s, t = rng.sample(verts, 2)
        return {s}, {t}
    picked = rng.sample(verts, rng.randint(2, len(verts)))
    cut = rng.randint(1, len(picked) - 1)
    return set(picked[:cut]), set(picked[cut:])


def _oracle_cases():
    """400 seeded random multigraphs, each with the generator that then
    picks its terminals."""
    rng = random.Random(7)
    for case in range(400):
        n = rng.randint(2, 12)
        mult = rng.randint(1, 3)
        m = rng.randint(0, min(3 * n, (n * (n + 1) // 2) * mult))
        yield case, gen_random_multigraph(n, m, mult, seed=case), rng


def test_flow_core_agrees_with_the_oracle():
    loops = parallels = isolated = set_queries = 0
    for case, G, rng in _oracle_cases():
        n = len(G.vertices)
        ends = list(G.edges.values())
        loops += any(a == b for a, b in ends)
        parallels += len(set(ends)) < len(ends)
        isolated += any(G.degree(v) == 0 for v in G.vertices)
        verts = sorted(G.vertices)
        for _ in range(3):
            S, T = _disjoint_terminals(rng, verts)
            set_queries += len(S) + len(T) > 2
            got = max_flow_min_cut(G, S, T)
            want = oracle_flow.max_flow_min_cut(G, S, T)
            assert (got.value, got.source_side, got.cut_edges) == (
                want.value, want.source_side, want.cut_edges
            ), (case, S, T)
            assert edge_disjoint_paths(G, S, T) == oracle_flow.edge_disjoint_paths(G, S, T)
        W = frozenset(rng.sample(verts, rng.randint(0, n)))
        for k in range(1, 5):
            assert is_k_edge_connected_set(G, W, k) == oracle_flow.is_k_edge_connected_set(
                G, W, k
            ), (case, W, k)
        for mm in range(1, 4):
            got_h = build_auxiliary_graph(G, W, mm)
            want_h = oracle_flow.build_auxiliary_graph(G, W, mm)
            assert (got_h.vertices, got_h.edges) == (want_h.vertices, want_h.edges)
    assert min(loops, parallels, isolated, set_queries) > 20


def _count_networks(monkeypatch):
    built = []
    init = FlowNetwork.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "__init__", counted)
    return built


def _k5_doubled():
    return mg("abcde", {
        f"{u}{v}{c}": (u, v)
        for u, v in itertools.combinations("abcde", 2)
        for c in range(2)
    })


def test_each_batch_builds_one_network(monkeypatch):
    built = _count_networks(monkeypatch)
    G = _k5_doubled()
    assert is_k_edge_connected_set(G, G.vertices, 8) is True  # all 10 pairs
    assert len(built) == 1
    # with W all of G, G - W is empty: each pair is an edge by its two
    # parallel edges alone, and no flow runs
    built.clear()
    assert len(build_auxiliary_graph(G, G.vertices, 2).edges) == 10
    assert len(built) == 0
    # a, b and c share the component {d, e} of G - W and have only two
    # parallel edges each: their three flows run on one network
    built.clear()
    assert len(build_auxiliary_graph(G, "abc", 5).edges) == 3
    assert len(built) == 1
    # P_6's auxiliary graph is a path through all of W, so t = 6: the pair
    # (v4, v6) shares the component {v5}, and its flow and the four
    # separators run on one network
    P6 = gen_pk(6)
    built.clear()
    cert = linear_decompose(P6, P6.vertices - {"v5"}, m=3, w_limit=3)
    assert len(cert.decomposition.ordering) == 6
    assert len(built) == 1
    built.clear()
    cert = linear_decompose(P6, P6.vertices, m=3, w_limit=3)
    assert len(cert.decomposition.ordering) == 7
    assert len(built) == 1
    # the glue vertex's best partner sorts last in both summands, so every
    # candidate is tried in each: one network per summand
    G1 = mg("abwz", {"e1": "zw", "e2": "zw", "e3": "ab"})
    G2 = mg("pqxy", {"f1": "yx", "f2": "yx", "f3": "pq"})
    built.clear()
    assert is_grounded(G1, "z", G2, "y") is True
    assert len(built) == 2


def test_the_split_loop_builds_one_network_from_g(monkeypatch):
    # a doubled P_40 at alpha 3 splits 37 times, each time on a cut of
    # order 2, into 38 nodes: one network is built from G, and each split
    # copies only its smaller side (a compaction only the live part of a
    # network), so at most n * ceil(log2 n) vertices are copied in all;
    # no flow checks the 74 glue vertices for groundedness (each is
    # grounded by construction), and no graph is built at all
    built = _count_networks(monkeypatch)
    copied, grounded, graphs = [], [], []
    split, check, init = FlowNetwork.split, treecut.is_grounded, Multigraph.__init__

    def counted_split(self, side, glue=None, rest_glue=None):
        copied.append(len(side) + (glue is not None))
        return split(self, side, glue, rest_glue)

    def counted_check(G1, v1, G2, v2):
        grounded.append((v1, v2))
        return check(G1, v1, G2, v2)

    def counted_init(self, *args, **kwargs):
        graphs.append(1)
        init(self, *args, **kwargs)

    G = mg([f"v{i}" for i in range(40)], {
        f"e{i}c{c}": (f"v{i}", f"v{i + 1}") for i in range(39) for c in range(2)
    })
    monkeypatch.setattr(FlowNetwork, "split", counted_split)
    monkeypatch.setattr(treecut, "is_grounded", counted_check)
    monkeypatch.setattr(Multigraph, "__init__", counted_init)
    D = treecut._structure_tree(G, 3)
    assert len(D.tree_nodes) == 38
    assert len(built) == 1
    assert len(copied) >= 37 and sum(copied) <= 40 * math.ceil(math.log2(40))
    assert grounded == []
    assert graphs == []


def test_a_flow_stops_at_its_threshold():
    # max_flow(limit=k) gives min(maximum, k); a flow that stops short of
    # the limit ran to completion and has the reference's cut side, and
    # one that reaches it has no side
    stopped = completed = 0
    for case, G, rng in _oracle_cases():
        net = FlowNetwork(G)
        for _ in range(3):
            S, T = _disjoint_terminals(rng, sorted(G.vertices))
            want = oracle_flow.max_flow_min_cut(G, S, T)
            for k in range(0, 5):
                value = net.max_flow(net.nodes(S), net.nodes(T), limit=k)
                assert value == min(want.value, k), (case, S, T, k)
                if value < k:
                    side = frozenset(net.names[i] for i in net.residual_side)
                    assert side == want.source_side, (case, S, T, k)
                    completed += 1
                else:
                    assert net.residual_side is None
                    stopped += 1
    assert min(stopped, completed) > 500


def test_flows_at_the_glue_of_a_split_stop_at_the_contracted_value():
    # what stays of a network after a split is G with the moved side
    # contracted to the glue node.  Each flow into the glue node, then out
    # of it, has the value it has on the contracted graph, and a limit
    # one above that value bounds its augmentations: a split that leaves
    # arcs leading into the moved side fails here on a value, at once,
    # before a flow out of the glue node can walk back through them
    rng = random.Random(13)
    flows = 0
    for case in range(80):
        n = rng.randint(3, 9)
        G = gen_random_multigraph(n, rng.randint(n, 3 * n), 2, seed=case)
        verts = sorted(G.vertices)
        side = rng.sample(verts, rng.randint(1, n - 2))
        kept = [v for v in verts if v not in side]
        net = FlowNetwork(G)
        _, glue = net.split(net.nodes(side), "moved", "glue")
        if glue is None:
            continue
        contracted = consolidate(G, side, "glue")
        want = {x: oracle_flow.max_flow_min_cut(contracted, {x}, {"glue"}).value for x in kept}
        for x in kept:
            assert net.max_flow([net.index[x]], [glue], limit=want[x] + 1) == want[x], (case, x)
        for x in kept:
            assert net.max_flow([glue], [net.index[x]], limit=want[x] + 1) == want[x], (case, x)
            flows += 2 * (want[x] > 0)
    assert flows >= 200


def test_first_violating_pair_in_sorted_order_is_the_witness():
    # a-b and c-d are single links, b-c is triple: (a, b) violates first
    # with side {a}; (b, d) violates later with side {a, b, c}
    G = mg("abcd", {"ab": "ab", "bc1": "bc", "bc2": "bc", "bc3": "bc", "cd": "cd"})
    assert max_flow_min_cut(G, {"b"}, {"d"}).source_side == {"a", "b", "c"}
    w = is_k_edge_connected_set(G, G.vertices, 2)
    assert w == CutWitness(value=1, cut_edges=frozenset({"ab"}), source_side=frozenset({"a"}))


def test_a_network_serves_a_batch_unchanged():
    # every pair of a random graph on one network, the same two vertices
    # closed whenever they are not the pair: each value is the reference's
    # on the graph with those vertices deleted, and no flow changes the
    # network itself
    G = gen_random_multigraph(9, 20, 2, seed=3)
    net = FlowNetwork(G)
    index = net.index
    before = ([list(a) for a in net.adj], list(net.head), list(net.cap), list(net.edge_ids))
    for x, y in itertools.combinations(sorted(G.vertices), 2):
        closed = {"v0", "v8"} - {x, y}
        value = net.max_flow([index[x]], [index[y]], [index[c] for c in closed])
        want = oracle_flow.max_flow_min_cut(G.without_vertices(closed), {x}, {y})
        assert value == want.value, (x, y)
    assert ([list(a) for a in net.adj], net.head, net.cap, net.edge_ids) == before


def test_set_flows_with_closed_vertices_match_the_reduced_graph():
    # one network per graph serves every query: each value, source side
    # and path family is the reference's on G with the closed vertices
    # deleted
    rng = random.Random(5)
    closing = 0
    for case in range(150):
        n = rng.randint(3, 12)
        G = gen_random_multigraph(n, rng.randint(0, min(3 * n, n * (n + 1))), 2, case)
        net = FlowNetwork(G)
        verts = sorted(G.vertices)
        for _ in range(4):
            picked = rng.sample(verts, rng.randint(2, n))
            c = rng.randint(0, len(picked) - 2)
            closed, rest = picked[:c], picked[c:]
            cut = rng.randint(1, len(rest) - 1)
            S, T = rest[:cut], rest[cut:]
            closing += bool(closed) and len(S) + len(T) > 2
            value = net.max_flow(net.nodes(S), net.nodes(T), net.nodes(closed))
            side = frozenset(net.names[i] for i in net.residual_side)
            paths = [net.path_edges(arcs) for arcs in net.extract_paths()]
            reduced = G.without_vertices(closed)
            want = oracle_flow.max_flow_min_cut(reduced, S, T)
            assert (value, side) == (want.value, want.source_side), (case, S, T, closed)
            assert paths == oracle_flow.edge_disjoint_paths(reduced, S, T), (case, S, T, closed)
    assert closing > 100


def test_extracted_paths_trim_a_circulation_off_the_flow():
    # two s-t paths, through a and through d, and a triangle a-b-c at a.
    # The edge ids put ab before at in a's arc list, so with one unit
    # circulating round the triangle the walk from s meets a twice, and
    # the cycle a -> b -> c -> a is trimmed off before it goes on to t
    G = mg("abcdst", {"ab": "ab", "at": "at", "bc": "bc", "ca": "ca", "dt": "dt",
                      "sa": "sa", "sd": "sd"})
    net = FlowNetwork(G)
    s, t = net.index["s"], net.index["t"]
    assert net.max_flow([s], [t]) == 2
    for e, tail in (("ab", "a"), ("bc", "b"), ("ca", "c")):
        j = net.edge_ids.index(e)
        i = 2 * j if net.names[net.head[2 * j + 1]] == tail else 2 * j + 1
        net.flow[i] += 1
        net.flow[i ^ 1] -= 1
    paths = net.extract_paths()
    assert len(paths) == 2
    used = [i >> 1 for arcs in paths for i in arcs]
    assert len(used) == len(set(used))  # edge-disjoint
    for arcs in paths:
        nodes = [net.head[arcs[0] ^ 1]] + [net.head[i] for i in arcs]
        assert (nodes[0], nodes[-1]) == (s, t)
        assert all(net.head[i ^ 1] == u for i, u in zip(arcs, nodes))  # a walk
        assert len(set(nodes)) == len(nodes)  # simple
    assert sorted(map(net.path_edges, paths)) == [["sa", "at"], ["sd", "dt"]]
