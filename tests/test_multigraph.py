import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from immtools import (
    Multigraph,
    build_auxiliary_graph,
    consolidate,
    edge_sum,
    find_immersion,
    gen_complete,
    gen_random_multigraph,
    is_k_edge_connected_set,
    max_flow_min_cut,
)
from enumerate_graphs import multigraph_classes
from helpers import mg, random_multigraph
from immtools.cli import _parse_W
from immtools.iso import _refined
from immtools.multigraph import twin_classes
from oracle_lift_closure import lift, split_off_vertex


def test_endpoints_are_normalized():
    G = mg("ab", {"e": ("b", "a")})
    assert G.edges["e"] == ("a", "b")


def test_edge_with_unknown_endpoint_rejected():
    with pytest.raises(ValueError, match="edge 'e' has an unknown endpoint"):
        mg("ab", {"e": "ac"})


def test_loop_counts_twice_toward_degree():
    G = mg("ab", {"l": "aa", "e": "ab"})
    assert G.degree("a") == 3
    assert G.degree("b") == 1
    assert len(set(G.edges["l"])) == 1 and len(set(G.edges["e"])) != 1


def test_handshake_identity():
    G = mg("abc", {"1": "ab", "2": "ab", "3": "bc", "l": "cc"})
    assert sum(G.degree(v) for v in G.vertices) == 2 * len(G.edges)


def test_boundary_excludes_loops_and_is_symmetric():
    G = mg("abc", {"1": "ab", "2": "bc", "l": "aa"})
    assert G.boundary({"a"}) == frozenset({"1"})
    for X in ({"a"}, {"b"}, {"a", "c"}):
        assert len(G.boundary(X)) == len(G.boundary(G.vertices - frozenset(X)))


def test_neighbors_ignore_loops():
    G = mg("ab", {"l": "aa", "e": "ab"})
    assert G.neighbors("a") == frozenset({"b"})


def test_induced_and_without():
    G = mg("abc", {"1": "ab", "2": "bc"})
    H = G.induced({"a", "b"})
    assert set(H.edges) == {"1"}
    assert G.without_vertices({"c"}).vertices == frozenset("ab")
    assert set(G.without_edges({"1"}).edges) == {"2"}


def test_consolidate_counts_and_edge_identities():
    G = mg("abcd", {"1": "ab", "2": "bc", "3": "cd", "4": "bd"})
    H = consolidate(G, {"b", "c"})
    assert len(H.vertices) == len(G.vertices) - 2 + 1
    # interior edge 2 dies; the others keep their identities
    assert set(H.edges) == {"1", "3", "4"}


def test_consolidate_is_deterministic():
    G = mg("abc", {"1": "ab"})
    assert consolidate(G, {"a", "b"}) == consolidate(G, {"a", "b"})
    assert "(a+b)" in consolidate(G, {"a", "b"}).vertices


def test_consolidate_fresh_name_avoids_collision():
    G = mg(["a", "b", "(a+b)"], {"1": ("a", "b")})
    H = consolidate(G, {"a", "b"})
    assert len(H.vertices) == 2
    assert "(a+b)'" in H.vertices


def test_consolidate_rejects_empty_and_unknown():
    G = mg("ab", {"1": "ab"})
    with pytest.raises(ValueError):
        consolidate(G, set())
    with pytest.raises(ValueError):
        consolidate(G, {"z"})


def test_lift_replaces_two_edges_by_one():
    G = mg("abc", {"e": "ab", "f": "bc", "g": "ab"})
    H = lift(G, "e", "f")
    assert len(H.edges) == 2
    (new,) = [e for e in H.edges if e not in G.edges]
    assert H.edges[new] == ("a", "c")


def test_lift_drops_pivot_degree_by_two_only():
    G = mg("abc", {"e": "ab", "f": "bc", "g": "ab"})
    H = lift(G, "e", "f")
    assert H.degree("b") == G.degree("b") - 2
    assert H.degree("a") == G.degree("a")
    assert H.degree("c") == G.degree("c")


def test_lift_of_parallel_edges_needs_pivot_and_makes_loop():
    G = mg("ab", {"e": "ab", "f": "ab"})
    with pytest.raises(ValueError):
        lift(G, "e", "f")
    H = lift(G, "e", "f", pivot="b")
    (new,) = list(H.edges)
    assert H.edges[new] == ("a", "a")


def test_lift_rejects_loops_and_non_incident_edges():
    G = mg("abcd", {"l": "aa", "e": "ab", "f": "cd"})
    with pytest.raises(ValueError):
        lift(G, "l", "e")
    with pytest.raises(ValueError):
        lift(G, "e", "f")


def test_split_off_vertex_preserves_other_degrees():
    G = mg("abcx", {"1": "ax", "2": "bx", "3": "cx", "4": "cx"})
    H = split_off_vertex(G, "x", [("1", "2"), ("3", "4")])
    assert "x" not in H.vertices
    for v in "abc":
        assert H.degree(v) == G.degree(v)


def test_split_off_vertex_drops_unpaired_edges():
    G = mg("abx", {"1": "ax", "2": "bx", "3": "ax"})
    H = split_off_vertex(G, "x", [("1", "2")])
    assert len(H.edges) == 1
    assert H.degree("a") == 1 and H.degree("b") == 1


def test_split_off_vertex_empty_pairing_deletes_isolated_vertex():
    G = mg("ab", {})
    H = split_off_vertex(G, "b", [])
    assert H.vertices == frozenset("a")


def test_split_off_vertex_input_validation():
    G = mg("abx", {"1": "ax", "2": "bx", "l": "xx", "e": "ab"})
    with pytest.raises(ValueError):
        split_off_vertex(G, "x", [("1", "l")])
    with pytest.raises(ValueError):
        split_off_vertex(G, "x", [("1", "e")])
    with pytest.raises(ValueError):
        split_off_vertex(G, "x", [("1", "1")])


def _scan(G, v):
    """Incident edge ids, degree and neighbours of v from a scan of every edge."""
    incident = sorted(e for e, (a, b) in G.edges.items() if v in (a, b))
    degree = sum((a == v) + (b == v) for a, b in G.edges.values())
    nbrs = frozenset(a if b == v else b for a, b in G.edges.values() if v in (a, b)) - {v}
    return incident, degree, nbrs


def _index_graphs():
    """Seeded random multigraphs with loops and parallel edges, and graphs
    derived from them by consolidation, lifting and vertex deletion."""
    for seed in range(40):
        G = gen_random_multigraph(6, 12, 3, seed)
        yield G
        X = sorted(G.vertices)[:2]
        yield consolidate(G, X)
        yield G.without_vertices(X[:1])
        non_loops = [e for e in sorted(G.edges) if len(set(G.edges[e])) != 1]
        for e, f in itertools.combinations(non_loops, 2):
            shared = set(G.edges[e]) & set(G.edges[f])
            if shared:
                yield lift(G, e, f, pivot=min(shared))
                break


def _masks_by_scan(G):
    """links, loops and other of G's index, from a scan of every edge in
    edge id order."""
    names, edges = sorted(G.vertices), sorted(G.edges)
    links = [0] * len(names)
    loops = [0] * len(names)
    other = []
    for k, e in enumerate(edges):
        u, v = (names.index(x) for x in G.edges[e])
        other.append(u ^ v)
        if u == v:
            loops[u] += 1 << k
        else:
            links[u] += 1 << k
            links[v] += 1 << k
    return tuple(links), tuple(loops), tuple(other)


def test_incidence_index_matches_an_edge_scan():
    rng = random.Random(27)
    shapes = dict.fromkeys(("loop", "parallel", "isolated"), 0)
    seeded = (random_multigraph(rng, max_n=9, max_edges=14) for _ in range(400))
    for G in itertools.chain(_index_graphs(), seeded):
        ends = list(G.edges.values())
        shapes["loop"] += any(a == b for a, b in ends)
        shapes["parallel"] += len(set(ends)) < len(ends)
        shapes["isolated"] += 0 in G.degrees.values()
        index = G.index
        assert (index.links, index.loops, index.other) == _masks_by_scan(G)
        adj = G.adjacency()
        assert set(adj) == G.vertices
        for v in sorted(G.vertices):
            incident, degree, nbrs = _scan(G, v)
            assert G.incident(v) == incident
            assert G.degree(v) == G.degrees[v] == degree
            assert G.neighbors(v) == nbrs
            assert adj[v] == tuple(
                (e, b if a == v else a) for e in incident for a, b in [G.edges[e]]
            )
    assert min(shapes.values()) >= 40, shapes


def test_general_queries_scan_the_edges_and_build_no_index():
    # incident, neighbors, adjacency() and edge_sum answer from the edge
    # list: none of them builds the immersion search's index, whose masks
    # take space quadratic in the graph's size
    G = mg("abcd", {"l": "aa", "e1": "ab", "e2": "ab", "e3": "bc", "e4": "ca", "e5": "dd"})
    adj = G.adjacency()
    assert list(adj) == sorted(G.vertices)
    for v in sorted(G.vertices):
        incident, _, nbrs = _scan(G, v)
        assert G.incident(v) == incident
        assert G.neighbors(v) == nbrs
        assert adj[v] == tuple(
            (e, b if a == v else a) for e in incident for a, b in [G.edges[e]]
        )
    G1 = mg("xabc", {"f1": "xa", "f2": "xb", "f3": "xb", "g1": "ab", "g2": "cc"})
    G2 = mg("ypq", {"h1": "yp", "h2": "yq", "h3": "yq", "h4": "pq"})
    pi = {"f1": "h2", "f2": "h1", "f3": "h3"}
    glued = {e: ab for H, v in ((G1, "x"), (G2, "y")) for e, ab in H.edges.items() if v not in ab}
    for e1, e2 in pi.items():
        (x,) = set(G1.edges[e1]) - {"x"}
        (y,) = set(G2.edges[e2]) - {"y"}
        glued[f"{e1}~{e2}"] = (x, y)
    S = edge_sum(G1, "x", G2, "y", pi)
    assert S == Multigraph(frozenset("abcpq"), glued)
    for H in (G, G1, G2, S):
        assert "index" not in vars(H)


def test_index_queries_reject_unknown_vertices():
    G = mg("ab", {"l": "aa", "e": "ab"})
    for query in (G.degree, G.incident, G.neighbors):
        with pytest.raises(ValueError):
            query("z")


def test_every_vertex_set_check_names_all_its_unknown_vertices():
    # the seven entry points that take a vertex set share one check: each
    # names every vertex the graph lacks, sorted, after its own prefix
    G = mg("ab", {"e": "ab"})
    checks = [
        ("unknown vertices in --W", lambda X: _parse_W(",".join(sorted(X)), G)),
        ("unknown terminal vertices", lambda X: max_flow_min_cut(G, X, {"b"})),
        ("unknown vertices in W", lambda X: is_k_edge_connected_set(G, X, 1)),
        ("unknown vertices in W", lambda X: build_auxiliary_graph(G, X, 1)),
        ("boundary of unknown vertices", G.boundary),
        ("induced on unknown vertices", G.induced),
        ("consolidate of unknown vertices", lambda X: consolidate(G, X)),
    ]
    for what, check in checks:
        for unknown in (["x"], ["x", "y"]):
            with pytest.raises(ValueError) as raised:
                check({"a", *unknown})
            assert str(raised.value) == f"{what}: {unknown}"


def test_querying_leaves_equality_and_repr_unchanged():
    G = gen_random_multigraph(5, 9, 2, 3)
    fresh = Multigraph(G.vertices, dict(G.edges))
    for v in G.vertices:
        G.degree(v), G.incident(v), G.neighbors(v)
    G.adjacency()
    assert G == fresh
    assert repr(G) == repr(fresh)


def _twin_relation(G):
    """By the definition: are u and v twins, with the same loop count and
    the same multiplicity to every third vertex?"""
    mult = Counter(frozenset(ab) for ab in G.edges.values())

    def twins(u, v):
        return mult[frozenset((u,))] == mult[frozenset((v,))] and all(
            mult[frozenset((u, w))] == mult[frozenset((v, w))] for w in G.vertices - {u, v}
        )

    return twins


def _nearest_earlier_twins(G, order):
    """By the definition, searched over every earlier vertex of the order."""
    twins = _twin_relation(G)
    return [next((u for u in reversed(order[:i]) if twins(u, v)), None) for i, v in enumerate(order)]


def test_cached_search_facts_match_a_fresh_computation():
    rng = random.Random(11)
    twins = 0
    for _ in range(300):
        G = random_multigraph(rng, max_n=7, max_edges=12)
        names = sorted(G.vertices)
        edges = sorted(G.edges)
        deg = {v: sum((a == v) + (b == v) for a, b in G.edges.values()) for v in names}
        assert G.counts.degree_sequence == tuple(sorted(deg.values(), reverse=True))

        numbering = G.numbering
        assert numbering.names == tuple(names)
        assert numbering.edges == tuple(edges)
        assert numbering.ends == tuple(tuple(names.index(x) for x in G.edges[e]) for e in edges)
        assert numbering.degree == tuple(deg[v] for v in names)

        order = sorted(names, key=lambda v: (-deg[v], v))
        assert [names[i] for i in G.degree_order] == order
        expected = _nearest_earlier_twins(G, order)
        assert [None if t < 0 else names[t] for t in G.earlier_twins] == expected
        twins += sum(t is not None for t in expected)
    assert twins


def _check_twin_classes(G):
    """twin_classes on each run of equal degree and each colour block of
    `canonical_key`'s refinement, against classes built pair by pair from
    the definition.  Returns the classes of more than one vertex, with the
    edge count between two of their members."""
    names = sorted(G.vertices)
    ids = {v: i for i, v in enumerate(names)}
    nbrs = [[] for _ in names]
    for a, b in G.edges.values():
        if a != b:
            nbrs[ids[a]].append(ids[b])
            nbrs[ids[b]].append(ids[a])
    twins = _twin_relation(G)
    by_degree, by_colour = {}, {}
    for v in sorted(range(len(names)), key=lambda v: (-G.degrees[names[v]], v)):
        by_degree.setdefault(G.degrees[names[v]], []).append(v)
    for v, colour in enumerate(_refined(G)[2]):
        by_colour.setdefault(colour, []).append(v)
    found = []
    for group in [*by_degree.values(), *by_colour.values()]:
        expected, placed = [], set()
        for i, v in enumerate(group):
            if v not in placed:
                cls = [v] + [u for u in group[i + 1:] if twins(names[v], names[u])]
                placed.update(cls)
                expected.append(cls)
        assert twin_classes(group, nbrs) == expected, (sorted(G.edges.values()), group)
        found += [(cls, nbrs[cls[0]].count(cls[1])) for cls in expected if len(cls) > 1]
    return found


def _modular_multigraph(rng):
    """Up to four modules of one to three vertices each, joined inside by
    0 to 3 edges a pair, with one loop count per module and one edge
    count, 0 to 3, between the members of two modules, so the members of a
    module are twins; then perhaps one more edge or loop, which can leave
    two vertices with the same neighbours at different multiplicities."""
    modules = [[f"m{i}x{j}" for j in range(rng.randint(1, 3))] for i in range(rng.randint(1, 4))]
    edges = []
    for i, mod in enumerate(modules):
        inner, loops = rng.choice((0, 0, 1, 2, 3)), rng.choice((0, 0, 1, 2))
        edges += [(u, w) for u, w in itertools.combinations(mod, 2) for _ in range(inner)]
        edges += [(u, u) for u in mod for _ in range(loops)]
        for other in modules[i + 1:]:
            k = rng.choice((0, 0, 1, 2, 3))
            edges += [(u, w) for u in mod for w in other for _ in range(k)]
    names = [v for mod in modules for v in mod]
    if rng.random() < 0.5:
        edges.append((rng.choice(names), rng.choice(names)))
    return mg(names, {f"e{k}": ab for k, ab in enumerate(edges)})


def test_twin_classes_match_the_definition():
    # a doubled K4: one joined class with 2 edges between its members
    pairs = [u + w for u, w in itertools.combinations("abcd", 2)] * 2
    doubled_k4 = mg("abcd", {f"e{k}": ab for k, ab in enumerate(pairs)})
    assert _check_twin_classes(doubled_k4) == [([0, 1, 2, 3], 2)] * 2
    # the same neighbours at other multiplicities, at one degree: not
    # twins, joined (u and w) or not (c, and d with a loop)
    pairs = "uw ua ua ub wa wb wb ca ca cb cb da db dd".split()
    assert _check_twin_classes(mg("uwabcd", {f"e{k}": ab for k, ab in enumerate(pairs)})) == []
    classes = multigraph_classes(4, 6)
    assert len(classes) == 749
    rng = random.Random(36)
    graphs = classes + [_modular_multigraph(rng) for _ in range(2000)]
    graphs += [random_multigraph(rng, max_n=7, max_edges=14) for _ in range(1000)]
    # classes unjoined, joined by one edge a pair, and by more
    shapes = Counter(min(k, 2) for G in graphs for _, k in _check_twin_classes(G))
    assert min(shapes[0], shapes[1], shapes[2]) >= 1000, shapes


def test_earlier_twins_of_a_long_cycle_take_no_pairwise_scan():
    # 3,000 vertices of degree 2 and no twins; scanning back over the run
    # of equal degree takes seconds
    n = 3000
    C = mg([f"v{i}" for i in range(n)], {f"e{i}": (f"v{i}", f"v{(i + 1) % n}") for i in range(n)})
    start = time.perf_counter()
    assert C.earlier_twins == (-1,) * n
    assert time.perf_counter() - start < 0.5


def _pair_counts_by_flows(G):
    """(p1, p2) and the number of components, from a flow between every
    pair of vertices."""
    names = sorted(G.vertices)
    p1 = p2 = 0
    component = {v: v for v in names}
    for s, t in itertools.combinations(names, 2):
        value = max_flow_min_cut(G, {s}, {t}).value
        p1 += value >= 1
        p2 += value >= 2
        if value:
            component[t] = component[s] = min(component[s], component[t])
    return (p1, p2), sum(component[v] == v for v in names)


def test_pair_counts_match_all_pairs_flows():
    rng = random.Random(22)
    shapes = dict.fromkeys(("loop", "parallel", "isolated", "several", "bridged"), 0)
    for _ in range(400):
        G = random_multigraph(rng, max_n=9, max_edges=14)
        counts, components = _pair_counts_by_flows(G)
        assert (G.counts.p1, G.counts.p2) == counts, sorted(G.edges.values())
        pairs = list(G.edges.values())
        shapes["loop"] += any(a == b for a, b in pairs)
        shapes["parallel"] += len(set(pairs)) < len(pairs)
        shapes["isolated"] += 0 in G.degrees.values()
        shapes["several"] += components - list(G.degrees.values()).count(0) >= 2
        shapes["bridged"] += 0 < counts[1] < counts[0]
    assert min(shapes.values()) >= 40, shapes


def test_pair_counts_of_long_paths_and_cycles():
    # one depth-first search on an explicit stack: no recursion limit
    n = 5000
    names = frozenset(f"v{i}" for i in range(n))
    path = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(n - 1)}
    every_pair = n * (n - 1) // 2

    def pairs(G):
        return G.counts.p1, G.counts.p2

    assert pairs(Multigraph(names, path)) == (every_pair, 0)
    cycle = dict(path, closing=(f"v{n - 1}", "v0"))
    assert pairs(Multigraph(names, cycle)) == (every_pair, every_pair)
    # a doubled edge is two paths, never a bridge
    doubled = dict(path, twin=("v0", "v1"))
    assert pairs(Multigraph(names, doubled)) == (every_pair, 1)


def _counting_facts_by_brute_force(G):
    """Cycle rank from a union-find, multiplicities from a count over every
    vertex pair and loop site, and spare capacity as the best sum of
    deg // 2 over every vertex subset of each size."""
    names = sorted(G.vertices)
    root = {v: v for v in names}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in G.edges.values():
        root[find(a)] = find(b)
    components = sum(root[v] == v for v in names)
    ends = list(G.edges.values())
    pairs = [ends.count((u, v)) for u, v in itertools.combinations(names, 2)]
    loops = [ends.count((v, v)) for v in names]
    half = [G.degrees[v] // 2 for v in names]
    spare = [
        max(sum(half[i] for i in chosen) for chosen in itertools.combinations(range(len(names)), k))
        for k in range(len(names) + 1)
    ]
    return (
        len(ends) - len(names) + components,
        (tuple(sorted(filter(None, pairs), reverse=True)),
         tuple(sorted(filter(None, loops), reverse=True))),
        tuple(spare),
        components,
    )


def test_counting_facts_match_a_brute_force_count():
    rng = random.Random(25)
    shapes = dict.fromkeys(("loop", "parallel", "isolated", "several"), 0)
    for _ in range(400):
        G = random_multigraph(rng, max_n=9, max_edges=14)
        rank, multiplicities, spare, components = _counting_facts_by_brute_force(G)
        c = G.counts
        assert (c.n, c.m) == (len(G.vertices), len(G.edges))
        assert (c.cycle_rank, (c.pair_multiplicities, c.loop_counts), c.spare_capacity) == (
            rank, multiplicities, spare
        ), sorted(G.edges.values())
        pairs = list(G.edges.values())
        shapes["loop"] += any(a == b for a, b in pairs)
        shapes["parallel"] += len(set(pairs)) < len(pairs)
        shapes["isolated"] += 0 in G.degrees.values()
        shapes["several"] += components - list(G.degrees.values()).count(0) >= 2
    assert min(shapes.values()) >= 40, shapes


def test_counting_facts_of_long_paths_and_cycles():
    # the same depth-first search as the pair counts: no recursion limit
    n = 5000
    names = frozenset(f"v{i}" for i in range(n))
    path = Multigraph(names, {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(n - 1)})
    cycle = Multigraph(names, dict(path.edges, closing=(f"v{n - 1}", "v0")))
    p, c = path.counts, cycle.counts
    assert (p.cycle_rank, c.cycle_rank) == (0, 1)
    assert (p.pair_multiplicities, p.loop_counts) == ((1,) * (n - 1), ())
    assert (c.pair_multiplicities, c.loop_counts) == ((1,) * n, ())
    # two path ends of degree 1 carry no route through them
    assert p.spare_capacity == tuple(range(n - 1)) + (n - 2, n - 2)
    assert c.spare_capacity == tuple(range(n + 1))


def test_searching_leaves_equality_unchanged():
    G = gen_random_multigraph(6, 12, 2, 5)
    H = gen_complete(3)
    fresh = Multigraph(G.vertices, dict(G.edges)), Multigraph(H.vertices, dict(H.edges))
    for strong in (True, False):
        find_immersion(G, H, strong=strong)
    assert (G, H) == fresh
    assert repr((G, H)) == repr(fresh)


def test_a_search_caches_no_table_per_edge():
    # a certificate builds its own edge sets: what the search keeps on
    # the host is its numbering, index and counts, nothing more per edge,
    # and the pattern needs no masks
    G = gen_random_multigraph(2000, 6000, 1, 1)
    H = gen_complete(4)
    assert find_immersion(G, H).status == "found"
    fields = {"vertices", "edges"}
    assert sorted(vars(G).keys() - fields) == ["counts", "index", "numbering"]
    assert sorted(vars(H).keys() - fields) == [
        "counts", "degree_order", "earlier_twins", "numbering"
    ]


def test_a_query_the_counts_rule_out_builds_no_masks():
    # K30's degrees exceed the host's: the counts answer, and they read
    # the numbering, not the search's masks
    G = gen_random_multigraph(2000, 6000, 1, 1)
    assert find_immersion(G, gen_complete(30)).status == "absent"
    assert sorted(vars(G).keys() - {"vertices", "edges"}) == ["counts", "numbering"]


def test_the_counts_of_a_large_sparse_host_stay_linear():
    # the counts walk neighbour lists, not edge masks: a few hundred
    # bytes per edge, where masks of up to 30,000 bits a vertex took thousands
    m = 30_000
    G = gen_random_multigraph(10_000, m, 1, 1)
    tracemalloc.start()
    try:
        G.counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * m, peak
