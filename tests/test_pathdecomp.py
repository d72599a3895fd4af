import dataclasses
import inspect
import itertools
import random
import sys
import time
from collections import Counter

import pytest

import oracle_flow
import oracle_pathdecomp
from enumerate_graphs import connected_simple_graphs
from immtools import (
    FailureWitness,
    LinearityCertificate,
    Multigraph,
    PathLikeDecomposition,
    SMALL_CUT,
    SimpleGraph,
    SizeLimitError,
    boundedness,
    build_auxiliary_graph,
    compute_separator,
    gen_complete,
    gen_pk,
    gen_random_multigraph,
    has_k1k_minor,
    linear_decompose,
    max_flow_min_cut,
    min_linearizing_set,
    verify_linear_certificate,
    width,
    xi_cut,
)
from immtools import pathdecomp
from helpers import mg, sg
from test_acceptance import _rand_graph

# the 4-vertex worked example: a-x1, x1-x2, x2-b, a-b
EX_G = mg(
    ["a", "x1", "x2", "b"],
    {"e1": ("a", "x1"), "e2": ("x1", "x2"), "e3": ("x2", "b"), "e4": ("a", "b")},
)
EX_P = PathLikeDecomposition(
    ordering=("x1", "x2"),
    bags=(frozenset({"a"}), frozenset(), frozenset({"b"})),
)


def test_xi_cut_worked_example():
    assert xi_cut(EX_G, EX_P, 1) == frozenset({"e4"})
    assert xi_cut(EX_G, EX_P, 2) == frozenset({"e4"})
    with pytest.raises(ValueError):
        xi_cut(EX_G, EX_P, 0)
    with pytest.raises(ValueError):
        xi_cut(EX_G, EX_P, 3)


def test_xi_cut_never_counts_edges_at_xi():
    # all of x1's edges are invisible to the x1-cut
    G = mg(["a", "x1", "b"], {"1": ("a", "x1"), "2": ("x1", "b")})
    P = PathLikeDecomposition(("x1",), (frozenset({"a"}), frozenset({"b"})))
    assert xi_cut(G, P, 1) == frozenset()


def test_width_examples():
    assert width(EX_G, EX_P) == 1
    empty = PathLikeDecomposition((), (frozenset(EX_G.vertices),))
    assert width(EX_G, empty) == 0
    G = gen_pk(3)
    P = PathLikeDecomposition(
        ("v0", "v1", "v2", "v3"), tuple(frozenset() for _ in range(5))
    )
    assert width(G, P) == 0


def test_boundedness_examples():
    assert boundedness(EX_G, EX_P, {"a", "x1"}) == 2
    assert boundedness(EX_G, EX_P, set()) == 0
    assert boundedness(EX_G, EX_P, {"a"}) == 1
    assert boundedness(EX_G, EX_P, {"a", "x1"}) <= 2
    assert boundedness(EX_G, EX_P, {"a", "x1"}) > 1


def test_decomposition_violations_catch_overlap_and_gaps():
    P = PathLikeDecomposition(("x1",), (frozenset({"a"}), frozenset({"a"})))
    G = mg(["a", "x1"], {})
    assert any("both contain" in v for v in P.violations(G.vertices, {"x1"}))
    P2 = PathLikeDecomposition(("x1",), (frozenset(), frozenset()))
    assert any("miss" in v for v in P2.violations(G.vertices, {"x1"}))


def test_decomposition_violations_pin_the_near_partition_messages():
    # overlaps in bag order, then the ordering vertex, then the cover
    G = mg(["a", "b", "c", "x1"], {})
    P = PathLikeDecomposition(("x1",), (frozenset({"a", "y"}), frozenset({"a", "x1"})))
    assert P.violations(G.vertices, {"x1"}) == [
        "bags 0 and 1 both contain 'a'",
        "a bag contains an ordering vertex",
        "bags miss vertices: ['b', 'c']",
        "bags contain foreign vertices: ['x1', 'y']",
    ]


def test_verify_vacuous_certificate():
    G = mg("ab", {"1": "ab"})
    cert = LinearityCertificate(
        A=frozenset(),
        decomposition=PathLikeDecomposition((), (frozenset("ab"),)),
        achieved_a=0,
        achieved_w=1,
        achieved_p=0,
    )
    assert verify_linear_certificate(G, frozenset(), cert, 0, 1, 0) == []


def test_verify_p3_full_ordering():
    G = gen_pk(3)
    cert = LinearityCertificate(
        A=frozenset(),
        decomposition=PathLikeDecomposition(
            ("v0", "v1", "v2", "v3"), tuple(frozenset() for _ in range(5))
        ),
        achieved_a=0,
        achieved_w=1,
        achieved_p=0,
    )
    assert verify_linear_certificate(G, G.vertices, cert, 0, 1, 1) == []


def test_verify_width_bound_is_strict():
    bad = verify_linear_certificate(
        EX_G,
        frozenset({"x1", "x2"}),
        LinearityCertificate(frozenset(), EX_P, 0, 1, 0),
        0,
        1,  # width is exactly 1, so "less than 1" fails
        5,
    )
    assert any("width" in v for v in bad)


def test_verify_rejects_a_outside_w():
    G = mg("ab", {"1": "ab"})
    cert = LinearityCertificate(
        A=frozenset({"a"}),
        decomposition=PathLikeDecomposition((), (frozenset({"b"}),)),
        achieved_a=1,
        achieved_w=1,
        achieved_p=0,
    )
    assert any("subset of W" in v for v in verify_linear_certificate(G, set(), cert, 1, 1, 1))


# -- auxiliary graph ---------------------------------------------------


def test_aux_p2_is_a_path():
    G = gen_pk(2)
    H = build_auxiliary_graph(G, G.vertices, 2)
    assert frozenset(("v0", "v1")) in H.edges and frozenset(("v1", "v2")) in H.edges
    assert frozenset(("v0", "v2")) not in H.edges


def test_aux_k4_high_m_is_edgeless():
    K4 = gen_complete(4)
    assert build_auxiliary_graph(K4, K4.vertices, 3).edges == frozenset()


def test_aux_k4_m1_is_complete():
    K4 = gen_complete(4)
    assert len(build_auxiliary_graph(K4, K4.vertices, 1).edges) == 6


def test_aux_input_validation():
    G = gen_pk(2)
    with pytest.raises(ValueError):
        build_auxiliary_graph(G, {"zz"}, 1)
    with pytest.raises(ValueError):
        build_auxiliary_graph(G, G.vertices, 0)


def _aux_corpus():
    """(G, W) pairs: criterion 4's graphs with the W it draws and with W
    all of G; criterion 5's graphs (every connected simple graph on at
    most 7 vertices) with W at densities 0.3, 0.6 and 1 in turn; and
    seeded random multigraphs with n <= 11 and up to 30 edges, each with
    W at densities 0.3, 0.6 and 1."""
    rng = random.Random(0x5E9)  # criterion 4's draws, in its order
    for _ in range(200):
        G = _rand_graph(rng, 2, 7, 12)
        W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.7)
        rng.randint(1, 3), rng.randint(1, 6)  # its m and w_limit
        yield G, W
        yield G, G.vertices
    rng = random.Random(5)
    for k, H in enumerate(connected_simple_graphs(7)):
        ends = sorted(map(sorted, H.edges))
        G = Multigraph(H.vertices, {f"e{i}": tuple(e) for i, e in enumerate(ends)})
        density = (0.3, 0.6, 1.0)[k % 3]
        yield G, frozenset(v for v in sorted(G.vertices) if rng.random() < density)
    for case in range(300):
        n = rng.randint(2, 11)
        mult = rng.randint(1, 3)
        G = gen_random_multigraph(n, rng.randint(0, min(30, n * (n + 1) // 2 * mult)), mult, case)
        for density in (0.3, 0.6, 1.0):
            yield G, frozenset(v for v in sorted(G.vertices) if rng.random() < density)


def test_auxiliary_graph_agrees_with_the_all_pairs_oracle():
    # the oracle runs a flow for every pair of W; build_auxiliary_graph runs them
    # only for pairs below m that share a component of G - W
    cases = by_flow = 0
    for G, W in _aux_corpus():
        for m in (1, 2, 3, 5):
            got = build_auxiliary_graph(G, W, m)
            want = oracle_pathdecomp.build_auxiliary_graph(G, W, m)
            assert (got.vertices, got.edges) == (want.vertices, want.edges), (
                sorted(G.edges.items()), sorted(W), m
            )
            cases += 1
            # edges no set of m parallel edges explains came from a flow
            parallel = Counter(e for e in map(frozenset, G.edges.values()) if len(e) == 2)
            by_flow += any(parallel[e] < m for e in got.edges)
    assert cases == 4 * (400 + 996 + 900)
    assert by_flow > 1000


def test_sweep_width_and_boundedness_match_the_definitions():
    # random decompositions of G - A for random A: the sweep's width is
    # the widest x_i-cut, and its count for each vertex of A is the
    # boundedness of that vertex's neighbourhood in G - A
    rng = random.Random(16)
    wide = bounded_above_one = 0
    for case in range(400):
        n = rng.randint(1, 12)
        mult = rng.randint(1, 3)
        edges = rng.randint(0, min(3 * n, n * (n + 1) // 2 * mult))
        G = gen_random_multigraph(n, edges, mult, case)
        verts = sorted(G.vertices)
        rng.shuffle(verts)
        A = frozenset(verts[: rng.randint(0, n // 3)])
        rest = verts[len(A):]
        t = rng.randint(0, len(rest))
        bags = [set() for _ in range(t + 1)]
        for v in rest[t:]:
            bags[rng.randint(0, t)].add(v)
        P = PathLikeDecomposition(tuple(rest[:t]), tuple(map(frozenset, bags)))
        reduced = G.without_vertices(A)
        got_w, bounded = pathdecomp._sweep(G, A, pathdecomp._positions(P), t)
        assert got_w == max((len(xi_cut(reduced, P, i)) for i in range(1, t + 1)), default=0)
        assert got_w == width(reduced, P)
        assert bounded == {
            v: boundedness(reduced, P, G.neighbors(v) & reduced.vertices) for v in A
        }
        wide += got_w >= 2
        bounded_above_one += any(b >= 2 for b in bounded.values())
    assert wide > 100 and bounded_above_one > 50


def test_a_disconnected_auxiliary_graph_gives_the_cut_around_its_first_component():
    cuts = 0
    for G, W in itertools.islice(_aux_corpus(), 0, None, 2):
        for m in (1, 3):
            result = linear_decompose(G, W, m=m, w_limit=9)
            aux = oracle_pathdecomp.build_auxiliary_graph(G, W, m)
            comps = sorted(aux.connected_components(), key=min)
            if len(comps) < 2:
                continue
            want = max_flow_min_cut(G, comps[0], W - comps[0])
            assert result == FailureWitness(kind=SMALL_CUT, payload=want)
            cuts += 1
    assert cuts > 500


def _certificate_variants(G, W, cert, rng):
    """The certificate at its achieved values, then corrupted: each
    threshold off by one, a bag vertex moved to another bag, two ordering
    vertices swapped, A not inside W, an unknown vertex in A, and a
    foreign vertex in a bag."""
    a, w, p = cert.achieved_a, cert.achieved_w, cert.achieved_p
    P = cert.decomposition
    yield W, cert, a, w, p
    yield W, cert, a - 1, w, p
    yield W, cert, a, w - 1, p
    yield W, cert, a, w, p - 1
    full = [j for j, bag in enumerate(P.bags) if bag]
    if full:
        j = rng.choice(full)
        v = rng.choice(sorted(P.bags[j]))
        k = rng.choice([i for i in range(len(P.bags)) if i != j] or [j])
        bags = [set(bag) for bag in P.bags]
        bags[j].discard(v)
        bags[k].add(v)
        moved = dataclasses.replace(P, bags=tuple(map(frozenset, bags)))
        yield W, dataclasses.replace(cert, decomposition=moved), a, w, p
    if len(P.ordering) >= 2:
        i, j = rng.sample(range(len(P.ordering)), 2)
        ordering = list(P.ordering)
        ordering[i], ordering[j] = ordering[j], ordering[i]
        swapped = dataclasses.replace(P, ordering=tuple(ordering))
        yield W, dataclasses.replace(cert, decomposition=swapped), a, w, p
    if cert.A:
        yield W - {min(cert.A)}, cert, a, w, p
    outside = sorted(G.vertices - W)
    if outside:
        yield W, dataclasses.replace(cert, A=cert.A | {outside[0]}), a + 1, w, p
    yield W, dataclasses.replace(cert, A=cert.A | {"zz"}), a + 1, w, p
    bags = list(P.bags)
    bags[-1] = bags[-1] | {"zz"}
    foreign = dataclasses.replace(P, bags=tuple(bags))
    yield W, dataclasses.replace(cert, decomposition=foreign), a, w, p


def test_verifier_agrees_with_the_old_verifier_message_for_message():
    rng = random.Random(0x16)
    messages = Counter()
    certificates = 0
    for G, W in itertools.islice(_aux_corpus(), 0, None, 3):
        result = linear_decompose(G, W, m=rng.randint(1, 3), w_limit=rng.randint(2, 8))
        if isinstance(result, FailureWitness):
            continue
        certificates += 1
        for W2, cert, a, w, p in _certificate_variants(G, W, result, rng):
            got = verify_linear_certificate(G, W2, cert, a, w, p)
            assert got == oracle_pathdecomp.verify_linear_certificate(G, W2, cert, a, w, p), (
                sorted(G.edges.items()), sorted(W2), cert, a, w, p
            )
            messages.update(msg.split()[0] for msg in got)
            messages["accepted"] += not got
    assert certificates > 200
    # width, boundedness, |A|, A outside W or G, and the near-partition
    # messages all occur
    kinds = ("width", "neighborhood", "|A|", "A", "bags", "accepted")
    assert min(messages[k] for k in kinds) > 200, messages


# -- star minors and linearizing sets ----------------------------------


def test_star_with_three_leaves_has_k13():
    star = sg("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
    model = has_k1k_minor(star, 3)
    assert model is not False
    assert model.violations(star) == []
    assert len(model.leaves) == 3


def test_cycle_has_no_k13():
    C5 = sg("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    assert has_k1k_minor(C5, 3) is False


def test_k4_has_k13():
    K4 = sg("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
    model = has_k1k_minor(K4, 3)
    assert model is not False
    assert model.violations(K4) == []


def test_k1k_minor_via_connected_center_set():
    # path a-b plus leaves hanging off both ends: no single vertex has
    # degree 3, but the connected set {a,b} has 3 outside neighbors
    H = sg(
        ["a", "b", "p", "q", "r"],
        [("a", "b"), ("a", "p"), ("a", "q"), ("b", "r")],
    )
    model = has_k1k_minor(H, 3)
    assert model is not False
    assert model.violations(H) == []


def test_min_linearizing_set_examples():
    path = sg("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert min_linearizing_set(path) == frozenset()
    star = sg("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
    assert len(min_linearizing_set(star)) == 1
    K4 = sg("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
    assert len(min_linearizing_set(K4)) == 2


def test_each_cycle_costs_one_deletion():
    # two triangles and a square, joined by nothing: one deletion each
    H = sg("abcdefwxyz", [
        ("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"),
        ("w", "x"), ("x", "y"), ("y", "z"), ("w", "z"),
    ])
    assert min_linearizing_set(H) == {"a", "d", "w"}


def _agree_with_the_oracle(H, ks):
    """The bitmask searches return the oracle's set and star model, and
    the linearizing-set search the pruned depth-first search's mask and,
    up to the enumerators' size limit, the subset enumerator's."""
    nbr = H.masks.nbr
    mask = pathdecomp._LinearizingSearch(nbr).first_smallest()
    assert mask == oracle_pathdecomp.pruned_linearizing_mask(nbr)
    models = [has_k1k_minor(H, k) for k in ks]
    if len(nbr) > oracle_pathdecomp.ENUMERATION_LIMIT:
        for k, model in zip(ks, models):
            assert model is False or model.violations(H) == [] and len(model.leaves) == k
        return models
    assert min_linearizing_set(H) == oracle_pathdecomp.min_linearizing_set(H)
    assert mask == oracle_pathdecomp.min_linearizing_mask(nbr)
    assert models == [oracle_pathdecomp.has_k1k_minor(H, k) for k in ks], ks
    return models


def test_subset_searches_agree_with_the_oracle_on_small_graphs():
    graphs = stars = 0
    for H in connected_simple_graphs(7):
        models = _agree_with_the_oracle(H, range(2, len(H.vertices)))
        graphs += 1
        stars += sum(m is not False for m in models)
    assert graphs == 996  # every connected simple graph on 1..7 vertices
    assert stars > 500


def test_subset_searches_agree_with_the_oracle_on_random_graphs():
    rng = random.Random(11)
    largest = no_star = big_sets = 0
    for _ in range(40):
        n = rng.randint(6, 20)
        p = rng.choice((0.1, 0.18, 0.25))
        verts = [f"v{i}" for i in range(n)]  # v10 sorts before v2
        H = SimpleGraph.build(
            verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p]
        )
        # a large k without a star minor tries every subset: keep those small
        models = _agree_with_the_oracle(H, (2, 3, rng.randint(4, n) if n <= 12 else 4))
        largest = max(largest, n)
        no_star += models.count(False)
        big_sets += len(min_linearizing_set(H)) >= 3
    assert largest == 20 and no_star > 10 and big_sets > 5


def test_linearizing_search_agrees_with_the_pruned_search_above_the_enumerators():
    rng = random.Random(17)
    sizes = Counter()
    for _ in range(60):
        n = rng.randint(17, 26)
        p = rng.choice((0.12, 0.15, 0.2, 0.25))
        nbr = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < p:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
        mask = pathdecomp._LinearizingSearch(nbr).first_smallest()
        assert mask == oracle_pathdecomp.pruned_linearizing_mask(nbr), nbr
        sizes[mask.bit_count()] += 1
    assert max(sizes) >= 9 and len(sizes) >= 6


def test_searches_have_no_vertex_ceiling():
    verts = [f"v{i}" for i in range(40)]
    path = SimpleGraph.build(verts, zip(verts, verts[1:]))
    assert min_linearizing_set(path) == set()
    assert has_k1k_minor(path, 2).violations(path) == []
    cycle = SimpleGraph.build(verts, zip(verts, verts[1:] + verts[:1]))
    assert min_linearizing_set(cycle) == {"v0"}


def test_linearizing_search_stops_at_the_work_limit(monkeypatch):
    # AUX_15 takes more decision nodes than any of these limits
    for limit in (2, 7, 40):
        monkeypatch.setattr(pathdecomp, "_WORK_LIMIT", limit)
        search = pathdecomp._LinearizingSearch(AUX_15)
        with pytest.raises(SizeLimitError, match=(
            f"^more than {limit} decision nodes, the work limit of the linearizing-set"
            " search$"
        )):
            search.first_smallest()
        assert search.nodes == limit + 1


def test_linearizing_search_answers_at_exactly_its_node_count(monkeypatch):
    monkeypatch.setattr(pathdecomp, "_WORK_LIMIT", AUX_15_NODES)
    assert pathdecomp._LinearizingSearch(AUX_15).first_smallest() == AUX_15_SET
    monkeypatch.setattr(pathdecomp, "_WORK_LIMIT", AUX_15_NODES - 1)
    with pytest.raises(SizeLimitError):
        pathdecomp._LinearizingSearch(AUX_15).first_smallest()


def test_star_search_stops_at_the_work_limit(monkeypatch):
    # a path has no K_{1,3} minor, so the search tests every center set
    verts = [f"v{i}" for i in range(20)]
    path = SimpleGraph.build(verts, zip(verts, verts[1:]))
    with pytest.raises(SizeLimitError, match=(
        f"^more than {pathdecomp._WORK_LIMIT} center sets, the work limit of the"
        " star-minor search$"
    )):
        has_k1k_minor(path, 3)
    monkeypatch.setattr(pathdecomp, "_WORK_LIMIT", 2 ** 12 - 1)  # the subsets of 12 vertices
    assert has_k1k_minor(SimpleGraph.build(verts[:12], zip(verts, verts[1:12])), 3) is False
    with pytest.raises(SizeLimitError):
        has_k1k_minor(SimpleGraph.build(verts[:13], zip(verts, verts[1:13])), 3)


def test_linearizing_search_needs_no_call_stack_on_a_large_complete_graph():
    # K_n needs n - 2 deletions; a search that recursed once per deletion
    # would pass the interpreter's recursion limit, set low here
    n = 300
    nbr = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    search = pathdecomp._LinearizingSearch(nbr)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        start = time.perf_counter()
        assert search.first_smallest() == (1 << n - 2) - 1
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    # each k from 1 to n - 3 is cut off at its root, and k = n - 2
    # deletes the vertices in order down to a triangle
    assert search.nodes == (n - 3) + (n - 2)
    assert elapsed < 1.0


def test_linearizing_search_agrees_with_the_enumerator_on_every_labelling():
    graphs = 0
    for n in range(6):  # every labelled graph on 0..5 vertices, connected or not
        sites = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(sites)):
            nbr = [0] * n
            for b, (i, j) in enumerate(sites):
                if chosen >> b & 1:
                    nbr[i] |= 1 << j
                    nbr[j] |= 1 << i
            got = pathdecomp._LinearizingSearch(nbr).first_smallest()
            assert got == oracle_pathdecomp.min_linearizing_mask(nbr), nbr
            graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024


# a 15-vertex auxiliary graph that the benchmark's decompose pipelines meet
# on one of their random multigraphs; its smallest linearizing set has 7 vertices
AUX_15 = [16590, 12033, 1321, 20485, 28928, 19588, 16129, 5153, 8278, 27714, 742, 25186,
          8408, 6994, 2617]
AUX_15_SET = 0b111110100000001  # vertices 0, 8, 10, 11, 12, 13, 14
AUX_15_NODES = 279  # decision nodes of the linearizing search

# a 24-vertex auxiliary graph of another of those multigraphs, above the
# enumerators' limit; its smallest linearizing set has 10 vertices
AUX_24 = [2793488, 2230532, 8537474, 2361360, 919305, 2129920, 3507456, 16644, 8389846,
          32784, 7414100, 2113546, 3678208, 3232769, 9447556, 3670625, 140352, 65559,
          5242968, 36881, 324672, 4242539, 10748928, 4210948]
AUX_24_SET = 0b1100000100010001110111  # vertices 0, 1, 2, 4, 5, 6, 10, 14, 20, 21


def test_linearizing_search_prunes(monkeypatch):
    tests = Counter()

    def counting(nbr, keep, test=oracle_pathdecomp._is_path_union):
        tests["path unions"] += 1
        return test(nbr, keep)

    monkeypatch.setattr(oracle_pathdecomp, "_is_path_union", counting)
    # every subset of at most 6 vertices, then the 7-subsets up to the first hit
    assert oracle_pathdecomp.min_linearizing_mask(AUX_15) == AUX_15_SET
    assert tests.pop("path unions") == 12951
    assert oracle_pathdecomp.pruned_linearizing_mask(AUX_15) == AUX_15_SET
    assert tests.pop("path unions") == 566
    search = pathdecomp._LinearizingSearch(AUX_15)
    assert search.first_smallest() == AUX_15_SET
    assert search.nodes == AUX_15_NODES


def test_linearizing_search_on_a_benchmark_graph_above_the_enumerators():
    assert oracle_pathdecomp.pruned_linearizing_mask(AUX_24) == AUX_24_SET
    search = pathdecomp._LinearizingSearch(AUX_24)
    assert search.first_smallest() == AUX_24_SET
    assert search.nodes == 540


# -- separators and the decomposition algorithm ------------------------


def test_separator_p3_example():
    G = gen_pk(3)
    L, cost = compute_separator(G, frozenset(), ("v0", "v1", "v2", "v3"), 2)
    assert L == frozenset({"v0"})
    assert cost == 0


def test_separator_disconnected_sides_cost_zero():
    G = mg(["u", "x", "v"], {"1": ("u", "x"), "2": ("x", "v")})
    L, cost = compute_separator(G, frozenset(), ("u", "x", "v"), 2)
    assert cost == 0
    assert L == frozenset({"u"})


def test_separator_index_validation():
    G = gen_pk(3)
    with pytest.raises(ValueError):
        compute_separator(G, frozenset(), ("v0", "v1", "v2", "v3"), 1)
    with pytest.raises(ValueError):
        compute_separator(G, frozenset(), ("v0", "v1", "v2", "v3"), 4)


def test_separator_matches_the_reduced_graph_flow():
    # the separator closes A and x_i on a network of G; the reference
    # deletes them and runs the per-query flow on the smaller graph
    rng = random.Random(11)
    positive = 0
    for case in range(200):
        n = rng.randint(3, 10)
        G = gen_random_multigraph(n, rng.randint(0, min(3 * n, n * (n + 1))), 2, case)
        verts = sorted(G.vertices)
        rng.shuffle(verts)
        t = rng.randint(3, n)
        ordering, rest = tuple(verts[:t]), verts[t:]
        A = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        i = rng.randint(2, t - 1)
        reduced = G.without_vertices(A | {ordering[i - 1]})
        want = oracle_flow.max_flow_min_cut(reduced, ordering[: i - 1], ordering[i:])
        L, cost = compute_separator(G, A, ordering, i)
        assert (L, cost) == (want.source_side, want.value), case
        positive += cost > 0
        # A may not hold a terminal: in G - A it is no vertex at all
        inside = rng.choice(ordering[: i - 1] + ordering[i:])
        with pytest.raises(ValueError, match="unknown terminal vertices"):
            compute_separator(G, A | {inside}, ordering, i)
    assert positive > 50


def test_linear_decompose_p3_full():
    G = gen_pk(3)
    cert = linear_decompose(G, G.vertices, m=3, w_limit=3)
    assert isinstance(cert, LinearityCertificate)
    assert cert.A == frozenset()
    assert cert.decomposition.ordering == ("v0", "v1", "v2", "v3")
    assert all(not bag for bag in cert.decomposition.bags)
    assert cert.achieved_w == 1  # width 0
    assert verify_linear_certificate(G, G.vertices, cert, 0, 1, 1) == []


def test_linear_decompose_disconnected_aux_small_cut():
    G = mg(
        "abcdef",
        {"1": "ab", "2": "bc", "3": "ac", "4": "de", "5": "ef", "6": "df"},
    )
    r = linear_decompose(G, G.vertices, m=1, w_limit=3)
    assert isinstance(r, FailureWitness)
    assert r.kind == SMALL_CUT
    assert r.payload.value == 0


def test_linear_decompose_star_aux_deletes_center():
    edges = {}
    for i, h in enumerate(("h1", "h2", "h3")):
        edges[f"p{i}a"] = ("c", h)
        edges[f"p{i}b"] = ("c", h)
    edges["d1"] = ("h1", "x1")
    edges["d2"] = ("h3", "x2")
    G = mg(["c", "h1", "h2", "h3", "x1", "x2"], edges)
    cert = linear_decompose(G, {"c", "h1", "h2", "h3"}, m=2, w_limit=3)
    assert isinstance(cert, LinearityCertificate)
    assert cert.A == frozenset({"c"})
    assert verify_linear_certificate(
        G, {"c", "h1", "h2", "h3"}, cert, 1, cert.achieved_w, cert.achieved_p
    ) == []


def test_linear_decompose_respects_w_limit():
    # P_3 plus a long chord v0-v3: the chord crosses every interior
    # separator, so its cost 1 trips a w_limit of 1 but not of 2
    G = gen_pk(3)
    edges = dict(G.edges)
    edges["long"] = ("v0", "v3")
    G = type(G)(G.vertices, edges)
    r = linear_decompose(G, G.vertices, m=3, w_limit=1)
    assert isinstance(r, FailureWitness)
    assert r.kind == SMALL_CUT
    # the witness is the cut of G around L_2 = {v0}: the chord and the
    # three v0-v1 edges into the closed x_2 = v1
    assert r.payload.source_side == frozenset({"v0"})
    assert r.payload.cut_edges == frozenset({"long", "e0c0", "e0c1", "e0c2"})
    assert r.payload.value == 4
    assert isinstance(linear_decompose(G, G.vertices, m=3, w_limit=2), LinearityCertificate)


def test_linear_decompose_rejects_a_w_limit_below_one():
    G = gen_pk(3)
    with pytest.raises(ValueError, match="w_limit must be at least 1"):
        linear_decompose(G, G.vertices, m=3, w_limit=0)
    assert isinstance(linear_decompose(G, G.vertices, m=3, w_limit=1), LinearityCertificate)
