import itertools
import random

import pytest

import oracle_flow
import oracle_pathdecomp
from enumerate_graphs import connected_simple_graphs
from immtools import (
    FailureWitness,
    LinearityCertificate,
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
    is_p_bounded,
    linear_decompose,
    min_linearizing_set,
    verify_linear_certificate,
    width,
    xi_cut,
)
from helpers import mg, sg

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
    assert is_p_bounded(EX_G, EX_P, {"a", "x1"}, 2)
    assert not is_p_bounded(EX_G, EX_P, {"a", "x1"}, 1)


def test_decomposition_violations_catch_overlap_and_gaps():
    P = PathLikeDecomposition(("x1",), (frozenset({"a"}), frozenset({"a"})))
    G = mg(["a", "x1"], {})
    assert any("both contain" in v for v in P.violations(G, {"x1"}))
    P2 = PathLikeDecomposition(("x1",), (frozenset(), frozenset()))
    assert any("miss" in v for v in P2.violations(G, {"x1"}))


def test_decomposition_violations_pin_the_near_partition_messages():
    # overlaps in bag order, then the ordering vertex, then the cover
    G = mg(["a", "b", "c", "x1"], {})
    P = PathLikeDecomposition(("x1",), (frozenset({"a", "y"}), frozenset({"a", "x1"})))
    assert P.violations(G, {"x1"}) == [
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
    assert H.has_edge("v0", "v1") and H.has_edge("v1", "v2")
    assert not H.has_edge("v0", "v2")


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


def _agree_with_the_oracle(H, ks):
    """The bitmask searches return the oracle's set and star model."""
    assert min_linearizing_set(H) == oracle_pathdecomp.min_linearizing_set(H)
    models = [has_k1k_minor(H, k) for k in ks]
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
        n = rng.randint(6, 16)
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
    assert largest == 16 and no_star > 10 and big_sets > 5


def test_subset_searches_keep_the_ceiling():
    verts = [f"v{i}" for i in range(17)]
    assert min_linearizing_set(SimpleGraph.build(verts[:16], zip(verts, verts[1:16]))) == set()
    H = SimpleGraph.build(verts, zip(verts, verts[1:]))
    with pytest.raises(ValueError, match="instance above configured size limit"):
        min_linearizing_set(H)
    with pytest.raises(ValueError, match="instance above configured size limit"):
        has_k1k_minor(H, 3)
    with pytest.raises(SizeLimitError):
        has_k1k_minor(H, 3)


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
    # separator, so its cost 1 trips a w_limit of 1
    G = gen_pk(3)
    edges = dict(G.edges)
    edges["long"] = ("v0", "v3")
    G = type(G)(G.vertices, edges)
    r = linear_decompose(G, G.vertices, m=3, w_limit=1)
    assert isinstance(r, FailureWitness)
    assert r.kind == SMALL_CUT
    assert r.payload.value == 1
    assert "long" in r.payload.cut_edges


def test_linear_decompose_rejects_a_w_limit_below_one():
    G = gen_pk(3)
    with pytest.raises(ValueError, match="w_limit must be at least 1"):
        linear_decompose(G, G.vertices, m=3, w_limit=0)
    assert isinstance(linear_decompose(G, G.vertices, m=3, w_limit=1), LinearityCertificate)
