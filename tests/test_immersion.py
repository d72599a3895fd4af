import itertools
import json
import operator
import random

import pytest

from immtools import (
    ABSENT,
    BUDGET,
    FOUND,
    ImmersionCertificate,
    Multigraph,
    StarMinorModel,
    find_immersion,
    canonical_key,
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    gen_random_multigraph,
    star_minor_to_immersion,
    verify_immersion,
)
from immtools.immersion import _Searcher
from immtools.jsonio import immersion_to_json
from immtools.pathdecomp import build_auxiliary_graph, has_k1k_minor
from enumerate_graphs import multigraph_classes
from helpers import mg, random_multigraph, sg
from oracle_lift_closure import strong_closure, weak_closure
import oracle_search
import oracle_verify


def identity_cert(G, strong=True):
    return ImmersionCertificate(
        vertex_map={v: v for v in G.vertices},
        edge_map={e: frozenset({e}) for e in G.edges},
        strong=strong,
    )


def test_identity_certificate_accepts_both_strengths():
    G = mg("abc", {"1": "ab", "2": "bc", "3": "ac"})
    assert verify_immersion(G, G, identity_cert(G), strong=False) == []
    assert verify_immersion(G, G, identity_cert(G), strong=True) == []


def test_weak_k3_in_p2_fails_the_strong_check():
    G = gen_pk(2)
    K3 = gen_complete(3)
    cert = ImmersionCertificate(
        vertex_map={"v0": "v0", "v1": "v1", "v2": "v2"},
        edge_map={
            "e0_1": frozenset({"e0c0"}),
            "e1_2": frozenset({"e1c0"}),
            "e0_2": frozenset({"e0c1", "e1c1"}),  # v0-v1-v2 through branch v1
        },
        strong=False,
    )
    assert verify_immersion(G, K3, cert, strong=False) == []
    bad = verify_immersion(G, K3, cert, strong=True)
    assert any("branch vertex" in msg for msg in bad)


def test_loop_mapped_to_acyclic_image_is_rejected():
    G = mg("ab", {"1": "ab"})
    H = mg("x", {"l": "xx"})
    cert = ImmersionCertificate(
        vertex_map={"x": "a"}, edge_map={"l": frozenset({"1"})}, strong=False
    )
    bad = verify_immersion(G, H, cert)
    assert any("cycle" in msg for msg in bad)


def test_loop_mapped_to_parallel_pair_is_accepted():
    G = mg("ab", {"1": "ab", "2": "ab"})
    H = mg("x", {"l": "xx"})
    cert = ImmersionCertificate(
        vertex_map={"x": "a"}, edge_map={"l": frozenset({"1", "2"})}, strong=True
    )
    assert verify_immersion(G, H, cert) == []


def test_overlapping_edge_images_are_rejected():
    G = mg("abc", {"1": "ab", "2": "bc"})
    H = mg("xyz", {"p": "xy", "q": "yz"})
    cert = ImmersionCertificate(
        vertex_map={"x": "a", "y": "b", "z": "c"},
        edge_map={"p": frozenset({"1"}), "q": frozenset({"1", "2"})},
        strong=False,
    )
    bad = verify_immersion(G, H, cert)
    assert any("share host edge" in msg for msg in bad)


def test_dangling_identifiers_raise():
    G = mg("ab", {"1": "ab"})
    H = mg("x", {})
    with pytest.raises(ValueError):
        verify_immersion(
            G, H, ImmersionCertificate({"x": "zz"}, {}, False)
        )
    with pytest.raises(ValueError):
        verify_immersion(
            G, mg("x", {"e": "xx"}),
            ImmersionCertificate({"x": "a"}, {"e": frozenset({"nope"})}, False),
        )


def test_disconnected_image_is_rejected():
    G = mg("abcd", {"1": "ab", "2": "cd"})
    H = mg("xy", {"p": "xy"})
    cert = ImmersionCertificate(
        vertex_map={"x": "a", "y": "d"}, edge_map={"p": frozenset({"1", "2"})}, strong=False
    )
    assert verify_immersion(G, H, cert) == ["edge 'p': image is not connected"]


def test_image_missing_an_endpoint_is_rejected():
    G = mg("abc", {"1": "ab", "2": "bc"})
    H = mg("xy", {"p": "xy"})
    cert = ImmersionCertificate(
        vertex_map={"x": "a", "y": "c"}, edge_map={"p": frozenset({"1"})}, strong=False
    )
    assert verify_immersion(G, H, cert) == ["edge 'p': image misses an endpoint image"]


def test_loop_image_whose_only_cycles_avoid_the_branch_vertex():
    # x hangs off K9 by a bridge: the image is connected and full of
    # cycles, but none passes through x
    K9 = gen_complete(9)
    G = Multigraph(K9.vertices | {"x"}, {**K9.edges, "bridge": ("x", "v0")})
    H = mg("y", {"l": "yy"})
    cert = ImmersionCertificate(
        vertex_map={"y": "x"}, edge_map={"l": frozenset(G.edges)}, strong=True
    )
    assert verify_immersion(G, H, cert) == ["loop 'l': image contains no cycle through 'x'"]
    # a second edge from x into K9 closes a cycle through x
    G2 = Multigraph(G.vertices, {**G.edges, "back": ("x", "v8")})
    cert2 = ImmersionCertificate(
        vertex_map={"y": "x"}, edge_map={"l": frozenset(G2.edges)}, strong=True
    )
    assert verify_immersion(G2, H, cert2) == []


_MESSAGE_KINDS = (
    "not injective", "share host edge", "no cycle through",
    "misses an endpoint", "not connected", "branch vertex",
)


def _random_certificate(rng, G, H):
    """A found certificate with up to two random edits, or a random one."""
    r = find_immersion(G, H, strong=rng.random() < 0.5, budget=2000)
    if r.status != FOUND:
        gverts, gedges = sorted(G.vertices), sorted(G.edges)
        return ImmersionCertificate(
            vertex_map={v: rng.choice(gverts) for v in sorted(H.vertices)},
            edge_map={
                e: frozenset(rng.sample(gedges, rng.randint(0, min(3, len(gedges)))))
                for e in sorted(H.edges)
            },
            strong=False,
        )
    vm = dict(r.certificate.vertex_map)
    em = dict(r.certificate.edge_map)
    for _ in range(rng.randint(0, 2)):
        if vm and rng.random() < 0.3:
            vm[rng.choice(sorted(vm))] = rng.choice(sorted(G.vertices))
        elif em:
            he = rng.choice(sorted(em))
            ge = rng.choice(sorted(G.edges))
            em[he] = em[he] - {ge} if ge in em[he] else em[he] | {ge}
    return ImmersionCertificate(vm, em, r.certificate.strong)


def test_verifier_agrees_with_the_edge_scanning_oracle():
    rng = random.Random(20140)
    kinds = {kind: 0 for kind in _MESSAGE_KINDS}
    accepted = 0
    for _ in range(2000):
        G = random_multigraph(rng, max_n=6, max_edges=10)
        H = random_multigraph(rng, max_n=3, max_edges=3)
        cert = _random_certificate(rng, G, H)
        for strong in (True, False):
            got = verify_immersion(G, H, cert, strong)
            assert got == oracle_verify.violations(G, H, cert, strong), (
                sorted(G.edges.values()), sorted(H.edges.values()), cert, strong
            )
            accepted += not got
            for msg in got:
                for kind in kinds:
                    kinds[kind] += kind in msg
    assert accepted > 0
    assert all(kinds.values()), kinds


def _path_and_k2(n):
    """The path v0 - ... - v(n-1) on edges e1..e(n-1), and K2 on x and y."""
    G = Multigraph(
        frozenset(f"v{i}" for i in range(n)),
        {f"e{i}": (f"v{i - 1}", f"v{i}") for i in range(1, n)},
    )
    return G, mg("xy", {"p": "xy"})


def test_verifying_reads_the_named_host_edges_and_builds_no_index():
    G = mg("abc", {"1": "ab", "2": "bc", "3": "ac"})
    H = mg("abc", {"1": "ab", "2": "bc", "3": "ac"})
    good = identity_cert(G)
    bad = ImmersionCertificate({**good.vertex_map, "a": "b"}, good.edge_map, True)
    assert verify_immersion(G, H, good) == []
    assert verify_immersion(G, H, bad)[0] == "vertex_map not injective: ['a', 'b'] all map to 'b'"
    assert "index" not in vars(G) and "index" not in vars(H)

    # a K2 whose image is a whole 20,000-vertex path, then the path less
    # one middle edge; the oracle, which scans the image once per vertex it
    # visits, gives the same message on a short path
    for n in (40, 20000):
        G, H = _path_and_k2(n)
        vm = {"x": "v0", "y": f"v{n - 1}"}
        whole = ImmersionCertificate(vm, {"p": frozenset(G.edges)}, True)
        cut = ImmersionCertificate(vm, {"p": frozenset(G.edges) - {f"e{n // 2}"}}, True)
        assert verify_immersion(G, H, whole) == []
        assert verify_immersion(G, H, cut) == ["edge 'p': image is not connected"]
        if n < 100:
            assert oracle_verify.violations(G, H, cut, True) == verify_immersion(G, H, cut)
        assert "index" not in vars(G) and "index" not in vars(H)


def test_k3_in_p2_weak_yes_strong_no():
    G = gen_pk(2)
    K3 = gen_complete(3)
    assert find_immersion(G, K3, strong=False).status == FOUND
    assert find_immersion(G, K3, strong=True).status == ABSENT


def test_k1_always_found():
    r = find_immersion(gen_pk(2), gen_complete(1), strong=True)
    assert r.status == FOUND


def test_found_certificates_verify():
    G = mg("abc", {"1": "ab", "2": "ab", "3": "bc", "4": "ac"})
    H = mg("xy", {"p": "xy", "q": "xy"})
    r = find_immersion(G, H, strong=True)
    assert r.status == FOUND
    assert verify_immersion(G, H, r.certificate, strong=True) == []


def test_budget_exhaustion_reported():
    G = gen_pk(4)
    K3 = gen_complete(3)
    assert find_immersion(G, K3, strong=True, budget=5).status == BUDGET


def test_a_negative_budget_is_rejected_and_zero_is_a_budget():
    G = gen_pk(4)
    K3 = gen_complete(3)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        find_immersion(G, K3, strong=True, budget=-1)
    assert find_immersion(G, K3, strong=True, budget=0).status == BUDGET


def test_strong_certificate_also_verifies_weakly():
    G = gen_pk(3)
    H = mg("xy", {"p": "xy", "q": "xy", "r": "xy"})
    r = find_immersion(G, H, strong=True)
    assert r.status == FOUND
    assert verify_immersion(G, H, r.certificate, strong=False) == []


# -- parallel host edges ----------------------------------------------

# Without the parallel-edge rule K4 in pk_chorded(5) alone takes over 1.2M
# steps.  With it the largest of these, K4 in pk_chorded(6), takes 67,624
# steps, and twin breaking brings that down to 1,490.
PRUNED_BUDGET = 200_000


@pytest.mark.parametrize(
    "host, pattern",
    [
        (gen_pk(6), gen_complete(3)),
        (gen_pk(7), gen_complete(3)),
        (gen_pk_chorded(5), gen_complete(4)),
        (gen_pk_chorded(6), gen_complete(4)),
    ],
    ids=["K3-in-pk6", "K3-in-pk7", "K4-in-pk_chorded5", "K4-in-pk_chorded6"],
)
def test_witness_family_absent_within_budget(host, pattern):
    r = find_immersion(host, pattern, strong=True, budget=PRUNED_BUDGET)
    assert r.status == ABSENT


@pytest.mark.parametrize(
    "host, pattern",
    [
        # the host's only cycle is the parallel pair a-b
        (mg("abc", {"1": "ab", "2": "ab", "3": "bc"}), mg("x", {"l": "xx"})),
        (mg("ab", {"1": "ab", "2": "ab", "3": "ab"}), mg("xy", {"p": "xy", "q": "xy"})),
        (
            mg("abc", {"1": "ab", "2": "ab", "3": "bc", "4": "bc", "5": "ac", "6": "ac"}),
            gen_complete(3),
        ),
        # two loops at one vertex: the first loop routes, the second must too
        (mg("a", {"1": "aa", "2": "aa"}), mg("x", {"l": "xx", "m": "xx"})),
        (mg("ab", {"1": "aa", "2": "ab", "3": "ab"}), mg("x", {"l": "xx", "m": "xx"})),
    ],
    ids=["loop-on-pair", "pair-in-triple", "K3-in-doubled-triangle",
         "two-loops-on-two-loops", "two-loops-on-loop-and-pair"],
)
@pytest.mark.parametrize("strong", [True, False])
def test_solutions_only_through_parallel_copies_are_found(host, pattern, strong):
    r = find_immersion(host, pattern, strong=strong)
    assert r.status == FOUND
    assert verify_immersion(host, pattern, r.certificate, strong) == []


def test_cycles_yields_each_cycle_once():
    loop = mg("x", {"l": "xx"})

    def cycles(G, v):
        """The routes the search offers the loop when its vertex maps to v."""
        searcher = _Searcher(G, loop, strong=False, budget=None)
        return [c.edge_map["l"] for c in searcher.immersions() if c.vertex_map["x"] == v]

    triangle = mg("123", {"a": "12", "b": "23", "c": "13"})
    assert cycles(triangle, "1") == [frozenset("abc")]
    # K4: three triangles and three 4-cycles pass through each vertex
    routes = cycles(gen_complete(4), "v0")
    assert len(routes) == len(set(routes)) == 6


def test_oracle_agreement_on_hosts_with_many_parallel_edges():
    patterns = [(H, canonical_key(H)) for H in multigraph_classes(4, 5)]
    for seed in range(12):
        G = gen_random_multigraph(5, 8, 3, seed)
        closures = {True: strong_closure(G), False: weak_closure(G)}
        for H, key in patterns:
            for strong in (True, False):
                got = find_immersion(G, H, strong=strong).status == FOUND
                assert got == (key in closures[strong]), (
                    f"seed {seed}, strong={strong}: host {sorted(G.edges.values())}"
                    f" pattern {sorted(H.edges.values())}: search={got}"
                )


# -- pruning by slack, twins and degree domination --------------------

# Loops and parallel edges; K_{2,2} has two twin classes; in the last two,
# c's nearest earlier twin is a, past the equal-degree non-twin b.
PRUNING_PATTERNS = {
    "K4": gen_complete(4),
    "two-twin-classes": mg("abcd", {"1": "ac", "2": "ad", "3": "bc", "4": "bd"}),
    "twins-with-loops-and-pair": mg(
        "abc", {"1": "aa", "2": "bb", "3": "ab", "4": "ab", "5": "ac", "6": "bc"}
    ),
    "non-twin-between-degree-2-twins": mg(
        "abcx", {"1": "ax", "2": "ax", "3": "cx", "4": "cx", "5": "bb"}
    ),
    "non-twin-between-degree-1-twins": mg(
        "abcxy", {"1": "ax", "2": "cx", "3": "by", "4": "xy", "5": "xy"}
    ),
}


def _answer(result):
    cert = result.certificate
    return result.status, None if cert is None else json.dumps(
        immersion_to_json(cert), sort_keys=True
    )


def test_pruned_search_gives_the_oracle_certificates():
    statuses = []
    for name, H in sorted(PRUNING_PATTERNS.items()):
        for seed in range(12):
            n = 5 + seed % 3
            G = gen_random_multigraph(n, 2 * n + seed % 5, 2, seed)
            for strong in (True, False):
                want = _answer(oracle_search.find_immersion(G, H, strong=strong))
                got = _answer(find_immersion(G, H, strong=strong))
                assert got == want, f"{name}, host seed {seed}, strong={strong}"
                statuses.append(want[0])
    assert statuses.count(FOUND) >= 80 and statuses.count(ABSENT) >= 10


def test_residual_slack_finds_weak_k5_in_a_random_host():
    # Without the slack rule the search routes paths through branch images
    # whose remaining pattern edges then have no free host edge, and it
    # exhausts a 2,000,000-step budget; with the rule it takes 36 steps.
    G = gen_random_multigraph(9, 32, 2, 7)
    K5 = gen_complete(5)
    r = find_immersion(G, K5, strong=False, budget=5_000)
    assert r.status == FOUND
    assert verify_immersion(G, K5, r.certificate, strong=False) == []


def test_twin_breaking_refutes_strong_k4_in_pk_chorded_7():
    # K4's four vertices are pairwise twins, so only one order of each
    # image set is tried: 5,951 steps, where every order takes 331,797.
    r = find_immersion(gen_pk_chorded(7), gen_complete(4), strong=True, budget=20_000)
    assert r.status == ABSENT


def test_degree_domination_answers_without_a_step():
    # enough vertices, edges and top degrees for K4, but only three
    # vertices of degree 3 or more
    G = mg(
        "abcde",
        {"1": "ab", "2": "ab", "3": "bc", "4": "bc", "5": "ac", "6": "ac",
         "7": "ad", "8": "be"},
    )
    for strong in (True, False):
        r = find_immersion(G, gen_complete(4), strong=strong, budget=0)
        assert r.status == ABSENT
        assert r.steps == 0


# Hosts whose degrees and counts dominate K3's but which have fewer pairs in
# one component, or in one component once the bridges are removed.
@pytest.mark.parametrize(
    "host, counts",
    [
        (mg("abc", {"1": "ab", "2": "ab", "3": "cc"}), (1, 1)),
        (mg("abc", {"1": "ab", "2": "ab", "3": "bc", "4": "cc"}), (3, 1)),
    ],
    ids=["p1", "p2"],
)
def test_pair_counts_answer_without_a_step(host, counts):
    K3 = gen_complete(3)
    pairs = [(X.counts.p1, X.counts.p2) for X in (host, K3)]
    assert pairs == [counts, (3, 3)]
    for strong in (True, False):
        r = find_immersion(host, K3, strong=strong, budget=0)
        assert r.status == ABSENT
        assert r.steps == 0
        assert oracle_search.find_immersion(host, K3, strong=strong).status == ABSENT


# One query per rule that needs more than counts, degrees and pair counts;
# each passes the rules before it.
@pytest.mark.parametrize(
    "host, pattern, strong",
    [
        # the pattern's cycle rank 2 exceeds the star's 0
        (mg("cabde", {"1": "ca", "2": "cb", "3": "cd", "4": "ce"}),
         mg("a", {"l": "aa", "m": "aa"}), False),
        # five pattern loops and three host loops: two loops take a route
        # each, two host edges or more, and the host has one edge to spare
        (mg("xy", {"1": "xx", "2": "xx", "3": "xx", "4": "xy", "5": "xy", "6": "xy"}),
         mg("ab", {"1": "aa", "2": "aa", "3": "aa", "4": "aa", "5": "bb"}), False),
        # no host loop: three loop routes, each through the one vertex that
        # is no branch image, which carries at most deg // 2 = 2 of them
        (mg("xyz", {"1": "xy", "2": "xy", "3": "xy", "4": "xy", "5": "xz", "6": "yz"}),
         mg("ab", {"1": "aa", "2": "aa", "3": "bb"}), True),
        # the one pattern pair that no host edge joins needs a vertex that
        # is no branch image, and pk_chorded(3) has only K4's four vertices
        (gen_pk_chorded(3), gen_complete(4), True),
    ],
    ids=["rank", "edge-budget", "spare-vertices", "strong-K4-in-pk_chorded3"],
)
def test_cycle_rank_and_direct_edges_answer_without_a_step(host, pattern, strong):
    r = find_immersion(host, pattern, strong, budget=0)
    assert r.status == ABSENT
    assert r.steps == 0
    assert oracle_search.find_immersion(host, pattern, strong=strong).status == ABSENT


# A table that is never consulted changes no answer and no step count, so
# its hits and the steps they charge are pinned.  Every hit of the second
# row, a pattern with parallel edges, is at a level j whose earlier routes
# hold j + 1 edges; the first row has no such hit.
@pytest.mark.parametrize(
    "host, pattern, found, hits, charged, steps",
    [
        (gen_random_multigraph(8, 30, 2, 11), gen_complete(5), True, 374, 5167, 9263),
        (gen_complete(4), mg("abc", {"1": "ab", "2": "ab", "3": "ac", "4": "cc"}),
         False, 24, 96, 473),
    ],
    ids=["weak-K5-in-random-11", "weak-doubled-edge-and-loop-in-K4"],
)
def test_the_refuted_state_table_is_consulted(host, pattern, found, hits, charged, steps):
    searcher = _Searcher(host, pattern, False, None)
    assert (next(searcher.immersions(), None) is not None) == found
    assert (searcher.refuted_hits, searcher.refuted_steps, searcher.steps) == (hits, charged, steps)


def _direct_edge_need(G, H):
    """The fewest pattern edges that no single host edge can carry, the
    minimum over every injective vertex map of the pattern edges beyond
    the host edges between their ends' images (host loops, for a loop)."""
    def multiplicity(X):
        count = {}
        for a, b in X.edges.values():
            count[a, b] = count.get((a, b), 0) + 1
        return count

    gmult, hmult = multiplicity(G), multiplicity(H)
    hnames = sorted(H.vertices)
    best = None
    for images in itertools.permutations(sorted(G.vertices), len(hnames)):
        phi = dict(zip(hnames, images))
        need = 0
        for (a, b), k in hmult.items():
            u, v = sorted((phi[a], phi[b]))
            need += max(0, k - gmult.get((u, v), 0))
        best = need if best is None else min(best, need)
    return best


def test_a_query_ruled_out_before_the_search_has_no_immersion():
    # pattern edges become edge-disjoint paths between distinct branch
    # vertices, so the host has at least as many pairs joined by one path,
    # and by two edge-disjoint paths, as the pattern, at least its cycle
    # rank, and room for the routes that no single host edge carries:
    # spare edges, and for a strong immersion spare vertices
    rng = random.Random(2214)
    by_pairs = 0
    rules = dict.fromkeys(("rank", "edges", "vertices"), 0)
    for _ in range(5000):
        G = random_multigraph(rng, max_n=6, max_edges=8)
        H = random_multigraph(rng, max_n=4, max_edges=5)
        g, h = G.counts, H.counts
        spare = len(G.vertices) - len(H.vertices)
        room = len(G.edges) - len(H.edges)
        counted = (
            spare >= 0 and room >= 0 and h.p1 <= g.p1 and h.p2 <= g.p2
            and all(map(operator.le, h.degree_sequence, g.degree_sequence))
        )
        if counted:
            # matching the sorted multiplicities bounds the fewest such
            # routes from below
            need = sum(
                max(0, hk - gk)
                for hs, gs in [(h.pair_multiplicities, g.pair_multiplicities),
                               (h.loop_counts, g.loop_counts)]
                for hk, gk in itertools.zip_longest(hs, gs, fillvalue=0)
            )
            assert need <= _direct_edge_need(G, H)
        for strong in (True, False):
            if find_immersion(G, H, strong=strong, budget=0).status == ABSENT:
                assert oracle_search.find_immersion(G, H, strong=strong).status == ABSENT
                by_pairs += h.p1 > g.p1 or h.p2 > g.p2
                if not counted:
                    continue
                if h.cycle_rank > g.cycle_rank:
                    rules["rank"] += 1
                elif need > room:
                    rules["edges"] += 1
                elif strong and need > g.spare_capacity[spare]:
                    rules["vertices"] += 1
    assert by_pairs >= 500
    assert rules["rank"] >= 50 and rules["edges"] >= 10 and rules["vertices"] >= 25, rules


# -- the explicit search stack -----------------------------------------


def cycle_graph(n):
    return Multigraph(
        frozenset(f"c{i}" for i in range(n)),
        {f"e{i}": (f"c{i}", f"c{(i + 1) % n}") for i in range(n)},
    )


@pytest.mark.parametrize("n", [1200, 3000])
@pytest.mark.parametrize("strong", [True, False])
def test_double_edge_routes_around_a_long_cycle(n, strong):
    # one route is an edge, the other the rest of the cycle: a path of
    # n - 1 vertices, deeper than the interpreter's recursion limit
    G = cycle_graph(n)
    H = mg("ab", {"p": "ab", "q": "ab"})
    r = find_immersion(G, H, strong=strong)
    assert r.status == FOUND
    assert verify_immersion(G, H, r.certificate, strong) == []
    assert sorted(map(len, r.certificate.edge_map.values())) == [1, n - 1]


LOOP_HOST = mg(
    "abcd",
    {"1": "aa", "2": "ab", "3": "ab", "4": "bc", "5": "bc", "6": "cc", "7": "ac",
     "8": "cd", "9": "bd", "10": "dd"},
)
LOOPS_ON_A_PAIR = mg("xy", {"l": "xx", "p": "xy", "q": "xy", "m": "yy"})
C4 = mg("abcd", {"1": "ab", "2": "bc", "3": "cd", "4": "ad"})


# Step counts of the depth-first order, pinned where the budget runs out:
# the query answers with its count and returns "budget" with one step less,
# where the search itself yields nothing and stops at its count, budget + 1.
# Both results report that count.
@pytest.mark.parametrize(
    "host, pattern, strong, steps, status",
    [
        (gen_random_multigraph(8, 30, 2, 7), gen_complete(5), False, 29, FOUND),
        (gen_pk_chorded(7), gen_complete(4), True, 5951, ABSENT),
        (gen_pk_chorded(5), gen_complete(4), True, 355, ABSENT),
        (gen_pk(4), gen_complete(5), False, 43, ABSENT),
        # a loop routed on a host loop, and one routed round a parallel pair
        (LOOP_HOST, LOOPS_ON_A_PAIR, False, 12, FOUND),
        (LOOP_HOST, LOOPS_ON_A_PAIR, True, 12, FOUND),
        # hosts where route states repeat under one assignment; the weak
        # K5s close their routes early, and many of the strong query's
        # steps are charged for subtrees that are skipped
        (gen_random_multigraph(8, 30, 2, 3), gen_complete(5), False, 31, FOUND),
        (gen_random_multigraph(8, 30, 2, 0), gen_complete(5), False, 34, FOUND),
        (gen_random_multigraph(8, 30, 2, 11), gen_complete(5), True, 19444, ABSENT),
        # the thickest host: every path step drops a whole parallel class
        (gen_pk_chorded(8), gen_complete(4), True, 22803, ABSENT),
    ],
    ids=["weak-K5-in-random", "strong-K4-in-pk_chorded7",
         "strong-K4-in-pk_chorded5", "weak-K5-in-pk4",
         "weak-loops-on-a-pair", "strong-loops-on-a-pair",
         "weak-K5-in-random-3", "weak-K5-in-random-0", "strong-K5-in-random-11",
         "strong-K4-in-pk_chorded8"],
)
def test_budget_boundary_pins_the_search_order(host, pattern, strong, steps, status):
    answered = find_immersion(host, pattern, strong, budget=steps)
    assert answered.status == status
    assert answered.steps == steps
    spent = find_immersion(host, pattern, strong, budget=steps - 1)
    assert spent.status == BUDGET
    assert spent.steps == steps
    searcher = _Searcher(host, pattern, strong, budget=steps - 1)
    assert list(searcher.immersions()) == []
    assert searcher.steps == steps


DOUBLED_K4 = Multigraph(
    gen_complete(4).vertices,
    {f"{e}{c}": ends for e, ends in gen_complete(4).edges.items() for c in "ab"},
)


# A search of S steps, where the assignment descends several levels in one
# pass, under every budget: each budget b below S runs out at b + 1 steps,
# and S gives the answer of the unlimited search.
@pytest.mark.parametrize(
    "host, pattern, strong, steps, status",
    [
        (gen_complete(1), Multigraph(frozenset(), {}), False, 2, FOUND),
        (gen_complete(3), mg("xyz", {}), True, 5, FOUND),
        (gen_pk(3), gen_complete(3), False, 12, FOUND),
        (gen_pk(3), gen_complete(3), True, 35, ABSENT),
        (DOUBLED_K4, gen_complete(4), True, 18, FOUND),
        (gen_random_multigraph(6, 16, 2, 4), gen_complete(4), False, 1952, FOUND),
    ],
    ids=["empty-in-K1", "strong-3-isolated-in-K3", "weak-K3-in-pk3",
         "strong-K3-in-pk3", "strong-K4-in-doubled-K4", "weak-K4-in-random-4"],
)
def test_every_budget_runs_out_below_the_step_count(host, pattern, strong, steps, status):
    unlimited = find_immersion(host, pattern, strong)
    assert unlimited.status == status
    for budget in range(steps):
        spent = find_immersion(host, pattern, strong, budget=budget)
        assert spent.status == BUDGET
        assert spent.steps == budget + 1
    assert find_immersion(host, pattern, strong, budget=steps) == unlimited


# Every immersion the search reaches and its step count at exhaustion, as
# the search without the refuted-state table gives them: a skipped subtree
# holds no immersion, and its steps are charged.
@pytest.mark.parametrize(
    "host, pattern, strong, count, steps",
    [
        (gen_random_multigraph(6, 14, 2, 1), gen_complete(3), False, 78, 770),
        (gen_random_multigraph(6, 14, 2, 1), gen_complete(3), True, 34, 561),
        (gen_random_multigraph(6, 16, 2, 4), gen_complete(4), False, 277, 13620),
        (gen_random_multigraph(7, 14, 2, 2), C4, False, 1442, 25669),
        # the assignment backtracks at depth
        (gen_complete(5), mg("xyz", {}), True, 10, 36),
        (gen_complete(5), mg("abc", {"p": "ab"}), True, 150, 376),
        (gen_pk(3), mg("abc", {"p": "ab"}), False, 12, 75),
    ],
    ids=["weak-K3", "strong-K3", "weak-K4", "weak-C4",
         "strong-3-isolated-twins-in-K5", "strong-edge-and-vertex-in-K5",
         "weak-edge-and-vertex-in-pk3"],
)
def test_enumeration_pins_the_immersions_and_steps(host, pattern, strong, count, steps):
    searcher = _Searcher(host, pattern, strong, budget=None)
    found = []
    for cert in searcher.immersions():
        assert verify_immersion(host, pattern, cert, strong) == []
        found.append(json.dumps(immersion_to_json(cert), sort_keys=True))
    assert (len(found), len(set(found)), searcher.steps) == (count, count, steps)


# -- star-minor-to-immersion ------------------------------------------


def hub_host(multiplicity):
    edges = {}
    for i, h in enumerate(("h1", "h2", "h3")):
        for c in range(multiplicity):
            edges[f"e{i}c{c}"] = ("c", h)
    return mg(["c", "h1", "h2", "h3"], edges)


def test_k1_pattern_gives_empty_edge_map():
    G = hub_host(2)
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"h1", "h2"}),
        tree=sg(["c", "h1", "h2"], [("c", "h1"), ("c", "h2")]),
    )
    cert = star_minor_to_immersion(G, {"c", "h1", "h2", "h3"}, 2, model, mg("u", {}))
    assert cert.edge_map == {}
    assert set(cert.vertex_map) == {"u"}


def test_single_edge_pattern_concatenates_two_paths():
    G = mg(
        ["z1", "c", "z2"],
        {"a1": ("z1", "c"), "a2": ("z1", "c"), "b1": ("c", "z2"), "b2": ("c", "z2")},
    )
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"z1", "z2"}),
        tree=sg(["c", "z1", "z2"], [("c", "z1"), ("c", "z2")]),
    )
    F = mg("uv", {"e": "uv"})
    cert = star_minor_to_immersion(G, G.vertices, 2, model, F)
    assert verify_immersion(G, F, cert, strong=True) == []
    assert len(cert.edge_map["e"]) == 2


def test_k3_pattern_through_hub_star():
    G = hub_host(6)
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"h1", "h2", "h3"}),
        tree=sg(["c", "h1", "h2", "h3"], [("c", "h1"), ("c", "h2"), ("c", "h3")]),
    )
    F = gen_complete(3)
    cert = star_minor_to_immersion(G, G.vertices, 6, model, F)
    assert verify_immersion(G, F, cert, strong=True) == []
    assert sorted(cert.vertex_map.values()) == ["h1", "h2", "h3"]


def test_m_too_small_for_pattern_rejected():
    G = hub_host(6)
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"h1", "h2", "h3"}),
        tree=sg(["c", "h1", "h2", "h3"], [("c", "h1"), ("c", "h2"), ("c", "h3")]),
    )
    with pytest.raises(ValueError):
        star_minor_to_immersion(G, G.vertices, 4, model, gen_complete(3))


def test_invalid_model_rejected():
    G = hub_host(6)
    bad = StarMinorModel(
        center="h1",
        leaves=frozenset({"c"}),
        tree=sg(["c", "h1"], [("c", "h1")]),
    )
    with pytest.raises(ValueError):
        star_minor_to_immersion(G, G.vertices, 6, bad, gen_complete(1))


def test_star_minor_routes_avoid_used_leaves():
    # h3 routes last, and its shortest ways to c run through the used leaf
    # h1: directly (e-edges) or via s (a- and b-edges).  A route of h3
    # through h1 would put h1 in the image of the pattern edge between h2
    # and h3, so both paths of h3 must go round by t and u.
    parts = [("a", 2, "h3", "s"), ("b", 2, "s", "h1"), ("d", 8, "h1", "c"),
             ("e", 2, "h1", "h3"), ("w", 6, "h2", "c"), ("x", 6, "h3", "t"),
             ("y", 6, "t", "u"), ("z", 6, "u", "c")]
    G = mg(
        ["h1", "h2", "h3", "c", "s", "t", "u"],
        {f"{p}{i}": (v, w) for p, count, v, w in parts for i in range(count)},
    )
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"h1", "h2", "h3"}),
        tree=sg(["c", "h1", "h2", "h3"], [("c", "h1"), ("c", "h2"), ("c", "h3")]),
    )
    F = gen_complete(3)
    cert = star_minor_to_immersion(G, {"c", "h1", "h2", "h3"}, 6, model, F)
    assert verify_immersion(G, F, cert, strong=True) == []
    assert not any(e[0] in "abe" for es in cert.edge_map.values() for e in es)


STAR_PATTERNS = [
    gen_complete(1),
    gen_complete(2),
    gen_complete(3),
    mg("u", {"l": "uu"}),
    mg("uv", {"a": "uv", "b": "uv"}),
]


def test_star_minor_construction_on_random_hosts():
    built = transit = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(6, 10)
        G = gen_random_multigraph(n, rng.randint(2 * n, 4 * n), 3, seed)
        W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.8)
        F = rng.choice(STAR_PATTERNS)
        m = max(1, 2 * len(F.edges) + rng.randint(0, 1))
        if len(W) < 3:
            continue
        model = has_k1k_minor(build_auxiliary_graph(G, W, m), max(2, len(F.vertices)))
        if model is False:
            continue
        cert = star_minor_to_immersion(G, W, m, model, F)
        assert verify_immersion(G, F, cert, strong=True) == [], f"seed {seed}"
        built += 1
        ends = set(cert.vertex_map.values()) | {model.center}
        spanned = {x for es in cert.edge_map.values() for e in es for x in G.edges[e]}
        transit += bool(spanned - ends)
    assert built >= 50
    # some routes pass through vertices other than the leaves and the center
    assert transit >= 1


def test_star_minor_source_names_are_fresh():
    # the flow's source vertex and its edges get fresh names: on a host
    # that already has a vertex "source" and edges named "source':<k>",
    # the names the construction would try first, the certificate is the
    # one it gives on the same host under other names
    F = mg("uv", {"e": "uv"})
    model = StarMinorModel(
        center="c",
        leaves=frozenset({"h1", "h2"}),
        tree=sg(["c", "h1", "h2"], [("c", "h1"), ("c", "h2")]),
    )
    links = [("h1", "t"), ("h1", "t"), ("t", "c"), ("t", "c"), ("h2", "c"), ("h2", "c")]

    def host(transit, prefix):
        ends = [(transit if a == "t" else a, transit if b == "t" else b) for a, b in links]
        return mg(["c", "h1", "h2", transit], {f"{prefix}{k}": ab for k, ab in enumerate(ends)})

    plain = star_minor_to_immersion(host("t", "e:"), {"c", "h1", "h2"}, 2, model, F)
    G = host("source", "source':")
    taken = star_minor_to_immersion(G, {"c", "h1", "h2"}, 2, model, F)
    assert verify_immersion(G, F, taken, strong=True) == []
    assert taken.vertex_map == plain.vertex_map
    assert {e: {x.replace("source'", "e") for x in es} for e, es in taken.edge_map.items()} == (
        plain.edge_map
    )
