import json
import random
from collections import Counter

import pytest

import oracle_treecut
from immtools import (
    FailureWitness,
    LinearityCertificate,
    Multigraph,
    SimpleGraph,
    StructureDecomposition,
    TreeCutDecomposition,
    adhesion,
    canonical_key,
    compose_decompositions,
    edge_sum,
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    gen_random_multigraph,
    build_auxiliary_graph,
    has_k1k_minor,
    is_alpha_basic,
    is_grounded,
    linear_decompose,
    structure_decompose,
    torso_at,
    torsos,
    verify_linear_certificate,
    verify_structure,
)
from immtools import multigraph, treecut
from immtools.flow import FlowNetwork
from immtools.pathdecomp import NOT_PATH_SHAPED, SMALL_CUT, STAR_MINOR
from immtools.jsonio import structure_to_json
from helpers import mg


def single_node(G, name="n"):
    return TreeCutDecomposition(
        tree_nodes=frozenset({name}), tree_edges=frozenset(), bags={name: G.vertices}
    )


C4 = mg("abcd", {"1": "ab", "2": "bc", "3": "cd", "4": "ad"})
C4_SPLIT = TreeCutDecomposition(
    tree_nodes=frozenset({"p", "q"}),
    tree_edges=frozenset({frozenset({"p", "q"})}),
    bags={"p": frozenset({"a", "b"}), "q": frozenset({"c", "d"})},
)

TRI_A = mg(["a1", "a2", "a3"], {"t1": ("a1", "a2"), "t2": ("a2", "a3"), "t3": ("a1", "a3")})
TRI_B = mg(["b1", "b2", "b3"], {"u1": ("b1", "b2"), "u2": ("b2", "b3"), "u3": ("b1", "b3")})


def test_adhesion_single_node_is_zero():
    assert adhesion(C4, single_node(C4)) == 0


def test_adhesion_c4_two_bags():
    assert adhesion(C4, C4_SPLIT) == 2


def test_adhesion_p3_singleton_bags():
    G = gen_pk(3)
    D = TreeCutDecomposition(
        tree_nodes=frozenset({"t0", "t1", "t2", "t3"}),
        tree_edges=frozenset(
            {frozenset({"t0", "t1"}), frozenset({"t1", "t2"}), frozenset({"t2", "t3"})}
        ),
        bags={f"t{i}": frozenset({f"v{i}"}) for i in range(4)},
    )
    assert adhesion(G, D) == 3


def test_adhesion_rejects_malformed():
    bad = TreeCutDecomposition(
        tree_nodes=frozenset({"p", "q"}),
        tree_edges=frozenset({frozenset({"p", "q"})}),
        bags={"p": C4.vertices, "q": C4.vertices},
    )
    with pytest.raises(ValueError):
        adhesion(C4, bad)


def test_torso_single_node_is_g_itself():
    t = torso_at(C4, single_node(C4), "n")
    assert t.graph == C4
    assert t.core == C4.vertices
    assert t.peripheral == frozenset()


def test_torso_c4_split():
    t = torso_at(C4, C4_SPLIT, "p")
    assert len(t.graph.vertices) == 3
    assert t.core == frozenset({"a", "b"})
    (z,) = t.peripheral
    assert t.graph.degree(z) == 2


def test_torso_empty_bag_leaf():
    D = TreeCutDecomposition(
        tree_nodes=frozenset({"leaf", "rest"}),
        tree_edges=frozenset({frozenset({"leaf", "rest"})}),
        bags={"leaf": frozenset(), "rest": C4.vertices},
    )
    t = torso_at(C4, D, "leaf")
    assert len(t.graph.vertices) == 1
    assert len(t.graph.edges) == 0  # consolidation deletes the resulting loops
    assert t.core == frozenset()


def test_torso_unknown_node():
    with pytest.raises(ValueError):
        torso_at(C4, single_node(C4), "zz")


# -- shape checks ------------------------------------------------------


def _decomp(nodes, edges, bags):
    return TreeCutDecomposition(
        tree_nodes=frozenset(nodes),
        tree_edges=frozenset(frozenset(e) for e in edges),
        bags={n: frozenset(b) for n, b in bags.items()},
    )


def test_violation_no_nodes():
    D = _decomp([], [], {})
    assert D.violations(C4) == ["decomposition tree has no nodes"]


def test_violation_not_a_tree():
    D = _decomp("pq", [], {"p": "ab", "q": "cd"})
    assert D.violations(C4) == ["decomposition tree is not a tree"]


def test_violation_bag_index_set():
    D = _decomp("pq", ["pq"], {"p": "abcd"})
    assert D.violations(C4) == ["bag index set differs from the tree nodes"]
    cyclic = _decomp("pqr", ["pq", "qr", "pr"], {"p": "abcd", "q": "", "s": ""})
    assert cyclic.violations(C4) == [
        "decomposition tree is not a tree",
        "bag index set differs from the tree nodes",
    ]


def test_violation_overlapping_bags():
    D = _decomp("pq", ["pq"], {"p": "abc", "q": "cd"})
    assert D.violations(C4) == ["bags 'p' and 'q' both contain 'c'"]


def test_violation_missing_vertices():
    D = _decomp("pq", ["pq"], {"p": "a", "q": "c"})
    assert D.violations(C4) == ["bags miss vertices: ['b', 'd']"]


def test_violation_foreign_vertices():
    D = _decomp("pq", ["pq"], {"p": "abx", "q": "cdy"})
    assert D.violations(C4) == ["bags contain foreign vertices: ['x', 'y']"]


def test_violations_list_overlaps_in_node_order_then_the_cover():
    D = _decomp("pqr", ["pq", "qr"], {"r": "ax", "q": "b", "p": "ab"})
    assert D.violations(C4) == [
        "bags 'p' and 'q' both contain 'b'",
        "bags 'p' and 'r' both contain 'a'",
        "bags miss vertices: ['c', 'd']",
        "bags contain foreign vertices: ['x']",
    ]


def test_violations_are_not_bound_to_the_first_graph():
    G2 = mg("abce", {"1": "ab", "2": "bc", "3": "ce"})
    expected = ["bags miss vertices: ['e']", "bags contain foreign vertices: ['d']"]
    D = _decomp("pq", ["pq"], {"p": "ab", "q": "cd"})
    assert D.violations(C4) == []
    assert D.violations(G2) == expected
    D = _decomp("pq", ["pq"], {"p": "ab", "q": "cd"})
    assert D.violations(G2) == expected
    assert D.violations(C4) == []


def test_mutating_returned_violations_changes_nothing():
    D = _decomp("pq", [], {"p": "abc", "q": "cx"})
    first = D.violations(C4)
    assert len(first) == 4
    kept = list(first)
    first.clear()
    again = D.violations(C4)
    assert again == kept
    again.append("extra")
    assert D.violations(C4) == kept


def test_shape_is_checked_once_per_decomposition(monkeypatch):
    calls = []
    is_tree = SimpleGraph.is_tree
    monkeypatch.setattr(SimpleGraph, "is_tree", lambda T: calls.append(T) or is_tree(T))
    D = _decomp("pqr", ["pq", "qr"], {"p": "a", "q": "bc", "r": "d"})
    for t in "pqr":
        torso_at(C4, D, t)
    assert adhesion(C4, D) == 2
    assert len(calls) == 1


def _random_case(rng: random.Random):
    """A seeded random graph and a decomposition of it; about three in ten
    of the decompositions are malformed in one of seven ways."""
    n = rng.randint(1, 7)
    G = gen_random_multigraph(n, rng.randint(0, 2 * n), 2, rng.randrange(10**6))
    if rng.random() < 0.2:  # a vertex named like a peripheral vertex
        rename = {"v0": "peri:n1"}
        G = Multigraph(
            frozenset(rename.get(v, v) for v in G.vertices),
            {e: (rename.get(a, a), rename.get(b, b)) for e, (a, b) in G.edges.items()},
        )
    c = rng.randint(1, 6)
    nodes = [f"n{i}" for i in range(c)]
    edges = {frozenset((nodes[i], nodes[rng.randrange(i)])) for i in range(1, c)}
    bags = {x: set() for x in nodes}
    for v in sorted(G.vertices):
        bags[rng.choice(nodes)].add(v)
    flaw = rng.randrange(21)
    if flaw == 0 and edges:
        edges.remove(rng.choice(sorted(edges, key=sorted)))
    elif flaw == 1 and c >= 3:
        edges.add(frozenset(rng.sample(nodes, 2)))
    elif flaw == 2 and c >= 2:
        v = rng.choice(sorted(G.vertices))
        bags[rng.choice(nodes)].add(v)
    elif flaw == 3:
        v = rng.choice(sorted(G.vertices))
        for bag in bags.values():
            bag.discard(v)
    elif flaw == 4:
        bags[rng.choice(nodes)].add("x")
    elif flaw == 5 and rng.random() < 0.5:
        del bags[rng.choice(nodes)]
    elif flaw == 5:
        bags["zz"] = set()
    elif flaw == 6:
        nodes, edges, bags = [], set(), {}
    return G, _decomp(nodes, edges, bags)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compare the exception type, not the message
        return type(exc)


def test_queries_agree_with_the_per_edge_oracle():
    rng = random.Random(0x7C5)
    malformed = built = 0
    for _ in range(600):
        G, D = _random_case(rng)
        expected = oracle_treecut.violations(G, D)
        assert D.violations(G) == expected
        assert D.violations(G) == expected
        malformed += bool(expected)
        assert _outcome(adhesion, G, D) == _outcome(oracle_treecut.adhesion, G, D)
        every = _outcome(torsos, G, D)
        if isinstance(every, type):
            assert every is _outcome(oracle_treecut.torso_at, G, D, min(D.tree_nodes, default="zz"))
        else:
            assert every.keys() == D.tree_nodes
        for t in sorted(D.tree_nodes) + ["zz"]:
            got = _outcome(torso_at, G, D, t)
            expected = _outcome(oracle_treecut.torso_at, G, D, t)
            assert got == expected
            if not isinstance(got, type):
                assert every[t] == expected
                assert list(every[t].graph.edges.items()) == list(expected.graph.edges.items())
                built += 1
    assert 100 < malformed < 400
    assert built > 1000


# Peripheral names: the side toward n is named `peri:<n>`, with a `'` added
# while the name is taken by a vertex of the bag, by an earlier peripheral
# name, or by a vertex of a later side (but not of an earlier side, which
# the sequential consolidation has already removed).  The star has centre
# t and leaves in adjacency order; the vertex named `peri:...` sits where
# each case says.
_FRESHENING = {
    "bag": ({"t": ["a", "peri:x"], "x": ["b"], "y": ["c"]}, {"x": "peri:x'", "y": "peri:y"}),
    "earlier side": ({"t": ["a"], "x": ["peri:y"], "y": ["c"]}, {"x": "peri:x", "y": "peri:y"}),
    "later side": ({"t": ["a"], "x": ["b"], "y": ["peri:x"]}, {"x": "peri:x'", "y": "peri:y"}),
    "earlier name": (
        {"t": ["a"], "y": ["b"], "y'": ["peri:y"]}, {"y": "peri:y'", "y'": "peri:y''"},
    ),
}


@pytest.mark.parametrize("case", sorted(_FRESHENING))
def test_peripheral_names_are_freshened_like_sequential_consolidation(case):
    bags, names = _FRESHENING[case]
    leaves = sorted(set(bags) - {"t"})
    G = mg(
        [v for bag in bags.values() for v in bag],
        {f"e{i}": (bags["t"][0], bags[n][0]) for i, n in enumerate(leaves)},
    )
    D = _decomp(bags, [("t", n) for n in leaves], bags)
    got = torsos(G, D)
    for t in D.tree_nodes:
        expected = oracle_treecut.torso_at(G, D, t)
        assert got[t] == expected
        assert list(got[t].graph.edges.items()) == list(expected.graph.edges.items())
    assert got["t"].peripheral == frozenset(names.values())
    for i, n in enumerate(leaves):
        assert got["t"].graph.edges[f"e{i}"] == tuple(sorted((bags["t"][0], names[n])))


def _beads(n):
    """A path on n vertices in which every third link is single and the
    others triple: alpha 3 splits it at the single links."""
    edges = {}
    for i in range(n - 1):
        for c in range(1 if i % 3 == 2 else 3):
            edges[f"e{i}c{c}"] = (f"v{i}", f"v{i + 1}")
    return mg([f"v{i}" for i in range(n)], edges)


def _necklace(blocks, size):
    """A ring of doubled K_size blocks joined by single edges: every cut
    around a run of blocks has 2 edges."""
    edges = {}
    for b in range(blocks):
        for i in range(size):
            for j in range(i + 1, size):
                for c in range(2):
                    edges[f"b{b}e{i}{j}c{c}"] = (f"b{b}v{i}", f"b{b}v{j}")
        edges[f"link{b}"] = (f"b{b}v0", f"b{(b + 1) % blocks}v1")
    return mg([f"b{b}v{i}" for b in range(blocks) for i in range(size)], edges)


@pytest.mark.parametrize("G, alpha", [(_beads(60), 3), (_necklace(6, 4), 4)])
def test_each_torso_is_built_once(monkeypatch, G, alpha):
    calls = []
    build = treecut.torsos

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(treecut, "torsos", counted)
    r = structure_decompose(G, alpha)
    assert isinstance(r, StructureDecomposition)
    assert len(r.decomposition.tree_nodes) > 4
    assert len(calls) == 1
    assert verify_structure(G, r.decomposition, r.certificates, alpha) == []
    assert len(calls) == 2
    adhesion(G, r.decomposition)
    torso_at(G, r.decomposition, min(r.decomposition.tree_nodes))
    # torsos are built in one pass, and the split loop works on flow
    # networks: nothing in treecut consolidates a graph
    assert not hasattr(treecut, "consolidate")


def _path(n, links=1):
    """P_n with every link repeated `links` times."""
    edges = {
        f"e{i}c{c}": (f"v{i}", f"v{i + 1}") for i in range(n - 1) for c in range(links)
    }
    return mg([f"v{i}" for i in range(n)], edges)


def _structure_inputs():
    """Seeded random multigraphs, paths, necklaces and the witness family."""
    rng = random.Random(5)
    graphs = []
    for seed in range(120):
        n = rng.randint(1, 14)
        mult = rng.randint(1, 3)
        m = rng.randint(0, min(3 * n, n * (n + 1) // 2 * mult))
        graphs.append(gen_random_multigraph(n, m, mult, seed=seed))
    graphs += [_path(30), _path(25, 2), _beads(40), _necklace(5, 3), _necklace(6, 4)]
    graphs += [gen_pk(k) for k in range(2, 7)] + [gen_pk_chorded(k) for k in range(3, 6)]
    return graphs


def _same_tree(D, E):
    """D and E agree up to the renaming that maps the i-th smallest node
    name of one to that of the other: a bijection of node names that also
    keeps their order, so torsos, certificates and failures come out in
    the same order."""
    rename = dict(zip(sorted(D.tree_nodes), sorted(E.tree_nodes)))
    return (
        len(D.tree_nodes) == len(E.tree_nodes)
        and all(D.bags[n] == E.bags[rename[n]] for n in D.tree_nodes)
        and {frozenset(map(rename.get, e)) for e in D.tree_edges} == E.tree_edges
    )


def test_split_loop_matches_the_recursion():
    splits = zero_cuts = 0
    for G in _structure_inputs():
        for alpha in range(1, 6):
            got = treecut._structure_tree(G, alpha)
            want = oracle_treecut.structure_tree(G, alpha)
            assert _same_tree(got, want), (sorted(G.vertices), G.edges, alpha)
            assert got.violations(G) == []
            splits += len(got.tree_nodes) - 1
            zero_cuts += any(
                T.graph.degree(z) == 0 for T in torsos(G, got).values() for z in T.peripheral
            )
    assert splits > 400 and zero_cuts > 20


def _long_structure_inputs():
    """(graph, alpha) pairs: long paths, necklaces, and seeded random
    multigraphs on up to 30 vertices at alpha 1 to 5."""
    cases = [(_path(300), 2), (_path(200, 2), 3)]
    cases += [(_necklace(b, k), a) for b, k in ((20, 3), (12, 4)) for a in (2, 3, 4)]
    rng = random.Random(11)
    for seed in range(40):
        n, mult = rng.randint(2, 30), rng.randint(1, 3)
        m = rng.randint(0, min(3 * n, n * (n + 1) // 2 * mult))
        G = gen_random_multigraph(n, m, mult, seed=seed)
        cases += [(G, alpha) for alpha in range(1, 6)]
    return cases


def test_split_loop_matches_the_recursion_on_long_inputs(monkeypatch):
    # the loop keeps the larger side of a split on its parent's network,
    # copies the smaller one, and copies a network again once most of it
    # is dead; whichever side moves, the splits are the recursion's
    seen = Counter()
    split, first_violation = FlowNetwork.split, treecut._first_violation

    def watched_split(self, side, glue=None, rest_glue=None):
        seen["split calls"] += 1
        if glue is not None:
            seen["X moved" if set(side) == set(self.residual_side) else "Y moved"] += 1
        return split(self, side, glue, rest_glue)

    def watched_violation(net, W, k):
        found = first_violation(net, W, k)
        if found is not None:
            seen["splits"] += 1
            seen["zero cuts"] += found[1] == 0
        return found

    monkeypatch.setattr(FlowNetwork, "split", watched_split)
    monkeypatch.setattr(treecut, "_first_violation", watched_violation)
    for G, alpha in _long_structure_inputs():
        got = treecut._structure_tree(G, alpha)
        want = oracle_treecut.structure_tree(G, alpha)
        assert _same_tree(got, want), (sorted(G.vertices), G.edges, alpha)
    compactions = seen["split calls"] - seen["splits"]
    assert min(seen["X moved"], seen["Y moved"], seen["zero cuts"], compactions) > 10, seen


def test_a_network_whose_arcs_are_mostly_dead_is_copied(monkeypatch):
    # a dense block hung off a long path: the block is the smaller side by
    # vertices but holds most of the arcs, so once it moves out the kept
    # network is copied while more than half of its nodes are still live
    compactions = []
    split = FlowNetwork.split

    def watched_split(self, side, glue=None, rest_glue=None):
        if glue is None and 2 * len(side) >= len(self.names):
            compactions.append(len(side))
        return split(self, side, glue, rest_glue)

    monkeypatch.setattr(FlowNetwork, "split", watched_split)
    for n, size, links, alpha in ((30, 6, 5, 2), (40, 6, 3, 3)):
        G = _path(n, alpha - 1)
        edges = dict(G.edges)
        for i in range(size):
            for j in range(i + 1, size):
                edges.update({f"b{i}b{j}c{c}": (f"b{i}", f"b{j}") for c in range(links)})
        edges["join"] = (f"v{n - 1}", "b0")
        G = mg(sorted(G.vertices) + [f"b{i}" for i in range(size)], edges)
        compactions.clear()
        got = treecut._structure_tree(G, alpha)
        assert _same_tree(got, oracle_treecut.structure_tree(G, alpha))
        assert compactions, (n, size, links, alpha)


def test_structure_of_a_long_path_is_fast_in_flows(monkeypatch):
    # P_1600 at alpha 2 splits 1,597 times with one flow each, the pair
    # test (no flow checks a glue vertex for groundedness); every torso
    # is a single high vertex, so certifying them runs no flow
    flows = []
    max_flow = FlowNetwork.max_flow

    def counted(self, *args, **kwargs):
        flows.append(1)
        return max_flow(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    G = _path(1600)
    r = structure_decompose(G, 2)
    assert isinstance(r, StructureDecomposition)
    assert len(r.decomposition.tree_nodes) == 1598
    assert len(flows) <= 1600
    assert verify_structure(G, r.decomposition, r.certificates, 2) == []


def _structure_outcome(G, alpha):
    try:
        r = structure_decompose(G, alpha)
    except ValueError as exc:
        return ("limit", str(exc))
    if isinstance(r, FailureWitness):
        return ("failure", r.kind)
    assert verify_structure(G, r.decomposition, r.certificates, alpha) == []
    return ("success", len(r.decomposition.tree_nodes))


def test_structure_outcome_matches_the_recursion(monkeypatch):
    # a work limit low enough that a few linearity searches go over it, so
    # that the limit outcome is compared too
    monkeypatch.setattr(multigraph, "_WORK_LIMIT", 100)
    cases = [(G, alpha) for G in _structure_inputs() for alpha in range(1, 6)]
    got = [_structure_outcome(G, alpha) for G, alpha in cases]
    monkeypatch.setattr(treecut, "_structure_tree", oracle_treecut.structure_tree)
    want = [_structure_outcome(G, alpha) for G, alpha in cases]
    assert got == want
    kinds = {o[0] for o in got}
    assert kinds == {"success", "failure", "limit"}


def test_structure_certificates_hold_at_their_achieved_values():
    # every torso certificate that structure_decompose emits is accepted
    # on its torso at its own achieved a, w and p, and so at alpha
    rng = random.Random(0x57C)
    certified = ordered = removed = 0
    for seed in range(300):
        n, mult = rng.randint(1, 12), rng.randint(1, 3)
        m = rng.randint(0, min(3 * n, n * (n + 1) // 2 * mult))
        G = gen_random_multigraph(n, m, mult, seed=seed)
        alpha = rng.randint(1, 6)
        r = structure_decompose(G, alpha)
        if isinstance(r, FailureWitness):
            continue
        parts = torsos(G, r.decomposition)
        for t, cert in r.certificates.items():
            H = parts[t].graph
            W = frozenset(v for v, d in H.degrees.items() if d >= alpha)
            at = (cert.achieved_a, cert.achieved_w, cert.achieved_p)
            assert verify_linear_certificate(H, W, cert, *at) == [], (seed, t, at)
            assert verify_linear_certificate(H, W, cert, alpha, alpha, alpha) == [], (seed, t)
            certified += 1
            ordered += len(cert.decomposition.ordering) >= 3
            removed += bool(cert.A)
    assert certified > 300 and min(ordered, removed) > 20, (certified, ordered, removed)


def test_structure_certificate_of_a_long_path_stays_small():
    # every vertex of P_300 is its own node at alpha 2; the recursion named
    # nodes by one "1:"/"2:" prefix per level (up to 401 characters) and
    # its JSON certificate took 388 KB
    G = _path(300)
    r = structure_decompose(G, 2)
    assert isinstance(r, StructureDecomposition)
    assert len(r.decomposition.tree_nodes) == 298
    assert max(len(n) for n in r.decomposition.tree_nodes) <= 8
    assert len(json.dumps(structure_to_json(r))) < 100_000


# -- edge sums ---------------------------------------------------------


def test_edge_sum_of_triangles_is_c4():
    S = edge_sum(TRI_A, "a3", TRI_B, "b3", {"t2": "u2", "t3": "u3"})
    assert canonical_key(S) == canonical_key(C4)
    assert len(S.vertices) == len(TRI_A.vertices) + len(TRI_B.vertices) - 2
    assert len(S.edges) == len(TRI_A.edges) + len(TRI_B.edges) - 2


def test_edge_sum_bridge():
    G1 = mg(["a", "p1"], {"e": ("a", "p1")})
    G2 = mg(["b", "p2"], {"f": ("b", "p2")})
    S = edge_sum(G1, "p1", G2, "p2", {"e": "f"})
    assert S.vertices == frozenset({"a", "b"})
    assert len(S.edges) == 1


def test_edge_sum_p2_endpoints():
    G1 = gen_pk(2)
    G2 = mg(
        ["w0", "w1", "w2"],
        {"f0a": ("w0", "w1"), "f0b": ("w0", "w1"), "f1a": ("w1", "w2"), "f1b": ("w1", "w2")},
    )
    S = edge_sum(G1, "v2", G2, "w0", {"e1c0": "f0a", "e1c1": "f0b"})
    assert len(S.vertices) == 4
    assert len(S.edges) == 4 + 4 - 2
    assert S.degree("v1") == 4 and S.degree("w1") == 4


def test_edge_sum_validation():
    with pytest.raises(ValueError):
        edge_sum(TRI_A, "a3", TRI_B, "b3", {"t2": "u2"})  # not a bijection
    loopy = mg(["a", "b"], {"l": ("b", "b"), "e": ("a", "b")})
    with pytest.raises(ValueError):
        edge_sum(loopy, "b", TRI_B, "b3", {"e": "u2"})
    G1 = mg(["a", "x"], {"e": ("a", "x")})
    G2 = mg(["a", "y"], {"f": ("a", "y")})  # overlapping vertex name
    with pytest.raises(ValueError):
        edge_sum(G1, "x", G2, "y", {"e": "f"})


def test_is_grounded_examples():
    assert is_grounded(TRI_A, "a3", TRI_B, "b3")
    star = mg(["c", "x", "y", "z"], {"1": ("c", "x"), "2": ("c", "y"), "3": ("c", "z")})
    other = mg(["p", "q", "r", "s"], {"1": ("p", "q"), "2": ("p", "r"), "3": ("p", "s")})
    assert not is_grounded(star, "c", other, "p")
    G1 = mg(["a", "p1"], {"e": ("a", "p1")})
    G2 = mg(["b", "p2"], {"f": ("b", "p2")})
    assert is_grounded(G1, "p1", G2, "p2")  # k = 1 with connected summands


LOOPY = mg(["a", "b"], {"l": ("b", "b"), "e": ("a", "b")})
_LOOP_AT_B = "'b' carries a loop; edge sums require loop-free ends"


@pytest.mark.parametrize("args, message", [
    ((TRI_A, "zz", TRI_B, "b3", {}), "unknown vertex 'zz'"),
    ((TRI_A, "a3", TRI_B, "zz", {}), "unknown vertex 'zz'"),
    ((LOOPY, "b", TRI_B, "b3", {"e": "u2"}), _LOOP_AT_B),
    ((TRI_B, "b3", LOOPY, "b", {"u2": "e"}), _LOOP_AT_B),
    ((TRI_A, "a3", mg(["p", "q"], {"e": ("p", "q")}), "q", {"t2": "e"}),
     "degree mismatch: |delta(v1)| = 2, |delta(v2)| = 1"),
    ((mg(["x"], {}), "x", mg(["y"], {}), "y", {}),
     "degree mismatch: |delta(v1)| = 0, |delta(v2)| = 0"),
    ((TRI_A, "a3", TRI_B, "b3", {"t2": "u2", "t3": "u2"}),
     "pi is not a bijection from delta(v1) to delta(v2)"),
    ((mg(["a", "x"], {"e": ("a", "x")}), "x", mg(["a", "y"], {"f": ("a", "y")}), "y",
      {"e": "f"}), "summand vertex sets overlap: ['a']"),
    ((mg(["a", "b", "x"], {"e": ("a", "x"), "g": ("a", "b")}), "x",
      mg(["c", "d", "y"], {"f": ("c", "y"), "g": ("c", "d")}), "y", {"e": "f"}),
     "summand edge ids overlap: ['g']"),
], ids=["unknown-v1", "unknown-v2", "loop-v1", "loop-v2", "degrees-differ", "degree-0",
        "pi-not-injective", "vertex-overlap", "edge-id-overlap"])
def test_edge_sum_rejections_name_the_problem(args, message):
    with pytest.raises(ValueError) as info:
        edge_sum(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((TRI_A, "zz", TRI_B, "b3"), "unknown vertex 'zz'"),
    ((TRI_A, "a3", TRI_B, "zz"), "unknown vertex 'zz'"),
    ((LOOPY, "b", TRI_B, "b3"), _LOOP_AT_B),
    ((TRI_A, "a3", LOOPY, "b"), _LOOP_AT_B),
    ((mg(["a", "x"], {"l": ("a", "a")}), "x", TRI_B, "b3"), "'x' has degree 0"),
    ((TRI_A, "a3", mg(["y"], {}), "y"), "'y' has degree 0"),
], ids=["unknown-v1", "unknown-v2", "loop-v1", "loop-v2", "degree-0-v1", "degree-0-v2"])
def test_is_grounded_rejections_name_the_problem(args, message):
    with pytest.raises(ValueError) as info:
        is_grounded(*args)
    assert str(info.value) == message


# -- composition -------------------------------------------------------


def test_compose_single_nodes():
    D = compose_decompositions(
        TRI_A, single_node(TRI_A), TRI_B, single_node(TRI_B), "a3", "b3"
    )
    G = edge_sum(TRI_A, "a3", TRI_B, "b3", {"t2": "u2", "t3": "u3"})
    assert len(D.tree_nodes) == 2
    assert adhesion(G, D) == 2


def test_compose_bridge_adhesion_one():
    G1 = mg(["a", "c", "p1"], {"e": ("a", "p1"), "g": ("a", "c")})
    G2 = mg(["b", "p2"], {"f": ("b", "p2")})
    D = compose_decompositions(G1, single_node(G1), G2, single_node(G2), "p1", "p2")
    G = edge_sum(G1, "p1", G2, "p2", {"e": "f"})
    assert adhesion(G, D) == 1


@pytest.mark.parametrize("v1, v2", [("zz", "a1"), ("a1", "zz")])
def test_compose_rejects_unknown_glue_vertex(v1, v2):
    D = single_node(TRI_A)
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        compose_decompositions(TRI_A, D, TRI_A, D, v1, v2)


def test_compose_rejects_a_glue_vertex_with_a_loop():
    # edge_sum never glues at a vertex with a loop, so there is no sum to
    # decompose
    for args in ((LOOPY, single_node(LOOPY), TRI_B, single_node(TRI_B), "b", "b3"),
                 (TRI_B, single_node(TRI_B), LOOPY, single_node(LOOPY), "b3", "b")):
        with pytest.raises(ValueError) as info:
            compose_decompositions(*args)
        assert str(info.value) == _LOOP_AT_B


def test_compose_torsos_match_inputs():
    D1 = single_node(TRI_A, "s")
    D2 = single_node(TRI_B, "t")
    D = compose_decompositions(TRI_A, D1, TRI_B, D2, "a3", "b3")
    G = edge_sum(TRI_A, "a3", TRI_B, "b3", {"t2": "u2", "t3": "u3"})
    left = torso_at(G, D, "1:s").graph
    # the glued side collapses to a single vertex playing a3's role
    assert canonical_key(left) == canonical_key(TRI_A)


# -- alpha-basic and the structure algorithm ---------------------------


def test_low_degree_graph_is_trivially_basic():
    G = mg("abc", {"1": "ab", "2": "bc"})
    cert = is_alpha_basic(G, 5)
    assert isinstance(cert, LinearityCertificate)
    assert cert.A == frozenset()
    assert cert.decomposition.ordering == ()


def test_p3_is_4_basic():
    G = gen_pk(3)
    cert = is_alpha_basic(G, 4)
    assert isinstance(cert, LinearityCertificate)
    assert set(cert.decomposition.ordering) == {"v1", "v2"}


def test_k7_is_not_3_basic():
    r = is_alpha_basic(gen_complete(7), 3)
    assert isinstance(r, FailureWitness)


def test_structure_two_k5_bridge():
    edges = {}
    for i in range(5):
        for j in range(i + 1, 5):
            edges[f"a{i}{j}"] = (f"a{i}", f"a{j}")
            edges[f"b{i}{j}"] = (f"b{i}", f"b{j}")
    edges["bridge"] = ("a0", "b0")
    G = mg([f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)], edges)
    r = structure_decompose(G, 5)
    assert isinstance(r, StructureDecomposition)
    assert len(r.decomposition.tree_nodes) == 2
    assert adhesion(G, r.decomposition) == 1
    assert verify_structure(G, r.decomposition, r.certificates, 5) == []


def test_structure_low_degree_single_node():
    G = mg("abc", {"1": "ab", "2": "bc"})
    r = structure_decompose(G, 4)
    assert isinstance(r, StructureDecomposition)
    assert len(r.decomposition.tree_nodes) == 1
    assert verify_structure(G, r.decomposition, r.certificates, 4) == []


def test_structure_k7_alpha3_fails():
    r = structure_decompose(gen_complete(7), 3)
    assert isinstance(r, FailureWitness)


def test_structure_disconnected_input():
    G = mg(
        "abcdef",
        {"1": "ab", "2": "bc", "3": "ac", "4": "de", "5": "ef", "6": "df"},
    )
    r = structure_decompose(G, 2)
    assert isinstance(r, StructureDecomposition)
    assert verify_structure(G, r.decomposition, r.certificates, 2) == []


def test_structure_with_vertices_named_like_glue_vertices():
    # b (two loops) hangs off a triple link by one edge, so alpha 3 splits
    # off {b}.  The recursion named the glue vertex for {b} "cut:(b)",
    # found that name taken, freshened it, then dropped the real vertex
    # "cut:(b)" from the bags and raised "malformed decomposition"; the
    # loop's glue names "cut:0", "cut:1" are freshened against G as well
    G = mg(["b", "cut:0", "cut:(b)"], {
        "l1": ("b", "b"), "l2": ("b", "b"), "e": ("b", "cut:0"),
        "t1": ("cut:0", "cut:(b)"), "t2": ("cut:0", "cut:(b)"), "t3": ("cut:0", "cut:(b)"),
    })
    r = structure_decompose(G, 3)
    assert isinstance(r, StructureDecomposition)
    assert sorted(map(sorted, r.decomposition.bags.values())) == [["b"], ["cut:(b)", "cut:0"]]
    assert verify_structure(G, r.decomposition, r.certificates, 3) == []


def test_verify_structure_rejects_tampering():
    G = mg("abc", {"1": "ab", "2": "bc"})
    r = structure_decompose(G, 4)
    D = r.decomposition
    node = next(iter(D.tree_nodes))
    doubled = TreeCutDecomposition(
        tree_nodes=D.tree_nodes | {"extra"},
        tree_edges=D.tree_edges | {frozenset({node, "extra"})},
        bags={**D.bags, "extra": D.bags[node]},
    )
    bad = verify_structure(G, doubled, r.certificates, 4)
    assert bad


def test_verify_structure_rejects_adhesion_at_alpha():
    G = C4
    certs = {}
    for n in C4_SPLIT.tree_nodes:
        res = is_alpha_basic(torso_at(G, C4_SPLIT, n).graph, 2)
        if isinstance(res, LinearityCertificate):
            certs[n] = res
    # adhesion is exactly 2: must be rejected for alpha = 2
    out = verify_structure(G, C4_SPLIT, certs, 2)
    assert any("adhesion" in v for v in out)


def _alpha_basic_by_verify(H, alpha):
    """`is_alpha_basic` as it decided before reading the achieved values:
    by running the verifier at a = w = p = alpha on every certificate."""
    W = frozenset(v for v in H.vertices if H.degree(v) >= alpha)
    result = linear_decompose(H, W, m=1, w_limit=alpha)
    if isinstance(result, FailureWitness):
        return result
    bad = verify_linear_certificate(H, W, result, alpha, alpha, alpha)
    if not bad:
        return result
    aux = build_auxiliary_graph(H, W, 1)
    if len(result.A) > alpha and (len(result.A) - 1) // 4 >= 2:
        model = has_k1k_minor(aux, (len(result.A) - 1) // 4)
        if model is not False:
            return FailureWitness(kind=STAR_MINOR, payload=model)
    detail = {
        "violations": bad,
        "auxiliary_components": [sorted(c) for c in aux.connected_components()],
        "achieved": {"a": result.achieved_a, "w": result.achieved_w, "p": result.achieved_p},
    }
    return FailureWitness(kind=NOT_PATH_SHAPED, payload=detail)


def _alpha_basic_cases():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        m = rng.randint(0, min(4 * n, n * (n + 1)))
        yield gen_random_multigraph(n, m, 2, seed), rng.randint(1, 6)
    # dense enough for a linearizing set of 9 or more, hence a star minor
    for n in (11, 12, 13):
        for alpha in (2, 3, 8):
            yield gen_complete(n), alpha


def test_alpha_basic_decides_as_the_verifier_does():
    kinds = Counter()
    for H, alpha in _alpha_basic_cases():
        got = is_alpha_basic(H, alpha)
        assert got == _alpha_basic_by_verify(H, alpha), (sorted(H.edges.items()), alpha)
        kinds[getattr(got, "kind", "certificate")] += 1
    assert min(kinds[k] for k in ("certificate", SMALL_CUT, STAR_MINOR, NOT_PATH_SHAPED)) >= 5, (
        kinds
    )
