import math
import random
import string
import time

import pytest

import oracle_iso
from enumerate_graphs import multigraphs
from immtools import Multigraph, SizeLimitError, canonical_key, multigraph
from immtools.iso import _block_orders, _refined
from helpers import isomorphic_with_pins, mg


def labelled_forms(G: Multigraph) -> int:
    """How many labelled forms `canonical_key` compares on G."""
    n, _, ranks, count, nbrs = _refined(G)
    if count == n:
        return 1
    return math.prod(len(orders) for orders in _block_orders(ranks, count, nbrs))


def complete(n: int) -> Multigraph:
    names = [f"k{i}" for i in range(n)]
    return Multigraph(
        frozenset(names),
        {f"e{i}-{j}": (names[i], names[j]) for i in range(n) for j in range(i + 1, n)},
    )


def edgeless(n: int) -> Multigraph:
    return Multigraph(frozenset(f"x{i}" for i in range(n)), {})


def doubled_complete_bipartite(k: int) -> Multigraph:
    left, right = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
    return Multigraph(
        frozenset(left + right),
        {f"{u}{w}{c}": (u, w) for u in left for w in right for c in "12"},
    )


def random_named_multigraph(rng: random.Random) -> Multigraph:
    """Up to 7 vertices with random names, and loops and parallel edges."""
    n, names = rng.randint(1, 7), set()
    while len(names) < n:
        letters = rng.choices(string.ascii_letters + string.digits, k=rng.randint(1, 3))
        names.add("".join(letters))
    names = sorted(names)
    edges = {}
    for k in range(rng.randint(0, 14)):
        u, w = rng.choice(names), rng.choice(names)
        if rng.random() < 0.3 and edges:
            u, w = rng.choice(list(edges.values()))  # a parallel edge
        edges[f"e{k}"] = (u, w)
    return Multigraph(frozenset(names), edges)


def random_regular_multigraph(rng: random.Random) -> Multigraph:
    """The union of one to three random perfect matchings on 4 or 6 randomly
    named vertices: one colour block, whose twins are often not plain."""
    pool = [a + b for a in string.ascii_letters for b in "xyz"]
    names = rng.sample(pool, rng.choice((4, 6)))
    edges = {}
    for r in range(rng.randint(1, 3)):
        rng.shuffle(names)
        for i in range(0, len(names), 2):
            edges[f"m{r}-{i}"] = (names[i], names[i + 1])
    return Multigraph(frozenset(names), edges)


def relabelled(G: Multigraph, rng: random.Random) -> Multigraph:
    names = sorted(G.vertices)
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    to = dict(zip(names, fresh))
    items = list(G.edges.items())
    rng.shuffle(items)
    return Multigraph(
        frozenset(fresh), {f"f{e}": (to[b], to[a]) for e, (a, b) in items}
    )


def test_relabeling_preserves_canonical_key():
    G = mg("abc", {"1": "ab", "2": "bc", "3": "ab"})
    H = mg("xyz", {"p": "yz", "q": "xy", "r": "yz"})
    assert canonical_key(G) == canonical_key(H)


def test_multiplicity_distinguishes():
    G = mg("ab", {"1": "ab"})
    H = mg("ab", {"1": "ab", "2": "ab"})
    assert canonical_key(G) != canonical_key(H)


def test_loops_distinguish():
    G = mg("ab", {"1": "ab", "l": "aa"})
    H = mg("ab", {"1": "ab", "l": "bb"})
    assert canonical_key(G) == canonical_key(H)  # symmetric relabeling
    K = mg("ab", {"1": "ab", "2": "ab"})
    assert canonical_key(G) != canonical_key(K)


def test_isolated_vertices_matter():
    G = mg("ab", {"1": "ab"})
    H = mg("abc", {"1": "ab"})
    assert canonical_key(G) != canonical_key(H)


def test_same_degree_sequence_different_structure():
    # C_6 versus two triangles: all degrees 2
    C6 = mg("abcdef", {"1": "ab", "2": "bc", "3": "cd", "4": "de", "5": "ef", "6": "af"})
    TT = mg("abcdef", {"1": "ab", "2": "bc", "3": "ac", "4": "de", "5": "ef", "6": "df"})
    assert canonical_key(C6) != canonical_key(TT)


def test_pins_constrain_the_isomorphism():
    G = mg("ab", {"1": "ab", "2": "ab", "l": "aa"})
    H = mg("xy", {"1": "xy", "2": "xy", "l": "yy"})
    assert isomorphic_with_pins(G, H, {"a": "y"}) is True
    assert isomorphic_with_pins(G, H, {"a": "x"}) is False


def test_pins_outside_graphs_fail():
    G = mg("a", {})
    H = mg("x", {})
    assert isomorphic_with_pins(G, H, {"a": "z"}) is False


def test_oversized_instances_are_skipped():
    G = mg([f"v{i}" for i in range(11)], {})
    H = mg([f"u{i}" for i in range(11)], {})
    assert isomorphic_with_pins(G, H, {}) is None


def test_keys_match_the_oracle_on_the_sweep_graphs():
    # every multigraph with at most 4 vertices and 6 edges, as the
    # immersion sweep enumerates them
    graphs = list(multigraphs(4, 6))
    assert len(graphs) == 9024
    for G in graphs:
        assert canonical_key(G) == oracle_iso.canonical_key(G), G


def test_twins_prune_the_labelled_forms():
    graphs = list(multigraphs(4, 6))
    assert sum(map(oracle_iso.labelled_forms, graphs)) == 13908
    assert sum(map(labelled_forms, graphs)) == 9813
    assert sum(_refined(G)[3] == len(G.vertices) for G in graphs) == 5908  # discrete


def test_keys_match_the_oracle_on_random_multigraphs():
    rng = random.Random(32)
    shapes = [random_named_multigraph] * 400 + [random_regular_multigraph] * 200
    for shape in shapes:
        G = shape(rng)
        H = relabelled(G, rng)
        key = oracle_iso.canonical_key(G)
        assert canonical_key(G) == key, G
        assert canonical_key(H) == key, H


def test_regular_inputs_need_few_labelled_forms():
    for G in (complete(12), edgeless(12), doubled_complete_bipartite(6)):
        start = time.perf_counter()
        canonical_key(G)
        assert time.perf_counter() - start < 0.1, sorted(G.vertices)[:2]
    assert labelled_forms(complete(12)) == labelled_forms(edgeless(12)) == 1
    assert labelled_forms(doubled_complete_bipartite(6)) == math.comb(12, 6)
    for n in range(8):
        for G in (complete(n), edgeless(n), doubled_complete_bipartite(n // 2)):
            assert canonical_key(G) == oracle_iso.canonical_key(G), (n, len(G.edges))


def test_keys_build_no_cached_fact():
    # the immersion sweep keys its graphs in setup; the degree map, the
    # numbering, the incidence index and the counts are first built by the
    # timed searches
    G = mg("abcd", {"1": "ab", "2": "ab", "3": "bc", "4": "cd", "l": "dd"})
    canonical_key(G)
    assert not {"degrees", "numbering", "index", "counts"} & vars(G).keys()


def cycle(n: int) -> Multigraph:
    names = [f"c{i}" for i in range(n)]
    return Multigraph(
        frozenset(names), {f"e{i}": (names[i], names[(i + 1) % n]) for i in range(n)}
    )


def test_keys_past_the_work_limit_are_refused_before_any_form_is_made(monkeypatch):
    # a cycle is regular and has no twins: one block of n singleton
    # classes, n! labelled forms; 8! = 40,320 is under the limit of
    # 100,000 and 9! is over it
    for n in (12, 1200):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="more than 100000 labelled forms"):
            canonical_key(cycle(n))
        assert time.perf_counter() - start < 0.1, n
    assert labelled_forms(cycle(8)) == math.factorial(8)
    assert canonical_key(cycle(8)) == oracle_iso.canonical_key(cycle(8))
    # the limit is multigraph's one work limit, read when a key is made
    monkeypatch.setattr(multigraph, "_WORK_LIMIT", 100)
    with pytest.raises(SizeLimitError, match="more than 100 labelled forms"):
        canonical_key(cycle(5))
    assert canonical_key(cycle(4)) == oracle_iso.canonical_key(cycle(4))
