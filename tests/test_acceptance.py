"""Acceptance gate: the ten end-to-end criteria, one pass/fail line each.

Every criterion is a single test; the printed line goes straight to the
real stdout so it is visible whether or not pytest captures output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import tempfile
from pathlib import Path
from typing import FrozenSet, List, Optional

from immtools import (
    ABSENT,
    FOUND,
    FailureWitness,
    LinearityCertificate,
    Multigraph,
    PathLikeDecomposition,
    TreeCutDecomposition,
    adhesion,
    canonical_key,
    compose_decompositions,
    compute_separator,
    converse_n,
    d_of_k,
    edge_disjoint_paths,
    edge_sum,
    find_immersion,
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    has_k1k_minor,
    is_grounded,
    is_k_edge_connected_set,
    linear_decompose,
    max_flow_min_cut,
    min_linearizing_set,
    theorem31_constants,
    torso_at,
    verify_immersion,
    verify_linear_certificate,
    width,
    xi_cut,
)
from immtools.cli import main as cli_main
from enumerate_graphs import connected_simple_graphs, multigraph_classes
from helpers import all_min_cut_sides, check_path, isomorphic_with_pins
from oracle_lift_closure import _strong_successors, strong_closure, weak_closure


RESULTS: List[str] = []


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"criterion {number:2d} ({title}): FAIL")
                print(RESULTS[-1], flush=True)
                raise
            line = f"criterion {number:2d} ({title}): PASS"
            if detail:
                line += f" -- {detail}"
            RESULTS.append(line)
            print(line, flush=True)
        return runner
    return wrap


def _rand_graph(rng: random.Random, n_lo: int, n_hi: int, e_hi: int,
                prefix: str = "v", loops: bool = True) -> Multigraph:
    n = rng.randint(n_lo, n_hi)
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {}
    for idx in range(rng.randint(0, e_hi)):
        u = rng.choice(names)
        v = rng.choice(names)
        if u == v and not loops:
            continue
        edges[f"{prefix}e{idx}"] = (u, v)
    return Multigraph(frozenset(names), edges)


def _components(G: Multigraph) -> List[FrozenSet[str]]:
    seen = set()
    out = []
    for start in sorted(G.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in G.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


@criterion(1, "witness family")
def test_criterion_01_witness_family():
    for k in range(2, 9):
        G = gen_pk(k)
        assert is_k_edge_connected_set(G, G.vertices, k) is True
        assert find_immersion(G, gen_complete(3), strong=True).status == ABSENT
    for k in range(3, 8):
        G = gen_pk_chorded(k)
        assert find_immersion(G, gen_complete(4), strong=True).status == ABSENT
    return "pk(2..8) K3-free strongly, pk-chorded(3..7) K4-free strongly"


@criterion(2, "oracle equivalence")
def test_criterion_02_oracle_equivalence():
    hosts = multigraph_classes(4, 6)
    patterns = multigraph_classes(4, 5)
    pattern_keys = [(H, canonical_key(H)) for H in patterns]
    checked = verified = 0
    for G in hosts:
        closures = {True: strong_closure(G), False: weak_closure(G)}
        for H, key in pattern_keys:
            for strong in (True, False):
                expected = key in closures[strong]
                result = find_immersion(G, H, strong=strong)
                got = result.status == FOUND
                assert got == expected, (
                    f"disagreement (strong={strong}): host {sorted(G.edges.values())}"
                    f" pattern {sorted(H.edges.values())}:"
                    f" search={got} oracle={expected}"
                )
                if got:
                    bad = verify_immersion(G, H, result.certificate, strong)
                    assert bad == [], (
                        f"bad certificate (strong={strong}): host {sorted(G.edges.values())}"
                        f" pattern {sorted(H.edges.values())}: {bad}"
                    )
                    verified += 1
                checked += 1
    return (
        f"{len(hosts)} hosts x {len(patterns)} patterns, {checked} checks agree,"
        f" {verified} certificates verify"
    )


@criterion(3, "flow duality")
def test_criterion_03_flow_duality():
    rng = random.Random(0xF10)
    for trial in range(500):
        G = _rand_graph(rng, 2, 8, 16)
        s, t = rng.sample(sorted(G.vertices), 2)
        w = max_flow_min_cut(G, {s}, {t})
        paths = edge_disjoint_paths(G, {s}, {t})
        assert len(paths) == w.value
        used = [e for p in paths for e in p]
        assert len(used) == len(set(used))
        for p in paths:
            check_path(G, p, {s}, {t})
        for side in all_min_cut_sides(G, {s}, {t}, w.value):
            assert w.source_side <= side, f"trial {trial}: side not minimal"
    return "500 instances, path counts equal cut values, source sides minimal"


@criterion(4, "separator algorithm invariants")
def test_criterion_04_separator_invariants():
    rng = random.Random(0x5E9)
    successes = 0
    long_runs = 0
    for trial in range(200):
        G = _rand_graph(rng, 2, 7, 12)
        W = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.7)
        result = linear_decompose(G, W, m=rng.randint(1, 3),
                                  w_limit=rng.randint(1, 6))
        if isinstance(result, FailureWitness):
            continue
        successes += 1
        cert = result
        P = cert.decomposition
        t = len(P.ordering)
        reduced = G.without_vertices(cert.A)
        bad = verify_linear_certificate(
            G, W, cert, cert.achieved_a, cert.achieved_w, cert.achieved_p
        )
        assert bad == [], f"trial {trial}: {bad}"
        if t < 3:
            continue
        long_runs += 1
        # reconstruct the nested separators L_1 .. L_t from the bags
        L = [frozenset()]
        acc: set = set()
        for i in range(1, t):
            acc |= {P.ordering[i - 1]}
            acc |= P.bags[i]
            L.append(frozenset(acc))
        assert L[t - 1] == reduced.vertices - {P.ordering[t - 1]}
        costs = []
        for i in range(2, t):
            Li, cost = compute_separator(G, cert.A, P.ordering, i)
            assert Li == L[i - 1], f"trial {trial}: separator {i} mismatch"
            assert len(xi_cut(reduced, P, i)) == cost
            costs.append(cost)
        for i in range(1, t + 1):
            for j in range(i + 1, t + 1):
                assert L[i - 1] < L[j - 1]
                assert P.ordering[i - 1] in L[j - 1] - L[i - 1]
        assert len(xi_cut(reduced, P, 1)) == 0
        assert len(xi_cut(reduced, P, t)) == 0
        assert width(reduced, P) == max(costs)
        for i in range(1, t - 1):
            touch = reduced.neighbors(P.ordering[i - 1]) | reduced.neighbors(
                P.ordering[i]
            )
            for comp in _components(reduced.induced(P.bags[i])):
                assert comp & touch, (
                    f"trial {trial}: bag {i} component {sorted(comp)}"
                    " misses both adjacent ordering vertices"
                )
    assert successes >= 50, f"only {successes} successful runs"
    return f"{successes}/200 successful runs ({long_runs} with t >= 3), zero violations"


@criterion(5, "linearizing-set bound")
def test_criterion_05_linearizing_bound():
    count = 0
    worst = 0
    for H in connected_simple_graphs(7):
        if has_k1k_minor(H, 3) is not False:
            continue
        count += 1
        worst = max(worst, len(min_linearizing_set(H)))
    assert count > 0
    assert worst <= 12
    return f"{count} star-minor-free graphs up to 7 vertices, max set size {worst} <= 12"


def _random_summands(rng: random.Random):
    """Two glueable summands with matching glue degrees, grounded on both
    sides, plus the boundary-edge bijection."""
    while True:
        G1 = _rand_graph(rng, 3, 5, 8, prefix="a", loops=False)
        candidates = [v for v in sorted(G1.vertices) if G1.degree(v) >= 1]
        if not candidates:
            continue
        v1 = rng.choice(candidates)
        k = G1.degree(v1)
        n2 = rng.randint(2, 4)
        bnames = [f"b{i}" for i in range(n2)]
        edges = {f"g{i}": ("b0", "b1") for i in range(k)}
        for i in range(rng.randint(0, 4)):
            u = rng.choice(bnames[1:])
            w = rng.choice(bnames[1:])
            if u != w:
                edges[f"x{i}"] = (u, w)
        G2 = Multigraph(frozenset(bnames), edges)
        if not is_grounded(G1, v1, G2, "b0"):
            continue
        pi = dict(zip(sorted(G1.incident(v1)), sorted(G2.incident("b0"))))
        return G1, v1, G2, "b0", pi, k


@criterion(6, "edge sums preserve strong immersions")
def test_criterion_06_edge_sum_preservation():
    rng = random.Random(0x6A)
    done = 0
    while done < 200:
        G1, v1, G2, v2, pi, _ = _random_summands(rng)
        H = G1.without_vertices({v1})
        for _ in range(rng.randint(0, 2)):
            succ = list(_strong_successors(H))
            if not succ:
                break
            H = rng.choice(succ)
        while len(H.vertices) > 4:
            H = H.without_vertices({rng.choice(sorted(H.vertices))})
        if not H.vertices:
            continue
        G = edge_sum(G1, v1, G2, v2, pi)
        assert find_immersion(G, H, strong=True).status == FOUND, (
            f"pattern {sorted(H.edges.values())} lost in sum"
            f" {sorted(G.edges.values())}"
        )
        done += 1
    return "200 grounded sums, every summand pattern found strongly"


def _random_decomposition(rng: random.Random, G: Multigraph) -> TreeCutDecomposition:
    c = rng.randint(1, 3)
    nodes = [f"n{i}" for i in range(c)]
    edges = frozenset(frozenset((nodes[i], nodes[i + 1])) for i in range(c - 1))
    bags = {n: set() for n in nodes}
    for v in sorted(G.vertices):
        bags[rng.choice(nodes)].add(v)
    return TreeCutDecomposition(
        tree_nodes=frozenset(nodes),
        tree_edges=edges,
        bags={n: frozenset(b) for n, b in bags.items()},
    )


@criterion(7, "composition adhesion and torsos")
def test_criterion_07_composition():
    rng = random.Random(0x7C)
    for trial in range(100):
        G1, v1, G2, v2, pi, k = _random_summands(rng)
        D1 = _random_decomposition(rng, G1)
        D2 = _random_decomposition(rng, G2)
        C = compose_decompositions(G1, D1, G2, D2, v1, v2)
        G = edge_sum(G1, v1, G2, v2, pi)
        expected = max(k, adhesion(G1, D1), adhesion(G2, D2))
        assert adhesion(G, C) == expected, f"trial {trial}: adhesion mismatch"
        for node in sorted(C.tree_nodes):
            side, inner = node.split(":", 1)
            torso_c = torso_at(G, C, node)
            G_in, D_in = (G1, D1) if side == "1" else (G2, D2)
            torso_in = torso_at(G_in, D_in, inner)
            pins = {v: v for v in torso_c.core}
            assert isomorphic_with_pins(torso_c.graph, torso_in.graph, pins) is True, (
                f"trial {trial}: torso at {node} not isomorphic to its source"
            )
    return "100 compositions, adhesion exact, all torsos match an input torso"


def _zero_width_certificate(
    G: Multigraph, W: FrozenSet[str]
) -> Optional[LinearityCertificate]:
    """A width-0 decomposition of G over W deleting nothing, if one exists.

    Width 0 forces W-W edges between consecutive ordering vertices only,
    and each component of G - W to attach to at most two consecutive ones.
    """
    rest_comps = []
    H = G.without_vertices(W)
    for comp in _components(H):
        attach = frozenset().union(*(G.neighbors(v) for v in comp)) & W
        rest_comps.append((comp, attach))
    ww_edges = [
        (a, b) for a, b in G.edges.values() if a != b and a in W and b in W
    ]
    for perm in itertools.permutations(sorted(W)):
        pos = {v: i for i, v in enumerate(perm)}
        if any(abs(pos[a] - pos[b]) > 1 for a, b in ww_edges):
            continue
        bags = [set() for _ in range(len(perm) + 1)]
        ok = True
        for comp, attach in rest_comps:
            if not attach:
                bags[0] |= comp
                continue
            lo = min(pos[x] for x in attach)
            hi = max(pos[x] for x in attach)
            if hi - lo > 1:
                ok = False
                break
            bags[lo + 1] |= comp
        if not ok:
            continue
        cert = LinearityCertificate(
            A=frozenset(),
            decomposition=PathLikeDecomposition(
                ordering=perm, bags=tuple(frozenset(b) for b in bags)
            ),
            achieved_a=0,
            achieved_w=1,
            achieved_p=0,
        )
        assert verify_linear_certificate(G, W, cert, 0, 1, 1) == []
        return cert
    return None


@criterion(8, "flat connectivity excludes K4")
def test_criterion_08_converse_at_desk_scale():
    assert converse_n(1, 0, 1, 1) == 4
    rng = random.Random(0x8D)
    K4 = gen_complete(4)
    satisfied = 0
    for trial in range(100):
        G = _rand_graph(rng, 1, 5, 6)
        verts = sorted(G.vertices)
        hypothesis = True
        for r in range(len(verts) + 1):
            for combo in itertools.combinations(verts, r):
                W = frozenset(combo)
                if is_k_edge_connected_set(G, W, 1) is not True:
                    continue
                if _zero_width_certificate(G, W) is None:
                    hypothesis = False
                    break
            if not hypothesis:
                break
        if not hypothesis:
            continue
        satisfied += 1
        assert find_immersion(G, K4, strong=True).status == ABSENT, (
            f"trial {trial}: K4 found despite flat connectivity"
        )
    assert satisfied >= 10, f"only {satisfied} hypothesis instances"
    return f"{satisfied}/100 instances satisfy the hypothesis; none immerse K4"


@criterion(9, "frozen bounds")
def test_criterion_09_bounds():
    def slow_power(base: int, exp: int) -> int:
        out = 1
        for _ in range(exp):
            out *= base
        return out

    assert d_of_k(1) == 1_062_882
    assert d_of_k(2) == 1_144_409_179_687_500
    assert d_of_k(1) == slow_power(3, 12) * 1 * 2
    assert d_of_k(2) == slow_power(5, 20) * 4 * 3
    for F in (gen_complete(3), gen_complete(4)):
        c = theorem31_constants(F)
        nF, eF = len(F.vertices), F.num_edges()
        d = d_of_k(c.k)
        assert c.m == 2 * eF
        assert c.a == 4 * nF
        assert c.a0 == c.a + 1
        assert c.k == max(max(F.degree(v) for v in F.vertices), 3)
        assert c.s == d * nF
        assert c.w0 == c.m * c.s ** 3 + c.s ** 2
        assert c.w == max(2 * c.a0 * c.s * c.w0, c.w0 + c.a0 * c.s)
        assert c.p == 3 * d * nF + 1
    return "d(1), d(2) reproduced twice; constants satisfy their equations on K3, K4"


def _cli(*argv: str):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@criterion(10, "artifact round-trips")
def test_criterion_10_round_trips():
    from immtools.jsonio import graph_from_json, graph_to_json

    def reemit(text: str) -> None:
        obj = json.loads(text)
        assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == text

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def save(name: str, text: str) -> str:
            p = root / name
            p.write_text(text)
            return str(p)

        # generators: stable output that re-parses to the same graph
        for argv in (
            ("gen", "pk", "3"),
            ("gen", "pk-chorded", "3"),
            ("gen", "complete", "4"),
            ("gen", "random", "5", "8", "2", "--seed", "11"),
        ):
            code, out, _ = _cli(*argv)
            assert code == 0
            reemit(out)
            again = _cli(*argv)[1]
            assert again == out
            G = graph_from_json(json.loads(out))
            assert json.loads(out) == graph_to_json(G)

        host = save("host.json", _cli("gen", "pk", "2")[1])
        pat = save("pat.json", _cli("gen", "complete", "3")[1])
        code, out, _ = _cli("find-immersion", "--host", host, "--pattern", pat)
        assert code == 0
        reemit(out)
        cert = save("imm.json", out)
        assert _cli("verify", "immersion", "--host", host, "--pattern", pat,
                    "--cert", cert)[0] == 0

        g = save("g.json", _cli("gen", "pk", "3")[1])
        code, out, _ = _cli("decompose", "linear", "--graph", g, "--W", "all",
                            "--m", "3", "--w-limit", "3")
        assert code == 0
        reemit(out)
        ach = json.loads(out)["achieved"]
        lin = save("lin.json", out)
        assert _cli("verify", "linear", "--graph", g, "--W", "all", "--cert", lin,
                    "--a", str(ach["a"]), "--w", str(ach["w"]),
                    "--p", str(ach["p"]))[0] == 0

        code, out, _ = _cli("decompose", "structure", "--graph", g, "--alpha", "4")
        assert code == 0
        reemit(out)
        struct = save("struct.json", out)
        assert _cli("verify", "structure", "--graph", g, "--structure", struct,
                    "--alpha", "4")[0] == 0

        g1 = save("g1.json", json.dumps({
            "vertices": ["a1", "a2", "a3"],
            "edges": [{"id": "t1", "ends": ["a1", "a2"]},
                      {"id": "t2", "ends": ["a2", "a3"]},
                      {"id": "t3", "ends": ["a1", "a3"]}],
        }))
        g2 = save("g2.json", json.dumps({
            "vertices": ["b1", "b2", "b3"],
            "edges": [{"id": "u1", "ends": ["b1", "b2"]},
                      {"id": "u2", "ends": ["b2", "b3"]},
                      {"id": "u3", "ends": ["b1", "b3"]}],
        }))
        pi = save("pi.json", json.dumps({"t2": "u2", "t3": "u3"}))
        code, out, _ = _cli("edge-sum", "--g1", g1, "--v1", "a3",
                            "--g2", g2, "--v2", "b3", "--pi", pi)
        assert code == 0
        reemit(out)
        summed = save("sum.json", out)
        assert json.loads(out) == graph_to_json(graph_from_json(json.loads(out)))

        # torso reads the decomposition of a structure artifact
        decomp = save("d.json", json.dumps({
            "decomposition": {
                "tree": {"nodes": ["p", "q"], "edges": [["p", "q"]]},
                "bags": {"p": ["a1", "a2"], "q": ["b1", "b2"]},
            },
            "certificates": {},
        }))
        code, out, _ = _cli("torso", "--graph", summed, "--decomp", decomp,
                            "--node", "p")
        assert code == 0
        reemit(out)
        torso_graph = json.loads(out)["graph"]
        assert torso_graph == graph_to_json(graph_from_json(torso_graph))

        for argv, expected in (
            (("bounds", "d-of-k", "2"), 1_144_409_179_687_500),
            (("bounds", "converse", "1", "0", "1", "1"), 4),
            (("bounds", "converse-alpha", "3"), 25),
        ):
            code, out, _ = _cli(*argv)
            assert code == 0 and int(out) == expected
        code, out, _ = _cli("bounds", "theorem31", pat)
        assert code == 0
        reemit(out)
    return "every emitted artifact re-parses byte-identically and re-verifies"
