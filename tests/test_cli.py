import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_treecut
from immtools import (
    FailureWitness,
    Multigraph,
    StructureDecomposition,
    cli,
    find_immersion,
    gen_complete,
    gen_pk,
    gen_random_multigraph,
    is_alpha_basic,
    structure_decompose,
    theorem31_constants,
    torso_at,
    torsos,
)
from immtools.jsonio import (
    failure_to_json,
    graph_from_json,
    graph_to_json,
    immersion_to_json,
    structure_from_json,
    structure_to_json,
    torso_to_json,
)
from immtools.cli import main
from helpers import mg

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_gen_pk_emits_graph(capsys):
    code, out, _ = run(capsys, "gen", "pk", "3")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 4
    assert len(obj["edges"]) == 9


def test_gen_is_byte_stable(capsys):
    _, a, _ = run(capsys, "gen", "random", "5", "8", "2", "--seed", "3")
    _, b, _ = run(capsys, "gen", "random", "5", "8", "2", "--seed", "3")
    assert a == b


def test_find_immersion_absent(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "2")
    _, pat, _ = run(capsys, "gen", "complete", "3")
    h = write(tmp_path, "h.json", json.loads(host))
    p = write(tmp_path, "p.json", json.loads(pat))
    code, out, _ = run(capsys, "find-immersion", "--host", h, "--pattern", p, "--strong")
    assert code == 0
    assert json.loads(out) == "absent"


def test_find_immersion_certificate_verifies(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "2")
    _, pat, _ = run(capsys, "gen", "complete", "3")
    h = write(tmp_path, "h.json", json.loads(host))
    p = write(tmp_path, "p.json", json.loads(pat))
    code, out, _ = run(capsys, "find-immersion", "--host", h, "--pattern", p)
    assert code == 0
    c = write(tmp_path, "c.json", json.loads(out))
    code, _, _ = run(
        capsys, "verify", "immersion", "--host", h, "--pattern", p, "--cert", c
    )
    assert code == 0


def test_find_immersion_budget_exit_code(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "4")
    _, pat, _ = run(capsys, "gen", "complete", "3")
    h = write(tmp_path, "h.json", json.loads(host))
    p = write(tmp_path, "p.json", json.loads(pat))
    code, out, _ = run(
        capsys, "find-immersion", "--host", h, "--pattern", p, "--strong",
        "--budget", "5",
    )
    assert code == 3
    assert json.loads(out) == "budget"


def test_find_immersion_routes_around_a_long_cycle(tmp_path, capsys):
    # the second parallel edge routes along a path of 1,199 vertices
    n = 1200
    host = Multigraph(
        frozenset(f"c{i}" for i in range(n)),
        {f"e{i}": (f"c{i}", f"c{(i + 1) % n}") for i in range(n)},
    )
    h = write(tmp_path, "h.json", graph_to_json(host))
    p = write(tmp_path, "p.json", graph_to_json(mg("ab", {"p": "ab", "q": "ab"})))
    for strong in ([], ["--strong"]):
        code, out, _ = run(capsys, "find-immersion", "--host", h, "--pattern", p, *strong)
        assert code == 0
        c = write(tmp_path, "c.json", json.loads(out))
        verify = ("verify", "immersion", "--host", h, "--pattern", p, "--cert", c)
        assert run(capsys, *verify)[0] == 0


def test_decompose_linear_pipeline(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, _ = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "all", "--m", "3",
        "--w-limit", "3",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["achieved"]["w"] == 1  # width 0
    c = write(tmp_path, "c.json", cert)
    code, _, _ = run(
        capsys, "verify", "linear", "--graph", g, "--W", "all", "--cert", c,
        "--a", "0", "--w", "1", "--p", "1",
    )
    assert code == 0


def test_decompose_linear_pipeline_on_an_explicit_vertex_list(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, _ = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "v1,v2", "--m", "3",
        "--w-limit", "3",
    )
    assert code == 0
    cert = json.loads(out)
    assert sorted(cert["ordering"]) == ["v1", "v2"]
    c = write(tmp_path, "c.json", cert)
    verify = ("verify", "linear", "--graph", g, "--cert", c, "--a", "0", "--w", "1", "--p", "1")
    assert run(capsys, *verify, "--W", "v1,v2") == (0, "", "")
    # the certificate decomposes {v1, v2}, not the whole vertex set
    code, _, err = run(capsys, *verify, "--W", "all")
    assert code == 2 and "ordering is not exactly the decomposed vertex set" in err


def test_verify_linear_rejects_tampering(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "g.json", json.loads(host))
    _, out, _ = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "all", "--m", "3",
        "--w-limit", "3",
    )
    cert = json.loads(out)
    cert["ordering"] = list(reversed(cert["ordering"]))[:-1]  # drop a vertex
    c = write(tmp_path, "c.json", cert)
    code, _, err = run(
        capsys, "verify", "linear", "--graph", g, "--W", "all", "--cert", c,
        "--a", "0", "--w", "1", "--p", "1",
    )
    assert code == 2
    assert err


def test_decompose_structure_and_verify(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, _ = run(capsys, "decompose", "structure", "--graph", g, "--alpha", "4")
    assert code == 0
    s = write(tmp_path, "s.json", json.loads(out))
    code, _, _ = run(
        capsys, "verify", "structure", "--graph", g, "--structure", s, "--alpha", "4"
    )
    assert code == 0


def _two_triangles_and_a_path():
    edges = {"1": "ab", "2": "bc", "3": "ac", "4": "de", "5": "ef", "6": "df"}
    edges.update({f"p{i}": (f"x{i}", f"x{i + 1}") for i in range(12)})
    return mg(list("abcdef") + [f"x{i}" for i in range(13)], edges)


@pytest.mark.parametrize("G, alpha", [
    (gen_pk(3), 4),
    (_two_triangles_and_a_path(), 2),
    (gen_random_multigraph(12, 30, 2, seed=5), 4),
])
def test_verify_structure_accepts_certificates_with_recursion_node_names(
    tmp_path, capsys, G, alpha
):
    # certificates written before the split loop name their tree nodes
    # "1:2:...:n", one prefix per level of the old recursion
    D = oracle_treecut.structure_tree(G, alpha)
    assert len(D.tree_nodes) > 1 and all(n.endswith(":n") for n in D.tree_nodes)
    certs = {t: is_alpha_basic(T.graph, alpha) for t, T in torsos(G, D).items()}
    g = write(tmp_path, "g.json", graph_to_json(G))
    old = write(tmp_path, "old.json", structure_to_json(StructureDecomposition(D, certs)))
    code, out, err = run(
        capsys, "verify", "structure", "--graph", g, "--structure", old, "--alpha", str(alpha)
    )
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "decompose", "structure", "--graph", g, "--alpha", str(alpha))
    assert code == 0
    result = json.loads(out)
    assert len(result["decomposition"]["tree"]["nodes"]) == len(D.tree_nodes)
    new = write(tmp_path, "new.json", result)
    code, out, err = run(
        capsys, "verify", "structure", "--graph", g, "--structure", new, "--alpha", str(alpha)
    )
    assert (code, err) == (0, "")


def test_decompose_structure_failure_exit_code(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "complete", "7")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, _ = run(capsys, "decompose", "structure", "--graph", g, "--alpha", "3")
    assert code == 2
    assert "kind" in json.loads(out)


def test_edge_sum_and_torso(tmp_path, capsys):
    g1 = write(
        tmp_path,
        "g1.json",
        {
            "vertices": ["a1", "a2", "a3"],
            "edges": [
                {"id": "t1", "ends": ["a1", "a2"]},
                {"id": "t2", "ends": ["a2", "a3"]},
                {"id": "t3", "ends": ["a1", "a3"]},
            ],
        },
    )
    g2 = write(
        tmp_path,
        "g2.json",
        {
            "vertices": ["b1", "b2", "b3"],
            "edges": [
                {"id": "u1", "ends": ["b1", "b2"]},
                {"id": "u2", "ends": ["b2", "b3"]},
                {"id": "u3", "ends": ["b1", "b3"]},
            ],
        },
    )
    pi = write(tmp_path, "pi.json", {"t2": "u2", "t3": "u3"})
    code, out, _ = run(
        capsys, "edge-sum", "--g1", g1, "--v1", "a3", "--g2", g2, "--v2", "b3",
        "--pi", pi,
    )
    assert code == 0
    summed = json.loads(out)
    assert len(summed["vertices"]) == 4
    g = write(tmp_path, "g.json", summed)
    decomp = write(
        tmp_path,
        "d.json",
        {
            "decomposition": {
                "tree": {"nodes": ["p", "q"], "edges": [["p", "q"]]},
                "bags": {"p": ["a1", "a2"], "q": ["b1", "b2"]},
            },
            "certificates": {},
        },
    )
    code, out, _ = run(capsys, "torso", "--graph", g, "--decomp", decomp, "--node", "p")
    assert code == 0
    torso = json.loads(out)
    assert sorted(torso["core"]) == ["a1", "a2"]
    assert len(torso["peripheral"]) == 1


def test_torso_reads_what_decompose_structure_prints(tmp_path, capsys):
    _, graph, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "pk3.json", json.loads(graph))
    code, out, _ = run(capsys, "decompose", "structure", "--graph", g, "--alpha", "4")
    assert code == 0
    decomp = tmp_path / "decomp.json"
    decomp.write_text(out)
    G, D = graph_from_json(json.loads(graph)), structure_from_json(json.loads(out)).decomposition
    assert len(D.tree_nodes) == 2
    for node in sorted(D.tree_nodes):
        code, out, err = run(capsys, "torso", "--graph", g, "--decomp", str(decomp), "--node", node)
        assert (code, err) == (0, "")
        assert json.loads(out) == torso_to_json(torso_at(G, D, node))


def test_bounds_subcommands(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "d-of-k", "1")
    assert code == 0 and out.strip() == "1062882"
    code, out, _ = run(capsys, "bounds", "converse", "1", "0", "1", "1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "bounds", "converse-alpha", "3")
    assert code == 0 and out.strip() == "25"
    f = write(
        tmp_path,
        "f.json",
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "1", "ends": ["a", "b"]},
                {"id": "2", "ends": ["b", "c"]},
                {"id": "3", "ends": ["a", "c"]},
            ],
        },
    )
    code, out, _ = run(capsys, "bounds", "theorem31", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 6 and obj["a"] == 12 and obj["k"] == 3


def test_negative_budget_exit_code(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    _, pat, _ = run(capsys, "gen", "complete", "3")
    h = write(tmp_path, "h.json", json.loads(host))
    p = write(tmp_path, "p.json", json.loads(pat))
    code, out, err = run(
        capsys, "find-immersion", "--host", h, "--pattern", p, "--strong",
        "--budget", "-1",
    )
    assert (code, out) == (1, "")
    assert err == "error: budget must be nonnegative, got -1\n"


def test_w_limit_below_one_exit_code(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "3")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, err = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "all", "--m", "3",
        "--w-limit", "0",
    )
    assert (code, out) == (1, "")
    assert err == "error: w_limit must be at least 1\n"


def test_linearizing_search_work_limit_is_a_limit_exit_code(tmp_path, capsys):
    # the auxiliary graph of a 60-vertex random graph at m = 1 is its
    # simple graph, whose smallest linearizing set the search does not
    # settle within its work limit
    _, host, _ = run(capsys, "gen", "random", "60", "200", "1", "--seed", "1")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, err = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "all", "--m", "1", "--w-limit", "3"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: more than 100000 decision nodes, the work limit of the"
        " linearizing-set search\n"
    )


def test_more_than_16_auxiliary_vertices_get_an_answer(tmp_path, capsys):
    # 17 high-degree vertices make a 17-vertex auxiliary graph: its
    # smallest linearizing set is found, and is too large for alpha 4
    _, host, _ = run(capsys, "gen", "random", "20", "60", "2", "--seed", "7")
    g = write(tmp_path, "g.json", json.loads(host))
    code, out, _ = run(capsys, "decompose", "structure", "--graph", g, "--alpha", "4")
    assert code == 2
    witness = json.loads(out)
    assert witness["kind"] == "not-path-shaped"
    assert [len(c) for c in witness["payload"]["auxiliary_components"]] == [17]
    assert witness["payload"]["violations"] == ["|A| = 8 exceeds a = 4"]
    _, host, _ = run(capsys, "gen", "complete", "17")
    g = write(tmp_path, "k17.json", json.loads(host))
    code, out, _ = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "all", "--m", "1", "--w-limit", "4"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["achieved"] == {"a": 15, "w": 1, "p": 2}
    c = write(tmp_path, "c.json", cert)
    code, _, _ = run(
        capsys, "verify", "linear", "--graph", g, "--W", "all", "--cert", c,
        "--a", "15", "--w", "1", "--p", "2",
    )
    assert code == 0


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "decompose", "structure", "--graph", str(bad), "--alpha", "3")
    assert code == 1
    assert "error" in err


def test_unknown_w_vertices_exit_code(tmp_path, capsys):
    _, host, _ = run(capsys, "gen", "pk", "2")
    g = write(tmp_path, "g.json", json.loads(host))
    code, _, err = run(
        capsys, "decompose", "linear", "--graph", g, "--W", "zz", "--m", "1",
        "--w-limit", "2",
    )
    assert code == 1
    assert err


def test_one_parser_serves_every_call_without_leaking_state(tmp_path, capsys, monkeypatch):
    strengths = []
    search = cli.find_immersion

    def spy(G, H, strong, budget):
        strengths.append(strong)
        return search(G, H, strong=strong, budget=budget)

    monkeypatch.setattr(cli, "find_immersion", spy)
    _, host, _ = run(capsys, "gen", "pk", "2")
    _, pat, _ = run(capsys, "gen", "complete", "3")
    h = write(tmp_path, "h.json", json.loads(host))
    p = write(tmp_path, "p.json", json.loads(pat))
    assert run(capsys, "find-immersion", "--host", h, "--pattern", p, "--strong")[1] != (
        run(capsys, "find-immersion", "--host", h, "--pattern", p)[1]
    )
    assert strengths == [True, False]

    _, seeded, _ = run(capsys, "gen", "random", "6", "9", "2", "--seed", "3")
    _, default, _ = run(capsys, "gen", "random", "6", "9", "2")
    assert json.loads(seeded) == graph_to_json(gen_random_multigraph(6, 9, 2, 3))
    assert json.loads(default) == graph_to_json(gen_random_multigraph(6, 9, 2, 0))
    assert seeded != default

    handlers = [
        (["gen", "pk", "2"], cli._cmd_gen),
        (["find-immersion", "--host", h, "--pattern", p], cli._cmd_find_immersion),
        (["verify", "immersion", "--host", h, "--pattern", p, "--cert", p],
         cli._cmd_verify_immersion),
        (["verify", "linear", "--graph", h, "--W", "all", "--cert", p, "--a", "0", "--w", "1",
          "--p", "1"], cli._cmd_verify_linear),
        (["verify", "structure", "--graph", h, "--structure", p, "--alpha", "2"],
         cli._cmd_verify_structure),
        (["decompose", "linear", "--graph", h, "--W", "all", "--m", "1", "--w-limit", "1"],
         cli._cmd_decompose_linear),
        (["decompose", "structure", "--graph", h, "--alpha", "2"], cli._cmd_decompose_structure),
        (["edge-sum", "--g1", h, "--v1", "a", "--g2", h, "--v2", "b", "--pi", p],
         cli._cmd_edge_sum),
        (["torso", "--graph", h, "--decomp", p, "--node", "n"], cli._cmd_torso),
        (["bounds", "d-of-k", "1"], cli._cmd_bound),
        (["bounds", "theorem31", p], cli._cmd_theorem31),
    ]
    for argv, handler in handlers + handlers[::-1]:
        parsed = cli._parse(argv)[0]
        assert getattr(parsed, "func", parsed) is handler


def test_bounds_above_the_digit_limit_are_a_limit_exit_code(tmp_path, capsys):
    # d(250) has 5,418 digits, d(200) 4,183; the interpreter converts at
    # most 4,300 to a string
    code, out, err = run(capsys, "bounds", "d-of-k", "200")
    assert code == 0 and len(out.strip()) == 4183
    code, out, err = run(capsys, "bounds", "d-of-k", "250")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "4300 decimal digits" in err
    star = mg(["c"] + [f"l{i}" for i in range(150)], {f"e{i}": ("c", f"l{i}") for i in range(150)})
    f = write(tmp_path, "star.json", graph_to_json(star))
    code, out, err = run(capsys, "bounds", "theorem31", f)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "4300 decimal digits" in err


_BOUND_LIMIT = (
    "error: the bound has more than 4300 decimal digits, the limit on"
    " integer-to-string conversion (sys.set_int_max_str_digits)\n"
)


def test_d_of_k_over_the_digit_limit_is_refused_before_it_is_computed(tmp_path, capsys):
    # d(204) has 4,280 digits, d(205) more than 4,300.  d(k) has at least
    # (8k+4) log10(2k+1) digits, so for a large k, and for theorem31 on a
    # pattern of large degree, the limit is reached without computing d(k)
    code, out, err = run(capsys, "bounds", "d-of-k", "204")
    assert (code, len(out.strip()), err) == (0, 4280, "")
    assert run(capsys, "bounds", "d-of-k", "205") == (3, "", _BOUND_LIMIT)
    start = time.perf_counter()
    assert run(capsys, "bounds", "d-of-k", "1000000") == (3, "", _BOUND_LIMIT)
    assert time.perf_counter() - start < 1.0
    leaves = [f"l{i}" for i in range(20_000)]
    star = mg(["c"] + leaves, {f"e{i}": ("c", v) for i, v in enumerate(leaves)})
    f = write(tmp_path, "star.json", graph_to_json(star))
    start = time.perf_counter()
    assert run(capsys, "bounds", "theorem31", f) == (3, "", _BOUND_LIMIT)
    assert time.perf_counter() - start < 1.0


def test_integer_arguments_above_the_digit_limit_are_a_limit_exit_code(tmp_path, capsys):
    # the interpreter converts at most 4,300 digits from a string; a longer
    # valid integer reaches that limit (exit 3, without echoing the
    # argument), and a shorter one parses as before
    long, short = "9" * 4400, "9" * 4300
    assert run(capsys, "bounds", "converse-alpha", long) == (3, "", _DIGIT_LIMIT)
    assert run(capsys, "gen", "pk", "-" + long) == (3, "", _DIGIT_LIMIT)
    code, out, err = run(capsys, "bounds", "converse-alpha", "3")
    assert (code, out.strip()) == (0, "25")
    g = write(tmp_path, "g.json", graph_to_json(gen_pk(2)))
    code, out, err = run(capsys, "decompose", "structure", "--graph", g, "--alpha", long)
    assert (code, out) == (3, "")
    assert "4300-digit limit" in err and len(err) < 200
    code, out, err = run(capsys, "decompose", "structure", "--graph", g, "--alpha", short)
    assert code == 0 and len(json.loads(out)["decomposition"]["bags"]) == 1
    code, out, err = run(capsys, "bounds", "d-of-k", "1" + "_0" * 4400)
    assert code == 3
    # not an integer whatever its length: malformed, as before
    for bad in ("+-" + long, "+_" + long, long + "__0", long + "x"):
        code, out, err = run(capsys, "bounds", "converse-alpha", bad)
        assert (code, out) == (1, ""), bad[:5]


def test_running_out_of_memory_is_a_limit_exit_code(tmp_path, capsys, monkeypatch):
    # a search whose index does not fit in memory is a resource limit, not
    # malformed input; the allocation is made to fail without using memory
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "find_immersion", out_of_memory)
    g = write(tmp_path, "g.json", graph_to_json(gen_pk(2)))
    code, out, err = run(capsys, "find-immersion", "--host", g, "--pattern", g)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_an_internal_key_error_is_not_reported_as_malformed_input(tmp_path):
    # no code in immtools raises KeyError on purpose: one that escapes a
    # command is a fault of the program and ends the entry point with
    # EXIT_INTERNAL and a traceback, not exit 1 and an `error:` line
    g = write(tmp_path, "g.json", graph_to_json(gen_pk(2)))
    entry = (
        "import sys\n"
        "from immtools import cli\n"
        "def internal_fault(*args, **kwargs):\n"
        "    raise KeyError('v0')\n"
        "cli.find_immersion = internal_fault\n"
        "sys.exit(cli.main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", entry, "find-immersion", "--host", g, "--pattern", g],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INTERNAL, "") == (70, "")
    assert proc.stderr.startswith("Traceback")
    assert proc.stderr.endswith("KeyError: 'v0'\n")
    assert "error:" not in proc.stderr


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "decompose", "structure", "--graph", str(deep), "--alpha", "2")
    assert (code, out) == (1, "")
    assert err == f"error: {deep}: JSON nested too deeply\n"


def test_an_unreadable_input_file_is_malformed_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "decompose", "structure", "--graph", str(missing), "--alpha", "2")
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    code, out, err = run(capsys, "bounds", "theorem31", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone: a write, or a flush when
    `at_flush`, raises BrokenPipeError."""

    def __init__(self, at_flush):
        super().__init__()
        self.at_flush = at_flush

    def write(self, text):
        if not self.at_flush:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.at_flush:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at_flush", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [
    ("gen", "pk", "30"),
    ("gen", "complete", "3"),
    ("bounds", "d-of-k", "1"),
    ("decompose", "structure", "--help"),
], ids=" ".join)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(capsys, monkeypatch, argv, at_flush):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(at_flush))
    code = main(list(argv))
    assert code == cli.EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


# -- the argv contract ---------------------------------------------------------
# G stands for a pk(2) graph file, P for a K3 file; "-" reads standard input

_DECOMPOSE = ("decompose", "structure", "--graph", "G", "--alpha", "4")
_FIND = ("find-immersion", "--host", "G", "--pattern", "P")
_RANDOM = ("gen", "random", "3", "2", "1", "--seed", "5")

# (accepted form, its canonical spelling)
_ACCEPTED = [
    (("decompose", "structure", "--graph=G", "--alpha=4"), _DECOMPOSE),
    (("decompose", "structure", "--alpha", "4", "--graph", "G"), _DECOMPOSE),
    (("decompose", "structure", "--gr", "G", "--al", "4"), _DECOMPOSE),
    (("decompose", "structure", "--gr=G", "--al=4"), _DECOMPOSE),
    (("decompose", "structure", "--graph", "G", "--alpha", "9", "--alpha", "4"), _DECOMPOSE),
    (("decompose", "structure", "--graph", "-", "--alpha", "4"), _DECOMPOSE),
    (("decompose", "structure", "--graph", "G", "--alpha", " 4 "), _DECOMPOSE),
    (("decompose", "linear", "--graph", "G", "--W", "all", "--m", "2", "--w", "2"),
     ("decompose", "linear", "--graph", "G", "--W", "all", "--m", "2", "--w-limit", "2")),
    (("gen", "random", "--seed", "5", "3", "2", "1"), _RANDOM),
    (("gen", "random", "3", "2", "--seed=5", "1"), _RANDOM),
    (("gen", "random", "3", "2", "1", "--seed", "1", "--seed", "5"), _RANDOM),
    (("gen", "pk", "1_0"), ("gen", "pk", "10")),
    (("bounds", "theorem31", "-"), ("bounds", "theorem31", "G")),
    (_FIND + ("--str",), _FIND + ("--strong",)),
    (_FIND + ("--budget", "9", "--strong"), _FIND + ("--strong", "--budget=9")),
]

_DIGIT_LIMIT = (
    "error: an integer argument has 4400 digits, more than the 4300-digit limit"
    " on integer conversion (sys.set_int_max_str_digits)\n"
)

_USAGE_ERRORS = [
    ("decompose", "structure", "--alpha", "4"),  # a required flag missing
    ("gen", "random", "3", "2"),  # a positional missing
    ("decompose", "structure", "--graph", "G", "--alpha"),  # a value missing
    ("decompose", "structure", "--graph", "--alpha", "4"),
    ("decompose", "structure", "--graph", "G", "--alpha", "x"),  # not an int
    ("decompose", "structure", "--graph", "G", "--alpha", "4.0"),
    ("gen", "pk", "-1.5"),
    _DECOMPOSE + ("--nope",),  # an unknown flag
    _DECOMPOSE + ("--nope", "3"),
    _DECOMPOSE + ("-x",),
    _DECOMPOSE + ("extra",),  # an extra positional
    ("gen", "pk", "3", "4"),
    ("edge-sum", "--g", "G", "--v1", "a", "--g2", "G", "--v2", "b", "--pi", "P"),  # ambiguous
    _FIND + ("--strong=1",),  # a switch takes no value
    ("decompose", "nope"),  # an unknown or missing command
    ("decompose",),
    (),
]


def _contract_files(tmp_path, monkeypatch):
    """Write G and P, put G on standard input, and return the argv mapper."""
    g = write(tmp_path, "g.json", graph_to_json(gen_pk(2)))
    files = {"G": g, "P": write(tmp_path, "p.json", graph_to_json(gen_complete(3)))}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph_to_json(gen_pk(2)))))
    return lambda argv: [files.get(a) or a.replace("=G", "=" + g) for a in argv]


@pytest.mark.parametrize("argv", [
    ("bounds", "d-of-k", "abc"),
    ("decompose", "structure", "--graph", "g.json"),  # no --alpha
    ("bounds",),
    ("no-such-command",),
    *_USAGE_ERRORS,
])
def test_usage_errors_are_malformed_input(tmp_path, capsys, monkeypatch, argv):
    paths = _contract_files(tmp_path, monkeypatch)
    code, out, err = run(capsys, *paths(argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: immtools") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: immtools")


@pytest.mark.parametrize("form,canonical", _ACCEPTED, ids=lambda a: " ".join(a))
def test_accepted_argument_forms_match_their_canonical_spelling(
    tmp_path, capsys, monkeypatch, form, canonical
):
    paths = _contract_files(tmp_path, monkeypatch)
    got = run(capsys, *paths(form))
    assert got[:2] == run(capsys, *paths(canonical))[:2]
    assert got[0] != 1, got  # each reached its handler


def test_negative_integers_are_values(tmp_path, capsys, monkeypatch):
    paths = _contract_files(tmp_path, monkeypatch)
    assert run(capsys, *paths(_FIND + ("--budget=-1",))) == (
        1, "", "error: budget must be nonnegative, got -1\n")
    assert run(capsys, "bounds", "converse", "-1", "0", "1", "1") == (
        1, "", "error: all parameters must be nonnegative\n")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["gen", "random", "4", "5", "2", "--seed=3"]
    monkeypatch.setattr(sys, "argv", ["immtools", *argv])
    code = main(None)
    out = capsys.readouterr().out
    assert code == 0 and (code, out) == run(capsys, *argv)[:2]


_HELP_LEVELS = [
    ((), ()),
    (("decompose",), ()),
    (("decompose", "structure"), ("--graph", "--alpha")),
    (("gen", "random"), ("--seed",)),
    (("verify", "linear"), ("--graph", "--W", "--cert", "--a", "--w", "--p")),
]


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("words,flags", _HELP_LEVELS, ids=lambda a: " ".join(a) or "top")
def test_help_at_every_level_exits_zero_with_usage(capsys, words, flags, flag):
    with pytest.raises(SystemExit) as exc:
        main([*words, flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: immtools")
    names = out.replace("[", " ").replace("]", " ").split()
    for name in flags:
        assert name in names, name


# -- the output writer ---------------------------------------------------------

_TEXT = st.text(alphabet=st.characters(exclude_categories=("Cs",)))  # no lone surrogates
_VALUES = st.recursive(
    st.one_of(_TEXT, st.integers(), st.integers(min_value=-10**60, max_value=10**60),
              st.booleans()),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40,
)


def _standard(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


@given(_VALUES)
def test_writer_matches_the_standard_encoder(obj):
    assert cli._dumps(obj) == _standard(obj)


@pytest.mark.parametrize("obj", [
    "", "plain", "caf\u00e9 \u2192 \U0001f600", 'a "quoted" word', "back\\slash",
    "".join(map(chr, range(32))) + "\x7f", "\u2028\u2029",
    0, -1, -(10**40), True, False, [True, 1, False, 0],
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": {}}],
    {"b": 1, "a": 2, "A": 3, "\u00e9": 4, "": 5, "a b": 6},
    {"x": ["y", 1, True, [], {"z": ["w"]}]},
])
def test_writer_matches_the_standard_encoder_on_edge_cases(obj):
    assert cli._dumps(obj) == _standard(obj)


def test_writer_matches_the_standard_encoder_on_artifacts():
    constants = dataclasses.asdict(theorem31_constants(gen_complete(3)))
    assert max(constants.values()) > 10**20
    G = gen_random_multigraph(12, 36, 2, 5)
    artifacts = [constants, graph_to_json(G)]
    for alpha in (2, 4):
        result = structure_decompose(G, alpha)
        artifacts.append(failure_to_json(result) if isinstance(result, FailureWitness)
                         else structure_to_json(result))
    cert = find_immersion(gen_pk(2), gen_complete(3), strong=False).certificate
    artifacts.append(immersion_to_json(cert))
    assert {"kind", "decomposition", "vertex_map"} <= set().union(*artifacts[2:])
    for obj in artifacts:
        assert cli._dumps(obj) == _standard(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, 1.5, None, (1, 2), b"x", {"a": [1, {"b": {2}}]}, ["a", 0.0], {"a": None}, {1: "a"},
])
def test_writer_rejects_values_no_artifact_holds(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)


# -- mutated artifacts ---------------------------------------------------------

_SWAPS = (None, 0, "x", [], {}, True)


def _mutants(obj):
    """Every copy of the JSON value obj with one change: obj or a value
    inside it swapped for each of _SWAPS, a key deleted, or a list element
    dropped or duplicated."""
    yield from _SWAPS
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield {k: v for k, v in obj.items() if k != key}
            for inner in _mutants(obj[key]):
                yield {**obj, key: inner}
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield obj[:i] + obj[i + 1:]
            yield obj[:i + 1] + obj[i:]
            for inner in _mutants(item):
                yield obj[:i] + [inner] + obj[i + 1:]


def test_mutated_artifacts_are_answered_or_rejected(tmp_path, capsys):
    # every artifact a command reads, from pk(3), and the commands that
    # read it; "M" stands for the mutated file
    pk3 = write(tmp_path, "pk3.json", graph_to_json(gen_pk(3)))
    k3 = write(tmp_path, "k3.json", graph_to_json(gen_complete(3)))
    g1 = write(tmp_path, "g1.json", graph_to_json(mg(
        ["a1", "a2", "a3"], {"t1": ("a1", "a2"), "t2": ("a2", "a3"), "t3": ("a1", "a3")})))
    g2 = write(tmp_path, "g2.json", graph_to_json(mg(
        ["b1", "b2", "b3"], {"u1": ("b1", "b2"), "u2": ("b2", "b3"), "u3": ("b1", "b3")})))

    def output(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return json.loads(out)

    cases = [
        (output("gen", "pk", "3"), [
            ("decompose", "structure", "--graph", "M", "--alpha", "4"),
            ("find-immersion", "--host", "M", "--pattern", k3),
        ]),
        (output("find-immersion", "--host", pk3, "--pattern", k3), [
            ("verify", "immersion", "--host", pk3, "--pattern", k3, "--cert", "M"),
        ]),
        (output("decompose", "linear", "--graph", pk3, "--W", "all", "--m", "3",
                "--w-limit", "3"), [
            ("verify", "linear", "--graph", pk3, "--W", "all", "--cert", "M",
             "--a", "0", "--w", "1", "--p", "1"),
        ]),
        (output("decompose", "structure", "--graph", pk3, "--alpha", "4"), [
            ("verify", "structure", "--graph", pk3, "--structure", "M", "--alpha", "4"),
            ("torso", "--graph", pk3, "--decomp", "M", "--node", "n0"),
        ]),
        ({"t2": "u2", "t3": "u3"}, [
            ("edge-sum", "--g1", g1, "--v1", "a3", "--g2", g2, "--v2", "b3", "--pi", "M"),
        ]),
    ]
    mutated = tmp_path / "mutated.json"
    codes = Counter()
    for artifact, commands in cases:
        for mutant in _mutants(artifact):
            mutated.write_text(json.dumps(mutant))
            for argv in commands:
                code, _, _ = run(capsys, *[str(mutated) if a == "M" else a for a in argv])
                assert code in (0, 1, 2), (argv, mutant)
                codes[code] += 1
    # the mutants reach answers, rejections and malformed-input errors
    assert min(codes[0], codes[1], codes[2]) > 0, codes
