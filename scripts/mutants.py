#!/usr/bin/env python3
"""Re-runnable mutation checks: a catalogue of hand-made mutants and the
tests that must kill each one.

Each mutant replaces one exact source fragment of one file.  The runner
copies the repository to a temporary directory, first runs every named
test on the unmutated copy (they must pass), then applies one mutant at a
time and runs its tests there, one process at a time, with a timeout.
Each mutant is reported as

  killed     a named test failed (or the mutated code did not import);
  survived   every named test passed;
  timeout    the tests ran past the timeout;
  stale      the fragment is not in the file exactly once, or pytest
             found none of the named tests.

A change that makes an entry stale re-expresses it, or retires it with a
reason in CHANGES.md.

    python3 scripts/mutants.py            # the whole catalogue
    python3 scripts/mutants.py NAME ...   # only these mutants

Exit status 0 when every mutant run is killed, 1 otherwise, 2 when the
named tests fail on the unmutated copy.  Only the standard library is
used; the tests need pytest and hypothesis.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds allowed for one mutant's tests


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str  # must occur exactly once in the file
    replacement: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the root
    breaks: str  # what the mutant breaks, and where it was first made


_CRITERION_2 = "tests/test_acceptance.py::test_criterion_02_oracle_equivalence"
_TREE_AGREEMENT = (
    "tests/test_treecut.py::test_split_loop_matches_the_recursion",
    "tests/test_treecut.py::test_split_loop_matches_the_recursion_on_long_inputs",
    "tests/test_treecut.py::test_structure_outcome_matches_the_recursion",
)
_PAIR_COUNTS = "tests/test_multigraph.py::test_pair_counts_match_all_pairs_flows"
_RULED_OUT = "tests/test_immersion.py::test_a_query_ruled_out_before_the_search_has_no_immersion"
_DIRECT_EDGES = "tests/test_immersion.py::test_cycle_rank_and_direct_edges_answer_without_a_step"
_PLANTED = "tests/test_planted.py::test_no_planted_query_is_absent"
_SWEEP_KEYS = "tests/test_iso.py::test_keys_match_the_oracle_on_the_sweep_graphs"

# The named tests are deterministic: one that draws fresh examples on each
# run (a hypothesis test) could fail by chance and count a mutant killed.
CATALOGUE: Tuple[Mutant, ...] = (
    # -- the three self-checks that left the hot paths: each property
    # is now carried by a test alone
    Mutant(
        "certificate-route-unmasked",
        "src/immtools/immersion.py",
        "route = before & ~after",
        "route = before",
        (_CRITERION_2,),
        "a found certificate routes each pattern edge over every host edge"
        " still free at its level; once caught by find_immersion's own"
        " verify_immersion assert",
    ),
    Mutant(
        "achieved-width-off-by-one",
        "src/immtools/pathdecomp.py",
        "achieved_w=widest + 1,",
        "achieved_w=widest,",
        ("tests/test_treecut.py::test_structure_certificates_hold_at_their_achieved_values",),
        "an emitted linearity certificate claims a width it does not meet;"
        " once caught by the decomposer's own verify_linear_certificate call",
    ),
    Mutant(
        "glue-arc-dropped",
        "src/immtools/flow.py",
        "for i in cut:\n                a = local[head[i ^ 1]]",
        "for i in cut[1:]:\n                a = local[head[i ^ 1]]",
        _TREE_AGREEMENT,
        "the moved side of a split gets a glue vertex with k - 1 arcs, so"
        " it is not grounded; once caught by the split loop's groundedness"
        " assert (first made for the smaller-side split network)",
    ),
    Mutant(
        "kept-cut-arcs-not-re-pointed",
        "src/immtools/flow.py",
        "head[i ^ 1] = rest  # ... and its companion enters it",
        "pass",
        ("tests/test_flow.py::test_flows_at_the_glue_of_a_split_stop_at_the_contracted_value",),
        "arcs into the moved side of a split still lead there, so no flow"
        " reaches the glue node and one out of it walks back without end;"
        " once caught only by the CI timeout (first made for the"
        " smaller-side split network)",
    ),
    # -- the split loop
    Mutant(
        "zero-cut-unlinked",
        "src/immtools/treecut.py",
        "None if k else first",
        "None",
        ("tests/test_treecut.py::test_split_loop_matches_the_recursion",),
        "the two sides of a zero cut are never joined by a tree edge",
    ),
    Mutant(
        "dead-arcs-never-compacted",
        "src/immtools/treecut.py",
        "if 2 * len(stays) < len(net.names) or 2 * net.dead_arcs > len(net.head):",
        "if 2 * len(stays) < len(net.names):",
        ("tests/test_treecut.py::test_a_network_whose_arcs_are_mostly_dead_is_copied",),
        "a network whose arcs are mostly dead is kept, and every later flow"
        " on it pays for them (first made for the smaller-side split network)",
    ),
    # -- immersion search
    Mutant(
        "slack-not-given-back",
        "src/immtools/immersion.py",
        "                if cur != x:\n                    slack[cur] += 2",
        "                if cur != x:\n                    pass",
        (_CRITERION_2,),
        "a weak route that backs out of a branch image keeps its two"
        " edge-ends taken (first made for the residual-slack rule)",
    ),
    Mutant(
        "refuted-states-kept-across-assignments",
        "src/immtools/immersion.py",
        "                    refuted.clear()\n",
        "",
        (_CRITERION_2,),
        "a route state refuted under one vertex map is skipped under the"
        " next (first made for the refuted-state record)",
    ),
    Mutant(
        "bridge-test-not-strict",
        "src/immtools/multigraph.py",
        "if not stack or low[v] > disc[p]:",
        "if not stack or low[v] >= disc[p]:",
        (_PAIR_COUNTS, _RULED_OUT),
        "a tree edge whose subtree reaches back to its parent counts as a"
        " bridge, so a host has too few 2-edge-connected pairs and an"
        " immersion is ruled out (first made for the pair-count rule)",
    ),
    Mutant(
        "bridge-search-skips-the-parent-vertex",
        "src/immtools/multigraph.py",
        "stack.append([u, links[u] & ~e, len(pending)])",
        "stack.append([u, links[u] & ~links[v], len(pending)])",
        (_PAIR_COUNTS, _RULED_OUT),
        "a doubled edge counts as a bridge, so a host has too few"
        " 2-edge-connected pairs (first made for the pair-count rule)",
    ),
    Mutant(
        "p2-not-compared",
        "src/immtools/immersion.py",
        "h.p1 > g.p1 or h.p2 > g.p2",
        "h.p1 > g.p1",
        ("tests/test_immersion.py::test_pair_counts_answer_without_a_step",),
        "a query with more 2-edge-connected pairs than its host is searched"
        " (first made for the pair-count rule)",
    ),
    Mutant(
        "cycle-rank-not-compared",
        "src/immtools/immersion.py",
        " or h.cycle_rank > g.cycle_rank:",
        ":",
        (_DIRECT_EDGES,),
        "a pattern of larger cycle rank than its host is searched (first"
        " made for the cycle-rank rule)",
    ),
    Mutant(
        "edge-budget-not-compared",
        "src/immtools/immersion.py",
        "if need > g.m - h.m:",
        "if False:",
        (_DIRECT_EDGES,),
        "a pattern whose routes of two host edges or more do not fit in the"
        " host's spare edges is searched (first made for the direct-edge"
        " budget)",
    ),
    Mutant(
        "spare-vertex-index-off-by-one",
        "src/immtools/immersion.py",
        "g.spare_capacity[g.n - h.n]",
        "g.spare_capacity[g.n - h.n + 1]",
        (_DIRECT_EDGES,),
        "a strong query counts one host vertex too many as free to carry"
        " routes (first made for the direct-edge budget)",
    ),
    Mutant(
        "table-skips-bent-states",
        "src/immtools/immersion.py",
        "(full ^ avail).bit_count() > j:",
        "(full ^ avail).bit_count() > j + 1:",
        ("tests/test_immersion.py::test_the_refuted_state_table_is_consulted",),
        "the refuted-state table is not consulted where one earlier route"
        " has two edges, though such states repeat; no answer or step count"
        " changes, only the hits (first made for consulting the table only"
        " where a state can repeat)",
    ),
    Mutant(
        "parallel-edges-tried-again",
        "src/immtools/immersion.py",
        "                untried &= ~links[nb]\n",
        "                untried &= ~e\n",
        ("tests/test_immersion.py::test_budget_boundary_pins_the_search_order",),
        "a path tries each parallel edge to a neighbour, not only the first;"
        " no answer changes, only the step counts (first made for the route"
        " kernel on edge masks)",
    ),
    Mutant(
        "x-frame-step-not-counted",
        "src/immtools/immersion.py",
        "                    untried = avail & links[x]\n                    steps += 1\n",
        "                    untried = avail & links[x]\n",
        ("tests/test_immersion.py::test_budget_boundary_pins_the_search_order",),
        "the route frame that turns into the path frame at x counts no step,"
        " so every budget boundary moves (first made for the route kernel on"
        " edge masks)",
    ),
    Mutant(
        "closing-edge-not-first",
        "src/immtools/immersion.py",
        "e = untried & to_y",
        "e = 0",
        ("tests/test_immersion.py::test_budget_boundary_pins_the_search_order",),
        "a path tries its edge to the route's end in edge order, not first;"
        " no answer changes, only first-found step counts and certificates"
        " (first made for closing each route first)",
    ),
    Mutant(
        "closing-frame-drops-its-other-edges",
        "src/immtools/immersion.py",
        "                    nb = y\n",
        "                    nb = y\n                    untried = 0\n",
        ("tests/test_immersion.py::test_enumeration_pins_the_immersions_and_steps",),
        "a path whose closing edge failed tries none of its other edges."
        " No status changes: a later route through the closing edge could"
        " take the detour instead, so the pruned subtrees hold no first"
        " immersion, and neither the oracle nor the planted queries kill"
        " it. Exhaustive counts and the enumeration change (first made for"
        " closing each route first)",
    ),
    Mutant(
        "budget-answered-at-the-limit",
        "src/immtools/immersion.py",
        "if budget is not None and searcher.steps > budget:",
        "if budget is not None and searcher.steps >= budget:",
        ("tests/test_immersion.py::test_budget_boundary_pins_the_search_order",),
        "a search that ends absent on exactly its budget's last step answers"
        " budget (first made for the step count as the one budget signal)",
    ),
    # -- the counting rules, against planted immersions: each unsound
    # variant answers absent on hosts that hold an immersion by design
    Mutant(
        "cycle-rank-compared-with-ge",
        "src/immtools/immersion.py",
        "h.cycle_rank > g.cycle_rank",
        "h.cycle_rank >= g.cycle_rank",
        (_PLANTED,),
        "a pattern of the host's cycle rank is ruled out (first made for"
        " the planted immersions)",
    ),
    Mutant(
        "edge-budget-halved",
        "src/immtools/immersion.py",
        "if need > g.m - h.m:",
        "if need > (g.m - h.m) // 2:",
        (_PLANTED,),
        "routes of two host edges or more get half the host's spare edges"
        " (first made for the planted immersions)",
    ),
    Mutant(
        "spare-vertex-comparison-strict",
        "src/immtools/immersion.py",
        "need <= g.spare_capacity[g.n - h.n]",
        "need < g.spare_capacity[g.n - h.n]",
        (_PLANTED,),
        "a strong query whose long routes exactly fill the spare vertices"
        " is ruled out (first made for the planted immersions)",
    ),
    Mutant(
        "p2-compared-with-ge",
        "src/immtools/immersion.py",
        "h.p2 > g.p2",
        "h.p2 >= g.p2",
        (_PLANTED,),
        "a pattern with as many 2-edge-connected pairs as its host is ruled"
        " out (first made for the planted immersions)",
    ),
    # -- the multigraph index
    Mutant(
        "incident-edge-off-by-one",
        "src/immtools/multigraph.py",
        "return [index.edges[k] for k in",
        "return [index.edges[k - 1] for k in",
        ("tests/test_multigraph.py::test_incidence_index_matches_an_edge_scan",),
        "incident(v) names the edge after each incident one (first made for"
        " the string queries read from the index)",
    ),
    # -- the simple-graph index
    Mutant(
        "index-sets-one-direction",
        "src/immtools/simplegraph.py",
        "            _join(nbr, index[u], index[v])\n",
        "            nbr[index[u]] |= 1 << index[v]\n",
        ("tests/test_simplegraph.py::test_the_index_matches_an_edge_scan",),
        "each edge of a SimpleGraph is in the mask of one of its ends only,"
        " so the subset searches that read the masks lose neighbours (first"
        " made for the cached neighbour masks)",
    ),
    Mutant(
        "path-union-accepts-degree-three",
        "src/immtools/simplegraph.py",
        "        if d > 2:\n",
        "        if d > 3:\n",
        ("tests/test_simplegraph.py::test_the_mask_readers_match_the_queries",),
        "a claw counts as a union of paths, so a linearizing set can be too"
        " small (first made for the cached neighbour masks)",
    ),
    # -- the linearizing-set search
    Mutant(
        "keep-branch-keeps-three-neighbours",
        "src/immtools/pathdecomp.py",
        "if size > 2 or least > 2:",
        "if size > 3 or least > 2:",
        ("tests/test_pathdecomp.py::test_linearizing_search_prunes",),
        "a kept vertex with three kept neighbours, a claw no deletion can"
        " break, is its own keep branch, so the search makes that node again"
        " until the work limit (first made for the branching linearizing"
        " search)",
    ),
    Mutant(
        "cycle-costs-nothing",
        "src/immtools/pathdecomp.py",
        "                k -= 1\n                deleted |= free & -free\n",
        "                deleted |= free & -free\n",
        ("tests/test_pathdecomp.py::test_each_cycle_costs_one_deletion",),
        "the cycles left once every live degree is at most 2 use up none of"
        " the deletions, so too small a set counts as enough (first made for"
        " the branching linearizing search)",
    ),
    Mutant(
        "lexicographic-pass-keeps-a-deletable-vertex",
        "src/immtools/pathdecomp.py",
        "found = self.feasible(live ^ bit, kept, k - 1)",
        "found = None",
        ("tests/test_pathdecomp.py::test_linearizing_search_on_a_benchmark_graph_above_the_enumerators",),
        "the pass keeps every vertex outside the first set the size search"
        " found, which is a smallest set but not the first in lexicographic"
        " order (first made for the branching linearizing search)",
    ),
    # -- linearity certificates
    Mutant(
        "sweep-misses-the-last-crossing",
        "src/immtools/pathdecomp.py",
        "first, last = lo // 2 + 1, (hi - 1) // 2",
        "first, last = lo // 2 + 1, (hi - 1) // 2 - 1",
        ("tests/test_pathdecomp.py",),
        "the width sweep stops one ordering vertex short of an edge's far"
        " end (first made for the one-sweep width and boundedness)",
    ),
    Mutant(
        "linearizing-set-not-closed",
        "src/immtools/pathdecomp.py",
        "closed = [index[v] for v in A]",
        "closed = []",
        ("tests/test_pathdecomp.py",),
        "a separator flow runs through the linearizing set A (first made"
        " for the separators on G's own network)",
    ),
    # -- canonical keys
    Mutant(
        "start-colour-drops-the-loop-count",
        "src/immtools/iso.py",
        "_rank([(degrees[v], k) for v, k in zip(names, loops)])",
        "_rank([(degrees[v], 0) for v, k in zip(names, loops)])",
        (_SWEEP_KEYS,),
        "a vertex with loops ranks by its neighbours' colours alone, so the"
        " blocks come in another order and the key differs (first made for"
        " the integer refinement)",
    ),
    Mutant(
        "twins-by-neighbour-set",
        "src/immtools/iso.py",
        "return {w: k for w, k in mult[u].items() if w != v} == {\n"
        "        w: k for w, k in mult[v].items() if w != u\n    }",
        "return mult[u].keys() - {v} == mult[v].keys() - {u}",
        ("tests/test_iso.py::test_keys_match_the_oracle_on_random_multigraphs",),
        "vertices with the same neighbours at different multiplicities count"
        " as twins, so a block skips orders that give the least form (first"
        " made for the twin-pruned product)",
    ),
    Mutant(
        "discrete-pairs-unordered",
        "src/immtools/iso.py",
        "(ranks[i], ranks[j]) if ranks[i] <= ranks[j] else (ranks[j], ranks[i])",
        "(ranks[i], ranks[j])",
        (_SWEEP_KEYS,),
        "an edge of a discretely coloured graph keeps its ends in name order,"
        " so relabelling it changes its key (first made for the discrete"
        " fast path)",
    ),
    # -- command line
    Mutant(
        "edge-item-shape-unchecked",
        "src/immtools/jsonio.py",
        'eid = item.get("id") if isinstance(item, dict) else None',
        'eid = item.get("id")',
        ("tests/test_cli.py::test_mutated_artifacts_are_answered_or_rejected",),
        "a graph whose edge list holds a non-object escapes the command"
        " line as an AttributeError instead of exit 1 (first made for the"
        " mutated-artifact test)",
    ),
    Mutant(
        "required-flag-not-checked",
        "src/immtools/cli.py",
        "if default is _REQUIRED and f not in given",
        "if False",
        ("tests/test_cli.py::test_usage_errors_are_malformed_input",),
        "a command runs without one of its required flags (first made for"
        " the command table)",
    ),
)


def _copy_repository(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work",
    ))


def _pytest(copy: Path, tests: Sequence[str], timeout: float) -> Tuple[Optional[int], str]:
    """Run the tests in the copy: pytest's exit code (None on timeout) and
    the first line that names a failing test."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, ""
    failed = next((
        line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ), "")
    return done.returncode, failed


def run_mutant(copy: Path, mutant: Mutant) -> Tuple[str, str]:
    """Apply one mutant to the copy, run its tests and restore the file:
    the outcome and a detail line."""
    target = copy / mutant.path
    source = target.read_text()
    found = source.count(mutant.fragment)
    if found != 1:
        return "stale", f"fragment found {found} times in {mutant.path}"
    target.write_text(source.replace(mutant.fragment, mutant.replacement))
    try:
        code, failed = _pytest(copy, mutant.tests, TIMEOUT)
    finally:
        target.write_text(source)
    if code is None:
        return "timeout", f"tests still running after {TIMEOUT:g} s"
    if code == 0:
        return "survived", "every named test passed"
    if code in (4, 5):  # usage error, or no tests collected
        return "stale", "pytest found none of the named tests"
    return "killed", failed or f"pytest exit code {code}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in CATALOGUE}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in CATALOGUE if not args.names or m.name in args.names]

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="immtools-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        _copy_repository(copy)
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        code, failed = _pytest(copy, tests, TIMEOUT * len(chosen))
        if code != 0:
            print(f"the named tests do not pass unmutated: {failed or f'exit code {code}'}")
            return 2
        print(f"unmutated: {len(tests)} test targets pass ({time.perf_counter() - start:.1f} s)")
        outcomes = []
        for m in chosen:
            t0 = time.perf_counter()
            outcome, detail = run_mutant(copy, m)
            outcomes.append(outcome)
            print(f"{outcome:<9} {time.perf_counter() - t0:6.1f} s  {m.name}: {detail}", flush=True)
    counts = {k: outcomes.count(k) for k in ("killed", "survived", "timeout", "stale")}
    print(
        f"{len(outcomes)} mutants: "
        + ", ".join(f"{v} {k}" for k, v in counts.items())
        + f" ({time.perf_counter() - start:.1f} s)"
    )
    return 0 if counts["killed"] == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
