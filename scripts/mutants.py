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
_VERIFIER_ORACLE = "tests/test_immersion.py::test_verifier_agrees_with_the_edge_scanning_oracle"
_PLANTED = "tests/test_planted.py::test_no_planted_query_is_absent"
_SWEEP_KEYS = "tests/test_iso.py::test_keys_match_the_oracle_on_the_sweep_graphs"
_CACHED_FACTS = "tests/test_multigraph.py::test_cached_search_facts_match_a_fresh_computation"
_COUNTING_FACTS = "tests/test_multigraph.py::test_counting_facts_match_a_brute_force_count"
_TWIN_CLASSES = "tests/test_multigraph.py::test_twin_classes_match_the_definition"
_VERTEX_SETS = "tests/test_multigraph.py::test_every_vertex_set_check_names_all_its_unknown_vertices"
_STAR_AGREEMENT = "tests/test_pathdecomp.py::test_subset_searches_agree_with_the_oracle_on_small_graphs"
_AUX_NO_FLOW = "tests/test_pathdecomp.py::test_at_m_1_the_auxiliary_graph_builds_no_network"
_STAR_MODEL_SHAPES = "tests/test_pathdecomp.py::test_star_model_violations_name_each_rejected_shape"

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
        "for i in cut:\n                ends.append(",
        "for i in cut[1:]:\n                ends.append(",
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
    Mutant(
        "flow-layout-keeps-loops",
        "src/immtools/flow.py",
        "ends = [numbering.ends[k] for k in kept]",
        "ends = list(numbering.ends)",
        ("tests/test_flow.py::test_flow_core_agrees_with_the_oracle",),
        "a loop is laid out as an arc pair, so every later pair is one"
        " place past its edge id and the paths name the wrong edges (first"
        " made for the network laid out from the numbering)",
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
    # -- edge sums
    Mutant(
        "glue-loop-unchecked",
        "src/immtools/treecut.py",
        "if any(G.edges[e] == (v, v) for e in edges):",
        "if False:",
        ("tests/test_treecut.py::test_edge_sum_rejections_name_the_problem",
         "tests/test_treecut.py::test_is_grounded_rejections_name_the_problem"),
        "edge_sum, is_grounded and compose_decompositions accept a glue"
        " vertex with a loop, and edge_sum then reports it as some other"
        " problem (first made for the shared glue check)",
    ),
    # -- flow decomposition
    Mutant(
        "walk-cycle-not-trimmed",
        "src/immtools/flow.py",
        "walk = walk[:p]",
        "walk = walk",
        ("tests/test_flow.py::test_extracted_paths_trim_a_circulation_off_the_flow",),
        "a path extracted from a flow with a circulation keeps the cycle's"
        " arcs, so it is not a walk (first made for the circulation test)",
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
        "came[v] = -1",
        "pass",
        (_PAIR_COUNTS, _RULED_OUT),
        "every edge back to the parent is skipped, so a doubled edge counts"
        " as a bridge and a host has too few 2-edge-connected pairs (first"
        " made for the pair-count rule, re-expressed on neighbour lists)",
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
        "twin-bound-dropped",
        "src/immtools/immersion.py",
        "low = img[twin[i]] + 1",
        "pass",
        ("tests/test_immersion.py::test_twin_breaking_refutes_strong_k4_in_pk_chorded_7",),
        "a pattern vertex takes images below its nearest earlier twin's, so"
        " the search tries every order of K4's images and strong K4 in"
        " pk_chorded(7) runs out of its budget (first made for the twin"
        " bound)",
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
        "return sorted(e for e, ends in self.edges.items() if v in ends)",
        "return sorted(e for e, ends in self.edges.items() if v in ends)[1:]",
        ("tests/test_multigraph.py::test_incidence_index_matches_an_edge_scan",),
        "incident(v) leaves out the first of its edges (first made for the"
        " string queries read from the index, re-expressed on the edge scan)",
    ),
    Mutant(
        "index-counts-a-loop-once",
        "src/immtools/multigraph.py",
        "        degree[u] += 1\n        degree[v] += 1\n",
        "        degree[u] += 1\n        degree[v] += u != v\n",
        (_CACHED_FACTS,),
        "a loop adds 1, not 2, to numbering.degree, so the degree sequence,"
        " the spare capacity and the pattern order are wrong for looped"
        " graphs (first made for the degrees counted in the index's own"
        " edge loop, re-expressed on the numbering's)",
    ),
    Mutant(
        "numbering-keeps-insertion-order",
        "src/immtools/multigraph.py",
        "edges = tuple(sorted(G.edges))",
        "edges = tuple(G.edges)",
        (_CACHED_FACTS,),
        "edge positions follow insertion order, not edge ids, so bits and"
        " positions no longer compare ids, and the search's edge order and"
        " first certificate depend on how a graph was built (first made for"
        " the one numbering)",
    ),
    Mutant(
        "counts-a-loop-as-a-pair",
        "src/immtools/multigraph.py",
        "(loops if u == v else pairs).append(k)",
        "pairs.append(k)",
        (_COUNTING_FACTS,),
        "a vertex's loops count as the multiplicity of a vertex pair, so"
        " the pair multiplicities are too many and the loop counts empty"
        " (first made for the counts read off the index)",
    ),
    # -- the vertex-set check
    Mutant(
        "vertex-set-check-reads-the-first-vertex",
        "src/immtools/multigraph.py",
        "unknown = X - vertices",
        "unknown = set(sorted(X)[:1]) - vertices",
        (_VERTEX_SETS,),
        "a vertex set is checked on its first vertex only, so an unknown"
        " vertex after it passes (first made for the shared vertex-set"
        " check)",
    ),
    Mutant(
        "vertex-set-check-needs-two-unknown",
        "src/immtools/multigraph.py",
        "    if unknown:\n        raise ValueError(f\"{what}: {sorted(unknown)}\")",
        "    if len(unknown) > 1:\n        raise ValueError(f\"{what}: {sorted(unknown)}\")",
        (_VERTEX_SETS,),
        "a vertex set with one unknown vertex passes the check (first made"
        " for the shared vertex-set check)",
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
    # -- the auxiliary graph
    Mutant(
        "shared-components-not-counted",
        "src/immtools/pathdecomp.py",
        "paths = mult + shared",
        "paths = mult",
        (_AUX_NO_FLOW,),
        "a pair that shares a component of G - W runs a flow to learn what"
        " the component already shows (first made for the shared-component"
        " rule)",
    ),
    Mutant(
        "known-paths-must-exceed-m",
        "src/immtools/pathdecomp.py",
        "if count >= m:",
        "if count > m:",
        (_AUX_NO_FLOW,),
        "a pair with exactly m known paths is neither joined nor given a"
        " flow, so the auxiliary graph loses edges (first made for the"
        " shared-component rule)",
    ),
    # -- the star model
    Mutant(
        "star-centre-at-the-highest-vertex",
        "src/immtools/pathdecomp.py",
        "root = (C & -C).bit_length() - 1",
        "root = C.bit_length() - 1",
        (_STAR_AGREEMENT,),
        "the star model's tree grows from, and is centred at, the highest"
        " vertex of the center set (first made for the one-walk star model)",
    ),
    Mutant(
        "star-leaf-at-its-highest-anchor",
        "src/immtools/pathdecomp.py",
        "verts[(anchors & -anchors).bit_length() - 1]",
        "verts[anchors.bit_length() - 1]",
        (_STAR_AGREEMENT,),
        "each leaf of a star model hangs from its highest neighbour in the"
        " center set (first made for the one-walk star model)",
    ),
    Mutant(
        "star-tree-breadth-first",
        "src/immtools/pathdecomp.py",
        "        v = stack.pop()\n        new = nbr[v] & C & ~seen\n",
        "        v = stack.pop(0)\n        new = nbr[v] & C & ~seen\n",
        (_STAR_AGREEMENT,),
        "the star model spans its center set by a breadth-first tree; the"
        " two trees differ only on a center set with a cycle of length >= 4,"
        " which needs a 12-vertex graph (first made for the one-walk star"
        " model)",
    ),
    Mutant(
        "star-model-vertices-unchecked",
        "src/immtools/simplegraph.py",
        "if not self.tree.vertices <= host.vertices:",
        "if False:",
        (_STAR_MODEL_SHAPES,),
        "a star model whose tree has a vertex outside the host is reported"
        " without that violation (first made for the star model's"
        " rejection tests)",
    ),
    Mutant(
        "star-model-edges-unchecked",
        "src/immtools/simplegraph.py",
        "if not self.tree.edges <= host.edges:",
        "if False:",
        (_STAR_MODEL_SHAPES,),
        "a star model whose tree uses an edge the host lacks passes (first"
        " made for the star model's rejection tests)",
    ),
    Mutant(
        "star-model-tree-unchecked",
        "src/immtools/simplegraph.py",
        "if not self.tree.is_tree():",
        "if False:",
        (_STAR_MODEL_SHAPES,),
        "a star model whose connecting subgraph has a cycle is judged by its"
        " leaves alone (first made for the star model's rejection tests)",
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
    # -- the one work limit
    Mutant(
        "work-limit-reached-counts-as-over",
        "src/immtools/multigraph.py",
        "if done > _WORK_LIMIT:",
        "if done >= _WORK_LIMIT:",
        ("tests/test_pathdecomp.py::test_linearizing_search_answers_at_exactly_its_node_count",),
        "a search that needs exactly the limit's units raises instead of"
        " answering (first made for the one work check in multigraph.py)",
    ),
    Mutant(
        "key-forms-checked-before-the-last-factor",
        "src/immtools/iso.py",
        "            forms *= math.comb(placed, len(cls))\n"
        "            _check_work(forms, \"labelled forms\", \"canonical key\")\n",
        "            _check_work(forms, \"labelled forms\", \"canonical key\")\n"
        "            forms *= math.comb(placed, len(cls))\n",
        ("tests/test_iso.py::test_keys_past_the_work_limit_are_refused_before_any_form_is_made",),
        "keying checks the forms before the last class's factor, so at limit"
        " 100 C5's 120 forms pass (first made for the one work check in"
        " multigraph.py)",
    ),
    # -- canonical keys
    Mutant(
        "start-colour-drops-the-loop-count",
        "src/immtools/iso.py",
        "_rank(list(zip(degree, loops)))",
        "_rank(list(zip(degree, [0] * n)))",
        (_SWEEP_KEYS,),
        "a vertex with loops ranks by its neighbours' colours alone, so the"
        " blocks come in another order and the key differs (first made for"
        " the integer refinement)",
    ),
    Mutant(
        "refinement-counts-a-loop-once",
        "src/immtools/iso.py",
        "_rank(list(zip(degree, loops)))",
        "_rank([(d - k, k) for d, k in zip(degree, loops)])",
        (_SWEEP_KEYS,),
        "a loop adds 1, not 2, to the start colour's degree, so a looped"
        " vertex ranks below an unlooped one of its degree and the key"
        " differs (first made for the degrees counted in the refinement's"
        " own edge pass, re-expressed on the numbering's degrees)",
    ),
    Mutant(
        "discrete-pairs-unordered",
        "src/immtools/iso.py",
        "(pos[i], pos[j]) if pos[i] <= pos[j] else (pos[j], pos[i])",
        "(pos[i], pos[j])",
        (_SWEEP_KEYS,),
        "an edge of a graph with one vertex order keeps its ends in name"
        " order, so relabelling it changes its key (first made for the"
        " discrete fast path)",
    ),
    Mutant(
        "least-form-keeps-the-first",
        "src/immtools/iso.py",
        "if best is None or form < best:",
        "if best is None:",
        (_SWEEP_KEYS,),
        "the key of a graph with several vertex orders is the form of the"
        " first one, which need not be the least (first made when every"
        " graph without a discrete colouring took the product)",
    ),
    # -- twin classes, which canonical keys and the immersion search share
    Mutant(
        "twins-by-neighbour-set",
        "src/immtools/multigraph.py",
        "[x for x in firsts[w] if x != v] == [x for x in key if x != w]",
        "set(firsts[w]) - {v} == set(key) - {w}",
        (_TWIN_CLASSES, "tests/test_iso.py::test_keys_match_the_oracle_on_random_multigraphs"),
        "joined vertices with the same neighbours at different multiplicities"
        " count as twins, so a colour block skips orders that give the least"
        " form (first made for the twin-pruned product, in iso.py's own twin"
        " test)",
    ),
    Mutant(
        "unjoined-twins-keyed-by-neighbour-set",
        "src/immtools/multigraph.py",
        "key = tuple(sorted(nbrs[v]))",
        "key = tuple(sorted(set(nbrs[v])))",
        (_TWIN_CLASSES,),
        "unjoined vertices with the same neighbours at different"
        " multiplicities count as twins (first made for the one twin"
        " relation)",
    ),
    Mutant(
        "joined-twins-compared-whole",
        "src/immtools/multigraph.py",
        "[x for x in firsts[w] if x != v] == [x for x in key if x != w]",
        "firsts[w] == key",
        (_TWIN_CLASSES,),
        "two joined twins are compared with each other still in their"
        " neighbour lists, so no joined twins are found and K_n's vertices"
        " are tried in every order (first made for the one twin relation)",
    ),
    # -- certificate verification
    Mutant(
        "loop-returns-by-the-edge-it-left-on",
        "src/immtools/immersion.py",
        "reached = {x}",
        "reached = set()",
        (_VERIFIER_ORACLE,),
        "the cycle search for a loop spreads back through x, so a path"
        " through x passes for a cycle through it (first made for the"
        " verifier on the named host edges)",
    ),
    Mutant(
        "strong-check-skips-one-end",
        "src/immtools/immersion.py",
        "if hw != hu and hw != hv]",
        "if hw != hu]",
        (_VERIFIER_ORACLE,),
        "a strong image is charged with the image of its own second end as"
        " a foreign branch vertex (first made for the verifier on the named"
        " host edges)",
    ),
    Mutant(
        "connectivity-checked-from-three-edges",
        "src/immtools/immersion.py",
        "if len(em[he]) > 1 and",
        "if len(em[he]) > 2 and",
        (_VERIFIER_ORACLE,),
        "an image of two disjoint host edges, one at each end image, passes"
        " as connected (first made for the verifier on the named host"
        " edges)",
    ),
    Mutant(
        "spread-leaves-its-start-unmarked",
        "src/immtools/simplegraph.py",
        "    reached.add(v)\n    stack = [v]\n",
        "    stack = [v]\n",
        (_VERIFIER_ORACLE, "tests/test_simplegraph.py::test_the_mask_readers_match_the_queries"),
        "the depth-first spread does not mark the vertex it starts from, so"
        " an isolated vertex has an empty component and a loop image of two"
        " parallel edges has no cycle (first made when the verifier and"
        " connected_components came to share it)",
    ),
    Mutant(
        "certificate-drops-the-last-route-edge",
        "src/immtools/immersion.py",
        "            while route:\n                e = route & -route",
        "            while route & (route - 1):\n                e = route & -route",
        ("tests/test_immersion.py::test_found_certificates_verify",),
        "each route of a found certificate loses its highest host edge, a"
        " one-edge route all of it (first made when one loop came to name"
        " every route)",
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
