"""Spans around the calls into each immtools layer, for the traced run.

`Tracer.install` replaces the public functions named in `SPANS` with
timing wrappers: in the namespace of every immtools module that binds the
function (so `treecut.max_flow_min_cut` is wrapped as well as
`connectivity.max_flow_min_cut`), and on the class for methods.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
`write` dumps them when the run ends.  A few counters are taken at the
same boundaries from the arguments and return values.  `layer_metrics`
turns spans and counters into the per-layer metrics of BENCHMARK.json.
The program under test is not modified: wrappers live only here and are
removed by `uninstall`.
"""

from __future__ import annotations

import array
import gzip
import importlib
import time
from collections import Counter
from typing import Dict, List, Tuple

MODULES = (
    "bounds", "cli", "connectivity", "flow", "generators", "immersion", "iso",
    "jsonio", "multigraph", "pathdecomp", "simplegraph", "treecut",
)

_JSONIO = (
    "graph_to_json", "graph_from_json", "cut_witness_to_json",
    "cut_witness_from_json", "immersion_to_json", "immersion_from_json",
    "linearity_to_json", "linearity_from_json", "failure_to_json",
    "failure_from_json", "treecut_to_json", "treecut_from_json",
    "torso_to_json", "structure_to_json", "structure_from_json",
)
_SIMPLEGRAPH_QUERIES = (
    "adjacency", "neighbors", "without", "connected_components",
    "is_connected", "is_disjoint_union_of_paths", "is_tree", "leaves",
)

# (module, function or Class.method, layer group).  Groups are the metric
# name prefixes; functions left out here are timed as part of their caller.
SPANS: List[Tuple[str, str, str]] = [
    ("flow", "FlowNetwork.max_flow", "flow.max_flow"),
    ("flow", "FlowNetwork.extract_paths", "flow.extract_paths"),
    ("connectivity", "max_flow_min_cut", "connectivity.max_flow_min_cut"),
    ("connectivity", "is_k_edge_connected_set", "connectivity.is_k_edge_connected_set"),
    ("multigraph", "Multigraph.__init__", "multigraph.construct"),
    *[("multigraph", f"Multigraph.{m}", "multigraph.query")
      for m in ("degree", "incident", "neighbors", "boundary", "adjacency")],
    *[("multigraph", f"Multigraph.{m}", "multigraph.derive")
      for m in ("induced", "without_vertices", "without_edges")],
    ("multigraph", "consolidate", "multigraph.derive"),
    ("immersion", "find_immersion", "immersion.find_immersion"),
    ("immersion", "verify_immersion", "immersion.verify_immersion"),
    ("iso", "canonical_key", "iso.canonical_key"),
    *[("simplegraph", f"SimpleGraph.{m}", "simplegraph.query")
      for m in _SIMPLEGRAPH_QUERIES],
    *[("pathdecomp", f, f"pathdecomp.{f}") for f in (
        "build_auxiliary_graph", "min_linearizing_set", "has_k1k_minor",
        "compute_separator", "linear_decompose", "verify_linear_certificate")],
    *[("treecut", f, f"treecut.{f}") for f in (
        "structure_decompose", "is_alpha_basic", "torso_at", "adhesion",
        "is_grounded", "verify_structure")],
    *[("jsonio", f, "jsonio") for f in _JSONIO],
    ("cli", "main", "cli.main"),
]

# Per-layer metrics, in BENCHMARK.json order: (name, unit).  Self time is
# reported as a share of the traced run's wall time, so a layer that a
# workload never calls reads 0 as a share rather than as a time.
_CALLS = (
    "flow.max_flow", "connectivity.max_flow_min_cut",
    "connectivity.is_k_edge_connected_set", "multigraph.construct",
    "immersion.find_immersion", "iso.canonical_key",
    "pathdecomp.compute_separator", "treecut.torso_at", "treecut.is_grounded",
    "cli.main",
)
_SHARES = (
    "flow.max_flow", "flow.extract_paths", "connectivity.max_flow_min_cut",
    "connectivity.is_k_edge_connected_set", "multigraph.construct",
    "multigraph.query", "multigraph.derive", "immersion.find_immersion",
    "immersion.verify_immersion", "iso.canonical_key", "simplegraph.query",
    "pathdecomp.build_auxiliary_graph", "pathdecomp.min_linearizing_set",
    "pathdecomp.has_k1k_minor", "pathdecomp.compute_separator",
    "pathdecomp.linear_decompose", "pathdecomp.verify_linear_certificate",
    "treecut.structure_decompose", "treecut.is_alpha_basic", "treecut.torso_at",
    "treecut.adhesion", "treecut.is_grounded", "treecut.verify_structure",
    "jsonio", "cli.main",
)
_COUNTS = (
    ("flow.bfs_rounds", "count"), ("flow.arcs_built", "count"),
    ("connectivity.flows_per_kecs", "ratio"),
    ("immersion.found", "count"), ("immersion.absent", "count"),
    ("immersion.budget", "count"), ("immersion.useful_ratio", "ratio"),
    ("simplegraph.paths_tests", "count"), ("pathdecomp.aux_flows", "count"),
    ("cli.exit_1", "count"), ("cli.exit_2", "count"), ("cli.exit_3", "count"),
)
METRICS: List[Tuple[str, str]] = (
    [(f"{g}.calls", "count") for g in _CALLS]
    + [(f"{g}.self_share", "fraction") for g in _SHARES]
    + list(_COUNTS)
    + [("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.groups: List[str] = []
        self.name_id = array.array("H")
        self.parent = array.array("l")
        self.outer = bytearray()  # 1 when no call of the same name encloses the span
        self.start = array.array("q")
        self.end = array.array("q")
        self.counters: Counter = Counter()
        self._depth: List[int] = []  # calls in progress, per span name id
        self._nid: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span_name: str, group: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        self.groups.append(group)
        self._nid[span_name] = nid
        self._depth.append(0)
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        on_enter, on_exit = self._hooks(span_name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(0 if depth[nid] else 1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            depth[nid] += 1
            if on_enter is not None:
                on_enter(args)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if on_exit is not None:
                on_exit(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def _in_progress(self, span_name: str) -> bool:
        nid = self._nid.get(span_name)
        return nid is not None and self._depth[nid] > 0

    def _hooks(self, span_name: str):
        c = self.counters
        if span_name == "flow.FlowNetwork.max_flow":
            def enter(args):
                c["flow.arcs_built"] += len(args[0].head)

            def leave(value):
                c["flow.bfs_rounds"] += value + 1
            return enter, leave
        if span_name == "connectivity.max_flow_min_cut":
            def enter(args):
                if self._in_progress("connectivity.is_k_edge_connected_set"):
                    c["flows_in_kecs"] += 1
                if self._in_progress("pathdecomp.build_auxiliary_graph"):
                    c["pathdecomp.aux_flows"] += 1
            return enter, None
        if span_name == "immersion.find_immersion":
            def leave(result):
                c[f"immersion.{result.status}"] += 1
            return None, leave
        if span_name == "simplegraph.SimpleGraph.is_disjoint_union_of_paths":
            def enter(args):
                c["simplegraph.paths_tests"] += 1
            return enter, None
        if span_name == "cli.main":
            def leave(code):
                c[f"cli.exit_{code}"] += 1
            return None, leave
        return None, None

    def install(self, immtools_pkg) -> None:
        modules = {m: importlib.import_module(f"immtools.{m}") for m in MODULES}
        namespaces = [immtools_pkg] + list(modules.values())
        for mod_name, qualname, group in SPANS:
            mod = modules[mod_name]
            span_name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, attr, self._wrap(span_name, group, vars(cls)[attr]))
                continue
            fn = getattr(mod, qualname)
            wrapper = self._wrap(span_name, group, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_ns (duration minus child spans) and
        total_ns (outermost calls only, so recursion is not counted twice)."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in self.names}
        name_id, outer = self.name_id, self.outer
        for i in range(n):
            rec = per[self.names[name_id[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_ns"] += dur - child[i]
            if outer[i]:
                rec["total_ns"] += dur
        return per

    def layer_totals(self, per: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, int]]:
        """Per layer group: calls and self_ns summed over its span names."""
        totals = {group: {"calls": 0, "self_ns": 0} for group in self.groups}
        for name, group in zip(self.names, self.groups):
            totals[group]["calls"] += per[name]["calls"]
            totals[group]["self_ns"] += per[name]["self_ns"]
        return totals

    def layer_metrics(self, totals: Dict[str, Dict[str, int]], wall_ns: int,
                      overhead_s: float) -> Dict[str, Dict[str, float]]:
        calls = {g: t["calls"] for g, t in totals.items()}
        c = self.counters
        values = {}
        for g in _CALLS:
            values[f"{g}.calls"] = calls[g]
        for g in _SHARES:
            values[f"{g}.self_share"] = totals[g]["self_ns"] / wall_ns
        for key, _ in _COUNTS:
            values[key] = c[key]
        kecs = calls["connectivity.is_k_edge_connected_set"]
        values["connectivity.flows_per_kecs"] = c["flows_in_kecs"] / kecs if kecs else 0.0
        searches = calls["immersion.find_immersion"]
        useful = c["immersion.found"] + c["immersion.absent"]
        values["immersion.useful_ratio"] = useful / searches if searches else 0.0
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated text: index, name, start_ns,
        end_ns, parent index (-1 for a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# index\tname\tstart_ns\tend_ns\tparent\n")
            names, name_id = self.names, self.name_id
            chunk: List[str] = []
            for i in range(len(self.start)):
                chunk.append(
                    f"{i}\t{names[name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))
