"""Reference immersion-certificate verifier, edge by edge.

Each helper scans the whole image for every vertex it visits, and the
cycle test lists simple paths back to the vertex, so this is only fit for
small images.  `immtools.immersion.verify_immersion` reads the same host
edges, but builds one adjacency per image and walks it once per check.
`violations` returns the same messages in the same order as
`verify_immersion` for certificates whose references are valid.
"""

from __future__ import annotations

from typing import Dict, List, Set

from immtools import ImmersionCertificate, Multigraph


def _edge_subgraph_vertices(G: Multigraph, edge_ids) -> Set[str]:
    verts: Set[str] = set()
    for e in edge_ids:
        a, b = G.edges[e]
        verts.add(a)
        verts.add(b)
    return verts


def _edge_set_connected(G: Multigraph, edge_ids) -> bool:
    edge_ids = set(edge_ids)
    if not edge_ids:
        return True
    verts = _edge_subgraph_vertices(G, edge_ids)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in edge_ids:
            a, b = G.edges[e]
            if a == v and b not in seen:
                seen.add(b)
                stack.append(b)
            elif b == v and a not in seen:
                seen.add(a)
                stack.append(a)
    return seen == verts


def _has_cycle_through(G: Multigraph, edge_ids, v: str) -> bool:
    edge_ids = set(edge_ids)
    for e in edge_ids:
        a, b = G.edges[e]
        if a == b == v:
            return True
    # a non-loop cycle through v: leave v by one edge, return by a different one
    for first in sorted(edge_ids):
        a, b = G.edges[first]
        if v not in (a, b) or a == b:
            continue
        start = b if a == v else a
        # DFS back to v avoiding the first edge and revisits
        stack = [(start, {start}, {first})]
        while stack:
            cur, seen, used = stack.pop()
            for e in edge_ids - used:
                x, y = G.edges[e]
                if x == y:
                    continue
                if cur not in (x, y):
                    continue
                nxt = y if x == cur else x
                if nxt == v:
                    return True
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, used | {e}))
    return False


def violations(
    G: Multigraph, H: Multigraph, cert: ImmersionCertificate, strong: bool
) -> List[str]:
    vm, em = cert.vertex_map, cert.edge_map
    out: List[str] = []
    images: Dict[str, List[str]] = {}
    for hv, gv in vm.items():
        images.setdefault(gv, []).append(hv)
    for gv, hvs in sorted(images.items()):
        if len(hvs) > 1:
            out.append(f"vertex_map not injective: {sorted(hvs)} all map to {gv!r}")
    claimed: Dict[str, str] = {}
    for he in sorted(em):
        for e in sorted(em[he]):
            if e in claimed:
                out.append(f"edges {claimed[e]!r} and {he!r} share host edge {e!r}")
            else:
                claimed[e] = he
    for he in sorted(H.edges):
        hu, hv = H.edges[he]
        edge_ids = em[he]
        spanned = _edge_subgraph_vertices(G, edge_ids)
        if hu == hv:
            if not _has_cycle_through(G, edge_ids, vm[hu]):
                out.append(f"loop {he!r}: image contains no cycle through {vm[hu]!r}")
        elif vm[hu] not in spanned or vm[hv] not in spanned:
            out.append(f"edge {he!r}: image misses an endpoint image")
        if not _edge_set_connected(G, edge_ids):
            out.append(f"edge {he!r}: image is not connected")
        if strong:
            for hw in sorted(H.vertices - {hu, hv}):
                if vm[hw] in spanned:
                    out.append(
                        f"edge {he!r}: image contains branch vertex {vm[hw]!r}"
                        f" (= image of non-incident {hw!r})"
                    )
    return out
