"""Reference tree-cut queries: the per-edge versions that
`immtools.treecut` replaced.

`violations` runs the whole near-partition check on every call,
`_tree_side` walks the tree once per tree edge, `adhesion` takes the
boundary of each tree edge's side in G, and `torso_at` consolidates each
side found by its own walk, one side after another.  Each gives the same
answer, message or exception type as its `immtools` namesake, and
`torso_at` the same torso, edge order included, as `immtools.torsos`.

`structure_tree` is the recursive tree builder that `structure_decompose`
replaced with a loop over a stack of pieces: it makes the same splits,
validates both halves and renames every node with a "1:" or "2:" prefix
at every level, and names each glue vertex after every vertex on the
other side of its cut.  Its bags and tree edges are the loop's up to the
renaming that maps the i-th smallest node name to the i-th.  It fails on
a graph with a vertex that already bears a glue vertex's name.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from immtools import (
    CutWitness,
    Multigraph,
    SimpleGraph,
    Torso,
    TreeCutDecomposition,
    compose_decompositions,
    consolidate,
    is_grounded,
    is_k_edge_connected_set,
)
from immtools.treecut import _join_trees


def violations(G: Multigraph, D: TreeCutDecomposition) -> List[str]:
    out = []
    if not D.tree_nodes:
        out.append("decomposition tree has no nodes")
        return out
    if not SimpleGraph(D.tree_nodes, D.tree_edges).is_tree():
        out.append("decomposition tree is not a tree")
    if set(D.bags) != set(D.tree_nodes):
        out.append("bag index set differs from the tree nodes")
        return out
    seen: Dict[str, str] = {}
    for n in sorted(D.bags):
        for v in D.bags[n]:
            if v in seen:
                out.append(f"bags {seen[v]!r} and {n!r} both contain {v!r}")
            else:
                seen[v] = n
    if frozenset(seen) != G.vertices:
        missing = G.vertices - frozenset(seen)
        extra = frozenset(seen) - G.vertices
        if missing:
            out.append(f"bags miss vertices: {sorted(missing)}")
        if extra:
            out.append(f"bags contain foreign vertices: {sorted(extra)}")
    return out


def _require_valid(G: Multigraph, D: TreeCutDecomposition) -> None:
    bad = violations(G, D)
    if bad:
        raise ValueError("malformed decomposition: " + "; ".join(bad))


def _tree_side(D: TreeCutDecomposition, u: str, v: str) -> FrozenSet[str]:
    """Nodes of the component of T - uv containing v."""
    adj = SimpleGraph(D.tree_nodes, D.tree_edges).adjacency()
    comp = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if (x, y) in ((u, v), (v, u)):
                continue
            if y not in comp:
                comp.add(y)
                stack.append(y)
    return frozenset(comp)


def adhesion(G: Multigraph, D: TreeCutDecomposition) -> int:
    _require_valid(G, D)
    best = 0
    for e in D.tree_edges:
        u, v = sorted(e)
        side = frozenset().union(*(D.bags[n] for n in _tree_side(D, u, v)))
        best = max(best, len(G.boundary(side)))
    return best


def torso_at(G: Multigraph, D: TreeCutDecomposition, t: str) -> Torso:
    _require_valid(G, D)
    if t not in D.tree_nodes:
        raise ValueError(f"unknown tree node {t!r}")
    if len(D.tree_nodes) == 1:
        return Torso(graph=G, core=G.vertices, peripheral=frozenset())
    adj = SimpleGraph(D.tree_nodes, D.tree_edges).adjacency()
    graph = G
    for n in adj[t]:
        Z = frozenset().union(*(D.bags[x] for x in _tree_side(D, t, n)))
        if Z:
            graph = consolidate(graph, Z, name=f"peri:{n}")
    core = D.bags[t]
    return Torso(graph=graph, core=core, peripheral=graph.vertices - core)


def structure_tree(G: Multigraph, alpha: int) -> TreeCutDecomposition:
    high = frozenset(v for v in G.vertices if G.degree(v) >= alpha)
    witness = is_k_edge_connected_set(G, high, alpha)
    if witness is True:
        return TreeCutDecomposition(
            tree_nodes=frozenset({"n"}),
            tree_edges=frozenset(),
            bags={"n": G.vertices},
        )
    assert isinstance(witness, CutWitness)
    X = witness.source_side
    k = witness.value
    if k == 0:
        GX = G.induced(X)
        GY = G.without_vertices(X)
        assert len(GX.edges) < len(G.edges) and len(GY.edges) < len(G.edges)
        DX, DY = structure_tree(GX, alpha), structure_tree(GY, alpha)
        # the zero-order analogue of composition: any tree edge will do
        return _join_trees(
            DX, min(DX.tree_nodes), frozenset(), DY, min(DY.tree_nodes), frozenset()
        )
    vy = "cut:(" + "+".join(sorted(G.vertices - X)) + ")"
    vx = "cut:(" + "+".join(sorted(X)) + ")"
    GX = consolidate(G, G.vertices - X, name=vy)
    GY = consolidate(G, X, name=vx)
    assert len(GX.edges) < len(G.edges) and len(GY.edges) < len(G.edges), (
        "splitting on the witness cut must shed edges on both sides"
    )
    assert is_grounded(GX, vy, GY, vx), "minimum-order witness cut must be grounded"
    DX = structure_tree(GX, alpha)
    DY = structure_tree(GY, alpha)
    return compose_decompositions(GX, DX, GY, DY, vy, vx)
