"""Workload inputs, built by the benchmark's own code.

Nothing here calls `immtools.generators`, so a change to the program's
generators cannot change a workload.  Graphs are plain
``(vertices, edges)`` pairs, where ``edges`` maps an edge id to its two
endpoints; `to_multigraph` turns one into the program's type and
`to_json` writes the command line's wire format.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, List, Sequence, Tuple

Edges = Dict[str, Tuple[str, str]]
Graph = Tuple[List[str], Edges]


def _names(n: int) -> List[str]:
    return [f"v{i}" for i in range(n)]


def pk(k: int) -> Graph:
    """Path on k+1 vertices with every edge thickened to multiplicity k."""
    edges = {
        f"e{i}c{c}": (f"v{i}", f"v{i + 1}") for i in range(k) for c in range(k)
    }
    return _names(k + 1), edges


def pk_chorded(k: int) -> Graph:
    """pk(k) plus a simple chord between the vertices at distance two."""
    vertices, edges = pk(k)
    for i in range(k - 1):
        edges[f"chord{i}"] = (f"v{i}", f"v{i + 2}")
    return vertices, edges


def complete(n: int) -> Graph:
    names = _names(n)
    edges = {
        f"e{i}_{j}": (names[i], names[j])
        for i, j in itertools.combinations(range(n), 2)
    }
    return names, edges


def path(n: int) -> Graph:
    """The simple path P_n on n vertices."""
    return _names(n), {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(n - 1)}


def random_multigraph(n: int, edge_count: int, max_multiplicity: int, seed: int) -> Graph:
    """Loops allowed, at most max_multiplicity edges per vertex pair or
    loop site; the same arguments always give the same graph."""
    rng = random.Random(seed)
    names = _names(n)
    counts: Dict[Tuple[str, str], int] = {}
    edges: Edges = {}
    for idx in range(edge_count):
        while True:
            u = rng.choice(names)
            v = rng.choice(names)
            pair = (u, v) if u <= v else (v, u)
            if counts.get(pair, 0) < max_multiplicity:
                break
        counts[pair] = counts.get(pair, 0) + 1
        edges[f"e{idx}"] = pair
    return names, edges


def necklace(rng: random.Random, target: int) -> Graph:
    """Thick blocks in a ring, each joined to the next by one edge.

    A block is a complete graph on 3 to 5 vertices with every pair doubled,
    so each block vertex has degree at least 4, while the cut around any
    run of blocks has 2 edges: the tree-cut structure for alpha = 4 has one
    node per block.
    """
    vertices: List[str] = []
    edges: Edges = {}
    blocks: List[List[str]] = []
    while len(vertices) < target:
        block = [f"v{len(vertices) + j}" for j in range(rng.randint(3, 5))]
        vertices.extend(block)
        blocks.append(block)
        for a, b in itertools.combinations(block, 2):
            for _ in range(2):
                edges[f"e{len(edges)}"] = (a, b)
    for i, block in enumerate(blocks):
        following = blocks[(i + 1) % len(blocks)]
        edges[f"e{len(edges)}"] = (rng.choice(block), rng.choice(following))
    return vertices, edges


def to_multigraph(graph: Graph, multigraph_type):
    vertices, edges = graph
    return multigraph_type(frozenset(vertices), dict(edges))


def to_json(graph: Graph) -> dict:
    """The command line's graph format (see immtools.jsonio)."""
    vertices, edges = graph
    return {
        "vertices": sorted(vertices),
        "edges": [{"id": e, "ends": list(edges[e])} for e in sorted(edges)],
    }


def boundary(edges: Edges, side) -> frozenset:
    """delta(side): non-loop edges with exactly one endpoint in side."""
    return frozenset(e for e, (a, b) in edges.items() if (a in side) != (b in side))


# -- the immersion_sweep population ------------------------------------


def multigraph_classes(max_n: int, max_e: int, multigraph_type, canonical_key) -> list:
    """One representative per isomorphism class with at most max_n
    vertices and max_e edges, deduplicated by the program's canonical_key.

    Edge multisets are enumerated over the vertex pairs and loop sites in a
    fixed order and the first graph of each class is kept, so the
    representatives do not depend on how canonical_key encodes a class.
    """
    reps = {}
    for n in range(max_n + 1):
        names = _names(n)
        sites = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        sites += [(v, v) for v in names]
        for e in range(max_e + 1):
            for combo in itertools.combinations_with_replacement(sites, e):
                G = multigraph_type(
                    frozenset(names), {f"e{i}": pair for i, pair in enumerate(combo)}
                )
                key = canonical_key(G)
                if key not in reps:
                    reps[key] = G
    return list(reps.values())


def stable_form(vertices, edge_pairs) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Canonical form by brute force over all vertex orders (tiny graphs
    only).  It names the class of a sweep graph in the verdict table
    independently of the program's canonical_key."""
    vs = sorted(vertices)
    best = None
    for perm in itertools.permutations(range(len(vs))):
        pos = dict(zip(vs, perm))
        form = tuple(
            sorted(
                (pos[a], pos[b]) if pos[a] <= pos[b] else (pos[b], pos[a])
                for a, b in edge_pairs
            )
        )
        if best is None or form < best:
            best = form
    return len(vs), best if best is not None else ()


def forms_digest(forms: Sequence) -> str:
    return hashlib.sha256(repr(list(forms)).encode()).hexdigest()
