"""Planted immersions: hosts built around a known strong immersion of a
random pattern, so that any "absent" answer on one is wrong, whatever
its size.

The pattern H has 3 to 6 vertices and k to 2k + 2 edges (k its vertex
count), loops allowed, at most two edges on a vertex pair or loop site.
The host G gives each pattern vertex its own vertex, and each pattern
edge a path (a cycle, for a loop) through 0 to 3 distinct extra vertices,
out of up to 10; so a route's interior holds no branch vertex, and the
routes share no edge.  Random noise edges follow, and the host's vertex
names and edge ids are shuffled, so the planted routes are not the first
ones in the search's order.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from immtools import Multigraph
from immtools.immersion import ImmersionCertificate


def _pattern(rng: random.Random) -> Multigraph:
    k = rng.randint(3, 6)
    names = [f"a{i}" for i in range(k)]
    counts: Dict[Tuple[str, str], int] = {}
    edges: Dict[str, Tuple[str, str]] = {}
    for i in range(rng.randint(k, 2 * k + 2)):
        while True:
            u, v = sorted((rng.choice(names), rng.choice(names)))
            if counts.get((u, v), 0) < 2:
                break
        counts[u, v] = counts.get((u, v), 0) + 1
        edges[f"p{i:02d}"] = (u, v)
    return Multigraph(frozenset(names), edges)


def planted_pair(
    rng: random.Random,
) -> Tuple[Multigraph, Multigraph, ImmersionCertificate]:
    """A host G, a pattern H and the strong immersion of H planted in G."""
    H = _pattern(rng)
    pattern_vertices = sorted(H.vertices)
    extra = rng.randint(0, 10)
    names = [f"g{i:02d}" for i in range(len(pattern_vertices) + extra)]
    rng.shuffle(names)
    vertex_map = dict(zip(pattern_vertices, names))
    extras = names[len(pattern_vertices):]

    # each host edge as (its ends, the pattern edge it carries or None)
    planted: List[Tuple[Tuple[str, str], str]] = []
    for he in sorted(H.edges):
        a, b = H.edges[he]
        inner = rng.sample(extras, min(rng.randint(0, 3), len(extras)))
        walk = [vertex_map[a], *inner, vertex_map[b]]
        planted.extend(((walk[i], walk[i + 1]), he) for i in range(len(walk) - 1))
    noise = [
        ((rng.choice(names), rng.choice(names)), None)
        for _ in range(rng.randint(0, len(names)))
    ]
    host_edges = planted + noise
    rng.shuffle(host_edges)

    width = len(str(len(host_edges)))
    edges: Dict[str, Tuple[str, str]] = {}
    routes: Dict[str, set] = {he: set() for he in H.edges}
    for k, (ends, he) in enumerate(host_edges):
        eid = f"e{k:0{width}d}"
        edges[eid] = ends
        if he is not None:
            routes[he].add(eid)
    G = Multigraph(frozenset(names), edges)
    cert = ImmersionCertificate(
        vertex_map=vertex_map,
        edge_map={he: frozenset(r) for he, r in routes.items()},
        strong=True,
    )
    return G, H, cert
