"""Reference canonical keys.

`canonical_key` refines a colouring on name-keyed dicts and tries every
permutation of every colour block.  `immtools.iso` refines the same
colouring on integer vertex ids and tries one permutation per
arrangement of each block's twin classes, so both return the same key.
The permutation count is the product of the block sizes' factorials, so
keep it to small graphs or ones whose refinement splits them finely.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Tuple

from immtools import Multigraph


def _refined_colors(G: Multigraph) -> Dict[str, int]:
    loops = Counter()
    nbrs: Dict[str, list] = {v: [] for v in G.vertices}
    for a, b in G.edges.values():
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    colors = {v: (G.degree(v), loops[v]) for v in G.vertices}
    ranks = _rank(colors)
    for _ in range(len(G.vertices)):
        refined = {
            v: (ranks[v], tuple(sorted(ranks[u] for u in nbrs[v])))
            for v in G.vertices
        }
        new_ranks = _rank(refined)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def _rank(colors: Dict[str, object]) -> Dict[str, int]:
    order = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    return {v: order[c] for v, c in colors.items()}


def labelled_forms(G: Multigraph) -> int:
    """How many permutations `canonical_key` tries on G."""
    sizes = Counter(_refined_colors(G).values()).values()
    count = 1
    for size in sizes:
        for k in range(2, size + 1):
            count *= k
    return count


def canonical_key(G: Multigraph) -> Tuple:
    """Hashable invariant determining G up to isomorphism."""
    ranks = _refined_colors(G)
    classes: Dict[int, list] = {}
    for v in sorted(G.vertices):
        classes.setdefault(ranks[v], []).append(v)
    blocks = [classes[r] for r in sorted(classes)]
    offsets = []
    base = 0
    for block in blocks:
        offsets.append(base)
        base += len(block)
    edge_list = list(G.edges.values())
    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = {}
        for block_perm, off in zip(perms, offsets):
            for i, v in enumerate(block_perm):
                pos[v] = off + i
        labeled = tuple(
            sorted(
                (pos[a], pos[b]) if pos[a] <= pos[b] else (pos[b], pos[a])
                for a, b in edge_list
            )
        )
        if best is None or labeled < best:
            best = labeled
    return (len(G.vertices), best if best is not None else ())
