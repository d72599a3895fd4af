"""Multigraph isomorphism via canonical forms.

Canonical keys are computed by exhaustive permutation, restricted to
permutations that respect an iterated degree-refinement coloring; the
coloring is isomorphism-invariant, so the minimum labeled form over the
restricted permutation set is still a complete invariant.  Intended for
desk-scale graphs (the refinement keeps the search tiny except on highly
regular inputs).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Optional, Tuple

from .multigraph import Multigraph


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


def are_isomorphic(G: Multigraph, H: Multigraph) -> bool:
    if len(G.vertices) != len(H.vertices) or len(G.edges) != len(H.edges):
        return False
    return canonical_key(G) == canonical_key(H)


def isomorphic_with_pins(
    G: Multigraph,
    H: Multigraph,
    pins: Dict[str, str],
    max_size: int = 10,
) -> Optional[bool]:
    """Does an isomorphism G -> H extend the given partial map?

    Returns True/False, or None when either graph exceeds max_size and the
    check is skipped as unverified.
    """
    if len(G.vertices) > max_size or len(H.vertices) > max_size:
        return None
    if len(G.vertices) != len(H.vertices) or len(G.edges) != len(H.edges):
        return False
    for g, h in pins.items():
        if g not in G.vertices or h not in H.vertices:
            return False
    mg = Counter(G.edges.values())  # sorted end pair -> multiplicity
    mh = Counter(H.edges.values())
    gverts = sorted(pins) + sorted(G.vertices - set(pins))
    mapped: Dict[str, str] = {}
    used = set()

    def consistent(v: str, w: str) -> bool:
        if G.degree(v) != H.degree(w):
            return False
        if mg[(v, v)] != mh[(w, w)]:
            return False
        for u, x in mapped.items():
            a, b = (v, u) if v <= u else (u, v)
            c, d = (w, x) if w <= x else (x, w)
            if mg[(a, b)] != mh[(c, d)]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(gverts):
            return True
        v = gverts[i]
        candidates = [pins[v]] if v in pins else sorted(H.vertices - used)
        for w in candidates:
            if w in used or not consistent(v, w):
                continue
            mapped[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapped[v]
            used.discard(w)
        return False

    return extend(0)
