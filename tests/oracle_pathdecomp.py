"""Reference subset enumerators: the versions of `min_linearizing_set`
and `has_k1k_minor` that build a new `SimpleGraph` for every subset they
try.  `immtools.pathdecomp` tests the same subsets, in the same order, on
vertex bitmasks, so both return the same first hit.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Union

from immtools import SimpleGraph, StarMinorModel
from immtools.pathdecomp import _SUBSET_SEARCH_LIMIT, _star_model


def has_k1k_minor(H: SimpleGraph, k: int) -> Union[StarMinorModel, bool]:
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(H.vertices) > _SUBSET_SEARCH_LIMIT:
        raise ValueError("instance above configured size limit")
    verts = sorted(H.vertices)
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            C = frozenset(combo)
            sub = SimpleGraph(C, frozenset(e for e in H.edges if e <= C))
            if not sub.is_connected():
                continue
            outside = frozenset().union(*(H.neighbors(v) for v in C)) - C
            if len(outside) >= k:
                return _star_model(H, C, sorted(outside)[:k])
    return False


def min_linearizing_set(H: SimpleGraph) -> FrozenSet[str]:
    if len(H.vertices) > _SUBSET_SEARCH_LIMIT:
        raise ValueError("instance above configured size limit")
    verts = sorted(H.vertices)
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if H.without(combo).is_disjoint_union_of_paths():
                return frozenset(combo)
    raise AssertionError("removing every vertex always leaves a path union")
