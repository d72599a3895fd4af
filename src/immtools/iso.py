"""Multigraph isomorphism via canonical forms.

A canonical key is the least labelled form of G, a sorted list of edge
end pairs, over the vertex orders that respect a refined colouring and
put its blocks in rank order.  The colouring is isomorphism-invariant, so
the key determines G up to isomorphism: two multigraphs are isomorphic
exactly when their keys are equal.

- Integer refinement.  Vertex i is the i-th smallest name: the ids, end
  pairs and degrees are G's `Numbering`, built here by
  `multigraph.number` without caching it, so keying builds no cached fact
  of G (not even its degree map); the neighbour lists and loop counts
  follow from it.  The colours start from the degree and the loop count,
  and each round adds the sorted colours of a vertex's neighbours, until
  the number of colours stops growing or every vertex has its own.
- The twin-pruned product.  Two vertices are twins when they have the
  same loop count and the same multiplicity to every third vertex, and
  `multigraph.twin_classes` finds the classes of each block (a block
  shares its degree and loop count).  Swapping two twins is an
  automorphism, so it leaves the labelled form of a vertex order as it
  is.  Each block therefore tries only the distinct arrangements of its
  twin classes, each class in id order, and the least form, so the key,
  is the one the full product of block permutations gives.  When every
  vertex has its own colour the colours are the positions, and the key
  is one sorted list of position pairs; every other graph takes the
  product, which has one form when each block is one twin class.

The search stays small when refinement splits G finely or its blocks are
twin classes (K_n and the edgeless graph need one form, K_{n,n} one per
arrangement of its two sides).  A regular graph without twins, such as a
long cycle, keeps one block of n vertices and has n! forms.  Keying
counts the forms first and raises `SizeLimitError` past the one work
limit, `multigraph._WORK_LIMIT` = 100,000, that the linearity searches
share: C_8 has a key (40,320 forms), C_9 none.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .multigraph import Multigraph, _check_work, neighbour_lists, number, twin_classes

Pair = Tuple[int, int]


def _refined(G: Multigraph):
    """(n, G's edges as id pairs (i <= j) of its numbering, the final
    colour of each id, the number of colours, each id's neighbour ids)."""
    numbering = number(G)
    degree = numbering.degree
    nbrs = neighbour_lists(numbering)
    n = len(nbrs)
    # a loop adds 2 to the degree of its vertex and nothing to its list
    loops = [(d - len(nb)) // 2 for d, nb in zip(degree, nbrs)]
    ranks, count = _rank(list(zip(degree, loops)))
    while count < n:
        refined, new_count = _rank(
            [(r, tuple(sorted([ranks[u] for u in nb]))) for r, nb in zip(ranks, nbrs)]
        )
        # a round only splits colours and keeps their order, so as many
        # colours as before means the same ranks
        if new_count == count:
            break
        ranks, count = refined, new_count
    return n, numbering.ends, ranks, count, nbrs


def _rank(colors: List[tuple]) -> Tuple[List[int], int]:
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [order[c] for c in colors], len(order)


def _shuffles(classes: List[List[int]]) -> List[List[int]]:
    """Every order of the classes' vertices that keeps each class in order."""
    if len(classes) == 1:
        return [classes[0]]
    first, rests = classes[0], _shuffles(classes[1:])
    size = len(first) + len(rests[0])
    orders = []
    for places in itertools.combinations(range(size), len(first)):
        others = [p for p in range(size) if p not in places]
        for rest in rests:
            order = [0] * size
            for p, v in zip(places, first):
                order[p] = v
            for p, v in zip(others, rest):
                order[p] = v
            orders.append(order)
    return orders


def _block_orders(
    ranks: List[int], count: int, nbrs: List[List[int]]
) -> List[List[List[int]]]:
    """For each block in rank order, the orders of its vertices to try: one
    per arrangement of its twin classes.  Past `multigraph._WORK_LIMIT`
    forms, a product of multinomials of the class sizes, it raises
    SizeLimitError first, so a shuffled block has at most 8 classes."""
    blocks: List[List[int]] = [[] for _ in range(count)]
    for v, r in enumerate(ranks):
        blocks[r].append(v)
    classes = [twin_classes(block, nbrs) for block in blocks]
    forms = 1
    for block in classes:
        placed = len(block[0])
        for cls in block[1:]:  # the first class adds one factor of 1
            placed += len(cls)
            forms *= math.comb(placed, len(cls))
            _check_work(forms, "labelled forms", "canonical key")
    return [_shuffles(block) for block in classes]


def _least_form(n: int, pairs: Sequence[Pair], block_orders) -> Tuple[Pair, ...]:
    """The least sorted list of end pairs over the product of block orders.
    A pair (a, b), a <= b, is compared as the integer a * n + b."""
    best: Optional[List[int]] = None
    pos = [0] * n
    for orders in itertools.product(*block_orders):
        for p, v in enumerate(itertools.chain.from_iterable(orders)):
            pos[v] = p
        form = sorted(
            [
                pos[i] * n + pos[j] if pos[i] <= pos[j] else pos[j] * n + pos[i]
                for i, j in pairs
            ]
        )
        if best is None or form < best:
            best = form
    return tuple(divmod(x, n) for x in best)


def canonical_key(G: Multigraph) -> Tuple:
    """Hashable invariant determining G up to isomorphism: (n, the least
    labelled form).  It compares one form per arrangement of the twin
    classes of each colour block, and raises SizeLimitError when there
    are more than `multigraph._WORK_LIMIT` = 100,000 of them (a cycle on 9
    or more vertices)."""
    n, pairs, ranks, count, nbrs = _refined(G)
    if count == n:  # every vertex has its own colour: one labelled form
        pos = ranks
        return n, tuple(
            sorted([(pos[i], pos[j]) if pos[i] <= pos[j] else (pos[j], pos[i]) for i, j in pairs])
        )
    return n, _least_form(n, pairs, _block_orders(ranks, count, nbrs))
