"""Planted immersions (`planted.py`): each host holds a known strong
immersion of its pattern, so the search may answer found or budget on
it, never absent, at any size."""

import random
from collections import Counter

import pytest

from immtools import find_immersion, verify_immersion
from immtools.immersion import ABSENT, FOUND
from planted import planted_pair

# 600 pairs, both strengths, at 10,000 steps: about 3 s
PAIRS, STEPS, SEED = 600, 10_000, 17


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(SEED)
    return [planted_pair(rng) for _ in range(PAIRS)]


def test_every_planted_certificate_verifies(planted):
    for G, H, cert in planted:
        assert verify_immersion(G, H, cert) == []
        assert verify_immersion(G, H, cert, strong=False) == []
    # the sample reaches the recipe's largest hosts and patterns
    assert max(len(G.vertices) for G, _, _ in planted) == 16
    assert max(len(H.vertices) for _, H, _ in planted) == 6


def test_no_planted_query_is_absent(planted):
    statuses = Counter()
    for n, (G, H, _) in enumerate(planted):
        for strong in (True, False):
            r = find_immersion(G, H, strong, budget=STEPS)
            assert r.status != ABSENT, f"pair {n}, strong={strong}"
            if r.status == FOUND:
                assert verify_immersion(G, H, r.certificate, strong) == [], f"pair {n}"
            statuses[r.status] += 1
    # most queries are answered within the budget
    assert statuses[FOUND] >= 800, statuses
