import pytest

from immtools import (
    converse_n,
    converse_n_alpha,
    d_of_k,
    gen_complete,
    theorem31_constants,
)
from helpers import mg


def slow_power(base: int, exp: int) -> int:
    """Repeated multiplication, as an independent arithmetic path."""
    out = 1
    for _ in range(exp):
        out *= base
    return out


def test_d1_and_d2_frozen_values():
    assert d_of_k(1) == 1_062_882
    assert d_of_k(2) == 1_144_409_179_687_500
    # second path: plain repeated multiplication
    assert d_of_k(1) == slow_power(3, 12) * 1 * 2
    assert d_of_k(2) == slow_power(5, 20) * 4 * 3


def test_d3_against_independent_evaluation():
    assert d_of_k(3) == slow_power(7, 28) * 9 * 4


def test_d_is_strictly_increasing():
    values = [d_of_k(k) for k in range(1, 7)]
    assert values == sorted(set(values))


def test_d_rejects_nonpositive():
    with pytest.raises(ValueError):
        d_of_k(0)


def test_theorem31_k3():
    c = theorem31_constants(gen_complete(3))
    assert c.m == 6
    assert c.a == 12
    assert c.a0 == 13
    assert c.k == 3
    assert c.s == 3 * d_of_k(3)


def test_theorem31_single_vertex():
    c = theorem31_constants(mg("a", {}))
    assert (c.m, c.a, c.k) == (0, 4, 3)


def test_theorem31_single_edge():
    c = theorem31_constants(mg("ab", {"e": "ab"}))
    assert (c.m, c.a, c.k) == (2, 8, 3)


def test_theorem31_defining_equations():
    for F in (gen_complete(3), gen_complete(4)):
        c = theorem31_constants(F)
        nF, eF = len(F.vertices), len(F.edges)
        d = d_of_k(c.k)
        assert c.m == 2 * eF
        assert c.a == 4 * nF
        assert c.a0 == c.a + 1
        assert c.k == max(max(F.degree(v) for v in F.vertices), 3)
        assert c.s == d * nF
        assert c.w0 == c.m * c.s ** 3 + c.s ** 2
        assert c.w == max(2 * c.a0 * c.s * c.w0, c.w0 + c.a0 * c.s)
        assert c.p == 3 * d * nF + 1


def test_converse_n_examples():
    assert converse_n(1, 0, 1, 1) == 4
    assert converse_n(0, 0, 0, 0) == 2
    assert converse_n(5, 4, 3, 2) == 21


def test_converse_n_alpha_examples():
    assert converse_n_alpha(1) == 5
    assert converse_n_alpha(0) == 1
    assert converse_n_alpha(3) == 25
