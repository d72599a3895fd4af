"""Closed-form quantitative bounds tying forbidden-pattern parameters to
decomposition parameters, plus converse lower-bound thresholds.  All
arithmetic is exact integer arithmetic."""

from __future__ import annotations

import dataclasses

from .multigraph import Multigraph


def d_of_k(k: int) -> int:
    """Degree-threshold constant: (2k+1)^(8k+4) * k^2 * (k+1)."""
    if k < 1:
        raise ValueError("k must be positive")
    return (2 * k + 1) ** (8 * k + 4) * k * k * (k + 1)


@dataclasses.dataclass(frozen=True)
class Theorem31Constants:
    """Parameters (m, a, a0, k, s, w0, w, p) governing the linearity
    guarantee for hosts excluding a fixed strong immersion."""

    m: int
    a: int
    a0: int
    k: int
    s: int
    w0: int
    w: int
    p: int


def theorem31_constants(F: Multigraph) -> Theorem31Constants:
    nF = len(F.vertices)
    eF = len(F.edges)
    if nF == 0:
        raise ValueError("the pattern must have at least one vertex")
    m = 2 * eF
    a = 4 * nF
    a0 = a + 1
    k = max(max((F.degree(v) for v in F.vertices), default=0), 3)
    d = d_of_k(k)
    s = d * nF
    w0 = m * s ** 3 + s ** 2
    w = max(2 * a0 * s * w0, w0 + a0 * s)
    p = 3 * d * nF + 1
    return Theorem31Constants(m=m, a=a, a0=a0, k=k, s=s, w0=w0, w=w, p=p)


def converse_n(d: int, a: int, w: int, p: int) -> int:
    """Vertex-count threshold max{2w+2, (2p+1)a+1, d+1} for the converse
    construction with degree bound d and linearity parameters (a, w, p)."""
    if min(d, a, w, p) < 0:
        raise ValueError("all parameters must be nonnegative")
    return max(2 * w + 2, (2 * p + 1) * a + 1, d + 1)


def converse_n_alpha(alpha: int) -> int:
    """Vertex-count threshold 2*alpha^2 + 2*alpha + 1 for the alpha-indexed
    converse construction."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return 2 * alpha * alpha + 2 * alpha + 1
