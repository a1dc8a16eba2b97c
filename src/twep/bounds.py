"""Closed-form coding bounds, the adaptive-protocol guarantee, and rate curves.

Everything integer-valued here is computed with exact big-integer
arithmetic; the only floating point is in the asymptotic rate table.  Each
table is a generator of rows of values, which the command-line front end
formats as they come; the list function beside it collects them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errorspace import count_errors, error_counts

LOG2_3 = math.log2(3)


def _ceil_log2(value: int) -> int:
    """Smallest j with 2^j >= value, for value >= 1."""
    return (value - 1).bit_length()


def _hamming_k(n: int, errors: int) -> int:
    """``hamming_max_k`` from the error count: 2^k * errors <= 2^n holds
    exactly for k <= n - ceil(log2 errors)."""
    k = n - _ceil_log2(errors)
    return k if k >= 1 else -1


def _gv_k(n: int, errors: int) -> int:
    """``gv_k`` from the count of errors of weight <= 2t."""
    return n - _ceil_log2(errors)


def _thm2_k(n: int, errors: int) -> int:
    """``thm2_k`` from the error count."""
    return n - _ceil_log2(errors) - 2


def hamming_max_k(n: int, t: int) -> int:
    """Largest k >= 1 with 2^k * (number of weight<=t errors) <= 2^n, the
    sphere-packing limit; -1 when not even one protected pair fits."""
    if not 0 <= t <= n:
        raise ValueError(f"t={t} lies outside 0..{n}")
    return _hamming_k(n, count_errors(n, t, 2))


def singleton_max_k(n: int, t: int) -> int:
    """Linear-bound limit n - 4t, floored at the -1 sentinel."""
    if not 0 <= t <= n:
        raise ValueError(f"t={t} lies outside 0..{n}")
    k = n - 4 * t
    return k if k >= 0 else -1


def gv_k(n: int, t: int) -> int:
    """Existence guarantee for one-way codes: largest k with
    2^(n-k) >= number of weight<=2t errors."""
    if not 0 <= 2 * t <= n:
        raise ValueError(f"gv_k needs 0 <= 2t <= n, got t={t}, n={n}")
    return _gv_k(n, count_errors(n, 2 * t, 2))


def thm2_k(n: int, t: int) -> int:
    """Guarantee of the greedy two-way protocol: n - ceil(log2 |errors|) - 2.

    May be negative, meaning the generic guarantee is vacuous for these
    parameters; callers must treat negatives as 'no guarantee'.
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} lies outside 0..{n}")
    return _thm2_k(n, count_errors(n, t, 2))


def mi_terms(length: int) -> Iterator[int]:
    """Worst-case survivor-count thresholds for the greedy bisection, one
    term at a time.

    m_0 = 1 and m_i is the largest integer m with (m + sqrt(m))/2 at most
    m_{i-1} + 1.  The square root is eliminated: with B = 2 m_{i-1} + 2 the
    test is m <= B and m <= (B - m)^2, exact in integers (the boundary case
    m=4, B=6 is an equality a float sqrt could misclassify).  Writing
    m = B - s, the test is s(s + 1) >= B, so m_i = B - s for the least such
    s: isqrt(B) or one more, since (isqrt(B) - 1) isqrt(B) < B.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    term = 1
    yield term
    for _ in range(length - 1):
        bound = 2 * term + 2
        s = math.isqrt(bound)
        if s * (s + 1) < bound:
            s += 1
        term = bound - s
        yield term


def mi_sequence(length: int) -> list[int]:
    """The first ``length`` terms of ``mi_terms``."""
    return list(mi_terms(length))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def two_way_rate_raw(x: float) -> float:
    """Unclamped asymptotic two-way rate 1 - x log2 3 - h(x)."""
    return 1.0 - x * LOG2_3 - binary_entropy(x)


def one_way_gv_rate_raw(x: float) -> float:
    """Unclamped one-way existence rate 1 - 2x log2 3 - h(2x)."""
    return 1.0 - 2.0 * x * LOG2_3 - binary_entropy(2.0 * x)


@dataclass(frozen=True)
class RatePoint:
    """Asymptotic achievable-rate sample at error fraction x = t/n."""

    x: float
    rate_2epp: float
    rate_gv: float
    h: float


def rate_points(points: int) -> Iterator[RatePoint]:
    """Evenly spaced samples of the two rate curves on [0, 1/2], clamped to
    [0, 1]: the adaptive two-way rate 1 - x log2 3 - h(x) and the one-way
    existence rate 1 - 2x log2 3 - h(2x)."""
    if points < 2:
        raise ValueError("points must be >= 2")
    for i in range(points):
        x = 0.5 * i / (points - 1)
        r2 = min(1.0, max(0.0, two_way_rate_raw(x)))
        rg = min(1.0, max(0.0, one_way_gv_rate_raw(x)))
        yield RatePoint(x=x, rate_2epp=r2, rate_gv=rg, h=binary_entropy(x))


def rate_table(points: int) -> list[RatePoint]:
    """The samples of ``rate_points``."""
    return list(rate_points(points))


@dataclass(frozen=True)
class BoundsRow:
    """All bound values for one (n, t); gv_k is None where 2t > n."""

    n: int
    t: int
    hamming_k: int
    singleton_k: int
    gv_k: int | None
    thm2_k: int


def bounds_rows(n_values: Sequence[int], t_values: Sequence[int]) -> Iterator[BoundsRow]:
    """Grid of bounds over 0 <= t <= n, n-major then t-minor order.  The
    error counts of each n are summed once, up to weight min(n, 2 max t)."""
    for n in n_values:
        ts = [t for t in t_values if 0 <= t <= n]
        counts = error_counts(n, min(n, 2 * max(ts, default=0)))
        for t in ts:
            yield BoundsRow(
                n=n,
                t=t,
                hamming_k=_hamming_k(n, counts[t]),
                singleton_k=singleton_max_k(n, t),
                gv_k=_gv_k(n, counts[2 * t]) if 2 * t <= n else None,
                thm2_k=_thm2_k(n, counts[t]),
            )


def bounds_table(n_values: list[int], t_values: list[int]) -> list[BoundsRow]:
    """The rows of ``bounds_rows``."""
    return list(bounds_rows(n_values, t_values))
