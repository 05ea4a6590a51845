"""Exact binomial arithmetic: mass functions, total variation, and the shift bound.

Mass functions keep the binomial coefficient exact as a Python integer and
round only when combining it with the rate powers, directly for small
trial counts and through logs for large ones; whole-vector normalization
stays within 1e-12 up to c = 10^4.  Whole mass vectors, in both regimes,
walk the coefficients C(c, 0..c) by one exact integer recurrence instead
of computing each from scratch.  Up to c = 1000 a mass vector is one
float64 product of a coefficient row and two power tables, and
``exact_dtv`` shares the row between its two laws; ``pascal_rows``,
``rate_powers`` and ``dtv_from_tables`` let a sweep share rows across
rates and power tables across trial counts.  Hit probabilities use exact
compounding via log1p/expm1 rather than any exponential approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRate,
    IndexOutOfRange,
    InvalidInput,
    MismatchedSupport,
    TooLarge,
)
from .params import coin_rate

# Leading constant of the total-variation shift bound, validated by the
# exhaustive desk sweep in the test suite.  If a sweep cell ever fails,
# raise this constant and extend the regression record; never mute the cell.
TV_BOUND_CONSTANT = 3.0

JOINT_SUPPORT_CAP = 1 << 20


@dataclass(frozen=True)
class BinomialSpec:
    """Trial count and success rate of one binomial distribution."""

    c: int
    r: float

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 0:
            raise InvalidInput(f"trial count must be a non-negative integer, got {self.c!r}")
        if not 0.0 <= self.r <= 1.0:
            raise InvalidInput(f"rate must be in [0, 1], got {self.r}")


# Trial counts up to this cap evaluate mass directly from the exact integer
# binomial coefficient (float(comb) stays inside double range through 1000);
# larger counts go through logs of the exact coefficient, which keeps the
# whole-vector normalization error a few parts in 1e13 even at c = 10^4.
_DIRECT_CAP = 1000


def log_pmf(spec: BinomialSpec, k: int) -> float:
    if not 0 <= k <= spec.c:
        raise IndexOutOfRange(f"k = {k} outside [0, {spec.c}]")
    c, r = spec.c, spec.r
    if r == 0.0:
        return 0.0 if k == 0 else -math.inf
    if r == 1.0:
        return 0.0 if k == c else -math.inf
    return math.log(math.comb(c, k)) + k * math.log(r) + (c - k) * math.log1p(-r)


def _pmf_direct(c: int, r: float, k: int) -> float:
    return float(math.comb(c, k)) * r**k * (1.0 - r) ** (c - k)


def pmf(spec: BinomialSpec, k: int) -> float:
    if not 0 <= k <= spec.c:
        raise IndexOutOfRange(f"k = {k} outside [0, {spec.c}]")
    c, r = spec.c, spec.r
    if r == 0.0:
        return 1.0 if k == 0 else 0.0
    if r == 1.0:
        return 1.0 if k == c else 0.0
    if c <= _DIRECT_CAP:
        return _pmf_direct(c, r, k)
    return math.exp(log_pmf(spec, k))


def _coefficients(c: int):
    """Yield C(c, k) for k = 0..c, exactly, by the integer recurrence."""
    coefficient = 1
    for k in range(c + 1):
        yield coefficient
        coefficient = coefficient * (c - k) // (k + 1)


def _coefficient_row(c: int) -> np.ndarray:
    return np.array([float(v) for v in _coefficients(c)])


def pascal_rows(top: int):
    """Yield ``(c, float(C(c, 0..c)))`` for c = 0..top, one row at a time.

    Each row comes from the previous one by exact integer additions and
    is rounded to float64 once; only the current row is held.
    """
    row = [1]
    for c in range(top + 1):
        yield c, np.array([float(v) for v in row])
        row = [1, *[x + y for x, y in zip(row, row[1:])], 1]


def rate_powers(r: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``(r**k, (1 - r)**k)`` for k = 0..top, each by Python's float ``**``.

    ``**`` keeps ``0.0**0 == 1.0`` and the exact results that ``pmf`` uses;
    numpy's vector ``power`` may round differently.
    """
    s = 1.0 - r
    return np.array([r**k for k in range(top + 1)]), np.array([s**k for k in range(top + 1)])


def _masses(whole: np.ndarray, powers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``(C(c, k) * r**k) * (1 - r)**(c - k)`` for k = 0..c, as ``pmf`` forms each one."""
    c = len(whole) - 1
    rk, sk = powers
    return whole * rk[: c + 1] * sk[c::-1]


def dtv_from_tables(
    whole: np.ndarray,
    powers_a: tuple[np.ndarray, np.ndarray],
    powers_b: tuple[np.ndarray, np.ndarray],
) -> float:
    """``exact_dtv`` of Bin(c, a) and Bin(c, b) for c <= 1000 from shared tables.

    ``whole`` is a ``pascal_rows`` row of length c + 1, and ``powers_a``
    and ``powers_b`` are ``rate_powers`` tables of the two rates with at
    least c + 1 entries, so callers that sweep many trial counts or pair
    the same rates again compute each coefficient and power once.  The
    per-k gaps are float64 products and differences, the same floats the
    per-term formula gives, and ``math.fsum`` rounds their sum exactly.
    """
    gaps = np.abs(_masses(whole, powers_a) - _masses(whole, powers_b))
    return 0.5 * math.fsum(gaps.tolist())


def pmf_vector(spec: BinomialSpec) -> np.ndarray:
    """All masses pmf(0..c) as a float array, normalized to about 1e-13.

    Each entry equals ``pmf(spec, k)`` exactly.
    """
    c, r = spec.c, spec.r
    if c <= _DIRECT_CAP:
        return _masses(_coefficient_row(c), rate_powers(r, c))
    if r == 0.0 or r == 1.0:
        return np.array([pmf(spec, k) for k in range(c + 1)])
    log_r = math.log(r)
    log_1r = math.log1p(-r)
    return np.array([
        math.exp(math.log(coefficient) + k * log_r + (c - k) * log_1r)
        for k, coefficient in enumerate(_coefficients(c))
    ])


def exact_dtv(a: BinomialSpec, b: BinomialSpec) -> float:
    """Half the L1 distance between two binomials on the same trial count.

    Up to c = 1000 this is ``dtv_from_tables`` on the coefficient row and
    the two rates' power tables; above, the half-L1 sum of the two
    ``pmf_vector`` arrays.
    """
    if a.c != b.c:
        raise MismatchedSupport(f"trial counts differ: {a.c} vs {b.c}")
    c = a.c
    if c > _DIRECT_CAP:
        va, vb = pmf_vector(a).tolist(), pmf_vector(b).tolist()
        return 0.5 * math.fsum(abs(x - y) for x, y in zip(va, vb))
    return dtv_from_tables(_coefficient_row(c), rate_powers(a.r, c), rate_powers(b.r, c))


def hit_prob(count: int, epsilon: float, n: int) -> float:
    """Probability that at least one of ``count`` coins of rate epsilon/sqrt(n) is 1.

    Exact compounding: 1 - (1 - epsilon/sqrt(n))^count, computed stably.
    """
    if count < 0:
        raise InvalidInput(f"count must be non-negative, got {count}")
    theta = coin_rate(epsilon, n)
    if count == 0:
        return 0.0
    if count == 1:
        return theta
    if theta == 1.0:
        return 1.0
    return -math.expm1(count * math.log1p(-theta))


def bin_hit_prob(j: int, epsilon: float, n: int) -> float:
    """Hit probability of a bin whose entries carry 2^j coins each."""
    if j < 0:
        raise InvalidInput(f"bin index must be non-negative, got {j}")
    return hit_prob(1 << j, epsilon, n)


def tv_shift_param(x: float, c: int, r: float) -> float:
    """The control parameter x * sqrt((c + 2) / (2 r (1 - r))) of the shift bound."""
    if not 0.0 < r < 1.0:
        raise DegenerateRate(f"rate must be strictly inside (0, 1), got {r}")
    if c < 0:
        raise InvalidInput(f"trial count must be non-negative, got {c}")
    if not x >= 0.0:
        raise InvalidInput(f"rate shift must be non-negative, got {x}")
    return x * math.sqrt((c + 2) / (2.0 * r * (1.0 - r)))


def tv_shift_bound(x: float, c: int, r: float) -> Optional[float]:
    """Upper bound K * t / (1 - t)^2 on dtv(Bin(c, r), Bin(c, r + x)).

    Returns None ("inapplicable") when the control parameter reaches 1,
    where the bound is vacuous.
    """
    t = tv_shift_param(x, c, r)
    if t >= 1.0:
        return None
    return TV_BOUND_CONSTANT * t / (1.0 - t) ** 2


def product_dtv(pairs: Sequence[tuple[BinomialSpec, BinomialSpec]]) -> float:
    """Exact TV distance between the product of the first and of the second members.

    The joint support is the product of the per-coordinate supports and is
    capped at JOINT_SUPPORT_CAP.
    """
    if not pairs:
        raise InvalidInput("need at least one pair")
    support = 1
    for a, b in pairs:
        if a.c != b.c:
            raise MismatchedSupport(f"trial counts differ: {a.c} vs {b.c}")
        support *= a.c + 1
        if support > JOINT_SUPPORT_CAP:
            raise TooLarge(f"joint support exceeds {JOINT_SUPPORT_CAP}")
    joint_a = np.array([1.0])
    joint_b = np.array([1.0])
    for a, b in pairs:
        joint_a = np.kron(joint_a, pmf_vector(a))
        joint_b = np.kron(joint_b, pmf_vector(b))
    return 0.5 * float(np.abs(joint_a - joint_b).sum())
