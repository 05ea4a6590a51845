"""Exact binomial arithmetic: mass vectors, total variation, and the shift bound.

A mass vector keeps each binomial coefficient exact as a Python integer,
walking C(c, 0..c) by one exact integer recurrence, and rounds only when
combining it with the rate powers: up to c = 1000 as one float64 product
of a coefficient row and two power tables, above through logs.  Its
normalization stays within 1e-12 up to c = 10^4.  ``tv_distance``, half
the L1 distance of two laws, is the one exactly rounded total variation:
``exact_dtv`` applies it to two mass vectors, and a sweep that shares
coefficient rows and power tables (``pascal_rows``, ``rate_powers``,
``masses``) applies it to the same floats.  Hit probabilities use exact
compounding via log1p/expm1 rather than any exponential approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRate,
    DimensionMismatch,
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

# Largest trial count whose masses come from the exact coefficient
# recurrence, which costs O(c^2) bit operations (about 2 s at the cap, 5.5 s
# at c = 10^5), and of an ``exact_dtv`` pair.  It sits above the element
# game's m = 33 792 at n = 2^16.
TRIAL_CAP = 1 << 16


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


# Trial counts up to this cap take their masses from one float64 product of
# the coefficient row and two power tables (float(comb) stays inside double
# range through 1000); larger counts go through logs of the exact
# coefficient, which keeps the whole-vector normalization error a few parts
# in 1e13 even at c = 10^4.
_DIRECT_CAP = 1000


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

    ``**`` keeps ``0.0**0 == 1.0`` and the exact results of the per-entry
    formula; numpy's vector ``power`` may round differently.
    """
    s = 1.0 - r
    return np.array([r**k for k in range(top + 1)]), np.array([s**k for k in range(top + 1)])


def masses(whole: np.ndarray, powers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``(C(c, k) * r**k) * (1 - r)**(c - k)`` for k = 0..c, rounded in that order.

    ``whole`` is a coefficient row of length c + 1 and ``powers`` a
    ``rate_powers`` table with at least c + 1 entries, so a sweep over
    many trial counts or rates computes each coefficient and power once.
    """
    c = len(whole) - 1
    rk, sk = powers
    return whole * rk[: c + 1] * sk[c::-1]


def tv_distance(law_a: Sequence[float], law_b: Sequence[float]) -> float:
    """Half the L1 distance between two laws over the same outcomes.

    The per-outcome gaps are float64 differences and ``math.fsum`` rounds
    their sum exactly, so the result does not depend on the summation order.
    """
    if len(law_a) != len(law_b):
        raise DimensionMismatch(f"laws over {len(law_a)} and {len(law_b)} outcomes")
    return 0.5 * math.fsum(np.abs(np.subtract(law_a, law_b)).tolist())


def pmf_vector(spec: BinomialSpec) -> np.ndarray:
    """All masses of Bin(c, r) for k = 0..c as a float array, normalized to about 1e-13.

    Each entry equals the per-entry reference ``pmf`` in
    ``tests/references.py`` exactly.  A trial count above TRIAL_CAP at a
    rate strictly inside (0, 1) raises ``TooLarge`` before the coefficient
    recurrence starts.
    """
    c, r = spec.c, spec.r
    if c <= _DIRECT_CAP:
        return masses(_coefficient_row(c), rate_powers(r, c))
    if r == 0.0 or r == 1.0:
        point = np.zeros(c + 1)
        point[0 if r == 0.0 else c] = 1.0
        return point
    if c > TRIAL_CAP:
        raise TooLarge(f"trial count {c} exceeds the cap {TRIAL_CAP}")
    log_r = math.log(r)
    log_1r = math.log1p(-r)
    return np.array([
        math.exp(math.log(coefficient) + k * log_r + (c - k) * log_1r)
        for k, coefficient in enumerate(_coefficients(c))
    ])


def exact_dtv(a: BinomialSpec, b: BinomialSpec) -> float:
    """Total variation distance between two binomials on the same trial count.

    ``tv_distance`` of the two ``pmf_vector`` arrays.  A trial count above
    TRIAL_CAP raises ``TooLarge`` before any work, whatever the rates.
    """
    if a.c != b.c:
        raise MismatchedSupport(f"trial counts differ: {a.c} vs {b.c}")
    if a.c > TRIAL_CAP:
        raise TooLarge(f"trial count {a.c} exceeds the cap {TRIAL_CAP}")
    return tv_distance(pmf_vector(a), pmf_vector(b))


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
    capped at JOINT_SUPPORT_CAP.  A pair above TRIAL_CAP trials at a rate
    strictly inside (0, 1) raises ``TooLarge`` from ``pmf_vector``.
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
    # numpy's pairwise sum, not tv_distance: over a 2^20 joint support the
    # exactly rounded sum takes about 74 ms against 6.5 ms.
    joint_a = np.array([1.0])
    joint_b = np.array([1.0])
    for a, b in pairs:
        joint_a = np.kron(joint_a, pmf_vector(a))
        joint_b = np.kron(joint_b, pmf_vector(b))
    return 0.5 * float(np.abs(joint_a - joint_b).sum())
