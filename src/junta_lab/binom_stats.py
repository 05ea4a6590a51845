"""Exact binomial arithmetic: mass vectors, total variation, and the shift bound.

A mass vector keeps each binomial coefficient exact as a Python integer,
walking C(c, 0..c) by one exact integer recurrence, and rounds only when
combining it with the rate powers: up to c = 1000 as one float64 product
of a coefficient row and two power tables, above through logs.  Its
normalization stays within 1e-12 up to c = 10^4.  ``tv_distance``, half
the L1 distance of two laws, is the one exactly rounded total variation:
``exact_dtv`` applies it to two mass vectors.  ``shift_bound_sweep``
checks the shift bound over a grid of cells: a float pass certifies
every cell, and only the cells it cannot decide take the exact path
(``rate_powers``, ``masses``, ``tv_distance``), so its result is that of
the exact per-cell sweep.  Hit probabilities use exact compounding via
log1p/expm1 rather than any exponential approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


# Float64 cells per temporary of ``shift_bound_sweep``'s approximate pass:
# 2^11 cells keep each at 16 KiB however many trial counts the sweep covers.
_SWEEP_CELLS = 1 << 11


def refine_mask(margins: np.ndarray, slacks: np.ndarray) -> np.ndarray:
    """The cells whose exact margin may be negative or the least, given approximations.

    Each exact margin lies within its cell's slack of ``margins``.  A cell
    can violate only if its approximate margin is at most its slack, and
    can hold the least exact margin only if its approximate margin minus
    its slack reaches the least approximate margin plus slack.
    """
    if not len(margins):
        return np.zeros(0, dtype=bool)
    return (margins <= slacks) | (margins - slacks <= np.min(margins + slacks))


def approximate_shift_cells(
    rates: Sequence[tuple[float, float]], top: int
) -> tuple[np.ndarray, ...]:
    """(r, x, c, D', B', slack) of each applicable cell of ``shift_bound_sweep``, as arrays.

    Rate by rate in the order given, each rate's cells in increasing c.
    D' and B' are the approximate pass's distance and bound, and each
    cell's exact margin B - D lies within its slack of B' - D' (see
    ``shift_bound_sweep``).
    """
    if top > _DIRECT_CAP:
        raise TooLarge(f"trial count {top} exceeds the float coefficient cap {_DIRECT_CAP}")
    spans = []  # (r, x, t for c = 1..c_r)
    for r, x in rates:
        if not 0.0 < r < 1.0:
            continue
        tv_shift_param(x, 0, r)  # rejects a shift tv_shift_bound would reject
        t = x * np.sqrt((np.arange(1, top + 1) + 2) / (2.0 * r * (1.0 - r)))
        applies = t < 1.0
        last = top if applies.all() else int(applies.argmin())
        if last:
            spans.append((r, x, t[:last]))
    if not spans:
        return tuple(np.zeros(0) for _ in range(6))
    c_top = max(len(t) for _, _, t in spans)
    # Per span and side: r^k for k = 0..c_r, and a (c_r, c_r + 1) view whose
    # row c - 1 holds (1 - r)^(c - k) at k <= c and 0 beyond: the window at
    # c_r - c of (1 - r)^j for j = c_r..0 followed by c_r zeros.
    tables = []
    for r, x, t in spans:
        last = len(t)
        sides = []
        for rate in (r, min(r + x, 1.0)):
            rk, sk = rate_powers(rate, last)
            down = np.concatenate((sk[::-1], np.zeros(last)))
            step = down.strides[0]
            sides.append((rk, as_strided(down, (last, last + 1), (step, step))[::-1]))
        tables.append(sides)
    distances = [np.empty(len(t)) for _, _, t in spans]
    rows = max(1, _SWEEP_CELLS // (c_top + 1))
    row = np.ones(1)
    for start in range(1, c_top + 1, rows):
        end = min(start + rows - 1, c_top)
        triangle = np.zeros((end - start + 1, end + 1))
        for i, c in enumerate(range(start, end + 1)):
            nxt = np.empty(c + 1)
            nxt[0] = nxt[c] = 1.0
            np.add(row[:-1], row[1:], out=nxt[1:c])
            triangle[i, :c + 1] = row = nxt
        for (_, _, t), sides, out in zip(spans, tables, distances):
            count = min(end, len(t)) - start + 1
            if count <= 0:
                continue
            width = start + count
            laws = []
            for rk, falls in sides:
                law = triangle[:count, :width] * rk[:width]
                law *= falls[start - 1:start - 1 + count, :width]
                laws.append(law)
            law, other = laws
            law -= other
            np.abs(law, out=law)
            out[start - 1:start - 1 + count] = 0.5 * law.sum(axis=1)
    r, x, c, distance, bound = [], [], [], [], []
    for (rate, shift, t), out in zip(spans, distances):
        r.append(np.full(len(t), rate))
        x.append(np.full(len(t), shift))
        c.append(np.arange(1, len(t) + 1))
        distance.append(out)
        bound.append(TV_BOUND_CONSTANT * t / ((1.0 - t) * (1.0 - t)))
    r, x, c, distance, bound = map(np.concatenate, (r, x, c, distance, bound))
    return r, x, c, distance, bound, 2.0**-40 * (c + bound)


def shift_bound_sweep(rates: Sequence[tuple[float, float]], top: int) -> tuple[int, int, float]:
    """(applicable cells, violations, worst margin) of the shift bound on a grid of cells.

    A cell is a trial count c in 1..top and a pair (r, x) of ``rates``
    with 0 < r < 1 where ``tv_shift_bound(x, c, r)`` gives a bound B.  Its
    distance D is ``exact_dtv`` of Bin(c, r) and Bin(c, min(r + x, 1)), its
    margin B - D, and it violates the bound when D > B.  The result is
    that of computing every cell exactly, read off a float pass that
    certifies which cells need the exact path.

    Applicability: t = x * sqrt((c + 2) / (2 r (1 - r))) is computed by the
    float operations of ``tv_shift_param``, so it is the same number, and
    each of them is monotone in c: a rate's cells are c = 1..c_r, and its
    rows and ``rate_powers`` tables stop at c_r.

    Approximate pass: masses from a float Pascal triangle built by float
    additions times the power tables, D' by a numpy sum, and
    B' = K t / ((1 - t) (1 - t)) with K = ``TV_BOUND_CONSTANT``, in chunks
    of at most ``_SWEEP_CELLS`` cells per temporary.

    Slack.  Let u = 2^-53 and g_k = k u / (1 - k u).  Every term is
    positive, so an entry of row c of the float triangle, c - 1 additions
    deep, is within g_c of C(c, k) relatively, and a mass, after two
    rounded products, within g_{c+2} of the real product of the tables;
    the exact path's masses are within g_3 of it.  The tables' masses sum
    to at most (1 + 2u)^2 (1 + u)^c, since each power is within an ulp and
    1 - r within u.  So the per-term gaps, each differenced with one
    rounding on both paths, differ in sum by at most 2 (g_{c+2} + g_3 + 2u)
    (1 + 10^-12) for c <= 1000, the largest top accepted (above it float
    coefficients overflow); a sum of c + 1 non-negative terms in any
    order is within g_c of its value, and ``math.fsum`` within u.  Halving,
    |D' - D| <= (g_c + g_{c+2} + g_3 + 3u)(1 + 10^-12) < (2c + 8) u.  B
    divides K t by ``pow(1 - t, 2)`` and B' by the rounded square; with
    ``pow`` within an ulp, |B' - B| <= 8 u B'.  The margins, each rounded
    once, then differ by at most (2c + 8) u + 8 u B' + 2 u (B' + c + 1).
    The slack 2^-40 (c + B') is 8192 u (c + B'), above that bound by a
    factor of at least 500 for every c >= 1.

    Only the cells of ``refine_mask`` are recomputed on the exact path
    (``exact_dtv``: for c <= 1000 the coefficient recurrence, ``masses``,
    and the ``math.fsum`` of ``tv_distance``), and those exact values alone
    decide the violations and the worst margin: a cell outside the mask
    has a positive exact margin above the least.
    """
    r, x, c, distance, bound, slack = approximate_shift_cells(rates, top)
    refine = refine_mask(bound - distance, slack)
    violations, worst = 0, math.inf
    for cell_r, cell_x, cell_c in zip(r[refine].tolist(), x[refine].tolist(), c[refine].tolist()):
        cell_bound = tv_shift_bound(cell_x, cell_c, cell_r)
        exact = exact_dtv(BinomialSpec(cell_c, cell_r),
                          BinomialSpec(cell_c, min(cell_r + cell_x, 1.0)))
        violations += exact > cell_bound
        worst = min(worst, cell_bound - exact)
    return len(c), violations, worst


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
