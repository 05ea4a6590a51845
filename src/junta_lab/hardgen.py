"""Samplers for the hard-instance distributions.

Yes-style and no-style structured instances share everything except the
inclusion rate of the coordinate pool A (p = 1/2 versus q > 1/2).  A
sampler stores only M, A and the seed.  For a block of seeds one draw
(``_pool_masks``) makes every M by one Fisher-Yates over the block of
``"M"`` streams (``addressing_orders``) and every A from one coin per
coordinate outside M on the block of ``"A"`` streams
(``RandomStream.below``), as arrays.  ``sample_block`` is the one
sampler of structured instances built from that draw, and
``sample_yes`` and ``sample_no`` are it at one seed.  Two readers take
the same draw without building instances: ``sample_block_at`` answers
them at given queries (``boolfn.structured_answers``), as the
string-query game needs, and ``sample_block_tables`` tabulates them one
at a time (``boolfn.structured_tables``), with their pool masks, as
``verify_yes`` and ``verify_no`` need.  The per-fiber randomness (each
fiber's subset S and its values of h) comes from counter-mode words at
fiber keys folded from the seed's ``"S-membership"`` and ``"h-value"``
stream keys (``boolfn.StructuredFn``), re-derived on demand, so an instance
takes O(1) memory however many fibers it has.  ``boolfn.to_table``
materializes the same values fiber by fiber, deriving each S and each
value of h once.

The two tail distributions produce explicit truth tables from a
one-row stream: iid Bernoulli(3*epsilon) entries, one stream coin each,
or exactly round(2^n * epsilon) ones placed uniformly at random.
``sample_d1_block_at`` reads the D1 tables of a block of streams at a
few points without building them.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterator, Sequence

import numpy as np

from .boolfn import (
    NO_STYLE,
    TABLE_CAP,
    YES_STYLE,
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
    structured_answers,
    structured_tables,
)
from .errors import EpsilonOutOfRange, InvalidInput, TooLarge, WeightOutOfRange
from .params import Params
from .rng import RandomStream, Seed

__all__ = [
    "sample_yes",
    "sample_no",
    "sample_block",
    "sample_block_at",
    "sample_block_tables",
    "addressing_orders",
    "sample_d1",
    "sample_d1_block_at",
    "check_d1",
    "sample_d2",
]


def sample_yes(params: Params, seed: Seed) -> StructuredFn:
    """A yes-style instance (pool inclusion rate p): ``sample_block`` at one seed."""
    return next(sample_block(params, YES_STYLE, [seed]))


def sample_no(params: Params, seed: Seed) -> StructuredFn:
    """A no-style instance (pool inclusion rate q): ``sample_block`` at one seed."""
    return next(sample_block(params, NO_STYLE, [seed]))


def addressing_orders(params: Params, seeds: Sequence[Seed]) -> np.ndarray:
    """Row i is 1..n after the first t steps of a Fisher-Yates shuffle on seed i's ``"M"`` stream.

    One Fisher-Yates over the whole block: position ``pos`` swaps with
    ``pos`` plus each seed's bounded draw over ``n - pos`` from the block
    of ``"M"`` streams, for pos < t.  So the first t entries of row i
    are the members of seed i's M, a uniform size-t subset of [n],
    unsorted, and the rest are the coordinates outside it.
    Shape (seeds, n), int64.
    """
    n, t = params.n, params.t
    rows = np.arange(len(seeds))
    order = np.tile(np.arange(1, n + 1), (len(seeds), 1))
    for pos, offset in enumerate(RandomStream(seeds, "M").bounded(range(n, n - t, -1)).T):
        swap = pos + offset
        order[:, pos], order[rows, swap] = order[rows, swap], order[:, pos].copy()
    return order


def _pool_masks(
    params: Params, kind: str, seeds: Sequence[Seed]
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each coordinate lies in M and in A, per seed: two (seeds, n) boolean arrays.

    M comes from ``addressing_orders``; A takes row i of one (seeds,
    n - t) array of coins from the block of ``"A"`` streams, at the
    inclusion rate (p for ``YES_STYLE``, q for ``NO_STYLE``), as seed i's
    coins, one per coordinate outside M in increasing order, and includes
    the coordinate when its coin fires.  Every row has n - t coordinates
    outside M, so a boolean fill in row-major order hands each row its
    own coins in order.
    """
    n, t = params.n, params.t
    inclusion = params.p if kind == YES_STYLE else params.q
    in_m = np.zeros((len(seeds), n), dtype=bool)
    in_m[np.arange(len(seeds))[:, None], addressing_orders(params, seeds)[:, :t] - 1] = True
    coins = RandomStream(seeds, "A").below(n - t, inclusion)
    in_a = np.zeros_like(in_m)
    in_a[~in_m] = coins.ravel()
    return in_m, in_a


def sample_block(params: Params, kind: str, seeds: Sequence[Seed]) -> Iterator[StructuredFn]:
    """A yes-style (kind ``YES_STYLE``) or no-style (``NO_STYLE``) instance per seed, in order.

    M and A are row i of ``_pool_masks``.  A block's rows are its seeds'
    one-seed streams draw for draw, so each instance depends on its seed
    alone, not on the block around it.  The draws are made for the whole
    block at once, the instances as the iteration reaches them.
    """
    n = params.n
    coords = range(1, n + 1)
    in_m, in_a = _pool_masks(params, kind, seeds)
    for seed, m_row, a_row in zip(seeds, in_m.tolist(), in_a.tolist()):
        M = IndexSet(n, tuple(compress(coords, m_row)))
        A = IndexSet(n, tuple(compress(coords, a_row)))
        yield StructuredFn(params=params, M=M, A=A, seed=seed, kind=kind)


def sample_block_at(
    params: Params, kind: str, seeds: Sequence[Seed], xs: Sequence[BitString]
) -> np.ndarray:
    """Row i is ``sample_block(params, kind, seeds)``'s instance i at xs (``eval_many``).

    The same draws (``_pool_masks``) answered by ``boolfn.structured_answers``
    for the whole block, with no instance built.  Shape (seeds, xs), uint8.
    """
    return structured_answers(params, seeds, *_pool_masks(params, kind, seeds), xs)


def sample_block_tables(
    params: Params, kind: str, seeds: Sequence[Seed]
) -> Iterator[tuple[np.ndarray, list[bool]]]:
    """``sample_block``'s instance i as (its table, whether each coordinate lies in M or A), in order.

    The same draws (``_pool_masks``, once for the block) tabulated by
    ``boolfn.structured_tables``: the table is ``to_table(f).table`` of
    instance i, and the pool mask's entry j - 1 says whether coordinate j
    lies in M ∪ A.  No instance is built, and the block holds one table
    at a time.
    """
    in_m, in_a = _pool_masks(params, kind, seeds)
    for table, pool in zip(structured_tables(params, seeds, in_m, in_a), in_m | in_a):
        yield table, pool.tolist()


def check_d1(n: int, epsilon: float) -> None:
    """Raise unless ``sample_d1`` accepts n (a table within ``TABLE_CAP``) and epsilon."""
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    if not 0.0 < epsilon <= 0.2:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1/5], got {epsilon}")


def sample_d1(n: int, epsilon: float, stream: RandomStream) -> TruthTable:
    """Each of the 2^n table bits is independently 1 with probability 3*epsilon.

    Entry ``code`` is the one-row stream's coin ``code`` at rate 3*epsilon
    (``RandomStream.below``).  ``sample_d1_block_at`` reads a few entries
    of a block of such tables.
    """
    check_d1(n, epsilon)
    bits = stream.below(1 << n, 3.0 * epsilon)[0]
    return TruthTable(n, bits.view(np.uint8))


def sample_d1_block_at(
    n: int, epsilon: float, block: RandomStream, codes: Sequence[int]
) -> np.ndarray:
    """Row i is ``sample_d1(n, epsilon, stream_i).table[codes]`` for row i of ``block``.

    Codes may come in any order and repeat; each distinct code costs one
    coin per row (``RandomStream.below_at``) instead of 2^n.  Shape
    (rows, codes), uint8.
    """
    check_d1(n, epsilon)
    distinct = sorted(set(codes))
    if distinct and not 0 <= distinct[0] <= distinct[-1] < 1 << n:
        raise InvalidInput(f"codes must lie in [0, 2^{n}), got {distinct[0]}..{distinct[-1]}")
    column = {code: j for j, code in enumerate(distinct)}
    bits = block.below_at(distinct, 3.0 * epsilon)
    return bits[:, [column[code] for code in codes]].astype(np.uint8)


def sample_d2(n: int, epsilon: float, stream: RandomStream) -> TruthTable:
    """Exactly round(2^n * epsilon) ones at uniform positions without replacement.

    The ones sit where the one-row stream's next 2^n raw words are the
    weight smallest, the words below the (weight + 1)-th smallest.  When
    that word ties with the weight-th smallest fewer words lie below it,
    and the table is drawn again from the next 2^n words.  A tie does not
    depend on the words' order, so given that none happens every
    weight-subset of positions is equally likely: the table is exactly
    uniform.
    """
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    if not math.isfinite(epsilon):
        raise InvalidInput(f"epsilon must be finite, got {epsilon}")
    size = 1 << n
    weight = round(size * epsilon)
    if not 1 <= weight <= size:
        raise WeightOutOfRange(
            f"round(2^{n} * {epsilon}) = {weight} outside [1, 2^{n}]"
        )
    if weight == size:
        return TruthTable.constant(n, 1)
    while True:
        words = stream.raw(size)[0]
        ones = words < np.partition(words, weight)[weight]
        if np.count_nonzero(ones) == weight:
            return TruthTable(n, ones.view(np.uint8))
