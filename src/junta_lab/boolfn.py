"""Boolean functions: bit strings, truth tables, and lazy structured instances.

Coordinate indices are 1-based throughout the public API.  A length-n bit
string is encoded as the integer whose binary expansion, most significant
bit first, reads x_1 x_2 ... x_n; truth tables are indexed by that code.
The addressing map x -> x|_M uses the same convention: the smallest
index of the addressing set contributes the most significant bit.  Its
one implementation is the gather ``_addresses``.

A structured instance's bits are coins (``rng.coin``) of ``rng.words`` at
keys folded from its seed, and come from three array kernels over rows
(instances) at once, on uint64 keys and address chunks: ``_fibers`` (each
fiber's h key and coordinate subset S), which the other two share;
``_answers`` (values at given queries); and ``_tables`` (all 2^n values,
fiber by fiber).  ``StructuredFn.eval_many`` is ``_answers`` and
``to_table`` is ``_tables`` with the instance as the one row;
``structured_answers`` and ``structured_tables`` run them for a block of
seeds, from the sampler's M and A masks, without building instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput, TooLarge
from .params import Params
from .rng import Seed, coin, stream_keys, word_limit, words

TABLE_CAP = 24

YES_STYLE = "yes_style"
NO_STYLE = "no_style"


@dataclass(frozen=True)
class BitString:
    """An immutable string in {0,1}^length."""

    length: int
    code: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise InvalidInput(f"length must be positive, got {self.length}")
        if not 0 <= self.code < (1 << self.length):
            raise InvalidInput(f"code {self.code} out of range for length {self.length}")

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(length, 0)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not text or set(text) - {"0", "1"}:
            raise InvalidInput(f"bit string text must be non-empty 0/1, got {text!r}")
        return cls(len(text), int(text, 2))

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"coordinate {i} not in [1, {self.length}]")
        return (self.code >> (self.length - i)) & 1

    def to_text(self) -> str:
        return format(self.code, f"0{self.length}b")

    def __str__(self) -> str:
        return self.to_text()


def flip(x: BitString, i: int) -> BitString:
    """The string differing from x exactly at coordinate i."""
    if not 1 <= i <= x.length:
        raise IndexOutOfRange(f"coordinate {i} not in [1, {x.length}]")
    return BitString(x.length, x.code ^ (1 << (x.length - i)))


@dataclass(frozen=True)
class IndexSet:
    """A sorted duplicate-free subset of [1, universe_size]."""

    universe_size: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise InvalidInput(f"universe_size must be positive, got {self.universe_size}")
        for i in self.members:
            if not 1 <= i <= self.universe_size:
                raise InvalidInput(f"member {i} outside [1, {self.universe_size}]")
        if list(self.members) != sorted(set(self.members)):
            raise InvalidInput("members must be sorted and duplicate-free")

    @classmethod
    def of(cls, universe_size: int, members: Iterable[int]) -> "IndexSet":
        return cls(universe_size, tuple(sorted(set(int(i) for i in members))))

    def complement(self) -> "IndexSet":
        present = set(self.members)
        return IndexSet(
            self.universe_size,
            tuple(i for i in range(1, self.universe_size + 1) if i not in present),
        )

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


class TruthTable:
    """An explicit function {0,1}^n -> {0,1}, capped at n <= 24."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: np.ndarray):
        if n < 1:
            raise InvalidInput(f"n must be positive, got {n}")
        if n > TABLE_CAP:
            raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
        arr = np.asarray(table, dtype=np.uint8)
        if arr.shape != (1 << n,):
            raise InvalidInput(f"table must have exactly 2^{n} entries")
        if arr.max(initial=0) > 1:
            raise InvalidInput("table entries must be 0/1")
        self.n = n
        self.table = arr
        self.table.setflags(write=False)

    @classmethod
    def constant(cls, n: int, bit: int) -> "TruthTable":
        if bit not in (0, 1):
            raise InvalidInput(f"bit must be 0/1, got {bit!r}")
        return cls(n, np.full(1 << n, bit, dtype=np.uint8))

    def eval(self, x: BitString) -> int:
        if x.length != self.n:
            raise DimensionMismatch(f"query length {x.length} != {self.n}")
        return int(self.table[x.code])

    def eval_many(self, xs: Sequence[BitString]) -> tuple[int, ...]:
        """``tuple(self.eval(x) for x in xs)``."""
        return tuple(self.eval(x) for x in xs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def serialize(self) -> str:
        """``n=<int>`` line, then 2^n characters of 0/1 in code order."""
        bits = (self.table + ord("0")).tobytes().decode("ascii")
        return f"n={self.n}\n{bits}\n"

    @classmethod
    def deserialize(cls, text: str) -> "TruthTable":
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("n="):
            raise InvalidInput("expected 'n=<int>' then a 0/1 line")
        try:
            n = int(lines[0][2:])
        except ValueError as exc:
            raise InvalidInput(f"malformed dimension line {lines[0]!r}") from exc
        if n < 1:
            raise InvalidInput(f"n must be positive, got {n}")
        if n > TABLE_CAP:
            raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
        # one "?" byte per non-ASCII character, which the 0/1 check rejects
        raw = lines[1].encode("ascii", "replace")
        bits = np.frombuffer(raw, dtype=np.uint8) - ord("0")
        if len(raw) != 1 << n or bits.max(initial=0) > 1:
            raise InvalidInput("table line must be exactly 2^n characters of 0/1")
        return cls(n, bits)


_S_ROLE = "S-membership"
_H_ROLE = "h-value"
_HALF = word_limit(0.5)
_MASK64 = np.uint64(2**64 - 1)
# Cells (rows x fibers or queries x pool coordinates) of one chunk of a
# block's kernel arrays, and positions of a wide fiber's values made at
# once: each uint64 temporary holds at most this many words, so a block's
# memory does not grow with its seeds and to_table's stays far below its
# table.
_CELLS = 1 << 11
_PIECE = 1 << 9


def _row_keys(seeds: Sequence[Seed]) -> np.ndarray:
    """K_S and K_H per seed, the keys of its "S-membership" and "h-value" streams: (2, seeds)."""
    return np.stack([stream_keys(seeds, _S_ROLE), stream_keys(seeds, _H_ROLE)])


def _fold(keys: np.ndarray, chunks, widths) -> np.ndarray:
    """fold(key, v, w): key <- words(key, c) for each 64-bit chunk c of v, least significant first.

    ``chunks`` holds v's chunks along its first axis (or is a list of
    them), each broadcasting with ``keys``; a key folds the first
    max(1, ceil(w / 64)) of them, w from ``widths``, which broadcasts with
    the keys.  For w <= 64 the fold is words(key, v).
    """
    for index, chunk in enumerate(chunks):
        folded = words(keys, chunk)
        keys = folded if index == 0 else np.where(widths > 64 * index, folded, keys)
    return keys


def _fibers(keys: np.ndarray, chunks: np.ndarray, t: int, coords: np.ndarray,
            in_pool: np.ndarray, limit) -> tuple[np.ndarray, np.ndarray]:
    """(h keys, membership coins) of the fibers at the addresses whose ``chunks`` are given.

    The one fiber kernel.  Row r's keys are ``keys[:, r]`` (K_S, K_H) and
    its candidate coordinates ``coords[r]`` (1-based, increasing), of which
    ``in_pool[r]`` marks the members of A.  A fiber at address a has the
    keys s = fold(K_S, a, t) and h = fold(K_H, a, t), and coordinate i of A
    joins its S when coin(words(s, i), ``limit``), limit = word_limit(theta):
    exact to the word, and independent of the rest of A.  ``chunks`` has
    shape (chunks, rows or 1, fibers), as ``_addresses`` gives them; h is
    (rows, fibers) and the coins (rows, fibers, candidates).
    """
    s, h = _fold(keys[:, :, None], chunks, t)
    coins = coin(words(s[:, :, None], coords[:, None, :]), limit)
    coins &= in_pool[:, None, :]
    return h, coins


def _answers(keys: np.ndarray, coords: np.ndarray, in_pool: np.ndarray, limit, t: int,
             bits: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """Each row's values at the queries whose bits and addresses are given: (rows, queries), bool.

    The one evaluation kernel, which ``StructuredFn.eval_many`` and
    ``structured_answers`` share.  ``bits`` is the queries' (queries,
    n + 1) bit matrix (``_code_bits``) and ``addresses`` the (chunks,
    rows, queries) chunks of their addresses under each row's M
    (``_addresses``); the rows are as in ``_fibers``, which gives each
    query its fiber's h key and S.  Then f(x) is the fair coin
    of fold(h, y, max(|S|, 1)), y being the bits of x on S read as an
    integer, the smallest coordinate most significant.  Bit j of y sits
    ``after`` places up, the number of members of S after it.
    """
    h, coins = _fibers(keys, addresses, t, coords, in_pool, limit)
    width = coins.sum(axis=2, dtype=np.uint64)
    after = np.subtract(width[:, :, None], np.cumsum(coins, axis=2, dtype=np.uint64))
    coins &= bits[:, coords].transpose(1, 0, 2)
    chunk_of = after >> 6 if width.max(initial=0) > 64 else None
    # bit j of y in its chunk: after & 63 places up, for the members of S
    placed = np.left_shift(coins, np.bitwise_and(after, 63, out=after), out=after)
    chunks = [placed] if chunk_of is None else [
        np.where(chunk_of == index, placed, 0) for index in range((int(width.max()) + 63) // 64)]
    y = [chunk.sum(axis=2, dtype=np.uint64) for chunk in chunks]
    return coin(_fold(h, y, width), _HALF)


def _code_bits(n: int, codes: Sequence[int]) -> np.ndarray:
    """The (codes, n + 1) bool bit matrix of n-bit codes: column i is bit i, column 0 is 0."""
    width = n // 8 + 1
    raw = np.frombuffer(b"".join([code.to_bytes(width, "big") for code in codes]), np.uint8)
    bits = np.unpackbits(raw.reshape(len(codes), width), axis=1)
    return bits[:, 8 * width - n - 1:].view(bool)


def _addresses(bits: np.ndarray, members) -> np.ndarray:
    """Each query's address under each row of ``members``, in 64-bit chunks: uint64.

    ``bits`` is the queries' (queries, n + 1) bit matrix (``_code_bits``).  A
    row holds t members of an addressing set, 1-based and increasing; the
    address is one plus the t-bit integer the query's bits there spell, MSB
    first, as its ceil(t / 64) chunks, least significant first, in shape
    (chunks, rows, queries) for ``_fold``; a carry out of the top chunk is
    dropped, so when 64 divides t the address 2^t is all zeros.  One
    ``take`` reads the bits, written least significant first into whole
    64-bit words that ``np.packbits`` packs little-endian for a uint64
    view; the one is added with its carry, which reaches a chunk when
    every chunk below it is all ones, that is when their AND (one
    accumulate) floor-divided by 2^64 - 1 is 1.
    """
    members = np.asarray(members, dtype=np.intp)
    rows, t = members.shape
    queries, size = len(bits), -(-t // 64)
    spelled = np.zeros((queries, rows, 64 * size), bool)
    spelled[..., t - 1::-1] = bits.take(members, axis=1)
    chunks = np.packbits(spelled, bitorder="little").view("<u8").reshape(queries, rows, size)
    carries = np.bitwise_and.accumulate(chunks[..., :-1], axis=-1) // _MASK64
    chunks[..., 0] += 1
    chunks[..., 1:] += carries
    return chunks.transpose(2, 1, 0)


def _query_codes(n: int, xs: Sequence[BitString]) -> list[int]:
    """The codes of the queries ``xs``; raises unless every one has length n."""
    codes = [x.code for x in xs if x.length == n]
    if len(codes) != len(xs):
        length = next(x.length for x in xs if x.length != n)
        raise DimensionMismatch(f"universe {n} does not match string length {length}")
    return codes


@dataclass(frozen=True)
class StructuredFn:
    """A lazily evaluated instance f(x) = h_{address(x)}(x restricted to S).

    The seed gives two keys, K_S and K_H, those of its ``"S-membership"``
    and ``"h-value"`` streams.  The fiber at address a (1-based, t = |M|
    bits wide) has the keys s_a = fold(K_S, a, t) and h_a = fold(K_H, a, t),
    where fold feeds a's ceil(t / 64) 64-bit chunks through ``rng.words``,
    so when 64 divides t the address 2^t folds as 0.  Member i of A joins
    S_a when ``rng.coin(words(s_a, i), word_limit(epsilon / sqrt(n)))``,
    and f(x) = 1 when coin(fold(h_a, y, max(|S_a|, 1)), word_limit(1/2)),
    y being x's bits on S_a, the smallest coordinate most significant.
    Every bit derives from the seed, so repeated queries always agree and
    instances are safe to share across threads.

    The instance keeps its two keys, as the kernels' (2, 1) uint64 array,
    once it has evaluated (``_keys``).  ``eval_many`` reads its queries'
    address chunks with one ``_addresses`` gather and answers them by the
    evaluation kernel ``_answers``; ``to_table`` runs the tabulation
    kernel ``_tables``.  ``structured_answers`` and ``structured_tables``
    run the same kernels for a block of seeds without building instances.
    """

    params: Params
    M: IndexSet
    A: IndexSet
    seed: Seed
    kind: str

    def __post_init__(self) -> None:
        n = self.params.n
        if self.M.universe_size != n or self.A.universe_size != n:
            raise DimensionMismatch("M and A must live in the params universe")
        if len(self.M) != self.params.t:
            raise InvalidInput(f"|M| = {len(self.M)} but t = {self.params.t}")
        if set(self.M.members) & set(self.A.members):
            raise InvalidInput("M and A must be disjoint")
        if self.kind not in (YES_STYLE, NO_STYLE):
            raise InvalidInput(f"kind must be {YES_STYLE!r} or {NO_STYLE!r}")

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def _keys(self) -> np.ndarray:
        """(K_S, K_H) as a read-only (2, 1) uint64 array, derived at the first evaluation."""
        keys = _row_keys([self.seed])
        keys.setflags(write=False)
        return keys

    def eval(self, x: BitString) -> int:
        if x.length != self.n:
            raise DimensionMismatch(f"query length {x.length} != {self.n}")
        return self.eval_many((x,))[0]

    def eval_many(self, xs: Sequence[BitString]) -> tuple[int, ...]:
        """``tuple(self.eval(x) for x in xs)``: one ``_addresses`` gather and one ``_answers`` call.

        The instance is the kernel's one row, with A as its candidates.
        """
        bits = _code_bits(self.n, _query_codes(self.n, xs))
        pool = np.array(self.A.members, dtype=np.intp).reshape(1, len(self.A))
        values = _answers(self._keys, pool, np.ones(pool.shape, dtype=bool),
                          word_limit(self.params.coin_prob), len(self.M), bits,
                          _addresses(bits, [self.M.members]))
        return tuple(values[0].view(np.uint8).tolist())


def _block_rows(params: Params, in_m: np.ndarray, in_a: np.ndarray):
    """A block's M members (seeds, t) and its candidates, the coordinates outside M, with A's mask.

    Every row has t members and n - t candidates, 1-based and increasing.
    """
    shape = (len(in_m), params.n - params.t)
    members = np.nonzero(in_m)[1].reshape(len(in_m), params.t) + 1
    outside = ~in_m
    return members, np.nonzero(outside)[1].reshape(shape) + 1, in_a[outside].reshape(shape)


def structured_answers(
    params: Params, seeds: Sequence[Seed], in_m: np.ndarray, in_a: np.ndarray,
    xs: Sequence[BitString],
) -> np.ndarray:
    """Row i is ``StructuredFn(params, M_i, A_i, seeds[i], kind).eval_many(xs)``, no instance built.

    M_i and A_i are the coordinates (1-based) where row i of the boolean
    (seeds, n) masks ``in_m`` and ``in_a`` is set; the kind only chooses
    how A was drawn.  The seeds run through ``_addresses`` and ``_answers``
    in chunks of at most ``_CELLS`` (query, candidate) cells, so a trial
    builds no instance or index set and memory does not grow with the
    block.  Shape (seeds, xs), uint8.
    """
    n, t = params.n, params.t
    bits = _code_bits(n, _query_codes(n, xs))
    keys = _row_keys(seeds)
    limit = word_limit(params.coin_prob)
    out = np.empty((len(seeds), len(bits)), dtype=np.uint8)
    step = max(1, _CELLS // max(1, len(bits) * (n - t)))
    for start in range(0, len(seeds), step):
        rows = slice(start, start + step)
        members, coords, in_pool = _block_rows(params, in_m[rows], in_a[rows])
        out[rows] = _answers(keys[:, rows], coords, in_pool, limit, t, bits,
                             _addresses(bits, members))
    return out


def _fiber_values(h: np.ndarray, width: int) -> np.ndarray:
    """Each fiber's 2^width values, at y = 0, 1, ...: shape (fibers, 2^width), uint8.

    For |S| = width <= 64 a value is coin(words(h, y), ``_HALF``), made
    ``_PIECE`` positions at a time.
    """
    size = 1 << width
    out = np.empty(len(h) * size, dtype=np.uint8)
    for start in range(0, len(out), _PIECE):
        at = np.arange(start, min(start + _PIECE, len(out)), dtype=np.uint64)
        out[start:start + len(at)] = coin(words(h[at >> width], at & (size - 1)), _HALF)
    return out.reshape(len(h), size)


def _tables(params: Params, keys: np.ndarray, in_m: np.ndarray,
            in_a: np.ndarray) -> Iterator[np.ndarray]:
    """Each row's 2^n values in code order, one new uint8 array at a time.

    The one tabulation kernel, which ``to_table`` and ``structured_tables``
    share.  Row r has the keys ``keys[:, r]`` and the masks ``in_m[r]`` and
    ``in_a[r]``; its candidates are the coordinates outside M.  For a chunk
    of rows at once (at most ``_CELLS`` (fiber, candidate) cells) it makes
    every fiber's h key and S (``_fibers``) and each fiber's first value,
    at y = 0; the values of the fibers with non-empty S are made a width at
    a time (``_fiber_values``).  A table is written through one transposed
    view of the (2,)*n cube: the axes of M first (so the address bits index
    a fiber), then the coordinates in neither M nor A, then those of A.
    One broadcast over the M axes writes every fiber's first value, its
    whole fiber when S is empty, as at desk rates most are; then each fiber
    with non-empty S is overwritten by its values, shaped with length 2 on
    the axes of S and length 1 on the rest of A.  No 2^n-sized temporary is
    made.  Capped at n <= 24.
    """
    n, t = params.n, params.t
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    addresses = np.arange(1, (1 << t) + 1, dtype=np.uint64)[None, None]
    limit = word_limit(params.coin_prob)
    step = max(1, _CELLS // ((1 << t) * max(1, n - t)))
    for start in range(0, len(in_m), step):
        rows = slice(start, start + step)
        members, coords, in_pool = _block_rows(params, in_m[rows], in_a[rows])
        h, coins = _fibers(keys[:, rows], addresses, t, coords, in_pool, limit)
        firsts = coin(words(h, 0), _HALF).view(np.uint8)
        widths = coins.sum(axis=2)
        wide: dict[int, list] = {}
        for width in sorted(set(widths[widths > 0].tolist())):
            at = np.nonzero(widths == width)
            for row, fiber, values in zip(*at, _fiber_values(h[at], width)):
                wide.setdefault(row, []).append((fiber, values))
        for row, (M, candidates, pool) in enumerate(zip(members, coords, in_pool)):
            out = np.empty(1 << n, dtype=np.uint8)
            order = np.concatenate([M, candidates[~pool], candidates[pool]]) - 1
            view = out.reshape((2,) * n).transpose(order)
            view[...] = firsts[row].reshape((2,) * t + (1,) * (n - t))
            for fiber, values in wide.get(row, ()):
                address_bits = tuple([(fiber >> (t - 1 - j)) & 1 for j in range(t)])
                view[address_bits] = values.reshape(np.where(coins[row, fiber, pool], 2, 1))
            yield out


def structured_tables(
    params: Params, seeds: Sequence[Seed], in_m: np.ndarray, in_a: np.ndarray
) -> Iterator[np.ndarray]:
    """Row i's table, ``to_table(StructuredFn(params, M_i, A_i, seeds[i], kind)).table``, in order.

    M_i and A_i are the coordinates (1-based) where row i of the boolean
    (seeds, n) masks ``in_m`` and ``in_a`` is set, as in
    ``structured_answers``.  The block runs ``_tables``, so no instance or
    index set is built.  The tables are made as the iteration reaches
    them, one 2^n uint8 array each, so a block of seeds holds one table at
    a time; capped at n <= 24.
    """
    return _tables(params, _row_keys(seeds), in_m, in_a)


def to_table(f: StructuredFn) -> TruthTable:
    """Materialize a structured instance fiber by fiber: ``_tables`` with it as the one row.

    Equal to evaluating ``f.eval`` at every code, at a fraction of the
    words: per point, evaluation folds two fiber keys and reads |A| + 1
    more words, while this folds two keys and reads n - t + 1 more words
    per fiber (a coin per coordinate outside M, and the value at y = 0),
    then 2^|S_a| words for each fiber with non-empty S.
    Capped at n <= 24.
    """
    in_m = np.zeros((1, f.n), dtype=bool)
    in_a = np.zeros((1, f.n), dtype=bool)
    in_m[0, np.array(f.M.members, dtype=np.intp) - 1] = True
    in_a[0, np.array(f.A.members, dtype=np.intp) - 1] = True
    return TruthTable(f.n, next(_tables(f.params, f._keys, in_m, in_a)))


def bichromatic_edge_counts(f: TruthTable) -> tuple[int, ...]:
    """For each coordinate i, the number of x with x_i = 0 and f(x) != f(flip(x, i)).

    These edges share no vertex, so entry i - 1 is also the size of the
    maximum disjoint bichromatic matching in direction i alone.

    All n directions are counted in one pass over the table packed into
    one integer, entry 0 in its top bit, so entry c sits at bit 2^n - 1 - c:
    shifting by 2^(n-i) bits lines every entry up with its partner across
    i, and the mask keeps the entries with x_i = 1: the runs of 2^(n-i) bits
    whose run index from the bottom is even.  XOR with itself shifted up by
    2^(n-i) bits turns the mask for runs of 2^(n-i+1) into this one; the
    mask before coordinate 1 is every bit, one run of 2^n.
    """
    n, size = f.n, 1 << f.n
    packed = int.from_bytes(np.packbits(f.table).tobytes(), "big") >> (-size % 8)
    full = mask = (1 << size) - 1
    counts = []
    for i in range(1, n + 1):
        run = 1 << (n - i)
        mask = (mask ^ (mask << run)) & full
        counts.append(((packed ^ (packed >> run)) & mask).bit_count())
    return tuple(counts)


def relevant_variables(f: TruthTable) -> IndexSet:
    """Exactly the coordinates i with f(x) != f(flip(x, i)) for some x.

    These are the directions with a nonzero ``bichromatic_edge_counts``.
    """
    counts = bichromatic_edge_counts(f)
    return IndexSet.of(f.n, [i for i, count in enumerate(counts, 1) if count])
