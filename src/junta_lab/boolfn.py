"""Boolean functions: bit strings, truth tables, and lazy structured instances.

Coordinate indices are 1-based throughout the public API.  A length-n bit
string is encoded as the integer whose binary expansion, most significant
bit first, reads x_1 x_2 ... x_n; truth tables are indexed by that code.
The addressing map x -> x|_M uses the same convention: the smallest
index of the addressing set contributes the most significant bit.  Its
one implementation is the gather ``_addresses``.

A structured instance's values come from three kernels: ``_fiber`` (a
fiber's coordinate subset S and h-prefix), which the other two share;
``_answers`` (values at given queries, one digest per distinct
(address, bits of x on S)); and ``_table`` (all 2^n values, fiber by
fiber).  ``StructuredFn.eval_many`` is ``_answers`` and ``to_table`` is
``_table`` on the instance's keyed states; ``structured_answers`` and
``structured_tables`` run them for a block of seeds, from the sampler's
M and A masks, without building instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput, TooLarge
from .params import Params
from .rng import KeyedDigest, Seed, byte_limit, pack_each, pack_ints

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

    def bits(self) -> tuple[int, ...]:
        return tuple((self.code >> (self.length - i)) & 1 for i in range(1, self.length + 1))

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
        if n < 1 or n > TABLE_CAP:
            raise TooLarge(f"n = {n} outside [1, {TABLE_CAP}]")
        # one "?" byte per non-ASCII character, which the 0/1 check rejects
        raw = lines[1].encode("ascii", "replace")
        bits = np.frombuffer(raw, dtype=np.uint8) - ord("0")
        if len(raw) != 1 << n or bits.max(initial=0) > 1:
            raise InvalidInput("table line must be exactly 2^n characters of 0/1")
        return cls(n, bits)


_S_ROLE = "S-membership"
_H_ROLE = "h-value"
_HALF = byte_limit(0.5)
_BIT_CODES = (pack_ints(0), pack_ints(1))
# |S| = 0 in a fiber's prefix, and the encoded bits of x on an empty S
_NO_COORDS = pack_ints(0)
_NO_BITS = (b"",)


def _keyed_states(seed: Seed) -> tuple[KeyedDigest, KeyedDigest]:
    """The S-membership and h-value keyed states of the instance with this seed."""
    return KeyedDigest.of(seed, _S_ROLE), KeyedDigest.of(seed, _H_ROLE)


def _fiber(s_state: KeyedDigest, pool, pool_codes, coin_limit: bytes, address: int):
    """(S, the h-prefix: pack_ints of address, |S| and each of S, joined) of the fiber.

    The one membership kernel: member a of the pool joins S when the
    digest of ``pack_ints(address) + pack_ints(a)`` fires at the coin
    rate, |pool| digests in one S-state call.  At desk rates most fibers
    draw no coordinate, and their prefix is the address and |S| = 0.
    """
    head = pack_ints(address)
    fired = s_state.below_after(head, pool_codes, coin_limit)
    if True not in fired:
        return (), head + _NO_COORDS
    coords = tuple(compress(pool, fired))
    return coords, b"".join((head, pack_ints(len(coords)), *compress(pool_codes, fired)))


def _answers(states, pool, pool_codes, coin_limit: bytes, n: int, codes, addresses) -> list[bool]:
    """The instance's values at the n-bit ``codes``, given each code's address.

    The one evaluation kernel, which ``StructuredFn.eval_many`` and
    ``structured_answers`` share.  Each distinct address derives its
    fiber once (``_fiber``); then each distinct (address, bits of x on S)
    costs one value of h, the digest of the bits packed MSB first after
    the fiber's prefix, so a fiber with empty S answers all of its queries
    with one digest.
    """
    s_state, h_state = states
    by_address: dict[int, list[int]] = {}
    for pos, address in enumerate(addresses):
        by_address.setdefault(address, []).append(pos)
    out = [False] * len(codes)
    for address, positions in by_address.items():
        coords, prefix = _fiber(s_state, pool, pool_codes, coin_limit, address)
        if not coords:
            (bit,) = h_state.below_after(prefix, _NO_BITS, _HALF)
            for pos in positions:
                out[pos] = bit
            continue
        shifts = [n - a for a in coords]
        by_value: dict[bytes, list[int]] = {}
        for pos in positions:
            code = codes[pos]
            value = b"".join([_BIT_CODES[(code >> shift) & 1] for shift in shifts])
            by_value.setdefault(value, []).append(pos)
        bits = h_state.below_after(prefix, list(by_value), _HALF)
        for bit, group in zip(bits, by_value.values()):
            for pos in group:
                out[pos] = bit
    return out


def _addresses(n: int, members, codes: Sequence[int]) -> np.ndarray:
    """Each n-bit code's address under each row of ``members``: shape (rows, codes).

    A row holds t members of an addressing set, 1-based and increasing; the
    address is one plus the t-bit integer the code's bits there spell, MSB
    first.  One fancy index reads those bits out of the (codes, n) uint8
    bit matrix into the low bits of whole bytes, which one ``np.packbits``
    packs: int64 while t < 63, Python ints (an object array) from t = 63.
    """
    members = np.asarray(members, dtype=np.intp)
    rows, t = members.shape
    size, width = -(-t // 8), -(-n // 8)
    raw = np.frombuffer(b"".join([code.to_bytes(width, "big") for code in codes]), np.uint8)
    # column 8 * width - n + i - 1 of the unpacked bytes is bit i
    bits = np.unpackbits(raw.reshape(len(codes), width), axis=1)
    spelled = np.zeros((len(codes), rows, 8 * size), np.uint8)
    spelled[..., 8 * size - t:] = bits[:, members + (8 * width - n - 1)]
    packed = np.packbits(spelled).reshape(len(codes), rows, size)
    if t < 63:
        # each address's bytes, least significant first, in one 8-byte word
        words = np.zeros((len(codes), rows, 8), np.uint8)
        words[..., :size] = packed[..., ::-1]
        addresses = words.view("<i8")[..., 0]
    else:
        data = packed.tobytes()
        addresses = np.array([int.from_bytes(data[i:i + size], "big")
                              for i in range(0, len(data), size)], object).reshape(len(codes), rows)
    addresses += 1
    return addresses.T


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

    The address selects a per-fiber coordinate subset S (member a of A
    joins when the digest of ``(seed, "S-membership", pack_ints(address)
    + pack_ints(a))`` fires at rate epsilon/sqrt(n)) and a per-fiber random
    function, whose value is the fair bit of ``(seed, "h-value", the
    pack_ints of address, |S|, each of S and each bit of x on S, joined)``.
    Both derive from the seed, so repeated queries always agree and
    instances are safe to share across threads.

    Each instance keeps one keyed S-state and one keyed h-state, and the
    encodings of A's members.  ``eval_many`` and ``to_table`` share one
    membership kernel (``_fiber``), which reads S off |A| digests of the
    address and a member after the S-state; the value of h is then a
    digest of the bits of x on S after (address, |S|, *S) and the h-state,
    so no digest pays the key schedule again.  ``eval_many`` reads its
    queries' addresses with one ``_addresses`` gather and answers them by
    the evaluation kernel ``_answers``, which ``structured_answers`` runs
    for a block of instances without building them.
    """

    params: Params
    M: IndexSet
    A: IndexSet
    seed: Seed
    kind: str
    _s_state: KeyedDigest = field(init=False, repr=False, compare=False)
    _h_state: KeyedDigest = field(init=False, repr=False, compare=False)
    _pool_codes: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    _coin_limit: bytes = field(init=False, repr=False, compare=False)

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
        derive = object.__setattr__
        s_state, h_state = _keyed_states(self.seed)
        derive(self, "_s_state", s_state)
        derive(self, "_h_state", h_state)
        derive(self, "_pool_codes", pack_each(self.A.members))
        derive(self, "_coin_limit", byte_limit(self.params.coin_prob))

    def __reduce__(self):
        # the keyed states cannot be pickled; they are rebuilt from the fields
        return (StructuredFn, (self.params, self.M, self.A, self.seed, self.kind))

    @property
    def n(self) -> int:
        return self.params.n

    def eval(self, x: BitString) -> int:
        if x.length != self.n:
            raise DimensionMismatch(f"query length {x.length} != {self.n}")
        return self.eval_many((x,))[0]

    def eval_many(self, xs: Sequence[BitString]) -> tuple[int, ...]:
        """``tuple(self.eval(x) for x in xs)``, deriving each address's fiber once.

        The addresses are one ``_addresses`` gather.  Queries of one fiber
        that agree on S share one value of h, so each distinct (address, x
        on S) costs one digest: a fiber with empty S answers all of its
        queries with one.
        """
        n = self.n
        codes = _query_codes(n, xs)
        addresses = _addresses(n, [self.M.members], codes)[0].tolist()
        states = (self._s_state, self._h_state)
        bits = _answers(states, self.A.members, self._pool_codes, self._coin_limit, n, codes,
                        addresses)
        return tuple([int(bit) for bit in bits])


def structured_answers(
    params: Params, seeds: Sequence[Seed], in_m: np.ndarray, in_a: np.ndarray,
    xs: Sequence[BitString],
) -> np.ndarray:
    """Row i is ``StructuredFn(params, M_i, A_i, seeds[i], kind).eval_many(xs)``, no instance built.

    M_i and A_i are the coordinates (1-based) where row i of the boolean
    (seeds, n) masks ``in_m`` and ``in_a`` is set; the kind only chooses
    how A was drawn.  The addresses of every query under every M_i are one
    ``_addresses`` gather.  Each row then runs ``_answers`` on its seed's
    keyed states, so a trial builds no instance, index set or extended
    state.  Shape (seeds, xs), uint8.
    """
    n, t = params.n, params.t
    codes = _query_codes(n, xs)
    addresses = _addresses(n, np.nonzero(in_m)[1].reshape(len(seeds), t) + 1, codes)
    coords = range(1, n + 1)
    coord_codes = pack_each(coords)
    coin_limit = byte_limit(params.coin_prob)
    out = bytearray()
    for seed, pool, row in zip(seeds, in_a, addresses):
        pool = pool.tolist()
        out.extend(_answers(_keyed_states(seed), list(compress(coords, pool)),
                            list(compress(coord_codes, pool)), coin_limit, n, codes, row.tolist()))
    return np.frombuffer(out, dtype=np.uint8).reshape(len(seeds), len(codes))


def _table(states, M, pool, pool_codes, coin_limit: bytes, n: int) -> np.ndarray:
    """The instance's 2^n values in code order, fiber by fiber; a new uint8 array.

    The one tabulation kernel, which ``to_table`` and ``structured_tables``
    share.  Each fiber is one ``_fiber`` call and one h-state call for its
    2^|S| values, the encoded bits of x on S, MSB first, built once per
    width.  The table is written through one transposed view of the
    (2,)*n cube: the axes of M first (so the address bits index a fiber),
    then the coordinates in neither M nor A, then those of A.  One
    broadcast over the M axes writes every fiber's first value, its whole
    fiber when S is empty, as at desk rates most are; then each fiber with
    non-empty S is overwritten by its values, shaped with length 2 on the
    axes of S and length 1 on the rest of A.  No 2^n-sized temporary is
    made.  Capped at n <= 24.
    """
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    s_state, h_state = states
    t = len(M)
    m_or_a = {*M, *pool}
    order = [*M, *(i for i in range(1, n + 1) if i not in m_or_a), *pool]
    out = np.empty(1 << n, dtype=np.uint8)
    view = out.reshape((2,) * n).transpose([i - 1 for i in order])
    firsts = bytearray(1 << t)
    wide = []
    # per width w, the joined pack_ints of the w bits of y, MSB first, for y in range(2^w)
    assignments: dict[int, list[bytes]] = {}
    for index, address_bits in enumerate(product((0, 1), repeat=t)):
        coords, prefix = _fiber(s_state, pool, pool_codes, coin_limit, index + 1)
        if width := len(coords):
            if width not in assignments:
                assignments[width] = [b"".join(bits) for bits in product(_BIT_CODES, repeat=width)]
            values = h_state.below_after(prefix, assignments[width], _HALF)
            wide.append((address_bits, coords, values))
            firsts[index] = values[0]
        else:
            (firsts[index],) = h_state.below_after(prefix, _NO_BITS, _HALF)
    view[...] = np.frombuffer(firsts, dtype=np.uint8).reshape((2,) * t + (1,) * (n - t))
    for address_bits, coords, values in wide:
        shape = [2 if a in coords else 1 for a in pool]
        view[address_bits] = np.array(values, dtype=np.uint8).reshape(shape)
    return out


def structured_tables(
    params: Params, seeds: Sequence[Seed], in_m: np.ndarray, in_a: np.ndarray
) -> Iterator[np.ndarray]:
    """Row i's table, ``to_table(StructuredFn(params, M_i, A_i, seeds[i], kind)).table``, in order.

    M_i and A_i are the coordinates (1-based) where row i of the boolean
    (seeds, n) masks ``in_m`` and ``in_a`` is set, as in
    ``structured_answers``.  Each row runs ``_table`` on its seed's keyed
    states, so no instance or index set is built.  The tables are made as
    the iteration reaches them, one 2^n uint8 array each, so a block of
    seeds holds one table at a time; capped at n <= 24.
    """
    n = params.n
    coords = range(1, n + 1)
    coord_codes = pack_each(coords)
    coin_limit = byte_limit(params.coin_prob)
    for seed, m_row, a_row in zip(seeds, in_m, in_a):
        a_row = a_row.tolist()
        yield _table(_keyed_states(seed), list(compress(coords, m_row.tolist())),
                     list(compress(coords, a_row)), list(compress(coord_codes, a_row)),
                     coin_limit, n)


def to_table(f: StructuredFn) -> TruthTable:
    """Materialize a structured instance fiber by fiber (``_table``); capped at n <= 24.

    Bit-identical to evaluating ``f.eval`` at every code, at a fraction of
    the digests: per-point evaluation costs |A| + 1 digests per point,
    2^n * (|A| + 1) in all, while this derives each fiber's S once and each
    of its 2^|S| values of h once, 2^t * |A| + sum over addresses of
    2^|S_a|.  It runs the kernel of ``structured_tables`` on the
    instance's own keyed states.
    """
    states = (f._s_state, f._h_state)
    table = _table(states, f.M.members, f.A.members, f._pool_codes, f._coin_limit, f.n)
    return TruthTable(f.n, table)


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
