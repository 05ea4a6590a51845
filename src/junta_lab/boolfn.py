"""Boolean functions: bit strings, truth tables, and lazy structured instances.

Coordinate indices are 1-based throughout the public API.  A length-n bit
string is encoded as the integer whose binary expansion, most significant
bit first, reads x_1 x_2 ... x_n; truth tables are indexed by that code.
The addressing map uses the same convention: the smallest index of the
addressing set contributes the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
from typing import Iterable, Sequence

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

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitString":
        code = 0
        for b in bits:
            if b not in (0, 1):
                raise InvalidInput(f"bits must be 0/1, got {b!r}")
            code = (code << 1) | b
        return cls(len(bits), code)

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"coordinate {i} not in [1, {self.length}]")
        return (self.code >> (self.length - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.code >> (self.length - i)) & 1 for i in range(1, self.length + 1))

    def restrict(self, coords: Iterable[int]) -> tuple[int, ...]:
        """Projection onto a sequence of coordinates, in the order given."""
        return tuple(self.bit(i) for i in coords)

    def to_text(self) -> str:
        return format(self.code, f"0{self.length}b")

    def __str__(self) -> str:
        return self.to_text()


def flip(x: BitString, i: int) -> BitString:
    """The string differing from x exactly at coordinate i."""
    if not 1 <= i <= x.length:
        raise IndexOutOfRange(f"coordinate {i} not in [1, {x.length}]")
    return BitString(x.length, x.code ^ (1 << (x.length - i)))


def hamming(x: BitString, y: BitString) -> int:
    if x.length != y.length:
        raise DimensionMismatch(f"lengths differ: {x.length} vs {y.length}")
    return (x.code ^ y.code).bit_count()


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

    @classmethod
    def full(cls, universe_size: int) -> "IndexSet":
        return cls(universe_size, tuple(range(1, universe_size + 1)))

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


def address_index(M: IndexSet, x: BitString) -> int:
    """The integer in [1, 2^|M|] encoded by x's projection on M, plus one.

    The smallest member of M contributes the most significant bit.
    """
    if M.universe_size != x.length:
        raise DimensionMismatch(
            f"universe {M.universe_size} does not match string length {x.length}"
        )
    if not M.members:
        raise InvalidInput("the addressing set must be non-empty")
    value = 0
    for i in M.members:
        value = (value << 1) | x.bit(i)
    return value + 1


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
        bits = lines[1]
        if len(bits) != 1 << n or set(bits) - {"0", "1"}:
            raise InvalidInput("table line must be exactly 2^n characters of 0/1")
        return cls(n, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0"))


_S_ROLE = "S-membership"
_H_ROLE = "h-value"
_HALF = byte_limit(0.5)


@dataclass(frozen=True)
class StructuredFn:
    """A lazily evaluated instance f(x) = h_{address(x)}(x restricted to S).

    The address selects a per-fiber coordinate subset S (member a of A
    joins when the digest of ``(seed, "S-membership", pack_ints(address,
    a))`` fires at rate epsilon/sqrt(n)) and a per-fiber random function,
    whose value is the fair bit of ``(seed, "h-value", pack_ints(address,
    |S|, *S, *bits of x on S))``.  Both derive from the seed, so repeated
    queries always agree and instances are safe to share across threads.

    Each instance keeps one keyed S-state and one keyed h-state, and the
    encodings of A's members.  ``fiber_coords`` extends the S-state with
    the address once per fiber, and a fiber's values extend the h-state
    with (address, |S|, *S) once per fiber, so no digest pays the key
    schedule again.  ``eval_many`` derives each address's S once per call.
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
        derived = {
            "_s_state": KeyedDigest.of(self.seed, _S_ROLE),
            "_h_state": KeyedDigest.of(self.seed, _H_ROLE),
            "_pool_codes": pack_each(self.A.members),
            "_coin_limit": byte_limit(self.params.coin_prob),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # the keyed states cannot be pickled; they are rebuilt from the fields
        return (StructuredFn, (self.params, self.M, self.A, self.seed, self.kind))

    @property
    def n(self) -> int:
        return self.params.n

    def fiber_coords(self, address: int) -> tuple[int, ...]:
        """The members of A that join the coordinate subset for this address."""
        fired = self._s_state.extend(pack_ints(address)).below(self._pool_codes, self._coin_limit)
        return tuple(compress(self.A.members, fired))

    def _fiber_state(self, address: int, coords: tuple[int, ...]) -> KeyedDigest:
        """The h-state extended with the fiber's prefix (address, |S|, *S)."""
        return self._h_state.extend(pack_ints(address, len(coords), *coords))

    def eval(self, x: BitString) -> int:
        if x.length != self.n:
            raise DimensionMismatch(f"query length {x.length} != {self.n}")
        return self.eval_many((x,))[0]

    def eval_many(self, xs: Sequence[BitString]) -> tuple[int, ...]:
        """``tuple(self.eval(x) for x in xs)``, deriving each address's S once.

        The address and the bits on S are read by shifts on ``x.code``.
        """
        n = self.n
        address_shifts = [n - i for i in self.M.members]
        fibers: dict[int, tuple[KeyedDigest, list[int]]] = {}
        out = []
        for x in xs:
            if x.length != n:
                raise DimensionMismatch(f"universe {n} does not match string length {x.length}")
            code = x.code
            address = 0
            for shift in address_shifts:
                address = (address << 1) | ((code >> shift) & 1)
            address += 1
            fiber = fibers.get(address)
            if fiber is None:
                coords = self.fiber_coords(address)
                fiber = (self._fiber_state(address, coords), [n - a for a in coords])
                fibers[address] = fiber
            state, shifts = fiber
            bits = pack_ints(*[(code >> shift) & 1 for shift in shifts])
            out.append(int(state.below((bits,), _HALF)[0]))
        return tuple(out)


def to_table(f: StructuredFn) -> TruthTable:
    """Materialize a structured instance fiber by fiber; capped at n <= 24.

    Bit-identical to evaluating ``f.eval`` at every code, at a fraction of
    the digests: per-point evaluation costs |A| + 1 digests per point,
    2^n * (|A| + 1) in all, while this derives each fiber's S once and each
    of its 2^|S| values of h once, 2^t * |A| + sum over addresses of
    2^|S_a|.  Each fiber extends the h-state with (address, |S|, *S) once;
    its values then add only the encoded bits, built once per width.

    The fiber of an address is the sub-cube with the coordinates of M fixed
    to the address bits.  On the (2,)*n view of the table it is a view over
    the remaining axes, and the fiber's values, shaped with one axis per
    member of S (in the same MSB-first order) and length-1 axes elsewhere,
    broadcast onto it without any 2^n-sized temporary.
    """
    n, t = f.n, len(f.M)
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    out = np.empty(1 << n, dtype=np.uint8)
    cube = out.reshape((2,) * n)
    free = [i for i in range(1, n + 1) if i not in f.M]
    # per width w, pack_ints of the w bits of y, MSB first, for y in range(2^w)
    assignments: dict[int, list[bytes]] = {}
    for code in range(1 << t):
        address = code + 1
        coords = f.fiber_coords(address)
        width = len(coords)
        if width not in assignments:
            assignments[width] = [pack_ints(*bits) for bits in product((0, 1), repeat=width)]
        values = np.array(
            f._fiber_state(address, coords).below(assignments[width], _HALF), dtype=np.uint8
        )
        address_bits = dict(zip(f.M.members, _bits(code, t)))
        fiber = tuple(address_bits.get(i, slice(None)) for i in range(1, n + 1))
        cube[fiber] = values.reshape([2 if i in coords else 1 for i in free])
    return TruthTable(n, out)


def _bits(value: int, width: int) -> tuple[int, ...]:
    """The width-bit MSB-first expansion of value."""
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


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
