"""Seeded determinism: 64-bit seeds, labeled substreams, and digest-derived bits.

Every random choice in the package derives from a seed and a role label
through one of two mechanisms:

* ``KeyedDigest``: a blake2b state keyed by the seed and personalized by
  a role.  For any payload it answers the 64-bit digest of ``(seed,
  role, payload)``, or whether that digest falls below ``byte_limit`` of
  a rate, so lazily evaluated objects re-derive any bit on demand without
  caching and pay the key schedule once per state.  Only a structured
  instance's fibers read digest coins; ``derive_u64`` and ``Seed.mix``
  read a fresh state's word once.
* ``RandomStream(seeds, role)``: one counter-mode stream per seed, held
  as uint64 arrays.  Output j of the stream of (seed, role) is
  SplitMix64's finalizer over a Weyl sequence (Steele, Lea & Flood,
  "Fast splittable pseudorandom number generators", OOPSLA 2014),
  mix64(key + (j + 1) * GAMMA), with key = mix64(seed ^ a 64-bit blake2b
  of the role).  Its raw words, coins (a word below ``word_limit`` of a
  rate), point coins and bounded integers are array arithmetic over every
  row at once, and a row depends on its seed alone, so
  ``RandomStream([seed], role)`` is one stream and a block of seeds draws
  the same streams together.

Distinct role labels give computationally independent streams; the same
seed and role always reproduce the same draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput

_U64 = 1 << 64


@dataclass(frozen=True)
class Seed:
    """A 64-bit unsigned seed value."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or not 0 <= self.value < _U64:
            raise InvalidInput(f"seed must be a 64-bit unsigned integer, got {self.value!r}")

    def mix(self, index: int) -> "Seed":
        """Derive the seed for trial number ``index`` of a Monte-Carlo run."""
        return self.mixes([index])[0]

    def mixes(self, indices: Sequence[int]) -> list["Seed"]:
        """The seed of each trial i: the keyed digest of ``pack_ints(i)`` under the role "mix".

        The key schedule is paid once for all the indices.
        """
        mix = KeyedDigest.of(self, "mix")
        return [Seed(mix.u64(payload)) for payload in pack_each(indices)]

    def _key(self) -> bytes:
        return self.value.to_bytes(8, "little")


# pack_ints(v) for every v in [0, 255]: a 4-byte length of 1, then the byte.
_BYTE_CODES = tuple(b"\x00\x00\x00\x01" + bytes((v,)) for v in range(256))
# The length prefix of pack_ints(v) for every v in [256, 65535].
_TWO_BYTES = b"\x00\x00\x00\x02"


def pack_ints(value: int) -> bytes:
    """Length-prefixed big-endian encoding of a non-negative integer.

    Unambiguous for arbitrary-precision values, so address indices larger
    than 64 bits are safe payloads, and a payload of several values is
    the concatenation of their encodings, ``pack_each``.  A single-byte
    value is one table lookup.
    """
    if 0 <= value < 256:
        return _BYTE_CODES[value]
    return pack_each((value,))[0]


def pack_each(values: Sequence[int]) -> tuple[bytes, ...]:
    """``pack_ints(v)`` for each v in values.

    Single-byte values, the common case, take precomputed encodings, and
    two-byte values a fixed length prefix.
    """
    if min(values, default=0) >= 0:
        top = max(values, default=0)
        if top < 256:
            return tuple([_BYTE_CODES[v] for v in values])
        if top < 1 << 16:
            return tuple([_BYTE_CODES[v] if v < 256 else _TWO_BYTES + v.to_bytes(2, "big")
                          for v in values])
    out = []
    for v in values:
        if v < 0:
            raise InvalidInput(f"payload integers must be non-negative, got {v}")
        body = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        out.append(len(body).to_bytes(4, "big") + body)
    return tuple(out)


def _person(role: str) -> bytes:
    raw = role.encode("utf-8")
    if len(raw) <= hashlib.blake2b.PERSON_SIZE:
        return raw
    return hashlib.blake2b(raw, digest_size=hashlib.blake2b.PERSON_SIZE).digest()


def _keyed(seed: Seed, role: str):
    """The 8-byte blake2b state keyed by ``seed`` and personalized by ``role``."""
    return hashlib.blake2b(digest_size=8, key=seed._key(), person=_person(role))


class KeyedDigest:
    """A blake2b state that has absorbed a seed (the key) and a role (the person).

    Each answer copies the state, feeds it the payload and reads the
    8-byte digest, so the key schedule is paid once however many payloads
    follow.  ``state`` is any object with ``copy``, ``update`` and
    ``digest``; ``of`` builds the blake2b one.
    """

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    @classmethod
    def of(cls, seed: Seed, role: str) -> "KeyedDigest":
        return cls(_keyed(seed, role))

    def u64(self, payload: bytes) -> int:
        """The digest of the payload as a big-endian 64-bit word."""
        state = self._state.copy()
        state.update(payload)
        return int.from_bytes(state.digest(), "big")

    def below_after(self, head: bytes, payloads: Sequence[bytes], limit: bytes) -> list[bool]:
        """For each payload p, whether the digest of ``head + p`` sorts below ``limit``.

        ``limit`` comes from ``byte_limit``.  Digests are big-endian, so
        bytes order is numeric order.  The head is fed once: a structured
        instance asks this once per fiber, with the fiber's address or
        prefix as the head.
        """
        state = self._state.copy()
        state.update(head)
        copy = state.copy
        fired = []
        for payload in payloads:
            state = copy()
            state.update(payload)
            fired.append(state.digest() < limit)
        return fired


# Sorts after every 8-byte digest: an 8-byte string is a prefix of it or
# smaller at its first differing byte.
_ABOVE_EVERY_DIGEST = b"\xff" * 9


def byte_limit(threshold: float) -> bytes:
    """The bytes that exactly a ``threshold`` share of 8-byte digests sort below.

    A digest d fires when d < threshold * 2^64, which for an integer d is
    d < ceil(threshold * 2^64).  Scaling a float by a power of two is
    exact, so threshold 0 never fires, threshold 1 always does and 0.5
    fires exactly when the top bit is 0.  The limit 2^64 (threshold 1)
    has no 8-byte form and becomes a 9-byte string above every digest.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidInput(f"threshold must be in [0, 1], got {threshold}")
    limit = math.ceil(threshold * _U64)
    return limit.to_bytes(8, "big") if limit < _U64 else _ABOVE_EVERY_DIGEST


def derive_u64(seed: Seed, role: str, payload: bytes) -> int:
    """Avalanche-mix ``(seed, role, payload)`` into a uniform 64-bit word."""
    return KeyedDigest.of(seed, role).u64(payload)


# SplitMix64's Weyl increment (the golden ratio in 64 bits) and the two
# multipliers of its finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1, _MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_M32 = np.uint64(0xFFFFFFFF)

# Positions one chunk of a read covers per row, so a read's temporaries hold
# at most rows x _CHUNK words however long it is; _STEPS[j] is (j + 1) * GAMMA.
_CHUNK = 1 << 13
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * _GAMMA


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on the uint64 array ``z``; ``scratch`` has its shape."""
    z ^= np.right_shift(z, 30, out=scratch)
    z *= _MIX_1
    z ^= np.right_shift(z, 27, out=scratch)
    z *= _MIX_2
    z ^= np.right_shift(z, 31, out=scratch)
    return z


def _key(seed: Seed, role_word: int) -> int:
    """A stream's key, mix64(seed ^ role_word), on Python ints: a block has few seeds."""
    z = seed.value ^ role_word
    z = (z ^ (z >> 30)) * _MIX_1 % _U64
    z = (z ^ (z >> 27)) * _MIX_2 % _U64
    return z ^ (z >> 31)


def _unit_rates(rate, count: int | None = None) -> np.ndarray:
    """``rate`` as float64 in [0, 1]; given ``count``, one rate or one per position of ``count``."""
    rates = np.asarray(rate, dtype=np.float64)
    if count is not None and rates.shape not in ((), (count,)):
        raise InvalidInput(f"need one rate or {count}, got rates of shape {rates.shape}")
    if rates.size and not (rates.min() >= 0.0 and rates.max() <= 1.0):
        raise InvalidInput(f"rates must be in [0, 1], got {rates.min()}..{rates.max()}")
    return rates


def word_limit(rate) -> np.ndarray:
    """ceil(rate * 2^53) as uint64, for a float or an array of floats in [0, 1].

    The stream-side counterpart of ``byte_limit``: a coin at rate r on
    word w fires when (w >> 11) < ceil(r * 2^53), exactly when the double
    (w >> 11) * 2^-53 is below r, as scaling by 2^53 is exact and w >> 11
    is an integer.  Rate 0 never fires and rate 1 always does.
    """
    return _limits(_unit_rates(rate))


def _limits(rates: np.ndarray) -> np.ndarray:
    """``word_limit`` of rates already checked by ``_unit_rates``."""
    return np.ceil(rates * 2.0**53).astype(np.uint64)


class RandomStream:
    """The stream of ``(seed, role)`` for each seed of ``seeds``: row i is seed i's.

    Output j of a stream is mix64(key + (j + 1) * GAMMA), with key =
    mix64(seed ^ the 8-byte blake2b of the role).  Each row keeps its Weyl
    state, key + position * GAMMA, as its cursor.  ``raw`` reads each
    row's next words and ``below`` its next coins, in chunks of at most
    ``_CHUNK`` positions, in place; ``below_at`` reads coins at positions
    ahead of the cursor directly; and ``bounded`` draws integers by
    Lemire's method, each row moving past the words its draws read.  A
    block of seeds gives each row the draws ``RandomStream([seed], role)``
    gives, draw for draw.
    """

    def __init__(self, seeds: Sequence[Seed], role: str):
        role_hash = hashlib.blake2b(role.encode("utf-8"), digest_size=8)
        role_word = int.from_bytes(role_hash.digest(), "big")
        self._state = np.array([_key(seed, role_word) for seed in seeds], dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._state)

    def _words(self, rows, steps: np.ndarray) -> np.ndarray:
        """The words ``steps`` positions past each row's cursor (1 is the next), for ``rows``."""
        words = self._state[rows, None] + steps * _GAMMA
        return _mix64(words, np.empty_like(words))

    def _read(self, count: int, dtype, convert) -> np.ndarray:
        """Each row's next ``count`` outputs through ``convert``: shape (rows, count).

        ``convert(target, words, span)`` writes the words of the read's
        positions ``span`` (a slice) into ``target``, their columns of the
        result, of the given dtype, and may overwrite the words.
        """
        if count < 0:
            raise InvalidInput(f"count must be non-negative, got {count}")
        out = np.empty((len(self), count), dtype=dtype)
        for start in range(0, count, _CHUNK):
            size = min(_CHUNK, count - start)
            words = self._state[:, None] + _STEPS[:size]
            self._state += _STEPS[size - 1]
            span = slice(start, start + size)
            convert(out[:, span], _mix64(words, np.empty_like(words)), span)
        return out

    def raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs of each row: shape (rows, count), uint64."""
        return self._read(count, np.uint64, lambda target, words, span: np.copyto(target, words))

    def below(self, count: int, rate) -> np.ndarray:
        """The next ``count`` coins of each row, output j's top 53 bits below ``word_limit``.

        ``rate`` is one float or one per position; per-position limits are
        made a chunk at a time, as the words are.  Shape (rows, count), bool.
        """
        rates = _unit_rates(rate, count)
        limit = None if rates.ndim else _limits(rates)

        def coins(target, words, span):
            limits = _limits(rates[span]) if limit is None else limit
            np.less(np.right_shift(words, 11, out=words), limits, out=target)

        return self._read(count, bool, coins)

    def below_at(self, positions: Sequence[int], rate) -> np.ndarray:
        """The coins ``below(size, rate)`` would put at the given strictly increasing positions.

        ``rate`` is one float or one per position.  Shape (rows, positions),
        bool.  Each row then stands just past the last position.
        """
        positions = list(positions)
        for before, pos in zip([-1] + positions, positions):
            if pos <= before:
                raise InvalidInput(f"positions must be strictly increasing and >= 0, got {pos}")
        limits = _limits(_unit_rates(rate, len(positions)))
        steps = np.array(positions, dtype=np.uint64) + 1
        coins = np.right_shift(self._words(slice(None), steps), 11) < limits
        if positions:
            self._state += steps[-1:] * _GAMMA
        return coins

    def bounded(self, ranges: Sequence[int]) -> np.ndarray:
        """Column j of row i is a uniform integer in [0, ranges[j]), the draws made in order.

        Lemire's method: a word's low 32 bits times r splits into a high
        half, the draw, and a low half; the word is rejected when the low
        half falls below 2^32 mod r, and the draw retries on the row's next
        position.  Every range r must lie in [1, 2^32].  Shape (rows,
        ranges), int64.
        """
        for r in ranges:
            if not 1 <= r <= 1 << 32:
                raise InvalidInput(f"ranges must lie in [1, 2^32], got {r}")
        limits = np.array(ranges, dtype=np.uint64)
        floors = np.array([(1 << 32) % r for r in ranges], dtype=np.uint64)
        columns = np.arange(len(ranges), dtype=np.uint64)
        # steps[i, j]: how far past row i's cursor draw j reads, rejections included
        steps = np.tile(columns + 1, (len(self), 1))

        def draw(rows):
            scaled = (self._words(rows, steps[rows]) & _M32) * limits
            return (scaled >> 32).astype(np.int64), (scaled & _M32) >= floors

        draws, taken = draw(slice(None))
        while not taken.all():
            # a rejected word pushes its draw and every later one of its row on by a position
            rows = np.flatnonzero(~taken.all(axis=1))
            first = (~taken[rows]).argmax(axis=1)
            steps[rows] += columns >= first[:, None]
            draws[rows], taken[rows] = draw(rows)
        if len(ranges):
            self._state += steps[:, -1] * _GAMMA
        return draws
