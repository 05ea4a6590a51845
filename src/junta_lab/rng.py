"""Seeded determinism: 64-bit seeds, labeled counter-mode streams, and trial seeds.

Every random draw in the package is a word of one counter-mode generator:
SplitMix64's finalizer over a Weyl sequence (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014).  Word j of the
key K is ``words(K, j)`` = mix64(K + (j + 1) * GAMMA), and ``coin``, the one
coin comparison, fires at rate r on a word w when (w >> 11) < ``word_limit(r)``.

* ``RandomStream(seeds, role)``: one stream per seed, held as uint64
  arrays.  Its key is mix64(seed ^ a 64-bit blake2b of the role), and its
  output j is word j of that key.  Its raw words, coins, point coins and
  bounded integers are array arithmetic over every row at once, and a row
  depends on its seed alone, so ``RandomStream([seed], role)`` is one
  stream and a block of seeds draws the same streams together.
* A structured instance's fibers (``boolfn``) start from the keys of two
  such streams and read ``words`` at fiber keys folded from them, so any
  bit is re-derived on demand from the seed.

blake2b appears only where a string or a trial index becomes a word: the
role word of a stream, ``Seed.mix`` (the seed of trial i, the keyed digest
of ``pack_ints(i)`` under the role "mix") and ``derive_u64``.

Distinct role labels give computationally independent streams; the same
seed and role always reproduce the same draws.
"""

from __future__ import annotations

import hashlib
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
        """The seed of each trial i: ``derive_u64(self, "mix", pack_ints(i))``.

        The key schedule is paid once: each index copies one keyed state.
        """
        mix = _keyed(self, "mix")
        seeds = []
        for index in indices:
            state = mix.copy()
            state.update(pack_ints(index))
            seeds.append(Seed(int.from_bytes(state.digest(), "big")))
        return seeds


def pack_ints(value: int) -> bytes:
    """A non-negative integer as a 4-byte big-endian length, then its big-endian bytes."""
    if value < 0:
        raise InvalidInput(f"payload integers must be non-negative, got {value}")
    size = (value.bit_length() + 7) // 8 or 1
    return size.to_bytes(4, "big") + value.to_bytes(size, "big")


def _keyed(seed: Seed, role: str):
    """The 8-byte blake2b state keyed by the seed's 8 little-endian bytes, personalized by ``role``.

    A role longer than blake2b's 16-byte personalization is hashed to 16 bytes.
    """
    person = role.encode("utf-8")
    if len(person) > hashlib.blake2b.PERSON_SIZE:
        person = hashlib.blake2b(person, digest_size=hashlib.blake2b.PERSON_SIZE).digest()
    return hashlib.blake2b(digest_size=8, key=seed.value.to_bytes(8, "little"), person=person)


def derive_u64(seed: Seed, role: str, payload: bytes) -> int:
    """Avalanche-mix ``(seed, role, payload)`` into a uniform 64-bit word, a keyed blake2b."""
    state = _keyed(seed, role)
    state.update(payload)
    return int.from_bytes(state.digest(), "big")


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


def words(keys, positions) -> np.ndarray:
    """Word ``positions`` of each key, mix64(key + (position + 1) * GAMMA): a new uint64 array.

    ``keys`` and ``positions`` are 64-bit unsigned integers or arrays of
    them that broadcast together, and the result has at least one axis.
    Word j of a stream's key is its output j.  This is the package's one
    word: fibers read it at their keys, ``below_at`` and ``bounded`` past
    each row's cursor, and ``raw`` and ``below`` make its Weyl step inline,
    through the table ``_STEPS``.
    """
    z = keys + (np.array(positions, dtype=np.uint64, ndmin=1) + 1) * _GAMMA
    return _mix64(z, np.empty_like(z))


def coin(words: np.ndarray, limit, out=None) -> np.ndarray:
    """The one coin comparison, (w >> 11) < ``limit`` per word w: shifts ``words`` in place."""
    return np.less(np.right_shift(words, 11, out=words), limit, out=out)


def stream_keys(seeds: Sequence[Seed], role: str) -> np.ndarray:
    """The key of the stream of (seed, role) per seed: mix64(seed ^ the role's 8-byte blake2b).

    On Python ints, which for one seed take a fraction of an array form's
    time and for a block of 256 seeds several times it; shape (seeds,), uint64.
    """
    role_hash = hashlib.blake2b(role.encode("utf-8"), digest_size=8)
    role_word = int.from_bytes(role_hash.digest(), "big")
    keys = []
    for seed in seeds:
        z = seed.value ^ role_word
        z = (z ^ (z >> 30)) * _MIX_1 % _U64
        z = (z ^ (z >> 27)) * _MIX_2 % _U64
        keys.append(z ^ (z >> 31))
    return np.array(keys, dtype=np.uint64)


def word_limit(rate, count: int | None = None) -> np.ndarray:
    """ceil(rate * 2^53) as uint64, for a float or an array of floats in [0, 1].

    Given ``count``, ``rate`` must be one rate or one per position of
    ``count``.  A coin at rate r on word w, ``coin(w, word_limit(r))``,
    fires when (w >> 11) < ceil(r * 2^53), exactly when the double
    (w >> 11) * 2^-53 is below r, as scaling by 2^53 is exact and w >> 11
    is an integer.  Rate 0 never fires and rate 1 always does.
    """
    rates = np.asarray(rate, dtype=np.float64)
    if count is not None and rates.shape not in ((), (count,)):
        raise InvalidInput(f"need one rate or {count}, got rates of shape {rates.shape}")
    if rates.size and not (rates.min() >= 0.0 and rates.max() <= 1.0):
        raise InvalidInput(f"rates must be in [0, 1], got {rates.min()}..{rates.max()}")
    return np.ceil(rates * 2.0**53).astype(np.uint64)


class RandomStream:
    """The stream of ``(seed, role)`` for each seed of ``seeds``: row i is seed i's.

    Output j of a stream is ``words(key, j)``, with key from
    ``stream_keys``.  Each row keeps its Weyl
    state, key + position * GAMMA, as its cursor.  ``raw`` reads each
    row's next words and ``below`` its next coins, in chunks of at most
    ``_CHUNK`` positions, in place; ``below_at`` reads coins at positions
    ahead of the cursor directly; and ``bounded`` draws integers by
    Lemire's method, each row moving past the words its draws read.  A
    block of seeds gives each row the draws ``RandomStream([seed], role)``
    gives, draw for draw.
    """

    def __init__(self, seeds: Sequence[Seed], role: str):
        self._state = stream_keys(seeds, role)

    def __len__(self) -> int:
        return len(self._state)

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
            chunk = self._state[:, None] + _STEPS[:size]
            self._state += _STEPS[size - 1]
            span = slice(start, start + size)
            convert(out[:, span], _mix64(chunk, np.empty_like(chunk)), span)
        return out

    def raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs of each row: shape (rows, count), uint64."""
        return self._read(count, np.uint64, lambda target, chunk, span: np.copyto(target, chunk))

    def below(self, count: int, rate) -> np.ndarray:
        """The next ``count`` coins of each row, ``coin`` of output j at ``word_limit(rate)``.

        ``rate`` is one float or one per position; its limits are made once
        per read and sliced per chunk.  Shape (rows, count), bool.
        """
        limits = word_limit(rate, count)

        def coins(target, chunk, span):
            coin(chunk, limits[span] if limits.ndim else limits, out=target)

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
        limits = word_limit(rate, len(positions))
        coins = coin(words(self._state[:, None], positions), limits)
        if positions:
            self._state += (positions[-1] + 1) * _GAMMA % _U64
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
        # positions[i, j]: the position past row i's cursor that draw j reads, rejections included
        positions = np.tile(columns, (len(self), 1))

        def draw(rows):
            scaled = (words(self._state[rows, None], positions[rows]) & _M32) * limits
            return (scaled >> 32).astype(np.int64), (scaled & _M32) >= floors

        draws, taken = draw(slice(None))
        while not taken.all():
            # a rejected word pushes its draw and every later one of its row on by a position
            rows = np.flatnonzero(~taken.all(axis=1))
            first = (~taken[rows]).argmax(axis=1)
            positions[rows] += columns >= first[:, None]
            draws[rows], taken[rows] = draw(rows)
        if len(ranges):
            self._state += (positions[:, -1] + 1) * _GAMMA
        return draws
