"""Seeded determinism: 64-bit seeds, labeled substreams, and digest-derived bits.

Every random choice in the package derives from a seed and a role label
through one of two mechanisms:

* ``KeyedDigest``: a blake2b state keyed by the seed and personalized by
  a role, with a payload prefix absorbed.  For any payload it answers the
  64-bit digest of ``(seed, role, prefix + payload)``, or whether that
  digest falls below a threshold, so lazily evaluated objects re-derive
  any bit on demand without caching and pay the key schedule once per
  state.  ``derive_u64`` and ``derive_bit`` are its one-shot forms.
* ``RandomStream``: a PCG64 generator whose state is derived from
  ``(seed, role)``, built by numpy.  Of the experiments and commands,
  only the whole-table samplers ``sample_d1`` and ``sample_d2`` still draw
  from one; the one-trial functions of ``tasks`` take one as an argument.
  ``StreamBlock(seeds, role)`` holds the same streams for a block of
  seeds, one per seed, as uint64 arrays of PCG64 states: one pass of
  numpy's SeedSequence mixing seeds the whole block, and its raw outputs,
  doubles, point reads and bounded integers are array arithmetic over the
  block, each row equal to the one-seed stream's draws with no numpy
  generator built, so its users never load ``numpy.random``.  Long reads
  go in chunks of ``RAW_CHUNK`` positions, so a one-stream block serves a
  whole Monte-Carlo game.

Distinct role labels give computationally independent streams; the same
seed and role always reproduce the same draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
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
        return Seed(derive_u64(self, "mix", pack_ints(index)))

    def mixes(self, indices: Sequence[int]) -> list["Seed"]:
        """``[self.mix(i) for i in indices]``, paying the key schedule once."""
        mix = KeyedDigest.of(self, "mix")
        return [Seed(mix.u64(payload)) for payload in pack_each(indices)]

    def _key(self) -> bytes:
        return self.value.to_bytes(8, "little")


# pack_ints(v) for every v in [0, 255]: a 4-byte length of 1, then the byte.
_BYTE_CODES = tuple(b"\x00\x00\x00\x01" + bytes((v,)) for v in range(256))


def pack_ints(*values: int) -> bytes:
    """Length-prefixed big-endian encoding of non-negative integers.

    Unambiguous for arbitrary-precision values, so address indices larger
    than 64 bits are safe payloads.  It is the concatenation of
    ``pack_each(values)``; one single-byte value is one table lookup.
    """
    if len(values) == 1 and 0 <= values[0] < 256:
        return _BYTE_CODES[values[0]]
    return b"".join(pack_each(values))


def pack_each(values: Sequence[int]) -> tuple[bytes, ...]:
    """``pack_ints(v)`` for each v in values.

    Single-byte values, the common case, take precomputed encodings.
    """
    if min(values, default=0) >= 0:
        try:
            return tuple([_BYTE_CODES[v] for v in values])
        except IndexError:
            pass
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


def _keyed(seed: Seed, role: str, data: bytes = b""):
    """The 8-byte blake2b state keyed by ``seed``, personalized by ``role``, fed ``data``."""
    return hashlib.blake2b(data, digest_size=8, key=seed._key(), person=_person(role))


class KeyedDigest:
    """A blake2b state that has absorbed a seed (the key), a role (the person) and a prefix.

    Each answer copies the state, feeds it the payload and reads the
    8-byte digest, so the key schedule and the prefix are paid once
    however many payloads follow.  ``state`` is any object with ``copy``,
    ``update`` and ``digest``; ``of`` builds the blake2b one, with an
    empty prefix, and ``extend`` appends to the prefix.
    """

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    @classmethod
    def of(cls, seed: Seed, role: str) -> "KeyedDigest":
        return cls(_keyed(seed, role))

    def extend(self, data: bytes) -> "KeyedDigest":
        """The state with ``data`` appended to its prefix."""
        state = self._state.copy()
        state.update(data)
        return KeyedDigest(state)

    def u64(self, payload: bytes) -> int:
        """The digest of prefix + payload as a big-endian 64-bit word."""
        state = self._state.copy()
        state.update(payload)
        return int.from_bytes(state.digest(), "big")

    def below(self, payloads: Sequence[bytes], limit: bytes) -> list[bool]:
        """For each payload, whether the digest of prefix + payload sorts below ``limit``.

        ``limit`` comes from ``byte_limit``.  Digests are big-endian, so
        bytes order is numeric order.
        """
        copy = self._state.copy
        out = []
        for payload in payloads:
            state = copy()
            state.update(payload)
            out.append(state.digest() < limit)
        return out


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
    """Avalanche-mix ``(seed, role, payload)`` into a uniform 64-bit word.

    ``KeyedDigest.of(seed, role).u64(payload)`` as one blake2b call, with
    no state to copy.
    """
    return int.from_bytes(_keyed(seed, role, payload).digest(), "big")


def derive_bit(seed: Seed, role: str, payload: bytes, threshold: float) -> int:
    """Return 1 with probability ``threshold``, deterministically per input.

    The 8-byte digest of ``(seed, role, payload)`` fires when it sorts
    below ``byte_limit(threshold)``, that is when its 64-bit value is below
    ceil(threshold * 2^64): threshold 0 never fires and threshold 1 always
    does.
    """
    return int(KeyedDigest.of(seed, role).below((payload,), byte_limit(threshold))[0])


def _generator(entropy: bytes) -> np.random.Generator:
    """PCG64 seeded with ``entropy`` read as one big-endian integer.

    numpy's SeedSequence reads an integer seed as its 32-bit words, least
    significant first, and mixes a missing high word in as a zero word, so
    the entropy's bytes reversed and read as little-endian words give the
    state of ``PCG64(int.from_bytes(entropy, "big"))`` without the
    integer's word-by-word split.
    """
    return np.random.Generator(np.random.PCG64(np.frombuffer(entropy[::-1], dtype="<u4")))


def _stream_entropy(seed: Seed, person: bytes) -> bytes:
    """The 16-byte blake2b digest of b"stream" keyed by the seed, personalized by ``person``."""
    return hashlib.blake2b(b"stream", digest_size=16, key=seed._key(), person=person).digest()


def _hash_steps(constant: int, multiplier: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier words of SeedSequence's first ``count`` hash steps.

    Its hash constant starts at ``constant`` and is multiplied by
    ``multiplier`` (mod 2^32) at every step, whatever the data, so each
    step's constants are fixed: step j XORs the value with the constant
    before it and multiplies it by the constant after it.  Both are
    (count, 1) uint32 columns, step j in row j, to broadcast over the
    words of a block laid out one row per word.
    """
    constants = [constant]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & 0xFFFFFFFF)
    return (np.array(constants[:-1], dtype=np.uint32)[:, None],
            np.array(constants[1:], dtype=np.uint32)[:, None])


# numpy.random.SeedSequence with its default pool of 4 words, fed 4 words
# of entropy: 4 hash steps fill the pool and 12 mix every pool word into
# every other (constants INIT_A, MULT_A), then 8 steps draw PCG64's 4
# state words from the pool (INIT_B, MULT_B).
_POOL_XOR, _POOL_MULT = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MIX_TARGETS = [[target for target in range(4) if target != source] for source in range(4)]


def _hashed(words: np.ndarray, xor: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Row j of ``words`` through the hash step of row j of ``xor`` and ``multiplier``."""
    words = words ^ xor
    words *= multiplier
    words ^= words >> 16
    return words


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """PCG64's 4 state words for each row of 4 uint32 entropy words: shape (rows, 4), uint64.

    Row i is what ``np.random.SeedSequence(entropy[i]).generate_state(4,
    np.uint64)`` returns, the words ``PCG64(entropy[i])`` seeds itself
    from, computed for every row at once in uint32 arithmetic, which wraps
    mod 2^32 as SeedSequence's does.  The pool is laid out one row per
    word, and each stage is one array step over all its words: the 4
    entropy words are hashed together; each source word, which its own
    mixing leaves alone, is hashed with its 3 step constants at once and
    mixed into the 3 other words together; and the 8 state words are
    hashed from the pool, read twice over, in one step.
    """
    pool = _hashed(entropy.T, _POOL_XOR[:4], _POOL_MULT[:4])
    for source, targets in enumerate(_MIX_TARGETS):
        steps = slice(4 + 3 * source, 7 + 3 * source)
        hashed = _hashed(pool[source], _POOL_XOR[steps], _POOL_MULT[steps])
        mixed = _MIX_LEFT * pool[targets] - _MIX_RIGHT * hashed
        mixed ^= mixed >> 16
        pool[targets] = mixed
    state = _hashed(np.vstack([pool, pool]), _STATE_XOR, _STATE_MULT)
    # pairs of 32-bit words, low word first, as SeedSequence reads them
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


# PCG64's 128-bit multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = 1 << 128
_M32 = np.uint64(0xFFFFFFFF)


def _words(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as a (high, low) pair of uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (_U64 - 1) for v in values], dtype=np.uint64))


def _mul_hi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of each product x * y of uint64 words, from 32-bit halves."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    # at most (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1, so it cannot wrap
    middle = x1 * y0 + (x0 * y0 >> 32) + (x0 * y1 & _M32)
    return x1 * y1 + (x0 * y1 >> 32) + (middle >> 32)


def _mul(a: tuple, b: tuple) -> tuple:
    """a * b mod 2^128, each a (high, low) pair of uint64 arrays (broadcast together)."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mul_hi(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a: tuple, b: tuple) -> tuple:
    """a + b mod 2^128, each a (high, low) pair of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _output(state: tuple) -> np.ndarray:
    """PCG64's XSL-RR output: the state's two words XORed, rotated right by its top 6 bits."""
    high, low = state
    turn = high >> 58
    word = high ^ low
    return (word >> turn) | (word << ((64 - turn) & 63))


_MULT_WORDS = _words([_PCG_MULT])


# Positions one chunk of ``StreamBlock.raw`` reads per stream, so a read's
# temporaries hold at most streams x RAW_CHUNK words however long it is.
RAW_CHUNK = 8192
_MULT_LESS_ONE_WORDS = _words([_PCG_MULT - 1])
_CHUNK_POWER_WORDS = _words([pow(_PCG_MULT, RAW_CHUNK, _U128)])


@lru_cache(maxsize=1)
def _sum_table() -> tuple[np.ndarray, ...]:
    """1 + a + ... + a^(k - 1) mod 2^128 for k = 1..RAW_CHUNK: high words, low words, low halves.

    Built by doubling, sum(k + j) = sum(k) + a^k sum(j), and kept for the
    life of the process once a read first needs it.  The low words also
    come split into their low and high 32-bit halves.
    """
    high, low = _words([1])
    while len(low) < RAW_CHUNK:
        more = _add(_mul((high, low), _words([pow(_PCG_MULT, len(low), _U128)])),
                    (high[-1:], low[-1:]))
        high, low = np.concatenate([high, more[0]]), np.concatenate([low, more[1]])
    high, low = high[:RAW_CHUNK], low[:RAW_CHUNK]
    return high, low, low & _M32, low >> 32


@lru_cache(maxsize=256)
def _jump(steps: int) -> tuple[int, int]:
    """(a^steps, 1 + a + ... + a^(steps - 1)) mod 2^128, a being PCG64's multiplier.

    ``steps`` steps of s -> a s + inc take s to a^steps s + (the sum) inc.
    The sum is (a^steps - 1) / (a - 1), and a^steps taken modulo
    (a - 1) 2^128 keeps that division exact modulo 2^128.
    """
    power = pow(_PCG_MULT, steps, (_PCG_MULT - 1) << 128)
    return power % _U128, (power - 1) // (_PCG_MULT - 1) % _U128


def _to_doubles(target: np.ndarray, words: np.ndarray) -> None:
    """Write numpy's ``next_double`` of each output into ``target``: its top 53 bits times 2^-53."""
    np.multiply(np.right_shift(words, 11, out=words), 2.0**-53, out=target)


class StreamBlock:
    """``RandomStream(seed, role)`` for each seed of a block, drawn as arrays.

    The block holds each stream's PCG64 state and increment as uint64
    arrays, seeded as ``PCG64`` seeds itself: one pass of SeedSequence's
    mixing over the block's entropy words (``_pcg64_states``), then
    numpy's ``pcg64_set_seed``.  It also holds numpy's buffered 32-bit
    word, the high half of an output a 32-bit draw has not read yet.  Every
    draw is array arithmetic over the whole block, row i of each result
    being what stream i returns draw for draw, so no numpy bit generator
    is built.  ``raw`` and ``random`` read consecutive outputs in chunks
    of at most ``RAW_CHUNK`` positions, so their temporaries stay at
    streams x RAW_CHUNK words however long the read; ``random_at`` jumps
    each stream to the sparse positions it needs, and ``bounded`` to the
    outputs its draws consume.
    """

    def __init__(self, seeds: Sequence[Seed], role: str):
        person = _person(role)
        entropy = b"".join([_stream_entropy(seed, person)[::-1] for seed in seeds])
        words = _pcg64_states(np.frombuffer(entropy, dtype="<u4").reshape(-1, 4))
        # PCG64 takes words 0-1 as its initial state and 2-3 as its sequence,
        # high word first; the increment is 2 * sequence + 1, and the state
        # starts at (increment + initial state) * a + increment.
        self._inc = ((words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1)
        self._state = _add(_mul(_add(self._inc, (words[:, 0], words[:, 1])), _MULT_WORDS),
                           self._inc)
        self._has_word = np.zeros(len(words), dtype=bool)
        self._word = np.zeros(len(words), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._word)

    def _states_at(self, positions: Sequence[int]) -> tuple:
        """Each stream's state after ``positions[j] + 1`` outputs: a (streams, P) array pair."""
        mult, add = zip(*[_jump(pos + 1) for pos in positions])
        state, inc = [tuple(word[:, None] for word in pair) for pair in (self._state, self._inc)]
        return _add(_mul(state, _words(mult)), _mul(inc, _words(add)))

    def random_at(self, positions: Sequence[int]) -> np.ndarray:
        """The doubles ``random(size)`` would put at the given strictly increasing positions.

        Shape (streams, positions).  Each stream then stands just past the
        last position; its buffered 32-bit word, which ``random`` leaves
        alone, stays.
        """
        positions = list(positions)
        for before, pos in zip([-1] + positions, positions):
            if pos <= before:
                raise InvalidInput(f"positions must be strictly increasing and >= 0, got {pos}")
        if not positions:
            return np.empty((len(self), 0))
        state = self._states_at(positions)
        self._state = (state[0][:, -1].copy(), state[1][:, -1].copy())
        return (_output(state) >> 11) * 2.0**-53

    def _read(self, count: int, dtype, convert) -> np.ndarray:
        """Each stream's next ``count`` outputs through ``convert``: shape (streams, count).

        k steps of s -> a s + inc take s to a^k s + sum(k) inc, and a^k =
        (a - 1) sum(k) + 1, so they take it to s + sum(k) d with d = (a - 1)
        s + inc.  A read goes chunk by chunk of at most ``RAW_CHUNK``
        positions, each one product of the cached sums (``_sum_table``) by
        the chunk's d, in place in four (streams, chunk) buffers; the chunk
        after a full one starts a^RAW_CHUNK steps on, so its d is
        a^RAW_CHUNK d.  ``convert(target, words)`` writes a chunk's outputs
        into its columns of the result, of the given dtype.  Each stream
        then stands at its last state; the buffered 32-bit word stays.
        """
        if count < 0:
            raise InvalidInput(f"count must be non-negative, got {count}")
        out = np.empty((len(self), count), dtype=dtype)
        sum_hi, sum_lo, sum0, sum1 = _sum_table()
        d = _add(_mul(self._state, _MULT_LESS_ONE_WORDS), self._inc)
        width = min(count, RAW_CHUNK)
        hi_buf, lo_buf, mid_buf, tmp_buf = (np.empty((len(self), width), dtype=np.uint64)
                                            for _ in range(4))
        mul, add, shr = np.multiply, np.add, np.right_shift
        for start in range(0, count, RAW_CHUNK):
            size = min(RAW_CHUNK, count - start)
            if start:
                d = _mul(d, _CHUNK_POWER_WORDS)
            hi, lo, mid, tmp = (buf[:, :size] for buf in (hi_buf, lo_buf, mid_buf, tmp_buf))
            d_hi, d_lo = (word[:, None] for word in d)
            d0, d1 = d_lo & _M32, d_lo >> 32
            s_lo, s0, s1 = sum_lo[:size], sum0[:size], sum1[:size]
            # hi:lo = sum(k) d, the high word of s_lo * d_lo from 32-bit halves as in _mul_hi
            shr(mul(s0, d0, out=tmp), 32, out=tmp)
            add(mul(s1, d0, out=mid), tmp, out=mid)
            mul(s0, d1, out=tmp)
            add(mul(s1, d1, out=hi), shr(tmp, 32, out=lo), out=hi)
            add(mid, np.bitwise_and(tmp, _M32, out=tmp), out=mid)
            add(hi, shr(mid, 32, out=mid), out=hi)
            add(hi, mul(s_lo, d_hi, out=tmp), out=hi)
            add(hi, mul(sum_hi[:size], d_lo, out=tmp), out=hi)
            mul(s_lo, d_lo, out=lo)
            # plus s, carrying out of the low word
            x_hi, x_lo = (word[:, None] for word in self._state)
            add(lo, x_lo, out=lo)
            add(hi, x_hi, out=hi)
            add(hi, lo < x_lo, out=hi)
            self._state = (hi[:, -1].copy(), lo[:, -1].copy())
            # PCG64's XSL-RR output as in _output; numpy shifts a word by 64 to 0
            shr(hi, 58, out=tmp)
            np.bitwise_xor(hi, lo, out=hi)
            shr(hi, tmp, out=lo)
            np.left_shift(hi, np.subtract(64, tmp, out=tmp), out=hi)
            convert(out[:, start:start + size], np.bitwise_or(hi, lo, out=hi))
        return out

    def raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs of each stream: shape (streams, count), uint64.

        numpy's ``next_uint64``; like numpy's, it leaves the buffered
        32-bit word alone.
        """
        return self._read(count, np.uint64, np.copyto)

    def random(self, count: int) -> np.ndarray:
        """The next ``count`` doubles of each stream: shape (streams, count).

        The double of an output is its top 53 bits times 2^-53, numpy's
        ``next_double``.
        """
        return self._read(count, np.float64, _to_doubles)

    def bounded(self, ranges: Sequence[int]) -> np.ndarray:
        """Column j of row i is stream i's ``integers(0, ranges[j])``, the draws made in order.

        numpy draws a range r in [1, 2^32] from 32-bit words, each output
        giving its low half and then its high half, which it buffers.  A
        range of 1 reads no word; otherwise Lemire's method takes the high
        half of word * r, and rejects the word, reading the next, when the
        low half falls below 2^32 mod r.  The words come from a buffer of
        each stream's next outputs, extended when rejections run a stream
        past it.  Shape (streams, ranges), int64.
        """
        for r in ranges:
            if not 1 <= r <= 1 << 32:
                raise InvalidInput(f"ranges must lie in [1, 2^32], got {r}")
        rows = np.arange(len(self))
        out = np.zeros((len(self), len(ranges)), dtype=np.int64)
        # column 0 is the buffered word; column 2k + 1 (2k + 2) is the low
        # (high) half of output k, whose state is column k of `states`
        words = self._word[:, None]
        states = (words[:, :0], words[:, :0])
        cursor = np.where(self._has_word, 0, 1)
        needed = sum(r > 1 for r in ranges)
        for j, r in enumerate(ranges):
            if r == 1:
                continue
            pending = rows
            while len(pending):
                if cursor[pending].max() >= words.shape[1]:
                    start = states[0].shape[1]
                    more = self._states_at(range(start, start + (needed + 1) // 2))
                    halves = _output(more)[:, :, None] >> np.array([0, 32], dtype=np.uint64)
                    words = np.hstack([words, (halves & _M32).reshape(len(self), -1)])
                    states = (np.hstack([states[0], more[0]]), np.hstack([states[1], more[1]]))
                scaled = words[pending, cursor[pending]] * np.uint64(r)
                cursor[pending] += 1
                taken = (scaled & _M32) >= (1 << 32) % r
                out[pending[taken], j] = scaled[taken] >> 32
                pending = pending[~taken]
        read = cursor // 2
        if states[0].shape[1]:
            last = np.maximum(read - 1, 0)
            self._state = tuple(np.where(read > 0, s[rows, last], old)
                                for s, old in zip(states, self._state))
        self._word = words[rows, 2 * read]
        self._has_word = cursor % 2 == 0
        return out


class RandomStream:
    """A deterministic PCG64 stream tied to a seed and a role label.

    The generator's seed is the 16-byte blake2b digest of ``b"stream"``
    keyed by the seed and personalized by the role (see ``_generator``).
    ``StreamBlock`` draws the same streams for a block of seeds.
    """

    def __init__(self, seed: Seed, role: str):
        self.seed = seed
        self.role = role
        self._gen = _generator(_stream_entropy(seed, _person(role)))

    def child(self, label: str) -> "RandomStream":
        """An independent stream scoped under this one."""
        return RandomStream(self.seed, f"{self.role}/{label}")

    def random(self, size: int | None = None):
        return self._gen.random(size)

    def u64(self) -> int:
        return int(self._gen.integers(0, _U64, dtype=np.uint64))

    def bernoulli_mask(self, count: int, prob: float) -> np.ndarray:
        """Boolean array of ``count`` independent coin flips."""
        return self._gen.random(count) < prob

    def sample_without_replacement(self, population: int, k: int) -> np.ndarray:
        """k distinct values from range(population), sorted."""
        return np.sort(self._gen.choice(population, size=k, replace=False))
