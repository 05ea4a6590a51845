"""Seeded determinism: 64-bit seeds, labeled substreams, and digest-derived bits.

Every random choice in the package flows through one of two mechanisms:

* ``KeyedDigest``: a blake2b state keyed by the seed and personalized by
  a role, with a payload prefix absorbed.  For any payload it answers the
  64-bit digest of ``(seed, role, prefix + payload)``, or whether that
  digest falls below a threshold, so lazily evaluated objects re-derive
  any bit on demand without caching and pay the key schedule once per
  state.  ``derive_u64`` and ``derive_bit`` are its one-shot forms.
* ``RandomStream``: a PCG64 generator whose state is derived from
  ``(seed, role)``.  Used for bulk sampling where a stateful stream is the
  natural fit (subset draws, Monte-Carlo trials).

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
        return Seed(derive_u64(self, "mix", pack_ints(index)))

    def _key(self) -> bytes:
        return self.value.to_bytes(8, "little")


# pack_ints(v) for every v in [0, 255]: a 4-byte length of 1, then the byte.
_BYTE_CODES = tuple(b"\x00\x00\x00\x01" + bytes((v,)) for v in range(256))


def pack_ints(*values: int) -> bytes:
    """Length-prefixed big-endian encoding of non-negative integers.

    Unambiguous for arbitrary-precision values, so address indices larger
    than 64 bits are safe payloads.  It is the concatenation of
    ``pack_each(values)``.
    """
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
        out = []
        for payload in payloads:
            state = self._state.copy()
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


class RandomStream:
    """A deterministic PCG64 stream tied to a seed and a role label."""

    def __init__(self, seed: Seed, role: str):
        self.seed = seed
        self.role = role
        entropy = hashlib.blake2b(
            b"stream", digest_size=16, key=seed._key(), person=_person(role)
        ).digest()
        self._gen = np.random.Generator(np.random.PCG64(int.from_bytes(entropy, "big")))

    def child(self, label: str) -> "RandomStream":
        """An independent stream scoped under this one."""
        return RandomStream(self.seed, f"{self.role}/{label}")

    def random(self, size: int | None = None):
        return self._gen.random(size)

    def random_at(self, positions) -> list[float]:
        """The doubles ``random(size)`` would put at the given strictly increasing positions.

        Each double takes one step of PCG64, so the stream jumps over each
        gap with ``advance`` and draws one value per position; the stream
        then stands just past the last position.
        """
        bit_generator = self._gen.bit_generator
        out = []
        at = 0
        for pos in positions:
            if pos < at:
                raise InvalidInput(f"positions must be strictly increasing and >= 0, got {pos}")
            bit_generator.advance(pos - at)
            out.append(self._gen.random())
            at = pos + 1
        return out

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def integers_array(self, low: int, high: int, size: int) -> np.ndarray:
        """Array of independent uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def u64(self) -> int:
        return int(self._gen.integers(0, _U64, dtype=np.uint64))

    def bernoulli_mask(self, count: int, prob: float) -> np.ndarray:
        """Boolean array of ``count`` independent coin flips."""
        return self._gen.random(count) < prob

    def sample_without_replacement(self, population: int, k: int) -> np.ndarray:
        """k distinct values from range(population), sorted."""
        return np.sort(self._gen.choice(population, size=k, replace=False))
