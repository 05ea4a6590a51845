"""Slow references that define what the fast paths compute.

The tests compare the library against these, and ``scripts/bench.py``
times the library against them.  The digest references build one fresh
keyed ``hashlib.blake2b`` per digest and share no code with
``junta_lab.rng``; their layout (seed key, role personalization, payload)
is the definition every digest of the package follows.
"""

import hashlib
import math

import numpy as np

from junta_lab.boolfn import BitString, TruthTable


def per_point_table(f) -> TruthTable:
    """The truth table of ``f``, one ``f.eval`` per point."""
    n = f.n
    return TruthTable(n, np.array([f.eval(BitString(n, c)) for c in range(1 << n)]))


def per_direction_edge_counts(f: TruthTable) -> tuple[int, ...]:
    """Bichromatic edges per direction i: the table's two halves along i, compared entry by entry."""
    counts = []
    for i in range(f.n):
        halves = f.table.reshape(1 << i, 2, -1)
        counts.append(int(np.count_nonzero(halves[:, 0] != halves[:, 1])))
    return tuple(counts)


def count_words(dtype, run: int):
    """``junta_distance._words`` without the word views: each run is added one count at a time."""
    return dtype, run


def general_encoding(*values: int) -> bytes:
    """pack_ints by its definition: per value, a 4-byte length then the big-endian bytes."""
    out = b""
    for v in values:
        body = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        out += len(body).to_bytes(4, "big") + body
    return out


def reference_digest(seed, role: str, payload: bytes) -> bytes:
    """The 8-byte digest of (seed, role, payload) from a fresh keyed blake2b.

    The seed's 8 little-endian bytes are the key and the role is the
    personalization, hashed to 16 bytes when it is longer.
    """
    person = role.encode("utf-8")
    if len(person) > hashlib.blake2b.PERSON_SIZE:
        person = hashlib.blake2b(person, digest_size=hashlib.blake2b.PERSON_SIZE).digest()
    key = seed.value.to_bytes(8, "little")
    return hashlib.blake2b(payload, digest_size=8, key=key, person=person).digest()


def reference_bit(seed, role: str, payload: bytes, threshold: float) -> int:
    """1 when the digest, read as a big-endian integer, is below threshold * 2^64."""
    return int(int.from_bytes(reference_digest(seed, role, payload), "big") < threshold * 2**64)


def reference_fiber_coords(f, address: int) -> tuple[int, ...]:
    """The members a of A whose ``pack_ints(address, a)`` coin fires at epsilon/sqrt(n)."""
    theta = f.params.epsilon / math.sqrt(f.n)
    return tuple(
        a for a in f.A.members
        if reference_bit(f.seed, "S-membership", general_encoding(address, a), theta)
    )


def reference_eval(f, x: BitString) -> int:
    """f(x) = h_address(x on S), every digest derived afresh."""
    bits = {i: (x.code >> (f.n - i)) & 1 for i in range(1, f.n + 1)}
    address = 1 + sum(bits[i] << (len(f.M.members) - 1 - j) for j, i in enumerate(f.M.members))
    coords = reference_fiber_coords(f, address)
    payload = general_encoding(address, len(coords), *coords, *(bits[a] for a in coords))
    return reference_bit(f.seed, "h-value", payload, 0.5)


def reference_table(f) -> TruthTable:
    """The truth table of ``f``, one ``reference_eval`` per point."""
    n = f.n
    return TruthTable(n, np.array([reference_eval(f, BitString(n, c)) for c in range(1 << n)]))


class FreshDigest:
    """``rng.KeyedDigest``'s interface, building one fresh keyed blake2b per digest.

    It keeps the prefix as bytes and re-keys for every payload, as every
    digest was derived before the keyed state was kept; swapped in for
    ``KeyedDigest`` it gives the same answers at the old cost.
    """

    def __init__(self, seed, role: str, prefix: bytes = b""):
        self.seed, self.role, self.prefix = seed, role, prefix

    @classmethod
    def of(cls, seed, role: str) -> "FreshDigest":
        return cls(seed, role)

    def extend(self, data: bytes) -> "FreshDigest":
        return FreshDigest(self.seed, self.role, self.prefix + data)

    def u64(self, payload: bytes) -> int:
        return int.from_bytes(reference_digest(self.seed, self.role, self.prefix + payload), "big")

    def below(self, payloads, limit: bytes) -> list[bool]:
        return [reference_digest(self.seed, self.role, self.prefix + p) < limit for p in payloads]
