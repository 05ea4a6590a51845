"""Exact distance oracles: nearest k-junta and disjoint bichromatic matchings.

Distances are exact rationals (disagreement count over 2^n); far/not-far
decisions never go through floating point.  The matching oracle is exact
because the hypercube is bipartite by parity, so a bipartite maximum
matching over the bichromatic edges gives the true optimum rather than a
bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .boolfn import BitString, IndexSet, TruthTable
from .errors import InvalidInput, TooLarge

DIST_CAP = 20


@dataclass(frozen=True)
class DistanceReport:
    """Exact distance to the nearest k-junta plus an achieving witness."""

    distance: Fraction
    witness: IndexSet
    epsilon: Optional[float] = None
    far: Optional[bool] = None

    def as_json_dict(self) -> dict:
        # disagreement count over the full 2^n, not the reduced fraction
        denominator = 1 << self.witness.universe_size
        return {
            "numerator": int(self.distance * denominator),
            "denominator": denominator,
            "distance": float(self.distance),
            "witness": list(self.witness.members),
            "epsilon": self.epsilon,
            "far": self.far,
        }


@dataclass(frozen=True)
class MatchingCertificate:
    """A maximum set of vertex-disjoint bichromatic edges with directions in V.

    Each edge is recorded as (x, direction): the pair {x, flip(x, direction)}.
    """

    V: IndexSet
    size: int
    edges: tuple[tuple[BitString, int], ...]


def _as_indexset(J: IndexSet | Sequence[int], n: int) -> IndexSet:
    if isinstance(J, IndexSet):
        if J.universe_size != n:
            raise InvalidInput(f"index set universe {J.universe_size} != n = {n}")
        return J
    return IndexSet.of(n, J)


def _disagreements(ones: np.ndarray, fiber_size: int) -> int:
    """Sum over fibers of min(ones, zeros): the majority vote's error count."""
    return int(np.minimum(ones, fiber_size - ones).sum())


def dist_to_junta_on(f: TruthTable, J: IndexSet | Sequence[int]) -> Fraction:
    """Exact distance from f to the closest function depending only on J.

    On each fiber x|_J = b the best approximator takes the majority value,
    so the distance is sum_b min(zeros_b, ones_b) / 2^n.  The fiber
    ones-counts are the table's (2,)*n view summed over the axes outside J.
    """
    n = f.n
    if n > DIST_CAP:
        raise TooLarge(f"n = {n} exceeds the exact-distance cap {DIST_CAP}")
    J = _as_indexset(J, n)
    outside = tuple(i - 1 for i in J.complement().members)
    ones = f.table.reshape((2,) * n).sum(axis=outside, dtype=np.int64)
    return Fraction(_disagreements(ones, 1 << (n - len(J))), 1 << n)


def _fiber_ones(f: TruthTable, k: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (J, fiber ones-counts) for every size-k J, in ``combinations`` order.

    A depth-first walk over coordinates 1..n that at each coordinate first
    keeps it, then sums out its axis.  A child's counts are its parent's
    summed over one axis, so partial sums are shared across the subset
    lattice, and keeping before dropping visits the subsets in lexicographic
    order.  Counts never exceed the fiber size 2^(n-k), so they are held in
    the smallest unsigned type that fits it.
    """
    n = f.n
    dtype = np.min_scalar_type(1 << (n - k))

    def walk(counts: np.ndarray, kept: tuple[int, ...], i: int):
        # counts has one axis per kept coordinate, then one per coordinate i..n
        if n - i + 1 == k - len(kept):
            yield kept + tuple(range(i, n + 1)), counts
        elif len(kept) == k:
            yield kept, counts.reshape(1 << k, -1).sum(axis=1, dtype=dtype)
        else:
            yield from walk(counts, kept + (i,), i + 1)
            halves = counts.reshape(1 << len(kept), 2, -1)
            yield from walk(halves[:, 0] + halves[:, 1], kept, i + 1)

    yield from walk(f.table.astype(dtype, copy=False), (), 1)


def dist_to_k_junta(f: TruthTable, k: int, epsilon: float | None = None) -> DistanceReport:
    """Minimum of dist_to_junta_on over all size-k subsets, with a witness.

    The fiber counts of all C(n,k) subsets come from one walk over the
    subset lattice (``_fiber_ones``) in which each step is one axis
    reduction, so no subset rescans the table.  Ties resolve to the
    lexicographically smallest witness, and the walk stops at the first
    exact k-junta witness.  A given ``epsilon`` must lie in (0, 1], the
    parameter domain; the report is far when the distance reaches it.
    """
    n = f.n
    if n > DIST_CAP:
        raise TooLarge(f"n = {n} exceeds the exact-distance cap {DIST_CAP}")
    if not 0 <= k <= n:
        raise InvalidInput(f"k must be in [0, n], got {k}")
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise InvalidInput(f"epsilon must be in (0, 1], got {epsilon}")
    fiber_size = 1 << (n - k)
    best: int | None = None
    witness: tuple[int, ...] = ()
    for J, ones in _fiber_ones(f, k):
        d = _disagreements(ones, fiber_size)
        if best is None or d < best:
            best, witness = d, J
            if best == 0:
                break
    assert best is not None
    distance = Fraction(best, 1 << n)
    far = None if epsilon is None else bool(distance >= Fraction(epsilon))
    return DistanceReport(
        distance=distance, witness=IndexSet.of(n, witness), epsilon=epsilon, far=far
    )


def _hopcroft_karp(left: list[int], adj: dict[int, list[int]]) -> dict[int, int]:
    """Maximum bipartite matching; returns the left-to-right assignment."""
    INF = float("inf")
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in left:
            if u not in match_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # Iterative layered DFS; augmenting paths can be long at n ~ 20.
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
        picked: list[int] = []
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                w = match_right.get(v)
                if w is None:
                    picked.append(v)
                    for (uu, _), vv in zip(stack, picked):
                        match_left[uu] = vv
                        match_right[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    picked.append(v)
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                dist[u] = INF
                stack.pop()
                if picked:
                    picked.pop()
        return False

    while bfs():
        for u in left:
            if u not in match_left:
                dfs(u)
    return match_left


def max_disjoint_bichromatic_matching(f: TruthTable, V: IndexSet | Sequence[int]) -> MatchingCertificate:
    """Exact maximum vertex-disjoint set of bichromatic edges in directions V."""
    n = f.n
    if n > DIST_CAP:
        raise TooLarge(f"n = {n} exceeds the matching cap {DIST_CAP}")
    V = _as_indexset(V, n)
    if not V.members:
        raise InvalidInput("V must be non-empty")
    table = f.table
    masks = [1 << (n - j) for j in V.members]

    codes = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=np.int64)
    for shift in range(n):
        parity ^= (codes >> shift) & 1

    adj: dict[int, list[int]] = {}
    for mask in masks:
        partners = codes ^ mask
        bichromatic = np.nonzero(table != table[partners])[0]
        for x in bichromatic:
            if parity[x] == 0:
                adj.setdefault(int(x), []).append(int(x) ^ mask)
    left = sorted(adj)
    match = _hopcroft_karp(left, adj)

    mask_to_dir = {m: j for m, j in zip(masks, V.members)}
    edges = tuple(
        (BitString(n, x), mask_to_dir[x ^ y]) for x, y in sorted(match.items())
    )
    return MatchingCertificate(V=V, size=len(edges), edges=edges)
