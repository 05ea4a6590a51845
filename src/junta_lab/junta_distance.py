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
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .boolfn import BitString, IndexSet, TruthTable, bichromatic_edge_counts
from .errors import InvalidInput, TooLarge

DIST_CAP = 20
DIST_BLOCK_CELLS = 1 << 17
_UNSIGNED = {width: np.dtype(f"u{width}") for width in (1, 2, 4, 8)}


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


def _colex_subset(rank: int, size: int, width: int) -> int:
    """The rank-th (from 0) of the ``width``-bit masks with ``size`` bits set, in increasing order."""
    mask, c = 0, width
    for j in range(size, 0, -1):
        c -= 1
        while comb(c, j) > rank:
            c -= 1
        mask |= 1 << c
        rank -= comb(c, j)
    return mask


def _words(dtype: np.dtype, run: int) -> tuple[np.dtype, int]:
    """The widest unsigned word (up to 8 bytes) that tiles ``run`` counts, and the run in words.

    Adding two runs word by word adds their counts lane by lane with no
    carry between lanes, because every sum the walk forms is at most the
    fiber size 2^(n-k), which the count dtype holds.
    """
    width = min(8, run * dtype.itemsize)
    return _UNSIGNED[width], run * dtype.itemsize // width


def _block_least(
    counts: np.ndarray, kept: int, free: int, k: int, fiber_size: int
) -> tuple[int, int]:
    """(disagreements, drop bits) of the first best leaf below one node of the walk.

    ``counts`` holds the node's fiber counts: its ``kept`` axes, then one
    axis per undecided coordinate n - free + 1 .. n.  The block decides
    these innermost first, so the axes it keeps gather at the end and each
    drop adds two contiguous runs.  After s steps, group d stacks every
    partial choice that dropped d of them, one row each of 2^(kept + free
    - d) counts laid out as the node's kept axes, the undecided axes, then
    the s - d axes the block kept.  A step appends group d - 1's rows,
    summed over the decided axis, to group d; its own rows keep the axis.
    So rows stay in increasing order of their drop bits (bit s for
    coordinate n - s), and the first least leaf is the lexicographically
    first.  The two runs of each sum are added as ``_words``, so a run of
    2, 4 or 8 one-byte counts costs one word add.
    """
    keep_total, drop_total = k - kept, free - (k - kept)
    groups: list[np.ndarray | None] = [counts.reshape(1, -1)] + [None] * drop_total
    rows = [1] + [0] * drop_total
    for s in range(free):
        # descending, so group d - 1 still holds only its rows of step s
        for d in range(min(s + 1, drop_total), max(1, s + 1 - keep_total) - 1, -1):
            if groups[d] is None:
                groups[d] = np.empty(
                    (comb(d + keep_total, d), 1 << (kept + free - d)), counts.dtype
                )
            # group d - 1's rows end in the s - d + 1 axes the block kept,
            # and the decided axis sits just before them
            word, run = _words(counts.dtype, 1 << (s - d + 1))
            halves = groups[d - 1][: rows[d - 1]].view(word).reshape(-1, 2, run)
            out = groups[d][rows[d] : rows[d] + rows[d - 1]].view(word).reshape(-1, run)
            np.add(halves[:, 0], halves[:, 1], out=out)
            rows[d] += rows[d - 1]
            if s + 1 - (d - 1) > keep_total:
                groups[d - 1] = None
    leaves = groups[drop_total]
    # min(ones, zeros) per fiber: the majority vote's error count
    folded = fiber_size - leaves
    errors = np.minimum(folded, leaves, out=folded).sum(axis=1, dtype=np.uint32)
    first = int(errors.argmin())
    return int(errors[first]), _colex_subset(first, drop_total, free)


def _least_key(f: TruthTable, k: int) -> int:
    """The least (disagreements(J) << n) | drop_code(J) over every size-k J.

    drop_code(J) sets bit n - i for each coordinate i outside J, so among
    the J of least distance the least key is the lexicographically first.
    A depth-first walk decides coordinates 1, 2, ... in order: keeping one
    shares the parent's counts, dropping one sums out its axis.  Once the
    leaves below a node fit in DIST_BLOCK_CELLS counts (or it has only
    one), ``_block_least`` decides the rest.  Counts never exceed the
    fiber size 2^(n-k), so they are held in the smallest unsigned type
    that fits it, in a contiguous array that the word views need.
    """
    n = f.n
    fit = max(DIST_BLOCK_CELLS, 1 << k)

    def walk(counts: np.ndarray, i: int, kept: int, code: int) -> int:
        # coordinates 1..i are decided; counts has one axis per kept one,
        # then one per coordinate i + 1..n
        free = n - i
        if comb(free, k - kept) << k <= fit:
            errors, drops = _block_least(counts, kept, free, k, 1 << (n - k))
            return (errors << n) | code | drops
        keys = []
        if kept < k:
            keys.append(walk(counts, i + 1, kept + 1, code))
        if free > k - kept:
            halves = counts.reshape(1 << kept, 2, -1)
            keys.append(walk(halves[:, 0] + halves[:, 1], i + 1, kept, code | 1 << (n - i - 1)))
        return min(keys)

    counts = np.ascontiguousarray(f.table, dtype=np.min_scalar_type(1 << (n - k)))
    return walk(counts, 0, 0, 0)


def dist_to_k_junta(
    f: TruthTable, k: int, epsilon: float | None = None, counts: Sequence[int] | None = None
) -> DistanceReport:
    """Minimum of dist_to_junta_on over all size-k subsets, with a witness.

    Ties resolve to the lexicographically smallest witness.  One
    ``bichromatic_edge_counts`` pass decides which of three regimes
    applies:

    - *Junta test.*  The relevant coordinates are the directions with a
      nonzero count.  With at most k of them the table is a k-junta: its
      distance is 0 and its witness the first size-k superset of those
      coordinates.
    - *k = n - 1, closed form.*  Dropping coordinate i leaves fibers that
      are single edges {x, flip(x, i)}, and the majority vote errs once
      on each bichromatic one, so the disagreements are the least count.
      The witness drops the largest i that attains it, the least key of
      ``_least_key`` and the lexicographically first witness.
    - *Blocked walk.*  Otherwise ``_least_key`` scans every size-k
      subset, sharing partial sums across the subset lattice.

    A given ``epsilon`` must lie in (0, 1], the parameter domain; the
    report is far when the distance reaches it.  A caller that already
    holds ``bichromatic_edge_counts(f)`` may pass it as ``counts`` (one
    count per direction) to skip the pass.
    """
    n = f.n
    if n > DIST_CAP:
        raise TooLarge(f"n = {n} exceeds the exact-distance cap {DIST_CAP}")
    if not 0 <= k <= n:
        raise InvalidInput(f"k must be in [0, n], got {k}")
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise InvalidInput(f"epsilon must be in (0, 1], got {epsilon}")
    if counts is None:
        counts = bichromatic_edge_counts(f)
    elif len(counts) != n:
        raise InvalidInput(f"counts must hold n = {n} counts, one per direction, got {len(counts)}")
    relevant = [i for i, count in enumerate(counts, 1) if count]
    if len(relevant) <= k:
        others = [i for i in range(1, n + 1) if i not in relevant]
        disagreements, witness = 0, relevant + others[: k - len(relevant)]
    elif k == n - 1:
        disagreements = min(counts)
        dropped = n - counts[::-1].index(disagreements)
        witness = [i for i in range(1, n + 1) if i != dropped]
    else:
        key = _least_key(f, k)
        disagreements = key >> n
        witness = [i for i in range(1, n + 1) if not key >> (n - i) & 1]
    far = None
    if epsilon is not None:
        # disagreements / 2^n >= num / den, in integers
        num, den = epsilon.as_integer_ratio()
        far = disagreements * den >= num << n
    distance = Fraction(disagreements, 1 << n)
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
