"""Exact oracles for the geometry under the bound.

A processor's work is a set F of lattice points (i1, i2, i3) in the
n1 x n2 x n3 iteration cube; it needs the A entries phi_A(F) = {(i1, i2)},
the B entries phi_B(F) = {(i2, i3)}, and touches the C entries
phi_C(F) = {(i1, i3)}.  Loomis-Whitney caps |F| by the product of the three
projection sizes, which is exactly the product constraint of the optimization
problem behind D.

The exhaustive engine decides statements about every subset of a small cube
from its down-sets alone.  Compressing F along an axis (moving the points of
each line parallel to it to the lowest positions) keeps |F| and never enlarges
a projection -- the compression step behind discrete Loomis-Whitney (Bollobas
& Thomason, 1995) -- and compressing along each axis in turn ends at a
down-set.  So per-size projection minima are attained on down-sets, and a
subset violating Loomis-Whitney compresses to a down-set that violates it.
Results are cached per shape, so a sweep over P enumerates once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import ProblemShape

_EXHAUSTIVE_LIMIT = 24


@dataclass(frozen=True)
class WorkSet:
    """A set of 1-based lattice points with its owning cube."""

    dims: tuple[int, int, int]
    points: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        n1, n2, n3 = self.dims
        for (i, j, l) in self.points:
            if not (1 <= i <= n1 and 1 <= j <= n2 and 1 <= l <= n3):
                raise ValueError(f"point {(i, j, l)} outside cube {self.dims}")

    @classmethod
    def from_points(cls, dims, points) -> "WorkSet":
        return cls(tuple(dims), frozenset(tuple(p) for p in points))

    @classmethod
    def brick(cls, dims, edges) -> "WorkSet":
        """Axis-aligned a x b x c box anchored at the (1,1,1) corner."""
        a, b, c = edges
        pts = [
            (i, j, l)
            for i in range(1, a + 1)
            for j in range(1, b + 1)
            for l in range(1, c + 1)
        ]
        return cls.from_points(dims, pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ProjectionCounts:
    phi_a: int
    phi_b: int
    phi_c: int

    @property
    def total(self) -> int:
        return self.phi_a + self.phi_b + self.phi_c


def projections_of(ws: WorkSet) -> ProjectionCounts:
    """Exact projection cardinalities onto (i1,i2), (i2,i3), (i1,i3)."""
    pa = {(i, j) for i, j, _ in ws.points}
    pb = {(j, l) for _, j, l in ws.points}
    pc = {(i, l) for i, _, l in ws.points}
    return ProjectionCounts(len(pa), len(pb), len(pc))


def verify_loomis_whitney(ws: WorkSet) -> bool:
    """|F| <= phi_A * phi_B * phi_C."""
    p = projections_of(ws)
    return len(ws) <= p.phi_a * p.phi_b * p.phi_c


@dataclass(frozen=True)
class ProjectionLBReport:
    applicable: bool           # |F| >= n1n2n3 / P
    ok_a: Optional[bool]
    ok_b: Optional[bool]
    ok_c: Optional[bool]

    @property
    def passed(self) -> bool:
        return bool(self.applicable and self.ok_a and self.ok_b and self.ok_c)


def verify_projection_lb(ws: WorkSet, procs: int) -> ProjectionLBReport:
    """A processor doing >= 1/P of the multiplies touches >= n1n2/P of A,
    >= n2n3/P of B, >= n1n3/P of C.  Integer cross-multiplied comparisons;
    an F below the work threshold is reported not-applicable, not failing."""
    if procs < 1:
        raise ValueError(f"processor count must be positive, got {procs}")
    n1, n2, n3 = ws.dims
    if len(ws) * procs < n1 * n2 * n3:
        return ProjectionLBReport(False, None, None, None)
    p = projections_of(ws)
    return ProjectionLBReport(
        True,
        p.phi_a * procs >= n1 * n2,
        p.phi_b * procs >= n2 * n3,
        p.phi_c * procs >= n1 * n3,
    )


class SubsetStats:
    """Per-size minima over every subset of a small cube.

    For each subset size s in 0..N the engine records the minimum of
    phi_A + phi_B + phi_C and of each projection alone, plus whether
    Loomis-Whitney held for all 2^N subsets.  min_*_from_size are suffix
    minima (over sizes >= s), which is what threshold queries need.
    """

    def __init__(self, dims, lw_ok, min_sum_by_size, min_phi_by_size):
        self.dims = dims
        self.lw_ok = lw_ok
        self.min_sum_by_size = min_sum_by_size
        self.min_phi_by_size = min_phi_by_size
        self.min_sum_from_size = np.minimum.accumulate(min_sum_by_size[::-1])[::-1]
        self.min_phi_from_size = {
            key: np.minimum.accumulate(arr[::-1])[::-1]
            for key, arr in min_phi_by_size.items()
        }


_STATS_CACHE: dict[tuple[int, int, int], SubsetStats] = {}


def subset_stats(dims) -> SubsetStats:
    """SubsetStats over all 2^(n1 n2 n3) subsets, read off the down-sets.

    A down-set is an n1 x n2 matrix of heights in [0, n3], non-increasing along
    rows and columns; it holds (i1, i2, i3) iff i3 <= h[i1][i2].  So |F| = sum h,
    phi_A counts the nonzero heights, phi_B sums the first row and phi_C the
    first column.  The module docstring says why down-sets decide every subset.
    """
    dims = tuple(int(d) for d in dims)
    if dims in _STATS_CACHE:
        return _STATS_CACHE[dims]
    n1, n2, n3 = dims
    n_total = n1 * n2 * n3
    if n_total > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is limited to n1*n2*n3 <= {_EXHAUSTIVE_LIMIT}, "
            f"got {n_total}"
        )
    min_sum = [3 * n_total] * (n_total + 1)
    min_phi = {key: [n_total] * (n_total + 1) for key in ("a", "b", "c")}
    lw_ok = True
    heights = [[n3] * (n2 + 1) for _ in range(n1 + 1)]  # row/column 0: sentinels

    def extend(cell, size, phi_a, phi_b, phi_c):
        nonlocal lw_ok
        if cell == n1 * n2:
            lw_ok = lw_ok and size <= phi_a * phi_b * phi_c
            min_sum[size] = min(min_sum[size], phi_a + phi_b + phi_c)
            for key, phi in (("a", phi_a), ("b", phi_b), ("c", phi_c)):
                min_phi[key][size] = min(min_phi[key][size], phi)
            return
        i, j = divmod(cell, n2)
        row = heights[i + 1]
        for h in range(min(heights[i][j + 1], row[j]) + 1):
            row[j + 1] = h
            extend(cell + 1, size + h, phi_a + (h > 0),
                   phi_b + (h if i == 0 else 0), phi_c + (h if j == 0 else 0))

    extend(0, 0, 0, 0, 0)
    stats = SubsetStats(
        dims,
        lw_ok,
        np.array(min_sum, dtype=np.int64),
        {key: np.array(arr, dtype=np.int64) for key, arr in min_phi.items()},
    )
    _STATS_CACHE[dims] = stats
    return stats


@dataclass(frozen=True)
class MinProjectionResult:
    minimum: int
    exact: bool         # certified by exhaustive enumeration
    threshold: int      # smallest qualifying |F|, ceil(n1n2n3 / P)
    mode: str


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _edge_candidates(n: int) -> list[int]:
    if n <= 64:
        return list(range(1, n + 1))
    vals = set(np.unique(np.geomspace(1, n, 64).astype(np.int64)).tolist())
    vals.add(n)
    return sorted(vals)


def min_projection_sum(
    shape: ProblemShape,
    procs: int,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    samples: int = 200,
) -> MinProjectionResult:
    """Minimum of phi_A + phi_B + phi_C over all F with |F| >= n1n2n3/P.

    Exhaustive mode certifies the minimum (cube volume capped at 24 points);
    sampled mode reports the best of brick-shaped candidates and random
    subsets, an upper bound on the true minimum, for shapes too big to
    enumerate.  Either way the lower bound says the result is >= D.
    """
    if procs < 1:
        raise ValueError(f"processor count must be positive, got {procs}")
    volume = shape.volume
    t = _ceil_div(volume, procs)

    if mode == "exhaustive":
        stats = subset_stats(shape.dims)
        return MinProjectionResult(
            minimum=int(stats.min_sum_from_size[t]),
            exact=True,
            threshold=t,
            mode=mode,
        )
    if mode != "sampled":
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if seed is None:
        raise ValueError("sampled mode requires a seed")

    n1, n2, n3 = shape.dims
    best = 3 * volume + 1
    for a in _edge_candidates(n1):
        for b in _edge_candidates(n2):
            c = _ceil_div(t, a * b)
            if c < 1:
                c = 1
            if c <= n3:
                best = min(best, a * b + b * c + a * c)

    if volume <= 1_000_000 and t >= 1:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            flat = rng.choice(volume, size=t, replace=False)
            i = flat // (n2 * n3)
            j = (flat // n3) % n2
            l = flat % n3
            phi_a = np.unique(i * n2 + j).size
            phi_b = np.unique(j * n3 + l).size
            phi_c = np.unique(i * n3 + l).size
            best = min(best, phi_a + phi_b + phi_c)

    return MinProjectionResult(minimum=int(best), exact=False, threshold=t, mode=mode)
