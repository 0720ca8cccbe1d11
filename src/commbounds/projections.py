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
Results are cached per shape, so repeated verify --tiny requests on one
shape in one process (perfbench's certify stream sends such repeats)
enumerate once.  sweep never calls this engine.
"""

from __future__ import annotations

from itertools import accumulate

from .bounds import ProblemShape

EXHAUSTIVE_LIMIT = 24


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
        self.min_sum_from_size = list(accumulate(min_sum_by_size[::-1], min))[::-1]
        self.min_phi_from_size = {
            key: list(accumulate(values[::-1], min))[::-1]
            for key, values in min_phi_by_size.items()
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
    stats = SubsetStats(dims, lw_ok, min_sum, min_phi)
    _STATS_CACHE[dims] = stats
    return stats


class MinProjectionResult:
    """minimum over every F of at least threshold points, ceil(n1n2n3 / P)."""

    __slots__ = ("minimum", "threshold")

    def __init__(self, minimum: int, threshold: int):
        self.minimum, self.threshold = minimum, threshold


def min_projection_sum(shape: ProblemShape, procs: int) -> MinProjectionResult:
    """Minimum of phi_A + phi_B + phi_C over all F with |F| >= n1n2n3/P.

    Certified by exhaustive enumeration, so callers keep the cube volume at
    most EXHAUSTIVE_LIMIT.  The lower bound says the result is >= D.
    """
    t = -(-shape.volume // procs)
    stats = subset_stats(shape.dims)
    return MinProjectionResult(minimum=stats.min_sum_from_size[t], threshold=t)
