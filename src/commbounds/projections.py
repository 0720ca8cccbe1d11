"""Exact oracles for the geometry under the bound.

A processor's work is a set F of lattice points in the m x n x k iteration
box, m >= n >= k.  It touches x1 points of the n x k face, x2 of the m x k
face and x3 of the m x n face, its three projections, named as in the
optimization problem behind D (kkt.py).  Loomis-Whitney (1949) caps |F|^2 by
x1 x2 x3, which at |F| = mnk/P is exactly that problem's product constraint.
Permuting the axes maps subsets to subsets and faces to faces, so every axis
order of a box has the answers of its sorted box, and the oracle gives them
in the bound's sorted coordinates.

The exhaustive engine decides statements about every subset of a small box
from its down-sets alone.  Compressing F along an axis (moving the points of
each line parallel to it to the lowest positions) keeps |F| and never enlarges
a projection -- the compression step behind discrete Loomis-Whitney (Bollobas
& Thomason, 1995) -- and compressing along each axis in turn ends at a
down-set.  So per-size projection minima are attained on down-sets, and a
subset violating Loomis-Whitney compresses to a down-set that violates it.
The minima never decrease with size, as a down-set of s + 1 points contains
one of s and a projection only grows under inclusion, so the minimum at size
t is also the minimum over every F of at least t points.  Results are cached
per sorted box, so a process walks each box once, however often and in
whichever axis orders verify --tiny asks for it (perfbench's certify stream
repeats boxes).
"""

from __future__ import annotations

from .bounds import ProblemShape

EXHAUSTIVE_LIMIT = 24


class SubsetStats:
    """Per-size minima over every subset of the sorted box dims = (m, n, k).

    For each subset size s in 0..mnk the engine records the minimum of
    x1 + x2 + x3 and of each projection alone (x1 on the n x k face, x2 on
    m x k, x3 on m x n), plus whether Loomis-Whitney held for all 2^(mnk)
    subsets.  Each list is non-decreasing in s.
    """

    __slots__ = ("dims", "lw_ok", "min_sum_by_size", "x1", "x2", "x3")

    def __init__(self, dims, lw_ok, min_sum_by_size, x1, x2, x3):
        self.dims, self.lw_ok, self.min_sum_by_size = dims, lw_ok, min_sum_by_size
        self.x1, self.x2, self.x3 = x1, x2, x3


_CACHE: dict[tuple[int, int, int], SubsetStats] = {}  # by the sorted box (m, n, k)


def subset_stats(dims) -> SubsetStats:
    """SubsetStats of the sorted box of dims, three positive ints, over all
    its 2^(mnk) subsets, read off the down-sets.

    The longest axis m is the height; n >= k span the rows and columns.  A
    down-set is an n x k matrix of heights in [0, m], non-increasing along
    rows and columns, so |F| = sum h, x1 counts the nonzero heights, x2 sums
    the first row and x3 the first column.
    """
    box = tuple(sorted(dims, reverse=True))
    stats = _CACHE.get(box)
    if stats is None:
        stats = _CACHE[box] = _walk(*box)
    return stats


def _walk(w, u, v):
    """SubsetStats of the sorted box (w, u, v) = (m, n, k), over the down-sets
    of u x v heights in [0, w]: a, b and c are x1, x2 and x3.  Down-sets
    alike in size and projections are one leaf of a set."""
    heights = [[w] * (v + 1) for _ in range(u + 1)]  # row/column 0: sentinels
    # per cell: the row above, its own row, its column, in row 0, in column 0
    cells = [(heights[i], heights[i + 1], j, i == 0, j == 0) for i in range(u) for j in range(v)]
    parent = len(cells) - 2  # its loop runs the last cell as well
    above_z, row_z, z, _, first_col_z = cells[-1]  # the last cell, not in row 0 as u >= v
    leaves = set()

    def extend(cell, size, phi_a, phi_b, phi_c):
        above, row, j, first_row, first_col = cells[cell]
        for h in range((above[j + 1] if above[j + 1] < row[j] else row[j]) + 1):
            row[j + 1] = h
            s, a, b, c = size + h, phi_a + (h > 0), phi_b + h * first_row, phi_c + h * first_col
            if cell < parent:
                extend(cell + 1, s, a, b, c)
                continue
            leaves.add((s, a, b, c))  # the last cell at height 0, then above it
            for g in range(1, (above_z[z + 1] if above_z[z + 1] < row_z[z] else row_z[z]) + 1):
                leaves.add((s + g, a + 1, b, c + g * first_col_z))

    if parent < 0:  # a 1 x 1 grid: one column of height 0..w
        leaves = {(h, min(h, 1), h, h) for h in range(w + 1)}
    else:
        extend(0, 0, 0, 0, 0)
    n = u * v * w
    min_sum, mins_a, mins_b, mins_c = ([k * n] * (n + 1) for k in (3, 1, 1, 1))
    lw_ok = True
    for size, a, b, c in leaves:  # one pass: the verdict and the per-size minima
        lw_ok = lw_ok and size * size <= a * b * c
        if a + b + c < min_sum[size]:
            min_sum[size] = a + b + c
        if a < mins_a[size]:
            mins_a[size] = a
        if b < mins_b[size]:
            mins_b[size] = b
        if c < mins_c[size]:
            mins_c[size] = c
    return SubsetStats((w, u, v), lw_ok, min_sum, mins_a, mins_b, mins_c)


class MinProjectionResult:
    """minimum over every F of at least threshold points, ceil(mnk / P),
    read off stats."""

    __slots__ = ("minimum", "threshold", "stats")

    def __init__(self, minimum: int, threshold: int, stats: SubsetStats):
        self.minimum, self.threshold, self.stats = minimum, threshold, stats


def min_projection_sum(shape: ProblemShape, procs: int) -> MinProjectionResult:
    """Minimum of x1 + x2 + x3 over all F with |F| >= mnk/P.

    Certified by exhaustive enumeration, so callers keep the box volume at
    most EXHAUSTIVE_LIMIT.  The lower bound says the result is >= D.
    """
    t = -(-shape.volume // procs)
    stats = subset_stats(shape.dims)
    return MinProjectionResult(stats.min_sum_by_size[t], t, stats)
