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
Results are cached per dims as given, and the walk per sorted box, so a
process walks each box once up to axis order, however often and in whichever
orders verify --tiny asks for it (perfbench's certify stream repeats boxes).
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
_WALK_CACHE: dict[tuple[int, int, int], tuple] = {}  # by the sorted box (w, u, v)


def subset_stats(dims) -> SubsetStats:
    """SubsetStats over all 2^(n1 n2 n3) subsets, read off the down-sets.

    The longest axis is the height; the other two span u >= v rows and
    columns.  A down-set is a u x v matrix of heights in [0, w], non-increasing
    along rows and columns, so |F| = sum h, the (row, column) face counts the
    nonzero heights, the (column, height) face sums the first row and the
    (row, height) face the first column.  Permuting the axes maps down-sets to
    down-sets and faces to faces, so these are a, b and c in another order,
    and the walk of the sorted box (w, u, v) serves all its axis orders.
    """
    dims = tuple(int(d) for d in dims)
    if dims in _STATS_CACHE:
        return _STATS_CACHE[dims]
    height, rows, cols = sorted(range(3), key=dims.__getitem__, reverse=True)
    box = dims[height], dims[rows], dims[cols]
    if box not in _WALK_CACHE:
        _WALK_CACHE[box] = _walk(*box)
    lw_ok, min_sum, mins = _WALK_CACHE[box]
    # the walk's a, b and c omit its height, rows and cols axes; the caller's
    # face that omits axis 0, 1 or 2 is b, c or a
    by_face = dict(zip(("bca"[height], "bca"[rows], "bca"[cols]), mins))
    stats = SubsetStats(dims, lw_ok, min_sum, {key: by_face[key] for key in "abc"})
    return _STATS_CACHE.setdefault(dims, stats)


def _walk(w, u, v):
    """The LW verdict, and per-size minima of the sum and of the faces a, b and
    c that omit the height, rows and cols axes, over the down-sets of u x v
    heights in [0, w], w >= u >= v.  Down-sets alike in size and projections
    are one leaf of a set."""
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
        lw_ok = lw_ok and size <= a * b * c
        if a + b + c < min_sum[size]:
            min_sum[size] = a + b + c
        if a < mins_a[size]:
            mins_a[size] = a
        if b < mins_b[size]:
            mins_b[size] = b
        if c < mins_c[size]:
            mins_c[size] = c
    return lw_ok, min_sum, (mins_a, mins_b, mins_c)


class MinProjectionResult:
    """minimum over every F of at least threshold points, ceil(n1n2n3 / P),
    read off stats."""

    __slots__ = ("minimum", "threshold", "stats")

    def __init__(self, minimum: int, threshold: int, stats: SubsetStats):
        self.minimum, self.threshold, self.stats = minimum, threshold, stats


def min_projection_sum(shape: ProblemShape, procs: int) -> MinProjectionResult:
    """Minimum of phi_A + phi_B + phi_C over all F with |F| >= n1n2n3/P.

    Certified by exhaustive enumeration, so callers keep the cube volume at
    most EXHAUSTIVE_LIMIT.  The lower bound says the result is >= D.
    """
    t = -(-shape.volume // procs)
    stats = subset_stats(shape.dims)
    return MinProjectionResult(stats.min_sum_from_size[t], t, stats)
