"""Projection counting, Loomis-Whitney spot checks, and the subset engine.

WorkSet, projections_of, verify_loomis_whitney and verify_projection_lb state
the lemmas point by point on explicit sets: the brute-force form of what
subset_stats decides from down-sets.  Its two references are brute_force_stats,
over every subset of a tiny cube, and walk_stats, over the down-sets in the
box's own orientation.  subset_stats answers in the sorted box's coordinates,
so each reference's faces are put in that order (in_sorted_coordinates).
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commbounds import projections
from commbounds.bounds import ProblemShape, lower_bound
from commbounds.grids import analytic_grid, comm_cost
from commbounds.projections import EXHAUSTIVE_LIMIT, min_projection_sum, subset_stats


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
    """|F|^2 <= phi_A * phi_B * phi_C."""
    p = projections_of(ws)
    return len(ws) ** 2 <= p.phi_a * p.phi_b * p.phi_c


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


def brute_force_stats(dims):
    """Reference LW verdict and per-size minima of phi_A + phi_B + phi_C and
    of each phi, over all 2^N subsets (tiny cubes only)."""
    n1, n2, n3 = dims
    # each cell's image under the three projections, as one-bit masks
    images = [
        (1 << (i * n2 + j), 1 << (j * n3 + l), 1 << (i * n3 + l))
        for i, j, l in itertools.product(range(n1), range(n2), range(n3))
    ]
    n = len(images)
    proj = [(0, 0, 0)] * (1 << n)
    min_sum = [0] + [None] * n
    min_phi = {key: [0] + [None] * n for key in "abc"}
    lw_ok = True
    for bits in range(1, 1 << n):
        low = bits & -bits
        rest = proj[bits ^ low]
        cell = images[low.bit_length() - 1]
        proj[bits] = tuple(r | c for r, c in zip(rest, cell))
        phis = [m.bit_count() for m in proj[bits]]
        s = bits.bit_count()
        lw_ok = lw_ok and s * s <= phis[0] * phis[1] * phis[2]
        if min_sum[s] is None or sum(phis) < min_sum[s]:
            min_sum[s] = sum(phis)
        for key, phi in zip("abc", phis):
            if min_phi[key][s] is None or phi < min_phi[key][s]:
                min_phi[key][s] = phi
    return lw_ok, min_sum, min_phi


def walk_stats(dims):
    """Reference LW verdict and per-size minima read off the down-sets in one
    fixed orientation: an n1 x n2 matrix of heights in [0, n3], one recursive
    call per cell and one per down-set, with no axis chosen and no leaf set."""
    n1, n2, n3 = dims
    n_total = n1 * n2 * n3
    min_sum = [3 * n_total] * (n_total + 1)
    min_phi = {key: [n_total] * (n_total + 1) for key in "abc"}
    lw_ok = True
    heights = [[n3] * (n2 + 1) for _ in range(n1 + 1)]  # row/column 0: sentinels

    def extend(cell, size, phi_a, phi_b, phi_c):
        nonlocal lw_ok
        if cell == n1 * n2:
            lw_ok = lw_ok and size * size <= phi_a * phi_b * phi_c
            min_sum[size] = min(min_sum[size], phi_a + phi_b + phi_c)
            for key, phi in zip("abc", (phi_a, phi_b, phi_c)):
                min_phi[key][size] = min(min_phi[key][size], phi)
            return
        i, j = divmod(cell, n2)
        row = heights[i + 1]
        for h in range(min(heights[i][j + 1], row[j]) + 1):
            row[j + 1] = h
            extend(cell + 1, size + h, phi_a + (h > 0),
                   phi_b + (h if i == 0 else 0), phi_c + (h if j == 0 else 0))

    extend(0, 0, 0, 0, 0)
    return lw_ok, min_sum, min_phi


def boxes_up_to(volume):
    return [
        (a, b, c)
        for a in range(1, volume + 1)
        for b in range(1, volume // a + 1)
        for c in range(1, volume // (a * b) + 1)
    ]


ORDERED_BOXES = boxes_up_to(EXHAUSTIVE_LIMIT)


reference = functools.cache(walk_stats)


def sorted_box(dims):
    return tuple(sorted(dims, reverse=True))


def in_sorted_coordinates(dims, min_phi):
    """A reference's face minima on dims as [x1, x2, x3]: the faces that omit
    the longest, the middle and the shortest axis.  Face a omits axis 2, b
    axis 0 and c axis 1."""
    by_omitted_axis = (min_phi["b"], min_phi["c"], min_phi["a"])
    return [by_omitted_axis[i] for i in sorted(range(3), key=lambda i: -dims[i])]


def assert_matches(dims, stats, ref):
    """stats, the sorted box's, equals a reference computed on dims in its
    own axis order."""
    lw_ok, min_sum, min_phi = ref
    assert stats.dims == sorted_box(dims)
    assert stats.lw_ok is lw_ok, dims
    assert stats.min_sum_by_size == min_sum, dims
    assert [stats.x1, stats.x2, stats.x3] == in_sorted_coordinates(dims, min_phi), dims


def assert_matches_walk(dims, stats):
    """Every field of stats equals the fixed-orientation walk's on the sorted
    box, and the walk on dims itself has the same verdict and sums, and the
    same face minima permuted with the axes."""
    box = sorted_box(dims)
    assert_matches(box, stats, reference(box))
    assert_matches(dims, stats, reference(dims))
    assert all(type(m) is int for values in (stats.min_sum_by_size, stats.x1,
               stats.x2, stats.x3) for m in values), dims


class TestProjections:
    def test_plane_example(self):
        ws = WorkSet.from_points(
            (2, 2, 2), [(i, j, 1) for i in (1, 2) for j in (1, 2)]
        )
        p = projections_of(ws)
        assert (p.phi_a, p.phi_b, p.phi_c) == (4, 2, 2)
        assert p.total == 8

    def test_single_point(self):
        p = projections_of(WorkSet.from_points((3, 3, 3), [(2, 3, 1)]))
        assert (p.phi_a, p.phi_b, p.phi_c) == (1, 1, 1)

    def test_empty_set(self):
        p = projections_of(WorkSet.from_points((2, 2, 2), []))
        assert p.total == 0

    def test_full_cube(self):
        ws = WorkSet.brick((4, 3, 2), (4, 3, 2))
        p = projections_of(ws)
        assert (p.phi_a, p.phi_b, p.phi_c) == (12, 6, 8)

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            WorkSet.from_points((2, 2, 2), [(3, 1, 1)])
        with pytest.raises(ValueError):
            WorkSet.from_points((2, 2, 2), [(0, 1, 1)])


class TestLoomisWhitney:
    def test_all_subsets_of_small_cube(self):
        cells = [(i, j, l) for i in (1, 2) for j in (1, 2) for l in (1, 2)]
        for bits in range(256):
            pts = [cells[t] for t in range(8) if bits >> t & 1]
            assert verify_loomis_whitney(WorkSet.from_points((2, 2, 2), pts))

    def test_random_subsets_of_bigger_cube(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            size = int(rng.integers(0, 500))
            flat = rng.choice(1000, size=size, replace=False)
            pts = [
                (int(f) // 100 + 1, (int(f) // 10) % 10 + 1, int(f) % 10 + 1)
                for f in flat
            ]
            assert verify_loomis_whitney(WorkSet.from_points((10, 10, 10), pts))

    def test_tight_for_bricks(self):
        # brick sets meet Loomis-Whitney with equality: |F|^2 = product
        ws = WorkSet.brick((6, 5, 4), (3, 2, 4))
        p = projections_of(ws)
        assert len(ws) ** 2 == p.phi_a * p.phi_b * p.phi_c


def compress(ws: WorkSet, axis: int) -> WorkSet:
    """ws with the points of each line parallel to axis moved to its lowest
    positions."""
    counts = {}
    for p in ws.points:
        line = p[:axis] + p[axis + 1:]
        counts[line] = counts.get(line, 0) + 1
    return WorkSet.from_points(ws.dims, [line[:axis] + (z,) + line[axis:]
                                         for line, count in counts.items()
                                         for z in range(1, count + 1)])


@st.composite
def subsets_of_small_boxes(draw):
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    cells = list(itertools.product(*(range(1, d + 1) for d in dims)))
    bits = draw(st.integers(0, (1 << len(cells)) - 1))
    return WorkSet.from_points(dims, [cell for t, cell in enumerate(cells) if bits >> t & 1])


class TestCompression:
    @settings(deadline=None, max_examples=200)
    @given(subsets_of_small_boxes())
    def test_keeps_size_grows_no_projection_and_ends_at_a_down_set(self, ws):
        # the step that lets subset_stats read every subset off the down-sets
        for axis in range(3):
            before, compressed = projections_of(ws), compress(ws, axis)
            after = projections_of(compressed)
            assert len(compressed) == len(ws)
            assert after.phi_a <= before.phi_a
            assert after.phi_b <= before.phi_b
            assert after.phi_c <= before.phi_c
            ws = compressed
        for p in ws.points:
            for axis in range(3):
                if p[axis] > 1:
                    assert p[:axis] + (p[axis] - 1,) + p[axis + 1:] in ws.points, p


class TestProjectionLB:
    def test_applicable_brick(self):
        # half of a 2x2x2 cube at P = 2 touches enough of every matrix
        ws = WorkSet.brick((2, 2, 2), (2, 2, 1))
        rep = verify_projection_lb(ws, 2)
        assert rep.applicable
        assert rep.passed

    def test_below_threshold_not_applicable(self):
        ws = WorkSet.from_points((2, 2, 2), [(1, 1, 1)])
        rep = verify_projection_lb(ws, 2)
        assert not rep.applicable
        assert rep.ok_a is None

    def test_full_cube_any_p(self):
        ws = WorkSet.brick((3, 2, 2), (3, 2, 2))
        for procs in (1, 2, 5):
            assert verify_projection_lb(ws, procs).passed

    def test_every_qualifying_subset_of_tiny_cubes(self):
        # the bound holds for every qualifying subset; check it one by one
        for dims in ((2, 2, 2), (3, 2, 1)):
            n1, n2, n3 = dims
            cells = [
                (i, j, l)
                for i in range(1, n1 + 1)
                for j in range(1, n2 + 1)
                for l in range(1, n3 + 1)
            ]
            n = len(cells)
            for procs in (1, 2, 3, 4):
                for bits in range(1 << n):
                    pts = [cells[t] for t in range(n) if bits >> t & 1]
                    rep = verify_projection_lb(
                        WorkSet.from_points(dims, pts), procs
                    )
                    if rep.applicable:
                        assert rep.passed, (dims, procs, pts)


class TestSubsetEngine:
    @pytest.mark.parametrize("dims", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (1, 1, 1)])
    def test_matches_direct_enumeration(self, dims):
        assert_matches(dims, subset_stats(dims), brute_force_stats(dims))

    def test_down_sets_decide_every_subset_up_to_volume_12(self):
        # the compression lemma in action: minima and the LW verdict read off
        # the down-sets equal those over all 2^N subsets
        boxes = boxes_up_to(12)
        assert len(boxes) == 74
        for dims in boxes:
            assert_matches(dims, subset_stats(dims), brute_force_stats(dims))

    def test_matches_the_fixed_orientation_walk_on_every_box(self):
        # every ordered box up to the cap, so each sorted box in all six axis
        # orders: every order answers with its sorted box's walk, and the
        # walk on the order itself must give the same minima, face by face
        sorted_boxes = [dims for dims in ORDERED_BOXES if list(dims) == sorted(dims)]
        assert len(sorted_boxes) == 51
        checked = 0
        for box in sorted_boxes:
            for dims in set(itertools.permutations(box)):
                assert_matches_walk(dims, subset_stats(dims))
                checked += 1
        assert checked == len(ORDERED_BOXES) == 203

    def test_walks_each_sorted_box_once(self, monkeypatch):
        # with the memo empty, one process asks for all 203 ordered boxes
        walked, walk = [], projections._walk
        monkeypatch.setattr(projections, "_CACHE", {})
        monkeypatch.setattr(projections, "_walk", lambda *box: walked.append(box) or walk(*box))
        for dims in ORDERED_BOXES:
            subset_stats(dims)
        assert sorted(walked) == sorted({tuple(sorted(dims, reverse=True))
                                          for dims in ORDERED_BOXES})
        assert len(walked) == 51

    @settings(deadline=None, max_examples=30)
    @given(st.permutations(ORDERED_BOXES))
    def test_any_order_of_asking_gives_the_walk_of_each_box(self, order):
        # whichever axis order of a box walks first, every other order reads
        # the same walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projections, "_CACHE", {})
            for dims in order:
                assert_matches_walk(dims, subset_stats(dims))

    def test_axis_permutations_consistent(self):
        # every axis order of a box answers with its sorted box's stats
        a = subset_stats((3, 2, 2))
        assert a is subset_stats((2, 2, 3)) is subset_stats((2, 3, 2))
        assert a.dims == (3, 2, 2) and a.lw_ok

    def test_per_size_minima_never_decrease(self):
        # a subset of s + 1 points contains one of s, with no larger
        # projection, so the minimum at size t is the minimum at sizes >= t,
        # which min_projection_sum reads off min_sum_by_size[t]
        def assert_non_decreasing(dims, ref):
            _, min_sum, min_phi = ref
            for values in (min_sum, *min_phi.values()):
                assert all(x <= y for x, y in zip(values, values[1:])), dims

        for dims in boxes_up_to(12):
            assert_non_decreasing(dims, brute_force_stats(dims))
        for dims in ORDERED_BOXES:
            assert_non_decreasing(dims, reference(dims))

    def test_cache_returns_same_object(self):
        assert subset_stats((2, 2, 2)) is subset_stats((2, 2, 2))


class TestMinProjectionSum:
    def test_half_cube(self):
        res = min_projection_sum(ProblemShape(2, 2, 2), 2)
        assert res.minimum == 8
        assert res.threshold == 4

    def test_row_shape_attains_accessed_data(self):
        res = min_projection_sum(ProblemShape(2, 1, 1), 2)
        assert res.minimum == 3  # equals D: one A word, one B word, one C word

    def test_whole_problem(self):
        res = min_projection_sum(ProblemShape(1, 1, 1), 1)
        assert res.minimum == 3

    def test_never_below_accessed_data(self):
        # the continuous bound is proved via these projections, so the
        # discrete minimum can never undercut D
        for dims in ((2, 2, 2), (4, 3, 2), (3, 3, 2), (24, 1, 1), (6, 2, 2)):
            shape = ProblemShape(*dims)
            for procs in range(1, shape.volume + 1):
                res = min_projection_sum(shape, procs)
                d = lower_bound(shape, procs).accessed
                assert (res.minimum - d).sign() >= 0, (dims, procs)

    def test_brick_meets_d_for_dividing_grid(self):
        # when the analytic grid divides the shape, the per-processor brick
        # has |F| = mnk/P and projection sum exactly D
        for dims, procs in (
            ((4, 2, 1), 2),
            ((8, 2, 1), 4),
            ((2, 2, 1), 4),
            ((2, 2, 2), 8),
            ((4, 3, 2), 1),
        ):
            shape = ProblemShape(*dims)
            res = min_projection_sum(shape, procs)
            d = lower_bound(shape, procs).accessed
            assert Fraction(res.minimum) == d, (dims, procs)

    def test_monotone_in_p(self):
        # larger P lowers the work threshold, so the minimum cannot rise
        shape = ProblemShape(4, 3, 2)
        prev = None
        for procs in range(1, 25):
            cur = min_projection_sum(shape, procs).minimum
            if prev is not None:
                assert cur <= prev
            prev = cur
