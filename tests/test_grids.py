"""Grid planning: exact collective costs, analytic factors, brute force."""

import contextlib
import io
import itertools
import json
import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import commbounds.cli as cli
from commbounds.bounds import ProblemShape, lower_bound
from commbounds.grids import (
    CostBreakdown,
    TRIPLE_CAP,
    ProcessorGrid,
    analytic_grid,
    comm_cost,
    factor_triples,
    plan,
)

RUNNING = ProblemShape(9600, 2400, 600)


# The planner as it was before costs became integers: trial division for the
# divisors of every P/p1, and a Fraction cost per factor triple.  It is the
# oracle the integer planner must agree with.


def reference_divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def reference_cost(shape: ProblemShape, grid: ProcessorGrid) -> CostBreakdown:
    n1, n2, n3 = shape.dims
    p1, p2, p3 = grid.dims
    words_a = (1 - Fraction(1, p3)) * Fraction(n1 * n2, p1 * p2)
    words_b = (1 - Fraction(1, p1)) * Fraction(n2 * n3, p2 * p3)
    words_c = (1 - Fraction(1, p2)) * Fraction(n1 * n3, p1 * p3)
    return CostBreakdown(
        words_a=words_a,
        words_b=words_b,
        words_c=words_c,
        total=words_a + words_b + words_c,
    )


def reference_grid(shape: ProblemShape, procs: int, require_divisibility: bool):
    best = None
    for d1 in reference_divisors(procs):
        rest = procs // d1
        for d2 in reference_divisors(rest):
            t = (d1, d2, rest // d2)
            if require_divisibility and any(d % p for d, p in zip(shape.dims, t)):
                continue
            grid = ProcessorGrid(*t)
            cb = reference_cost(shape, grid)
            if best is None or cb.total < best[1].total or (
                cb.total == best[1].total and t > best[0].dims
            ):
                best = (grid, cb)
    if best is None:
        raise ValueError(
            f"no factor triple of P={procs} divides shape {shape.dims}"
        )
    return best


def planned_grid(shape: ProblemShape, procs: int, require_divisibility: bool):
    """plan's triple and its cost, as reference_grid returns them."""
    return plan(shape, procs, require_divisibility)[1:3]


def plan_or_error(planner, shape, procs, require_divisibility):
    """The planner's grid and cost, each as its type and every field, or its
    ValueError's text.  Records compare by identity, so the fields are what
    two planners' answers compare by."""
    try:
        grid, cost = planner(shape, procs, require_divisibility)
    except ValueError as e:
        return str(e)
    return (type(grid), grid.dims,
            type(cost), (cost.words_a, cost.words_b, cost.words_c, cost.total))


class TestProcessorGrid:
    def test_size(self):
        assert ProcessorGrid(12, 3, 1).size == 36

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 2, 2)


class TestCommCost:
    def test_simple_example(self):
        # (4,2,2) on (2,1,1): gather B over the p1 ring, half of 4 words
        cb = comm_cost(ProblemShape(4, 2, 2), ProcessorGrid(2, 1, 1))
        assert cb.words_a == 0
        assert cb.words_b == 2
        assert cb.words_c == 0
        assert cb.total == 2

    def test_each_term(self):
        shape = ProblemShape(96, 24, 6)
        cb = comm_cost(shape, ProcessorGrid(12, 3, 1))
        assert cb.words_a == 0  # p3 = 1, no A gather
        assert cb.words_b == (1 - Fraction(1, 12)) * Fraction(24 * 6, 3)
        assert cb.words_b == 44
        assert cb.words_c == Fraction(2, 3) * Fraction(96 * 6, 12)
        assert cb.words_c == 32
        assert cb.total == 76

    def test_single_processor_grid_free(self):
        cb = comm_cost(RUNNING, ProcessorGrid(1, 1, 1))
        assert cb.total == 0

    def test_cost_defined_for_non_dividing_grids(self):
        cb = comm_cost(ProblemShape(7, 7, 7), ProcessorGrid(2, 2, 2))
        assert cb.total == 3 * (1 - Fraction(1, 2)) * Fraction(49, 4)


class TestAnalyticGrid:
    def test_case_1_all_on_longest(self):
        res = analytic_grid(RUNNING, 3)
        assert res.case == 1
        assert res.grid.dims == (3, 1, 1)
        assert res.non_integral_axes == ()

    def test_case_2_matches_aspect(self):
        res = analytic_grid(RUNNING, 36)
        assert res.case == 2
        assert res.grid.dims == (12, 3, 1)

    def test_case_3_cube_roots(self):
        res = analytic_grid(RUNNING, 512)
        assert res.case == 3
        assert res.grid.dims == (32, 8, 2)

    def test_factors_follow_axis_order(self):
        # permuted dims carry the factors with them
        shape = ProblemShape(600, 9600, 2400)
        res = analytic_grid(shape, 512)
        assert res.grid.dims == (2, 32, 8)

    def test_non_integral_reported_not_rounded(self):
        res = analytic_grid(ProblemShape(7, 7, 7), 7)
        assert res.grid is None
        assert res.non_integral_axes == (1, 2, 3)
        for f in res.factors:  # each is 7^(1/3), exactly
            assert f * f * f == 7 and f.sign() > 0

    def test_case_2_non_integral(self):
        # p = sqrt(P m / n) = sqrt(8) for (4,2,x) at P = 4
        res = analytic_grid(ProblemShape(4, 2, 1), 4)
        assert res.case == 2
        assert res.grid is None
        assert 1 in res.non_integral_axes
        p, q, r = res.factors
        assert p * p == 8 and q * q == 2 and r == 1

    def test_grid_product_is_p(self):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(400):
            shape = ProblemShape(*(int(v) for v in rng.integers(1, 60, size=3)))
            procs = int(rng.integers(1, 200))
            res = analytic_grid(shape, procs)
            p, q, r = res.factors
            assert p * q * r == procs  # exactly, whether or not integral
            if res.grid is not None:
                assert res.grid.size == procs
                hits += 1
        assert hits > 0


class TestFactorTriples:
    def test_counts(self):
        assert list(factor_triples(1)) == [(1, 1, 1)]
        assert len(list(factor_triples(6))) == 9
        assert len(list(factor_triples(8))) == 10

    def test_complete_and_distinct(self):
        for procs in (12, 36, 64, 97):
            triples = list(factor_triples(procs))
            assert len(set(triples)) == len(triples)
            for t in triples:
                assert t[0] * t[1] * t[2] == procs
            # count via divisor-pair identity
            expect = sum(
                1
                for a in range(1, procs + 1)
                if procs % a == 0
                for b in range(1, procs // a + 1)
                if (procs // a) % b == 0
            )
            assert len(triples) == expect

    @pytest.mark.parametrize(
        "procs, exponents",
        [(1, []), (2**10, [10]), (2 * (10**9 + 7), [1, 1]), (720720, [4, 2, 1, 1, 1, 1])],
        ids=["one", "prime-power", "large-last-prime", "highly-composite"],
    )
    def test_count_from_exponents(self, procs, exponents):
        # an ordered triple splits each prime's exponent e three ways, in
        # C(e+2, 2) ways; the large prime 10^9+7 is left over after trial
        # division stops at its square root
        triples = list(factor_triples(procs))
        assert len(triples) == math.prod(math.comb(e + 2, 2) for e in exponents)
        assert triples == sorted(set(triples))
        assert all(a * b * c == procs for a, b, c in triples)

    def test_cap_is_decided_by_counting(self):
        # C(2896, 2) = 4,191,960 triples are at most TRIPLE_CAP = 2^22, and
        # C(2897, 2) = 4,194,856 are above it; no triple is made for either
        assert math.comb(2896, 2) <= TRIPLE_CAP < math.comb(2897, 2)
        factor_triples(2**2894)
        with pytest.raises(ValueError, match=r"^P = 3032\d{36}\.\.\. \(872 characters\) "
                                             r"has 4194856 factor triples, above the cap of 4194304$"):
            factor_triples(2**2895)

    def test_matches_reference_order(self):
        for procs in range(1, 1001):
            expect = [
                (d1, d2, procs // d1 // d2)
                for d1 in reference_divisors(procs)
                for d2 in reference_divisors(procs // d1)
            ]
            assert list(factor_triples(procs)) == expect, procs


class TestExhaustiveGrid:
    def test_matches_analytic_on_examples(self):
        for procs, dims in ((3, (3, 1, 1)), (36, (12, 3, 1)), (512, (32, 8, 2))):
            _, grid, cb, _, _ = plan(RUNNING, procs)
            assert grid.dims == dims
            assert cb.total == comm_cost(RUNNING, grid).total

    def test_tie_break_prefers_big_factor_first(self):
        # all three axis grids tie on a cube with prime P
        _, grid, _, _, _ = plan(ProblemShape(7, 7, 7), 7)
        assert grid.dims == (7, 1, 1)

    def test_beats_or_ties_every_triple(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            shape = ProblemShape(*(int(v) for v in rng.integers(1, 50, size=3)))
            procs = int(rng.integers(1, 120))
            _, _, best, _, _ = plan(shape, procs)
            for t in factor_triples(procs):
                assert (comm_cost(shape, ProcessorGrid(*t)).total - best.total).sign() >= 0

    def test_divisibility_filter(self):
        _, grid, _, _, _ = plan(ProblemShape(96, 24, 6), 36, require_divisibility=True)
        assert all(d % p == 0 for d, p in zip((96, 24, 6), grid.dims))
        with pytest.raises(ValueError):
            plan(ProblemShape(5, 5, 5), 7, require_divisibility=True)

    def test_attains_bound_when_analytic_grid_integral(self):
        # cost + owned words equals the accessed-data optimum D exactly
        cases = [
            (RUNNING, 3),
            (RUNNING, 36),
            (RUNNING, 512),
            (ProblemShape(96, 24, 6), 36),
            (ProblemShape(96, 96, 96), 8),
            (ProblemShape(96, 96, 96), 512),
            (ProblemShape(12, 12, 12), 8),
        ]
        for shape, procs in cases:
            res = analytic_grid(shape, procs)
            assert res.grid is not None, (shape, procs)
            cb = comm_cost(shape, res.grid)
            rep = lower_bound(shape, procs)
            assert cb.total + rep.owned == rep.accessed
            assert cb.total == rep.bound

    def test_attained_iff_analytic_grid_integral_iff_cheapest(self):
        # every ordered shape with dims <= 5 at every P <= 60: the bound is
        # attained exactly when the analytic factors are integers, and then
        # the analytic grid costs what the cheapest triple costs
        for dims in itertools.product(range(1, 6), repeat=3):
            shape = ProblemShape(*dims)
            for procs in range(1, 61):
                res, _, cb, _, attained = plan(shape, procs)
                integral = res.grid is not None
                cheapest = integral and comm_cost(shape, res.grid).total == cb.total
                assert attained == integral == cheapest, (dims, procs)

    def test_constructed_integral_family(self):
        # shapes (c*p, c*q, c*r) with grid (p, q, r) attain the 3d bound
        rng = np.random.default_rng(16)
        for _ in range(40):
            p, q, r = (int(v) for v in rng.integers(1, 6, size=3))
            ps = sorted((p, q, r), reverse=True)
            c = int(rng.integers(1, 9))
            shape = ProblemShape(c * ps[0], c * ps[1], c * ps[2])
            procs = p * q * r
            res = analytic_grid(shape, procs)
            if res.grid is None:
                continue  # aspect ratios put P out of the 3d regime
            if res.case != 3:
                continue
            cb = comm_cost(shape, res.grid)
            assert cb.total == lower_bound(shape, procs).bound

    def test_permutation_invariant_cost(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            dims = tuple(int(v) for v in rng.integers(1, 40, size=3))
            procs = int(rng.integers(1, 80))
            _, _, base, _, _ = plan(ProblemShape(*dims), procs)
            for perm in ((2, 1, 0), (1, 0, 2)):
                _, _, other, _, _ = plan(ProblemShape(*(dims[i] for i in perm)), procs)
                assert other.total == base.total


# P = 1..250 for eight shapes: the running example and a permutation of it,
# cubes where the axis grids tie at prime P, cubes with no dividing grid for
# most P, and shapes with prime or mixed dimensions.
EQUIVALENCE_SHAPES = [
    ProblemShape(9600, 2400, 600),
    ProblemShape(600, 9600, 2400),
    ProblemShape(7, 7, 7),
    ProblemShape(96, 96, 96),
    ProblemShape(5, 5, 5),
    ProblemShape(1, 1, 1),
    ProblemShape(12, 18, 30),
    ProblemShape(97, 3, 64),
]


class TestEquivalenceWithReference:
    """The integer planner returns the reference's grid and CostBreakdown, or
    its ValueError, with and without the divisibility filter."""

    @pytest.mark.parametrize(
        "shape", EQUIVALENCE_SHAPES, ids=lambda s: "x".join(map(str, s.dims))
    )
    def test_fixed_range(self, shape):
        for procs in range(1, 251):
            for divisible in (False, True):
                assert plan_or_error(planned_grid, shape, procs, divisible) == (
                    plan_or_error(reference_grid, shape, procs, divisible)
                ), (procs, divisible)

    @settings(deadline=None, max_examples=60)
    @given(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6)),
           st.integers(1, 10**4), st.booleans())
    def test_random(self, dims, procs, divisible):
        shape = ProblemShape(*dims)
        assert plan_or_error(planned_grid, shape, procs, divisible) == (
            plan_or_error(reference_grid, shape, procs, divisible)
        )


@contextlib.contextmanager
def time_box(seconds: int):
    """Fail with TimeoutError if the body runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_grid_at_highly_composite_procs_finishes():
    # 963761198400 has 6720 divisors and 1,837,080 factor triples; the
    # planner once ran for minutes here.  The grid and cost were confirmed
    # by the reference Fraction loop over every triple.
    argv = ["grid", "--shape", "9600", "2400", "600", "--procs", "963761198400",
            "--format", "json"]
    out = io.StringIO()
    with time_box(20), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    ex = json.loads(out.getvalue())["exhaustive"]
    assert ex["grid"] == [39330, 9945, 2464]
    assert Fraction(ex["cost"]["num"], ex["cost"]["den"]) == Fraction(11851300, 66927861)


@pytest.mark.parametrize("argv", [
    "grid --shape 9600 2400 600 --procs 897612484786617600 --format csv",
    "grid --shape 9600 2400 600 --procs " + str(2**200 * 3**50),
    "sweep --shape 9600 2400 600 --procs 897612484786617600:897612484786617600",
    "simulate --shape 96 24 6 --procs 897612484786617600",
], ids=["grid", "grid-2^200*3^50", "sweep", "simulate"])
def test_triple_cap_refuses_at_once(argv, capsys):
    # 897612484786617600 has 159,432,300 factor triples and 2^200 3^50 has
    # 26,919,126; each command counts them before it scans any
    with time_box(1):
        assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.endswith(" factor triples, above the cap of 4194304\n")
