"""Exact KKT certificates, the float sampling oracle that cross-checks them,
and the inequality behind global optimality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commbounds.bounds import d_case
from commbounds.exact import RATIONAL
from commbounds.kkt import (
    OptProblem,
    OptSolution,
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
    objective,
)

RUNNING = (9600, 2400, 600)


def random_problems(count, seed, hi=2000, phi=4000):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n, k = sorted((int(v) for v in rng.integers(1, hi, size=3)), reverse=True)
        yield OptProblem(m, n, k, int(rng.integers(1, phi)))


class TestProblem:
    def test_constraint_values(self):
        prob = OptProblem(4, 4, 4, 2)
        assert prob.product_bound == Fraction(1024)
        assert prob.lower_corners == (Fraction(8), Fraction(8), Fraction(8))
        g = prob.g((Fraction(16), Fraction(8), Fraction(8)))
        assert g == (0, -8, 0, 0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            OptProblem(4, 8, 2, 3)
        with pytest.raises(ValueError):
            OptProblem(4, 2, 2, 0)


class TestAnalyticSolutions:
    def test_case_1_values(self):
        prob = OptProblem(*RUNNING, 3)
        sol = analytic_solution(prob)
        assert sol.case_tag == 1
        assert sol.x == (Fraction(1440000), Fraction(1920000), Fraction(7680000))
        # x1 is at nk, the other two at their lower corners
        assert sol.x[1] == prob.lower_corners[1]
        assert sol.x[2] == prob.lower_corners[2]

    def test_case_2_values(self):
        prob = OptProblem(*RUNNING, 36)
        sol = analytic_solution(prob)
        assert sol.case_tag == 2
        s = sol.x[0]
        assert s == sol.x[1]
        assert s * s == Fraction(9600 * 2400 * 600 * 600, 36)
        assert sol.x[2] == Fraction(9600 * 2400, 36)

    def test_case_3_values(self):
        prob = OptProblem(*RUNNING, 512)
        sol = analytic_solution(prob)
        assert sol.case_tag == 3
        assert sol.x[0] == sol.x[1] == sol.x[2] == Fraction(90000)

    def test_objective_equals_accessed_data(self):
        # the optimizer's value equals the bound formula's D exactly, in the
        # same field (values of two fields never compare equal)
        for prob in random_problems(300, seed=9):
            sol = analytic_solution(prob)
            d = d_case(sol.case_tag, prob.m, prob.n, prob.k, prob.P)
            assert objective(sol.x) == d

    def test_multiplier_nonnegativity_in_range(self):
        for prob in random_problems(300, seed=10):
            sol = analytic_solution(prob)
            for mu in sol.mu:
                assert mu.sign() >= 0


class TestKKTVerify:
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 5, 36, 63, 64, 65, 512, 9999])
    def test_running_example_all_cases(self, procs):
        prob = OptProblem(*RUNNING, procs)
        rep = kkt_verify(prob, analytic_solution(prob))
        assert rep.passed, rep

    def test_random_sweep(self):
        for prob in random_problems(400, seed=11):
            rep = kkt_verify(prob, analytic_solution(prob))
            assert rep.passed, (prob, rep)

    def test_boundary_solutions_coincide(self):
        # at P = m/n both case formulas give the same primal point and the
        # same multipliers; same at P = mn/k^2
        cases = [(12, 3, 2, 4, (1, 2)), (9600, 2400, 600, 4, (1, 2)),
                 (9600, 2400, 600, 64, (2, 3)), (18, 6, 3, 12, (2, 3)),
                 (8, 2, 2, 4, (1, 2)), (50, 10, 5, 5, (1, 2)),
                 (36, 9, 2, 81, (2, 3))]
        for m, n, k, procs, (ca, cb) in cases:
            assert procs * n == m or procs * k * k == m * n
            prob = OptProblem(m, n, k, procs)
            sa = analytic_solution_for_case(prob, ca)
            sb = analytic_solution_for_case(prob, cb)
            assert sa.x == sb.x, (m, n, k, procs, sa.x, sb.x)
            assert sa.mu == sb.mu, (m, n, k, procs, sa.mu, sb.mu)
            assert kkt_verify(prob, sa).passed
            assert kkt_verify(prob, sb).passed

    def test_perturbed_primal_fails_stationarity(self):
        prob = OptProblem(*RUNNING, 36)
        sol = analytic_solution(prob)
        bad = sol.__class__(
            x=(sol.x[0] * 2, sol.x[1], sol.x[2]), mu=sol.mu, case_tag=sol.case_tag
        )
        rep = kkt_verify(prob, bad)
        assert not rep.passed
        assert not rep.stationary

    def test_infeasible_point_fails_primal(self):
        prob = OptProblem(*RUNNING, 36)
        sol = analytic_solution(prob)
        bad = sol.__class__(
            x=(prob.lower_corners[0] / 2, sol.x[1], sol.x[2]),
            mu=sol.mu,
            case_tag=sol.case_tag,
        )
        rep = kkt_verify(prob, bad)
        assert not rep.primal_feasible

    def test_out_of_range_case_fails_dual(self):
        # the case 1 multipliers go negative once P > m/n
        prob = OptProblem(*RUNNING, 36)
        sol = analytic_solution_for_case(prob, 1)
        rep = kkt_verify(prob, sol)
        assert not rep.passed
        assert not rep.dual_feasible

    def test_zero_perturbation_of_mu_breaks_stationarity(self):
        prob = OptProblem(*RUNNING, 512)
        sol = analytic_solution(prob)
        bad = sol.__class__(x=sol.x, mu=(0, 0, 0, 0), case_tag=sol.case_tag)
        assert not kkt_verify(prob, bad).stationary

    @pytest.mark.parametrize("procs", [3, 37, 9999])
    @pytest.mark.parametrize("where", ["x1", "x3", "mu1", "mu_last"])
    def test_perturbations_within_the_old_tolerance_fail(self, procs, where):
        # one part in 10^12 moved every residual by less than the old 1e-9
        # tolerance, which let such points pass; exact signs refuse them
        prob = OptProblem(*RUNNING, procs)
        sol = analytic_solution(prob)
        x, mu = list(sol.x), list(sol.mu)
        if where == "x1":
            x[0] = x[0] * (1 + 1e-12)
        elif where == "x3":
            x[2] = x[2] * (1 + 1e-12)
        elif where == "mu1":
            mu[0] = mu[0] * (1 + 1e-12)
        else:
            mu[3] = mu[3] + 1e-12
        rep = kkt_verify(prob, OptSolution(tuple(x), tuple(mu), sol.case_tag))
        assert not rep.passed, rep
        assert "stationarity" in rep.failed and not {"primal", "dual"} & set(rep.failed)

    def test_float_fraction_and_int_inputs_lift_exactly(self):
        # case 1 of 64 x 8 x 4 at P = 4 has dyadic values, exact as floats
        prob = OptProblem(64, 8, 4, 4)
        sol = analytic_solution(prob)
        assert sol.x == (32, 64, 128) and sol.mu == (Fraction(1, 8192), 0, 0.5, 0.75)
        as_floats = OptSolution(tuple(map(float, sol.x)), tuple(map(float, sol.mu)), 1)
        as_mixed = OptSolution((32, Fraction(64), 128.0), (2.0**-13, 0, Fraction(1, 2), 0.75), 1)
        for s in (as_floats, as_mixed):
            rep = kkt_verify(prob, s)
            assert rep.passed, rep
            assert (rep.root, rep.failed) == (RATIONAL, [])


def in_range(prob, case) -> bool:
    """P inside the closed range of the case: [1, m/n], [m/n, mn/k^2] or
    [mn/k^2, oo), decided in integers."""
    m, n, k, P = prob.m, prob.n, prob.k, prob.P
    return {
        1: P * n <= m,
        2: m <= P * n and P * k * k <= m * n,
        3: m * n <= P * k * k,
    }[case]


@settings(deadline=None, max_examples=300)
@given(st.tuples(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 3000)),
       st.integers(1, 10**7), st.sampled_from(["any", "m/n", "mn/k^2"]), st.integers(-1, 1))
def test_every_case_passes_exactly_inside_its_range(dims, procs, near, offset):
    # outside its range a case's point is infeasible or its multipliers go
    # negative; the exact verdict must say so however close P is to the edge,
    # so half the draws put P on a regime boundary or next to it
    m, n, k = sorted(dims, reverse=True)
    if near != "any":
        procs = max(1, (m // n if near == "m/n" else m * n // (k * k)) + offset)
    prob = OptProblem(m, n, k, procs)
    for case in (1, 2, 3):
        sol = analytic_solution_for_case(prob, case)
        assert kkt_verify(prob, sol).passed == in_range(prob, case), case


def full_scan_oracle(prob, budget):
    """Best objective over a feasible sample grid; never below the optimum.

    Samples (x1, x2) log-uniformly over [nk/P, nk] x [mk/P, mk] (a box that
    contains the minimizer in every case) and sets x3 to the binding choice
    max(mn/P, (mnk/P)^2/(x1 x2)), so every sampled point is feasible up to
    float rounding.  Roughly 80% of the budget goes to the initial grid and
    the rest to three zoom refinements around the incumbent.  A float
    cross-check of the exact certificate, kept only in the tests.
    """
    lo1, lo2, lo3 = (float(v) for v in prob.lower_corners)
    hi1 = float(prob.n * prob.k)
    hi2 = float(prob.m * prob.k)
    floor_prod = float(prob.product_bound)

    def grid_best(a1, b1, a2, b2, side):
        x1 = np.geomspace(a1, b1, side)
        x2 = np.geomspace(a2, b2, side)
        x3 = np.maximum(lo3, floor_prod / np.outer(x1, x2))
        f = x1[:, None] + x2[None, :] + x3
        flat = int(np.argmin(f))
        i, j = divmod(flat, side)
        return float(f[i, j]), x1, x2, i, j

    side = max(8, int((budget * 0.8) ** 0.5))
    refine_side = max(8, int((budget * 0.2 / 3) ** 0.5))
    best, x1g, x2g, i, j = grid_best(lo1, hi1, lo2, hi2, side)
    for _ in range(3):
        a1, b1 = x1g[max(i - 1, 0)], x1g[min(i + 1, len(x1g) - 1)]
        a2, b2 = x2g[max(j - 1, 0)], x2g[min(j + 1, len(x2g) - 1)]
        val, x1g, x2g, i, j = grid_best(a1, b1, a2, b2, refine_side)
        best = min(best, val)
    return best


class TestOracle:
    """The float sampling oracle, now only the tests' cross-check."""

    def test_never_below_analytic(self):
        for prob in random_problems(60, seed=12, hi=300, phi=600):
            opt = float(objective(analytic_solution(prob).x))
            val = full_scan_oracle(prob, budget=20_000)
            assert val >= opt * (1 - 1e-9)

    def test_tight_on_examples(self):
        prob = OptProblem(4, 4, 4, 2)
        val = full_scan_oracle(prob, budget=100_000)
        expect = 3 * 32 ** (2.0 / 3.0)
        assert val >= expect * (1 - 1e-9)
        assert val <= expect * 1.001  # the optimum is interior but reachable

    def test_single_processor_exact_corner(self):
        # P = 1: the lower-corner point is optimal and on the grid
        prob = OptProblem(96, 24, 6, 1)
        val = full_scan_oracle(prob, budget=5_000)
        expect = float(96 * 24 + 24 * 6 + 96 * 6)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_case_1_corner_on_grid(self):
        prob = OptProblem(*RUNNING, 3)
        val = full_scan_oracle(prob, budget=50_000)
        opt = float(objective(analytic_solution(prob).x))
        assert val == pytest.approx(opt, rel=1e-12)


positive = st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9))
triples = st.tuples(positive, positive, positive)


def ordered_by_product(x, y):
    return (x, y) if math.prod(x) <= math.prod(y) else (y, x)


def equal_product(x, a, b):
    return x, (x[0] * a, x[1] * b, x[2] / (a * b))


@given(st.one_of(
    st.builds(ordered_by_product, triples, triples),
    st.builds(equal_product, triples, positive, positive),
))
def test_product_constraint_is_quasiconvex(pair):
    # kkt.py's docstring: prod(y) >= prod(x) implies sum y_i/x_i >= 3, i.e.
    # the derivative of g0 = (mnk/P)^2 - x1x2x3 at x toward y is <= 0; exact,
    # no tolerance, and tight at y = x
    x, y = pair
    assert math.prod(y) >= math.prod(x)
    assert sum(b / a for a, b in zip(x, y)) >= 3
