"""KKT certificates, the sampling oracle, and the quasiconvexity check."""

from fractions import Fraction

import numpy as np
import pytest

from commbounds.bounds import ProblemShape, d_case
from commbounds.exact import values_agree
from commbounds.kkt import (
    OptProblem,
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
    numeric_minimize_oracle,
    objective,
    quasiconvexity_check,
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
        # the optimizer's value and the bound formula must agree bit for bit
        rng = np.random.default_rng(8)
        for prob in random_problems(300, seed=9):
            sol = analytic_solution(prob)
            d = d_case(sol.case_tag, prob.m, prob.n, prob.k, prob.P)
            assert objective(sol.x) == d

    def test_multiplier_nonnegativity_in_range(self):
        for prob in random_problems(300, seed=10):
            sol = analytic_solution(prob)
            for mu in sol.mu:
                assert float(mu) >= -1e-15


class TestKKTVerify:
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 5, 36, 63, 64, 65, 512, 9999])
    def test_running_example_all_cases(self, procs):
        prob = OptProblem(*RUNNING, procs)
        rep = kkt_verify(prob, analytic_solution(prob))
        assert rep.passed, rep.residuals

    def test_random_sweep(self):
        for prob in random_problems(400, seed=11):
            rep = kkt_verify(prob, analytic_solution(prob))
            assert rep.passed, (prob, rep.residuals)

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
            for va, vb in zip(sa.x, sb.x):
                assert values_agree(va, vb), (m, n, k, procs, sa.x, sb.x)
            for va, vb in zip(sa.mu, sb.mu):
                assert values_agree(va, vb), (m, n, k, procs, sa.mu, sb.mu)
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


def full_scan_oracle(prob, budget):
    """The sampling oracle with every grid point evaluated; the pruned
    numeric_minimize_oracle must return exactly its value."""
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
    def test_never_below_analytic(self):
        for prob in random_problems(60, seed=12, hi=300, phi=600):
            opt = float(objective(analytic_solution(prob).x))
            val = numeric_minimize_oracle(prob, budget=20_000)
            assert val >= opt * (1 - 1e-9)

    def test_tight_on_examples(self):
        prob = OptProblem(4, 4, 4, 2)
        val = numeric_minimize_oracle(prob, budget=100_000)
        expect = 3 * 32 ** (2.0 / 3.0)
        assert val >= expect * (1 - 1e-9)
        assert val <= expect * 1.001  # the optimum is interior but reachable

    def test_single_processor_exact_corner(self):
        # P = 1: the lower-corner point is optimal and on the grid
        prob = OptProblem(96, 24, 6, 1)
        val = numeric_minimize_oracle(prob, budget=5_000)
        expect = float(96 * 24 + 24 * 6 + 96 * 6)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_case_1_corner_on_grid(self):
        prob = OptProblem(*RUNNING, 3)
        val = numeric_minimize_oracle(prob, budget=50_000)
        opt = float(objective(analytic_solution(prob).x))
        assert val == pytest.approx(opt, rel=1e-12)

    @pytest.mark.parametrize("budget", [5_000, 20_000, 50_000, 100_000, 250_000])
    def test_equals_full_scan_on_examples(self, budget):
        # budgets below 20_480 keep the full scan; the others prune
        probs = [OptProblem(4, 4, 4, 2), OptProblem(96, 24, 6, 1)]
        probs += [OptProblem(*RUNNING, p) for p in (1, 3, 4, 36, 64, 512, 9999)]
        probs += list(random_problems(60, seed=12, hi=300, phi=600))
        for prob in probs:
            assert numeric_minimize_oracle(prob, budget) == full_scan_oracle(
                prob, budget
            ), (prob, budget)

    def test_equals_full_scan_when_the_product_floor_underflows(self):
        # (mnk/P)^2 rounds to 0 and 0/0 puts NaNs in the grid: both scans
        # must still return the same value, NaN here
        prob = OptProblem(2, 2, 2, 10**165)
        with np.errstate(all="ignore"):
            got = numeric_minimize_oracle(prob, 100_000)
            want = full_scan_oracle(prob, 100_000)
        assert np.isnan(got) and np.isnan(want)

    def test_equals_full_scan_on_c4_tuples(self):
        from test_acceptance import _c4_tuples

        tuples = _c4_tuples(seed=100)
        assert len(tuples) >= 1000
        for m, n, k, P in tuples:
            prob = OptProblem(m, n, k, P)
            assert numeric_minimize_oracle(prob, 100_000) == full_scan_oracle(
                prob, 100_000
            ), (m, n, k, P)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            numeric_minimize_oracle(OptProblem(4, 4, 4, 2), budget=999)


class TestQuasiconvexity:
    def test_no_violations(self):
        rep = quasiconvexity_check(50_000, seed=13)
        assert rep.passed
        assert rep.checked == 50_000
        assert 0 < rep.applicable < rep.checked
        assert rep.counterexample is None

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            quasiconvexity_check(0)
