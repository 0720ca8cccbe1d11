"""Exact KKT certificates, the float sampling oracle that cross-checks them,
and the inequality behind global optimality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from check_certificate import check

from commbounds.bounds import case_field, d_case
from commbounds.exact import RATIONAL, Radical, coefficient_rows
from commbounds.kkt import (
    OptProblem,
    OptSolution,
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
)
from test_exact import to_float

RUNNING = (9600, 2400, 600)


def accessed(case, m, n, k, procs):
    """d_case in the case's own field."""
    return d_case(case, m, n, k, procs, case_field(case, m, n, k, procs))


def solution_for(prob, case):
    """analytic_solution_for_case in the case's own field."""
    return analytic_solution_for_case(prob, case, case_field(case, prob.m, prob.n, prob.k, prob.P))


def random_problems(count, seed, hi=2000, phi=4000):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n, k = sorted((int(v) for v in rng.integers(1, hi, size=3)), reverse=True)
        yield OptProblem(m, n, k, int(rng.integers(1, phi)))


def floors(prob):
    """(nk/P, mk/P, mn/P), the per-variable floors of x."""
    m, n, k, P = prob.m, prob.n, prob.k, prob.P
    return Fraction(n * k, P), Fraction(m * k, P), Fraction(m * n, P)


class TestProblem:
    # 4 x 4 x 4 on P = 2: x1 x2 x3 >= (mnk/P)^2 = 1024 and every x_i >= 8
    PROB = OptProblem(4, 4, 4, 2)

    def report(self, x, mu=(1, 0, 1, 1)):
        return kkt_verify(self.PROB, OptSolution(tuple(map(Fraction, x)), mu, 3))

    def test_constraint_values(self):
        # at (16, 8, 8) g = (1024 - x1x2x3, 8 - x1, 8 - x2, 8 - x3) = (0, -8, 0, 0)
        assert self.report((16, 8, 8)).primal_feasible
        assert self.report((16, 8, 8)).complementary
        # a multiplier on the slack floor, g_1 = -8, breaks complementary
        # slackness; no multipliers at all keep it
        assert not self.report((16, 8, 8), (1, 1, 0, 0)).complementary
        assert self.report((16, 8, 8), (0, 0, 0, 0)).complementary

    @pytest.mark.parametrize("x", [(8, 8, 15), (Fraction(15, 2), 64, 64),
                                   (64, Fraction(15, 2), 64), (64, 64, Fraction(15, 2))],
                             ids=["product", "x1-floor", "x2-floor", "x3-floor"])
    def test_each_constraint_alone_decides_primal(self, x):
        # one g_i is positive and the other three are not
        rep = self.report(x)
        assert (rep.primal_feasible, rep.dual_feasible) == (False, True)

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
        assert sol.x[1:] == floors(prob)[1:]

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
            d = accessed(sol.case_tag, prob.m, prob.n, prob.k, prob.P)
            assert sum(sol.x) == d

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
            sa = solution_for(prob, ca)
            sb = solution_for(prob, cb)
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
            x=(floors(prob)[0] / 2, sol.x[1], sol.x[2]),
            mu=sol.mu,
            case_tag=sol.case_tag,
        )
        rep = kkt_verify(prob, bad)
        assert not rep.primal_feasible

    def test_out_of_range_case_fails_dual(self):
        # the case 1 multipliers go negative once P > m/n
        prob = OptProblem(*RUNNING, 36)
        sol = solution_for(prob, 1)
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
        as_floats = OptSolution(tuple(map(to_float, sol.x)), tuple(map(to_float, sol.mu)), 1)
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
        sol = solution_for(prob, case)
        assert kkt_verify(prob, sol).passed == in_range(prob, case), case


def oracle_failed(prob, sol) -> list[str]:
    """The failed groups of the 15 conditions at sol, from the stdlib
    checker's Fraction arithmetic: sol as a certificate, with D taken as
    x1 + x2 + x3 so only the KKT groups can fail."""
    field = next((v for v in (*sol.x, *sol.mu) if isinstance(v, Radical)),
                 Radical((1,), 1, RATIONAL))
    rn, rd, d = field.root

    def rows(values):
        values = [field.lift(v) for v in values]
        den = math.lcm(*(v.den for v in values))
        return {"den": den, "coefficients": [[c * (den // v.den) for c in v.coeffs]
                                             for v in values]}

    doc = {"shape": [prob.m, prob.n, prob.k], "procs": prob.P,
           "certificate": {"radicand": {"num": rn, "den": rd}, "root": d,
                           "x": rows(sol.x), "mu": rows(sol.mu), "d": rows([sum(sol.x)])}}
    return check(doc)


def moved(sol, part: str, i: int, j: int, step: int) -> OptSolution:
    """sol with coefficient j of the i-th x or mu value moved by step over
    that group's denominator in the certificate: its printed coefficient
    moves by step."""
    values = list(getattr(sol, part))
    field = next(v for v in values if isinstance(v, Radical))
    den, _ = coefficient_rows([field.lift(v) for v in values])
    root = field.root
    unit = Radical(tuple(step if t == j else 0 for t in range(root[2])), den, root)
    values[i] = field.lift(values[i]) + unit
    x, mu = (tuple(values), sol.mu) if part == "x" else (sol.x, tuple(values))
    return OptSolution(x, mu, sol.case_tag)


@settings(deadline=None, max_examples=300)
@given(st.tuples(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 3000)),
       st.integers(1, 10**7), st.sampled_from(["any", "m/n", "mn/k^2"]), st.integers(-1, 1),
       st.one_of(st.none(), st.tuples(st.sampled_from(["x", "mu"]), st.integers(0, 3),
                                      st.integers(0, 2), st.sampled_from([-1, 1]))))
def test_integer_decisions_match_a_fraction_oracle(dims, procs, near, offset, move):
    # every case's solution, in its range or not, and with one printed
    # coefficient moved by one, so that every group fails somewhere
    m, n, k = sorted(dims, reverse=True)
    if near != "any":
        procs = max(1, (m // n if near == "m/n" else m * n // (k * k)) + offset)
    prob = OptProblem(m, n, k, procs)
    for case in (1, 2, 3):
        sol = solution_for(prob, case)
        if move is not None:
            part, i, j, step = move
            root = sol.x[0].root
            sol = moved(sol, part, i % (3 if part == "x" else 4), j % root[2], step)
        assert kkt_verify(prob, sol).failed == oracle_failed(prob, sol), (case, move)


def full_scan_oracle(prob, budget):
    """Best objective over a feasible sample grid; never below the optimum.

    Samples (x1, x2) log-uniformly over [nk/P, nk] x [mk/P, mk] (a box that
    contains the minimizer in every case) and sets x3 to the binding choice
    max(mn/P, (mnk/P)^2/(x1 x2)), so every sampled point is feasible up to
    float rounding.  Roughly 80% of the budget goes to the initial grid and
    the rest to three zoom refinements around the incumbent.  A float
    cross-check of the exact certificate, kept only in the tests.
    """
    lo1, lo2, lo3 = (float(v) for v in floors(prob))
    hi1 = float(prob.n * prob.k)
    hi2 = float(prob.m * prob.k)
    floor_prod = float(Fraction(prob.m * prob.n * prob.k, prob.P) ** 2)

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
            opt = to_float(sum(analytic_solution(prob).x))
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
        opt = to_float(sum(analytic_solution(prob).x))
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
