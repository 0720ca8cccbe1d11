"""The accessed-data optimization problem and its KKT certificate.

The bound's D term is the optimum of

    minimize  x1 + x2 + x3
    s.t.      (mnk/P)^2 <= x1 x2 x3
              nk/P <= x1,  mk/P <= x2,  mn/P <= x3

for m >= n >= k >= 1 and P >= 1, where x_i counts the elements of A, B, C a
processor accesses.  analytic_solution returns the closed-form minimizer and
dual vector for each of the three cases; kkt_verify checks primal and dual
feasibility, stationarity, and complementary slackness at any proposed
solution; numeric_minimize_oracle searches the feasible region directly so
optimality never rests on the closed forms alone.  The oracle's coarse grid is
searched by exact branch and bound: the objective evaluated on a block's least
coordinates in the sum and its greatest in the product is a floor under every
element of the block, because round-to-nearest is monotone in each operand;
blocks whose floor exceeds a value the grid attains are never evaluated, and
the result equals the full scan bit for bit.  The objective is linear
and the product constraint is quasiconvex on the positive octant (spot-checked
by quasiconvexity_check), which is what makes a KKT point globally optimal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import case_of
from .exact import Value, pow23, root_value, sqrt_value

_BLOCK = 16  # side of the index blocks the oracle's coarse grid is pruned by


@dataclass(frozen=True)
class OptProblem:
    """Sorted dims plus processor count; callers pre-sort (m >= n >= k)."""

    m: int
    n: int
    k: int
    P: int

    def __post_init__(self):
        if not (self.m >= self.n >= self.k >= 1):
            raise ValueError(f"need m >= n >= k >= 1, got ({self.m}, {self.n}, {self.k})")
        if self.P < 1:
            raise ValueError(f"need P >= 1, got {self.P}")

    @property
    def product_bound(self) -> Fraction:
        """(mnk/P)^2, the Loomis-Whitney floor on x1 x2 x3."""
        return Fraction(self.m * self.n * self.k, self.P) ** 2

    @property
    def lower_corners(self) -> tuple[Fraction, Fraction, Fraction]:
        """Per-variable floors (nk/P, mk/P, mn/P)."""
        return (
            Fraction(self.n * self.k, self.P),
            Fraction(self.m * self.k, self.P),
            Fraction(self.m * self.n, self.P),
        )

    def g(self, x) -> tuple[Value, Value, Value, Value]:
        """Constraint values, feasible iff every component <= 0."""
        x1, x2, x3 = x
        lo = self.lower_corners
        return (
            self.product_bound - x1 * x2 * x3,
            lo[0] - x1,
            lo[1] - x2,
            lo[2] - x3,
        )


@dataclass(frozen=True)
class OptSolution:
    x: tuple[Value, Value, Value]
    mu: tuple[Value, Value, Value, Value]
    case_tag: int


def objective(x) -> Value:
    return x[0] + x[1] + x[2]


def analytic_solution_for_case(prob: OptProblem, case: int) -> OptSolution:
    """Closed-form (x*, mu*) of one case, whether or not P is in its range.

    Evaluating a case outside its range is deliberate: dual feasibility is
    exactly what fails there, and tests rely on seeing it fail.
    """
    m, n, k, P = prob.m, prob.n, prob.k, prob.P
    if case == 1:
        x = (Fraction(n * k), Fraction(m * k, P), Fraction(m * n, P))
        mu = (
            Fraction(P * P, m * m * n * k),
            Fraction(0),
            Fraction(m - P * n, m),
            Fraction(m - P * k, m),
        )
    elif case == 2:
        s = sqrt_value(Fraction(m * n * k * k, P))
        x = (s, s, Fraction(m * n, P))
        mu = (
            sqrt_value(Fraction(P ** 3, (m * n) ** 3 * k * k)),
            Fraction(0),
            Fraction(0),
            1 - sqrt_value(Fraction(P * k * k, m * n)),
        )
    elif case == 3:
        # same helper and argument as the bound formula so the floats match
        t = pow23(Fraction(m * n * k, P))
        x = (t, t, t)
        mu = (
            root_value(Fraction(P ** 4, (m * n * k) ** 4), 3),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )
    else:
        raise ValueError(f"case must be 1, 2, or 3, got {case}")
    return OptSolution(x=x, mu=mu, case_tag=case)


def analytic_solution(prob: OptProblem) -> OptSolution:
    case, _ = case_of(prob.m, prob.n, prob.k, prob.P)
    return analytic_solution_for_case(prob, case)


@dataclass(frozen=True)
class KKTReport:
    primal_feasible: bool
    dual_feasible: bool
    stationary: bool
    complementary: bool
    residuals: dict

    @property
    def passed(self) -> bool:
        return (
            self.primal_feasible
            and self.dual_feasible
            and self.stationary
            and self.complementary
        )


def kkt_verify(
    prob: OptProblem, sol: OptSolution, tol: float = 1e-9, feas_tol: float = 1e-12
) -> KKTReport:
    """Check the four KKT conditions at sol.

    tol bounds the stationarity, complementary-slackness, and dual-sign
    residuals; primal feasibility uses the tighter feas_tol scaled by each
    constraint's magnitude, since the closed forms satisfy it exactly up to
    float roots.  Stationarity residual is ||grad f + mu . J_g|| / ||grad f||
    with grad f = (1,1,1) and J_g rows (-x2x3, -x1x3, -x1x2) then the negated
    identity.
    """
    x = tuple(sol.x)
    mu = tuple(sol.mu)

    # Primal feasibility: g(x) <= 0, slack relative to the constraint bound.
    gvals = prob.g(x)
    scales = (prob.product_bound,) + prob.lower_corners
    primal_res = 0.0
    for gv, sc in zip(gvals, scales):
        primal_res = max(primal_res, float(gv) / max(1.0, float(sc)))
    primal_ok = primal_res <= feas_tol

    # Dual feasibility: mu >= 0 up to sign noise from float roots.
    dual_res = max(0.0, *(-float(v) for v in mu))
    dual_ok = dual_res <= tol

    # Stationarity: 1 - mu1 * (x1x2x3 / x_j) - mu_{j+1} = 0 for each j.
    prod = x[0] * x[1] * x[2]
    r = [1 - mu[0] * (prod / x[j]) - mu[j + 1] for j in range(3)]
    stat_res = math.sqrt(sum(float(v) ** 2 for v in r)) / math.sqrt(3.0)
    stat_ok = stat_res <= tol

    # Complementary slackness: mu_i g_i = 0, relative to |mu_i| * scale_i.
    comp_res = 0.0
    for mv, gv, sc in zip(mu, gvals, scales):
        comp_res = max(
            comp_res, abs(float(mv * gv)) / max(1.0, abs(float(mv)) * float(sc))
        )
    comp_ok = comp_res <= tol

    return KKTReport(
        primal_feasible=primal_ok,
        dual_feasible=dual_ok,
        stationary=stat_ok,
        complementary=comp_ok,
        residuals={
            "primal": primal_res,
            "dual": dual_res,
            "stationarity": stat_res,
            "complementary": comp_res,
        },
    )


def numeric_minimize_oracle(prob: OptProblem, budget: int = 100_000) -> float:
    """Best objective over a feasible sample grid; never below the optimum.

    Samples (x1, x2) log-uniformly over [nk/P, nk] x [mk/P, mk] (a box that
    contains the minimizer in every case) and sets x3 to the binding choice
    max(mn/P, (mnk/P)^2/(x1 x2)), so every sampled point is feasible by
    construction and the returned value is a certified upper bound on the
    optimum.  Roughly 80% of the budget goes to the initial grid and the rest
    to three zoom refinements around the incumbent.

    A coarse grid of side >= 8 * _BLOCK, with (mnk/P)^2 not rounded to 0, is
    searched by branch and bound over _BLOCK x _BLOCK blocks of indices; the
    last block repeats the last index.  A block's floor is the objective's
    expression (x1 + x2) + max(mn/P, (mnk/P)^2 / (x1 x2)) evaluated on the
    block's least x1 and x2 in the sum and its greatest x1 and x2 in the
    product.
    Rounding to nearest is monotone in each operand, so every element of the
    block, evaluated with the same operations in the same order, rounds to at
    least that floor.  The block of least floor is evaluated in full; its
    minimum is attained on the grid, so any block whose floor exceeds it holds
    no minimizer and is skipped.  The value and the first row-major minimizer
    are therefore bit-for-bit those of the full scan, and so is every
    refinement that follows.
    """
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000, got {budget}")
    lo1, lo2, lo3 = (float(v) for v in prob.lower_corners)
    hi1 = float(prob.n * prob.k)
    hi2 = float(prob.m * prob.k)
    floor_prod = float(prob.product_bound)

    def cost(s1, s2, p1, p2):
        # the objective at (x1, x2) when s = p = (x1, x2); a block's floor
        # when s holds its least coordinates and p its greatest
        return (s1 + s2) + np.maximum(lo3, floor_prod / (p1 * p2))

    def values(x1, x2):
        return cost(x1, x2, x1, x2)

    def pruned_argmin(x1, x2):
        side = len(x1)
        nb = -(-side // _BLOCK)
        idx = np.minimum(np.arange(nb * _BLOCK), side - 1).reshape(nb, _BLOCK)
        b1, b2 = x1[idx], x2[idx]
        floors = cost(b1.min(1)[:, None], b2.min(1)[None, :],
                      b1.max(1)[:, None], b2.max(1)[None, :])
        r, c = divmod(int(np.argmin(floors)), nb)
        upper = values(b1[r][:, None], b2[c][None, :]).min()
        rows, cols = np.nonzero(floors <= upper)
        ii, jj = idx[rows][:, :, None], idx[cols][:, None, :]
        f = values(x1[ii], x2[jj])
        best = f.min()
        return best, int(np.where(f == best, ii * side + jj, side * side).min())

    def grid_best(a1, b1, a2, b2, side):
        x1 = np.geomspace(a1, b1, side)
        x2 = np.geomspace(a2, b2, side)
        # floor_prod underflows to 0 only when P exceeds mnk by ~1e162; then
        # 0/0 can put a NaN in the grid, which np.argmin returns and no floor
        # bounds, so that grid keeps the full scan
        if side >= 8 * _BLOCK and floor_prod > 0:
            best, flat = pruned_argmin(x1, x2)
        else:
            f = values(x1[:, None], x2[None, :])
            flat = int(np.argmin(f))
            best = f.flat[flat]
        i, j = divmod(flat, side)
        return float(best), x1, x2, i, j

    side = max(8, int((budget * 0.8) ** 0.5))
    refine_side = max(8, int((budget * 0.2 / 3) ** 0.5))

    best, x1g, x2g, i, j = grid_best(lo1, hi1, lo2, hi2, side)
    for _ in range(3):
        a1, b1 = x1g[max(i - 1, 0)], x1g[min(i + 1, len(x1g) - 1)]
        a2, b2 = x2g[max(j - 1, 0)], x2g[min(j + 1, len(x2g) - 1)]
        val, x1g, x2g, i, j = grid_best(a1, b1, a2, b2, refine_side)
        best = min(best, val)
    return best


@dataclass(frozen=True)
class QuasiconvexityReport:
    checked: int
    applicable: int
    violations: int
    worst_inner: float
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


@functools.lru_cache(maxsize=None)
def quasiconvexity_check(
    count: int, seed: int = 0, tol: float = 1e-9
) -> QuasiconvexityReport:
    """Random-pair spot check of quasiconvexity of the product constraint.

    For each pair with prod(y) >= prod(x), the directional derivative of
    g0 = L - x1x2x3 at x toward y must be <= 0.  Pairs are drawn
    log-uniformly over [1e-3, 1e3]^3; the check is scale free, so the sublevel
    threshold never enters.  The report depends on the arguments alone, so each
    argument set is computed once per process and the report is shared.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    X = 10.0 ** rng.uniform(-3, 3, size=(count, 3))
    Y = 10.0 ** rng.uniform(-3, 3, size=(count, 3))
    px = X.prod(axis=1)
    py = Y.prod(axis=1)
    inner = 3 * px - (
        Y[:, 0] * X[:, 1] * X[:, 2]
        + X[:, 0] * Y[:, 1] * X[:, 2]
        + X[:, 0] * X[:, 1] * Y[:, 2]
    )
    mask = py >= px
    slack = tol * np.maximum(1.0, 3 * px)
    bad = mask & (inner > slack)
    n_bad = int(bad.sum())
    worst = float(inner[mask].max()) if mask.any() else 0.0
    example = None
    if n_bad:
        idx = int(np.argmax(np.where(bad, inner, -np.inf)))
        example = (tuple(X[idx]), tuple(Y[idx]), float(inner[idx]))
    return QuasiconvexityReport(
        checked=count,
        applicable=int(mask.sum()),
        violations=n_bad,
        worst_inner=worst,
        counterexample=example,
    )
