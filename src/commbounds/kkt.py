"""The accessed-data optimization problem and its KKT certificate.

The bound's D term is the optimum of

    minimize  x1 + x2 + x3
    s.t.      (mnk/P)^2 <= x1 x2 x3
              nk/P <= x1,  mk/P <= x2,  mn/P <= x3

for m >= n >= k >= 1 and P >= 1, where x_i counts the elements of A, B, C a
processor accesses.  analytic_solution returns the closed-form minimizer and
dual vector for each of the three cases, exactly, as elements of one field
Q(b) (exact.Radical, from bounds.case_field): b = 1 in case 1, b = sqrt(mnk^2/P) in case 2 and
b = ((mnk/P)^2)^(1/3) in case 3.  kkt_verify decides primal and dual
feasibility, stationarity, and complementary slackness at any proposed
solution by exact signs in that field, with no tolerance; for instance every
case 3 stationarity residual is 1 - b^3/(mnk/P)^2 = 0.

Why a KKT point is the global minimum (the geometric-programming argument,
Boyd & Vandenberghe, Convex Optimization, 2004, section 4.5).  Put
y_i = log x_i.  The product constraint becomes y1 + y2 + y3 >= 2 log(mnk/P)
and the floors y1 >= log(nk/P), y2 >= log(mk/P), y3 >= log(mn/P): half-spaces,
so the feasible set is convex, and the objective e^y1 + e^y2 + e^y3 is
strictly convex.  Multiplying the j-th stationarity equation
1 - mu1 x1x2x3/x_j - mu_{j+1} = 0 by x_j gives the stationarity of the problem
in y, with multipliers mu1 x1x2x3 and mu_{j+1} x_j; they keep their signs, and
the same constraints are active.  So a KKT point in x is a KKT point of a
convex problem in y, hence its unique global minimum.

In the original variables the same fact is the quasiconvexity of the product
constraint.  For positive x and y with prod(y) >= prod(x), AM-GM gives

    y1/x1 + y2/x2 + y3/x3 >= 3 (prod(y) / prod(x))^(1/3) >= 3,

and prod(x) (3 - sum y_i/x_i) is the derivative of g0 = (mnk/P)^2 - x1x2x3
at x in the direction y - x.  So that derivative is <= 0 whenever
g0(y) <= g0(x), the first-order condition for g0 to be quasiconvex on the
positive octant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import case_field, case_of
from .exact import RATIONAL, Radical


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

    def g(self, x) -> tuple:
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
    x: tuple
    mu: tuple
    case_tag: int


def objective(x):
    return x[0] + x[1] + x[2]


def analytic_solution_for_case(prob: OptProblem, case: int) -> OptSolution:
    """Closed-form (x*, mu*) of one case, whether or not P is in its range.

    Evaluating a case outside its range is deliberate: dual feasibility or
    primal feasibility is exactly what fails there, and tests rely on seeing
    it fail.
    """
    m, n, k, P = prob.m, prob.n, prob.k, prob.P
    b = case_field(case, m, n, k, P)
    zero = b.lift(0)
    if case == 1:
        x = tuple(map(b.lift, (n * k, Fraction(m * k, P), Fraction(m * n, P))))
        mu = tuple(map(b.lift, (Fraction(P * P, m * m * n * k), 0,
                                Fraction(m - P * n, m), Fraction(m - P * k, m))))
    elif case == 2:
        # x1 = x2 = b; mu1 = (P^3/((mn)^3 k^2))^(1/2) = b P^2/(mnk)^2 and
        # (Pk^2/(mn))^(1/2) = b P/(mn)
        x = (b, b, b.lift(Fraction(m * n, P)))
        mu = (b * Fraction(P * P, (m * n * k) ** 2), zero, zero, 1 - b * Fraction(P, m * n))
    else:
        # x = (b, b, b); mu1 = (P/(mnk))^(4/3) = b / b^3
        x = (b, b, b)
        mu = (b * Fraction(P * P, (m * n * k) ** 2), zero, zero, zero)
    return OptSolution(x=x, mu=mu, case_tag=case)


def analytic_solution(prob: OptProblem) -> OptSolution:
    case, _ = case_of(prob.m, prob.n, prob.k, prob.P)
    return analytic_solution_for_case(prob, case)


# the signs kkt_verify decides: 4 primal, 4 dual, 3 stationarity and 4
# complementary
CONDITIONS = 15


@dataclass(frozen=True)
class KKTReport:
    primal_feasible: bool
    dual_feasible: bool
    stationary: bool
    complementary: bool
    root: tuple              # the field the signs were decided in, as Radical.root

    @property
    def failed(self) -> list[str]:
        """The groups of conditions that do not hold."""
        groups = (("primal", self.primal_feasible), ("dual", self.dual_feasible),
                  ("stationarity", self.stationary), ("complementary", self.complementary))
        return [name for name, ok in groups if not ok]

    @property
    def passed(self) -> bool:
        return not self.failed


def kkt_verify(prob: OptProblem, sol: OptSolution) -> KKTReport:
    """Decide the four KKT conditions at sol by exact signs, with sol lifted
    into the field of its Radical components (Q if none): g_i <= 0,
    mu_i >= 0, 1 - mu1 x1x2x3/x_j - mu_{j+1} = 0 (x1x2x3/x_j taken as the
    product of the other two), and mu_i g_i = 0: CONDITIONS in all.
    """
    field = next((v for v in (*sol.x, *sol.mu) if isinstance(v, Radical)),
                 Radical((1,), 1, RATIONAL))
    x = tuple(map(field.lift, sol.x))
    mu = tuple(map(field.lift, sol.mu))
    gvals = prob.g(x)
    stat = [1 - mu[0] * (x[(j + 1) % 3] * x[(j + 2) % 3]) - mu[j + 1] for j in range(3)]
    comp = [mv * gv for mv, gv in zip(mu, gvals)]
    return KKTReport(
        primal_feasible=max(gv.sign() for gv in gvals) <= 0,
        dual_feasible=min(mv.sign() for mv in mu) >= 0,
        stationary=not any(stat),
        complementary=not any(comp),
        root=field.root,
    )
