"""The accessed-data optimization problem and its KKT certificate.

The bound's D term is the optimum of

    minimize  x1 + x2 + x3
    s.t.      (mnk/P)^2 <= x1 x2 x3
              nk/P <= x1,  mk/P <= x2,  mn/P <= x3

for m >= n >= k >= 1 and P >= 1, where x_i counts the elements of A, B, C a
processor accesses.  analytic_solution returns the closed-form minimizer and
dual vector for each of the three cases, exactly, as elements of one field
Q(b) (exact.Radical, from bounds.case_field): b = 1 in case 1,
b = sqrt(mnk^2/P) in case 2 and b = ((mnk/P)^2)^(1/3) in case 3.

kkt_verify decides primal and dual feasibility, stationarity, and
complementary slackness at any proposed solution exactly, with no
tolerance, and in integers.  It writes x and mu once as integer coefficient
rows over 1, b, b^2 (exact.coefficient_rows), the rows `verify` prints.
Each condition, multiplied by a positive integer that clears its
denominators, is an integer row of Z[b] with b^d = rn/rd: a product of two
rows is taken as rd times it (exact.times), which keeps it integral, and a
sign comes from the closed forms of exact.coefficient_sign.  For instance
every case 3 stationarity residual is 1 - b^3/(mnk/P)^2 = 0.  A product
mu_i g_i is zero exactly when mu_i or g_i is, because a field has no zero
divisors: if mu_i != 0, multiplying mu_i g_i = 0 by 1/mu_i gives g_i = 0.

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

from .bounds import case_field, case_of
from .exact import RATIONAL, Radical, coefficient_rows, coefficient_sign, times


class OptProblem:
    """Sorted dims plus processor count; callers pre-sort (m >= n >= k)."""

    __slots__ = ("m", "n", "k", "P")

    def __init__(self, m: int, n: int, k: int, P: int):
        self.m, self.n, self.k, self.P = m, n, k, P
        if not (self.m >= self.n >= self.k >= 1):
            raise ValueError(f"need m >= n >= k >= 1, got ({self.m}, {self.n}, {self.k})")
        if self.P < 1:
            raise ValueError(f"need P >= 1, got {self.P}")


class OptSolution:
    __slots__ = ("x", "mu", "case_tag")

    def __init__(self, x: tuple, mu: tuple, case_tag: int):
        self.x, self.mu, self.case_tag = x, mu, case_tag


def analytic_solution_for_case(prob: OptProblem, case: int, b: Radical) -> OptSolution:
    """Closed-form (x*, mu*) of one case, whether or not P is in its range,
    in the field of b = case_field(case, m, n, k, P), the case's generator.

    Evaluating a case outside its range is deliberate: dual feasibility or
    primal feasibility is exactly what fails there, and tests rely on seeing
    it fail.
    """
    m, n, k, P = prob.m, prob.n, prob.k, prob.P

    def q(num: int, den: int = 1) -> Radical:
        """The rational num/den, den > 0, in b's field, unreduced."""
        return Radical((num, 0, 0)[:len(b.coeffs)], den, b.root)

    zero = q(0)
    if case == 1:
        x = (q(n * k), q(m * k, P), q(m * n, P))
        mu = (q(P * P, m * m * n * k), zero, q(m - P * n, m), q(m - P * k, m))
    elif case == 2:
        # x1 = x2 = b; mu1 = (P^3/((mn)^3 k^2))^(1/2) = b P^2/(mnk)^2 and
        # (Pk^2/(mn))^(1/2) = b P/(mn)
        x = (b, b, q(m * n, P))
        mu = (b * q(P * P, (m * n * k) ** 2), zero, zero, 1 - b * q(P, m * n))
    else:
        # x = (b, b, b); mu1 = (P/(mnk))^(4/3) = b / b^3
        x = (b, b, b)
        mu = (b * q(P * P, (m * n * k) ** 2), zero, zero, zero)
    return OptSolution(x=x, mu=mu, case_tag=case)


def analytic_solution(prob: OptProblem) -> OptSolution:
    case, _ = case_of(prob.m, prob.n, prob.k, prob.P)
    return analytic_solution_for_case(prob, case, case_field(case, prob.m, prob.n, prob.k, prob.P))


# the signs kkt_verify decides: 4 primal, 4 dual, 3 stationarity and 4
# complementary
CONDITIONS = 15


class KKTReport:
    """The four verdicts; root is the field the signs were decided in, as
    Radical.root, and x and mu are (den, coefficient rows), the rows decided
    on."""

    __slots__ = ("primal_feasible", "dual_feasible", "stationary", "complementary",
                 "root", "x", "mu")

    def __init__(self, primal_feasible: bool, dual_feasible: bool, stationary: bool,
                 complementary: bool, root: tuple, x: tuple, mu: tuple):
        self.primal_feasible, self.dual_feasible = primal_feasible, dual_feasible
        self.stationary, self.complementary = stationary, complementary
        self.root, self.x, self.mu = root, x, mu

    @property
    def failed(self) -> list[str]:
        """The groups of conditions that do not hold."""
        groups = (("primal", self.primal_feasible), ("dual", self.dual_feasible),
                  ("stationarity", self.stationary), ("complementary", self.complementary))
        return [name for name, ok in groups if not ok]

    @property
    def passed(self) -> bool:
        return not self.failed


def _affine(a: int, row: list, c: int) -> list:
    """a row - c, for integers a and c."""
    return [a * row[0] - c, *[a * v for v in row[1:]]]


def kkt_verify(prob: OptProblem, sol: OptSolution) -> KKTReport:
    """Decide the four KKT conditions at sol by exact signs, with sol lifted
    into the field of its Radical components (Q if none): g_i <= 0,
    mu_i >= 0, 1 - mu1 x1x2x3/x_j - mu_{j+1} = 0 (x1x2x3/x_j taken as the
    product of the other two), and mu_i g_i = 0: CONDITIONS in all.

    Each condition is decided on the integer coefficient rows of x (over
    one denominator dx) and of mu (over dm), multiplied by a positive
    integer that clears every denominator: a power of dx, dm and rd, with
    b^d = rn/rd, and P.  The scaled value is then an integer row of Z[b]
    whose sign exact.coefficient_sign decides.  mu_i g_i = 0 is decided as
    mu_i = 0 or g_i = 0: Q(b) is a field, so it has no zero divisors and a
    product is zero exactly when a factor is.
    """
    field = next((v for v in (*sol.x, *sol.mu) if isinstance(v, Radical)),
                 Radical((1,), 1, RATIONAL))
    root = field.root
    dx, x = coefficient_rows([field.lift(v) for v in sol.x])
    dm, mu = coefficient_rows([field.lift(v) for v in sol.mu])
    rd = root[1]
    m, n, k, P = prob.m, prob.n, prob.k, prob.P
    x1, x2, x3 = x
    # others[j] = rd x_{j+1} x_{j+2} dx^2, the product of the other two
    others = (times(x2, x3, root), times(x3, x1, root), times(x1, x2, root))
    # -g_i times P^2 rd^2 dx^3 (the product constraint) or P dx (the floors)
    slack = [_affine(P * P, times(others[2], x3, root), (m * n * k * rd) ** 2 * dx ** 3),
             _affine(P, x1, n * k * dx), _affine(P, x2, m * k * dx), _affine(P, x3, m * n * dx)]
    # mu1 x_{j+1} x_{j+2} + mu_{j+1} = 1, times rd^2 dx^2 dm
    scale = rd * rd * dx * dx
    one = [scale * dm] + [0] * (len(x1) - 1)
    return KKTReport(
        primal_feasible=all(coefficient_sign(row, root) >= 0 for row in slack),
        dual_feasible=all(coefficient_sign(row, root) >= 0 for row in mu),
        stationary=all([u + scale * v for u, v in zip(times(mu[0], o, root), mu[j + 1])] == one
                       for j, o in enumerate(others)),
        complementary=all(not any(mv) or not any(gv) for mv, gv in zip(mu, slack)),
        root=root,
        x=(dx, x),
        mu=(dm, mu),
    )
