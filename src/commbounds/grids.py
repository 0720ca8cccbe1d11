"""Processor grids and the communication cost of the 3D algorithm.

A p1 x p2 x p3 grid (p1 p2 p3 = P, axes aligned to n1, n2, n3) gives each
processor an A block gathered over its size-p3 fiber, a B block gathered over
its size-p1 fiber, and a C contribution reduce-scattered over its size-p2
fiber, for a per-processor cost of

    (1 - 1/p3) n1n2/(p1p2) + (1 - 1/p1) n2n3/(p2p3) + (1 - 1/p2) n1n3/(p1p3)

words.  The grid minimizing this attains the lower bound whenever the analytic
minimizer is integral; exhaustive search over factor triples confirms the
analytic choice independently.  Times P = p1 p2 p3 the cost is the integer

    p1 n2n3 + p2 n1n3 + p3 n1n2 - (n1n2 + n2n3 + n1n3),

so each word count is a rational over P and grids for one P compare exactly by
p1 n2n3 + p2 n1n3 + p3 n1n2, however small the margin between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .bounds import BoundReport, ProblemShape, _check_procs, case_field, case_of, lower_bound
from .exact import Radical, cut

# A planner scan above this many factor triples is refused before it starts.
# plan ranks the 1,837,080 of 963761198400 in about 1.0 s on a 2-core VM
# with Python 3.11.7, so a scan at the cap takes about 2.5 s.
TRIPLE_CAP = 2**22


@dataclass(frozen=True)
class ProcessorGrid:
    """Factor triple aligned to (n1, n2, n3): p1 splits rows of A/C, p2 the
    contraction dimension, p3 columns of B/C."""

    p1: int
    p2: int
    p3: int

    def __post_init__(self):
        for p in self.dims:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"grid factors must be positive integers, got {self.dims}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)

    @property
    def size(self) -> int:
        return self.p1 * self.p2 * self.p3


@dataclass(frozen=True)
class CostBreakdown:
    words_a: Fraction   # A all-gather over the p3 fiber
    words_b: Fraction   # B all-gather over the p1 fiber
    words_c: Fraction   # C reduce-scatter over the p2 fiber
    total: Fraction


def comm_cost(shape: ProblemShape, grid: ProcessorGrid) -> CostBreakdown:
    """Exact per-processor word counts of the three collectives.

    Defined for any grid, dividing or not; the formula is what the planner
    optimizes, divisibility only matters to the simulator.
    """
    n1, n2, n3 = shape.dims
    p1, p2, p3 = grid.dims
    words_a = Fraction((p3 - 1) * n1 * n2, grid.size)
    words_b = Fraction((p1 - 1) * n2 * n3, grid.size)
    words_c = Fraction((p2 - 1) * n1 * n3, grid.size)
    return CostBreakdown(
        words_a=words_a,
        words_b=words_b,
        words_c=words_c,
        total=words_a + words_b + words_c,
    )


@dataclass(frozen=True)
class AnalyticGridResult:
    """Real-valued optimal factors, and the integral grid when they admit one.

    factors follow the shape's axis order (p1, p2, p3), exact in the case's
    field; non_integral_axes lists 1-based axes whose factor is fractional or
    irrational, in which case grid is None and exhaustive search is the
    fallback.
    """

    case: int
    factors: tuple[Radical, Radical, Radical]
    grid: Optional[ProcessorGrid]
    non_integral_axes: tuple[int, ...]


def analytic_grid(shape: ProblemShape, procs: int) -> AnalyticGridResult:
    """Cost-minimizing grid factors: case 1 puts everything on the longest
    dimension, case 2 matches m/p = n/q with r = 1, case 3 matches
    m/p = n/q = k/r.  Values are reported, never rounded."""
    _check_procs(procs)
    m, n, k = shape.sorted_dims
    case, _ = case_of(m, n, k, procs)
    b = case_field(case, m, n, k, procs)
    if case == 1:
        p, q, r = b * procs, b, b
    else:
        # m/p = n/q (= k/r in case 3) and pqr = P give p = bP/(nk),
        # q = bP/(mk), and r = bP/(mn) in case 3 or 1 in case 2
        p, q = b * Fraction(procs, n * k), b * Fraction(procs, m * k)
        r = b * Fraction(procs, m * n) if case == 3 else b.lift(1)

    order = shape.axis_order
    factors = [None, None, None]
    for axis, f in zip(order, (p, q, r)):
        factors[axis] = f
    factors = tuple(factors)

    # f is an integer iff its b and b^2 coefficients vanish and den divides
    # the rational one
    bad = tuple(
        i + 1 for i, f in enumerate(factors) if any(f.coeffs[1:]) or f.coeffs[0] % f.den
    )
    grid = None
    if not bad:
        grid = ProcessorGrid(*(f.coeffs[0] // f.den for f in factors))
        assert grid.size == procs
    return AnalyticGridResult(case=case, factors=factors, grid=grid, non_integral_axes=bad)


def _prime_factors(n: int) -> dict[int, int]:
    """The primes dividing n, ascending, with their exponents, by trial
    division."""
    primes = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes[d] = primes.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        primes[n] = 1
    return primes


def _sorted_divisors(n: int, primes: dict[int, int]) -> list[int]:
    """Sorted divisors of n, every prime factor of which is in primes."""
    divs = [1]
    for p in primes:
        layer = divs
        while n % p == 0:
            n //= p
            layer = [d * p for d in layer]
            divs = divs + layer
    divs.sort()
    return divs


def factor_triples(procs: int) -> Iterator[tuple[int, int, int]]:
    """All ordered triples (p1, p2, p3) with product P, no duplicates, in
    lexicographic order, produced lazily: highly composite P have millions.
    P is factorized once and every divisor list is built from its primes.

    Before any triple is made, raises ValueError when P has more than
    TRIPLE_CAP of them.  A prime of exponent e splits among the three factors
    in C(e + 2, 2) ways, so the count is the product of those.
    """
    primes = _prime_factors(procs)
    count = math.prod(math.comb(e + 2, 2) for e in primes.values())
    if count > TRIPLE_CAP:
        raise ValueError(
            f"P = {cut(str(procs))} has {count} factor triples, above the cap of {TRIPLE_CAP}"
        )
    return (
        (d1, d2, procs // d1 // d2)
        for d1 in _sorted_divisors(procs, primes)
        for d2 in _sorted_divisors(procs // d1, primes)
    )


def plan(
    shape: ProblemShape, procs: int, require_divisibility: bool = False
) -> tuple[AnalyticGridResult, ProcessorGrid, CostBreakdown, BoundReport, bool]:
    """The planner's record for shape on P processors: analytic_grid, the
    cheapest factor triple, its comm_cost, lower_bound, and whether that
    cost attains the bound.

    Triples compare by the integer P * cost + (n1n2 + n2n3 + n1n3) of the
    module docstring.  Ties break to the lexicographically largest triple,
    which keeps the big factors on the big dimensions (for shape (n,n,n) and
    prime P the three axis-aligned grids tie and (P,1,1) wins).  With
    require_divisibility, as the simulator needs, only triples whose factors
    divide their dimensions compete.
    """
    analytic = analytic_grid(shape, procs)
    n1, n2, n3 = shape.dims
    n23, n13, n12 = n2 * n3, n1 * n3, n1 * n2
    triples = factor_triples(procs)
    if require_divisibility:
        triples = (t for t in triples if n1 % t[0] == n2 % t[1] == n3 % t[2] == 0)
    best = max(triples, key=lambda t: (-(t[0] * n23 + t[1] * n13 + t[2] * n12), t),
               default=None)
    if best is None:
        raise ValueError(
            f"no factor triple of P={cut(str(procs))} divides shape {cut(str(shape.dims))}"
        )
    grid = ProcessorGrid(*best)
    cost = comm_cost(shape, grid)
    bound = lower_bound(shape, procs)
    return analytic, grid, cost, bound, bound.bound == cost.total
