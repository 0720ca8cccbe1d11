"""Problem shapes, regime classification, and the memory-independent bound.

With m >= n >= k the sorted dimensions of an n1 x n2 x n3 multiplication and P
processors, any algorithm that starts with one copy of the inputs, ends with
one copy of the output, and load balances the computation must access at least
D words of matrix data per processor, where

    D = (mn + mk)/P + nk              for        P <= m/n     (1d regime)
    D = 2 (m n k^2 / P)^(1/2) + mn/P  for m/n <= P <= mn/k^2  (2d regime)
    D = 3 (m n k / P)^(2/3)           for mn/k^2 <= P         (3d regime)

and therefore communicate at least D - (mn + mk + nk)/P words, the owned data
being free.  The three expressions agree at the regime boundaries, so D is
continuous (and non-increasing) in P; the communicated part is not monotone,
which is why reports carry both terms.  Each case's D, and every other closed
form here, is computed exactly as an exact.Radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .exact import Radical


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions of C[n1 x n3] = A[n1 x n2] * B[n2 x n3]."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for d in self.dims:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"dimensions must be positive integers, got {self.dims}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def sorted_dims(self) -> tuple[int, int, int]:
        """(m, n, k) with m >= n >= k."""
        s = sorted(self.dims, reverse=True)
        return (s[0], s[1], s[2])

    @property
    def m(self) -> int:
        return self.sorted_dims[0]

    @property
    def n(self) -> int:
        return self.sorted_dims[1]

    @property
    def k(self) -> int:
        return self.sorted_dims[2]

    @property
    def axis_order(self) -> tuple[int, int, int]:
        """Axis indices so dims[axis_order[0]] = m, etc.; stable under ties."""
        order = sorted(range(3), key=lambda i: -self.dims[i])
        return (order[0], order[1], order[2])

    @property
    def volume(self) -> int:
        """mnk, the number of scalar multiplications."""
        return self.n1 * self.n2 * self.n3

    @property
    def pair_sum(self) -> int:
        """n1n2 + n2n3 + n1n3 = mn + mk + nk, the total words of A, B, C."""
        return self.n1 * self.n2 + self.n2 * self.n3 + self.n1 * self.n3


class RegimeTag(Enum):
    ONE_D = "1d"
    TWO_D = "2d"
    THREE_D = "3d"

    @property
    def case(self) -> int:
        return {"1d": 1, "2d": 2, "3d": 3}[self.value]


@dataclass(frozen=True)
class Regime:
    tag: RegimeTag
    on_boundary: bool


def case_of(m: int, n: int, k: int, procs: int) -> tuple[int, bool]:
    """Bound case for sorted dims; integer comparisons only.

    Boundary P values belong to both adjacent cases (the formulas coincide
    there); we return the lower-indexed case with the boundary flag set.
    """
    if procs * n <= m:
        return 1, procs * n == m
    if procs * k * k <= m * n:
        return 2, procs * k * k == m * n
    return 3, False


def _check_procs(procs) -> None:
    if not isinstance(procs, int) or isinstance(procs, bool) or procs < 1:
        raise ValueError(f"processor count must be a positive integer, got {procs!r}")


def classify_regime(shape: ProblemShape, procs: int) -> Regime:
    _check_procs(procs)
    m, n, k = shape.sorted_dims
    case, boundary = case_of(m, n, k, procs)
    tag = {1: RegimeTag.ONE_D, 2: RegimeTag.TWO_D, 3: RegimeTag.THREE_D}[case]
    return Regime(tag, boundary)


def case_field(case: int, m: int, n: int, k: int, procs) -> Radical:
    """The generator b of the field a case's closed forms live in: 1 in
    case 1, (mnk^2/P)^(1/2) in case 2 and ((mnk/P)^2)^(1/3) in case 3."""
    if case == 1:
        return Radical.generator(1, 1)
    if case == 2:
        return Radical.generator(Fraction(m * n * k * k, procs), 2)
    if case == 3:
        return Radical.generator(Fraction(m * n * k, procs) ** 2, 3)
    raise ValueError(f"case must be 1, 2, or 3, got {case}")


def d_case(case: int, m: int, n: int, k: int, procs) -> Radical:
    """Accessed-data optimum of one case, at a possibly rational P, in the
    case's field.

    Rational P is allowed so boundary continuity can be checked at P = m/n
    and P = mn/k^2 even when those are not integers.
    """
    b = case_field(case, m, n, k, procs)
    if case == 1:
        return b * Fraction(m * n + m * k, procs) + n * k
    if case == 2:
        return 2 * b + Fraction(m * n, procs)
    return 3 * b


def accessed_data(shape: ProblemShape, procs: int) -> Radical:
    """D for the applicable regime."""
    m, n, k = shape.sorted_dims
    case, _ = case_of(m, n, k, procs)
    return d_case(case, m, n, k, procs)


@dataclass(frozen=True)
class BoundReport:
    shape: ProblemShape
    procs: int
    regime: Regime
    accessed: Radical          # D, words of matrix data touched per processor
    owned: Fraction            # (mn + mk + nk)/P, words already resident
    bound: Radical             # max(0, D - owned), words communicated
    oversubscribed: bool       # P > mnk: fewer than one multiply per processor
    memory: Optional[Fraction] = None
    memory_dependent: Optional[Radical] = None  # 2mnk/(P sqrt(M)), in Q(sqrt(M))
    binding: Optional[str] = None  # which accessed-data term is larger given M
    in_window: Optional[bool] = None  # mn/k^2 < P <= (8/27) mnk / M^(3/2)
    window_upper: Optional[Radical] = None  # (8/27) mnk / M^(3/2), in Q(sqrt(M))


def lower_bound(shape: ProblemShape, procs: int, memory=None) -> BoundReport:
    """Memory-independent communication lower bound, exact.

    When memory is given, the classical memory-dependent leading term
    2mnk/(P sqrt(M)) is evaluated and compared against D.  The comparison is
    between the two accessed-data terms (not the owned-subtracted bound):
    that is the form in which the first two regimes provably dominate for
    every feasible M, so the window where the memory-dependent term can
    dominate at all starts at mn/k^2 and in_window reports whether P lies in
    it.
    """
    regime = classify_regime(shape, procs)
    m, n, k = shape.sorted_dims
    accessed = d_case(regime.tag.case, m, n, k, procs)
    owned = Fraction(shape.pair_sum, procs)
    bound = accessed - owned
    if bound.sign() < 0:
        bound = bound.lift(0)

    mem = mem_dep = binding = in_window = window_upper = None
    if memory is not None:
        mem = Fraction(memory)
        if mem <= 0:
            raise ValueError("memory must be positive")
        if mem < owned:
            raise ValueError(
                f"memory {memory} below (mn+mk+nk)/P = {owned}; "
                "inputs and output must fit"
            )
        # 2mnk/(P sqrt(M)) = sqrt(M) 2mnk/(PM)
        mem_dep = Radical.generator(mem, 2) * (Fraction(2 * m * n * k, procs) / mem)
        larger = _memory_term_larger(regime.tag.case, m, n, k, procs, mem)
        binding = "memory_dependent" if larger else "memory_independent"
        window_upper = Radical.generator(mem, 2) * (Fraction(8 * m * n * k, 27) / mem ** 2)
        # P <= (8/27) mnk / M^(3/2), squared
        in_window = (
            procs * k * k > m * n and 729 * procs ** 2 * mem ** 3 <= 64 * (m * n * k) ** 2
        )

    return BoundReport(
        shape=shape,
        procs=procs,
        regime=regime,
        accessed=accessed,
        owned=owned,
        bound=bound,
        oversubscribed=procs > shape.volume,
        memory=mem,
        memory_dependent=mem_dep,
        binding=binding,
        in_window=in_window,
        window_upper=window_upper,
    )


def _memory_term_larger(case: int, m: int, n: int, k: int, procs: int, mem: Fraction) -> bool:
    """2q/sqrt(M) > D exactly, q = mnk/P, comparing positive squares: in 3d
    64 q^2 > 729 M^3, in 1d 4q^2 > D^2 M, and in 2d, D = 2s + a with
    s^2 = mnk^2/P and a = mn/P, L = 4q^2 - (4s^2 + a^2) M > 4aMs, which holds
    iff L > 0 and L^2 > 16 a^2 M^2 s^2.
    """
    q = Fraction(m * n * k, procs)
    if case == 3:
        return 64 * q * q > 729 * mem ** 3
    if case == 1:
        d = Fraction(m * n + m * k, procs) + n * k
        return 4 * q * q > d * d * mem
    s2, a = Fraction(m * n * k * k, procs), Fraction(m * n, procs)
    lhs = 4 * q * q - (4 * s2 + a * a) * mem
    return lhs > 0 and lhs * lhs > 16 * a * a * mem * mem * s2


# Leading-term constants of the square-case bound c * n^2 / P^e established by
# prior work and here, per regime (e = 2/3, 1/2, 0 for 3d, 2d, 1d).  None
# marks regimes a given work did not cover.
_PRIOR_CONSTANTS = {
    RegimeTag.THREE_D: {
        "ACS90": Radical.generator(Fraction(1, 4), 3),  # (1/2)^(2/3)
        "ITT04": Fraction(1, 2),
        "DE+13": Fraction(1),
        "this_work": Fraction(3),
    },
    RegimeTag.TWO_D: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": Radical.generator(Fraction(2, 3), 2),
        "this_work": Fraction(2),
    },
    RegimeTag.ONE_D: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": Fraction(16, 25),
        "this_work": Fraction(1),
    },
}


def prior_constants(regime: Regime | RegimeTag) -> dict[str, Optional[Fraction | Radical]]:
    """Leading-term constants table for one regime; None where absent."""
    tag = regime.tag if isinstance(regime, Regime) else regime
    return dict(_PRIOR_CONSTANTS[tag])
