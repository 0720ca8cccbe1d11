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
which is why reports carry both terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .exact import Value, pow23, sqrt_value


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


def d_case(case: int, m: int, n: int, k: int, procs) -> Value:
    """Accessed-data optimum of one case, at a possibly rational P.

    Rational P is allowed so boundary continuity can be checked at P = m/n
    and P = mn/k^2 even when those are not integers.
    """
    P = Fraction(procs)
    if case == 1:
        return Fraction(m * n + m * k) / P + Fraction(n * k)
    if case == 2:
        return 2 * sqrt_value(Fraction(m * n * k * k) / P) + Fraction(m * n) / P
    if case == 3:
        return 3 * pow23(Fraction(m * n * k) / P)
    raise ValueError(f"case must be 1, 2, or 3, got {case}")


def accessed_data(shape: ProblemShape, procs: int) -> Value:
    """D for the applicable regime."""
    m, n, k = shape.sorted_dims
    case, _ = case_of(m, n, k, procs)
    return d_case(case, m, n, k, procs)


@dataclass(frozen=True)
class BoundReport:
    shape: ProblemShape
    procs: int
    regime: Regime
    accessed: Value            # D, words of matrix data touched per processor
    owned: Fraction            # (mn + mk + nk)/P, words already resident
    bound: Value               # max(0, D - owned), words communicated
    oversubscribed: bool       # P > mnk: fewer than one multiply per processor
    memory: Optional[Value] = None
    memory_dependent: Optional[Value] = None   # 2mnk/(P sqrt(M)) leading term
    binding: Optional[str] = None  # which accessed-data term is larger given M


def lower_bound(shape: ProblemShape, procs: int, memory=None) -> BoundReport:
    """Memory-independent communication lower bound, exact where rational.

    When memory is given, the classical memory-dependent leading term
    2mnk/(P sqrt(M)) is evaluated and compared against D.  The comparison is
    between the two accessed-data terms (not the owned-subtracted bound):
    that is the form in which the first two regimes provably dominate for
    every feasible M.
    """
    regime = classify_regime(shape, procs)
    m, n, k = shape.sorted_dims
    accessed = d_case(regime.tag.case, m, n, k, procs)
    owned = Fraction(shape.pair_sum, procs)
    bound = accessed - owned
    if bound < 0:
        bound = Fraction(0) if isinstance(bound, Fraction) else 0.0

    mem = mem_dep = binding = None
    if memory is not None:
        mem = Fraction(memory)
        if mem <= 0:
            raise ValueError("memory must be positive")
        if mem < owned:
            raise ValueError(
                f"memory {memory} below (mn+mk+nk)/P = {owned}; "
                "inputs and output must fit"
            )
        mem_dep = Fraction(2 * m * n * k, procs) / sqrt_value(mem)
        binding = "memory_dependent" if mem_dep > accessed else "memory_independent"

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
    )


@dataclass(frozen=True)
class DominanceReport:
    accessed: Value            # memory-independent D
    memory_dependent: Value    # 2mnk/(P sqrt(M))
    dominant: str              # "memory_independent" or "memory_dependent"
    in_window: bool            # mn/k^2 < P <= (8/27) mnk / M^(3/2)
    window_upper: Value        # (8/27) mnk / M^(3/2)


def bound_dominance(shape: ProblemShape, procs: int, memory) -> DominanceReport:
    """Which accessed-data term is larger, and whether (P, M) sits in the
    window where the memory-dependent term can dominate at all.

    Outside the 3d regime the memory-independent term dominates for every
    feasible M, so the window's lower edge is mn/k^2.
    """
    rep = lower_bound(shape, procs, memory=memory)
    m, n, k = shape.sorted_dims
    mem = rep.memory
    window_upper = Fraction(8 * m * n * k, 27) / (mem * sqrt_value(mem))
    in_window = procs * k * k > m * n and procs <= window_upper
    return DominanceReport(
        accessed=rep.accessed,
        memory_dependent=rep.memory_dependent,
        dominant=rep.binding,
        in_window=bool(in_window),
        window_upper=window_upper,
    )


# Leading-term constants of the square-case bound c * n^2 / P^e established by
# prior work and here, per regime (e = 2/3, 1/2, 0 for 3d, 2d, 1d).  None
# marks regimes a given work did not cover.
_PRIOR_CONSTANTS = {
    RegimeTag.THREE_D: {
        "ACS90": 0.5 ** (2.0 / 3.0),
        "ITT04": Fraction(1, 2),
        "DE+13": Fraction(1),
        "this_work": Fraction(3),
    },
    RegimeTag.TWO_D: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": (2.0 / 3.0) ** 0.5,
        "this_work": Fraction(2),
    },
    RegimeTag.ONE_D: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": Fraction(16, 25),
        "this_work": Fraction(1),
    },
}


def prior_constants(regime: Regime | RegimeTag) -> dict[str, Optional[Value]]:
    """Leading-term constants table for one regime; None where absent."""
    tag = regime.tag if isinstance(regime, Regime) else regime
    return dict(_PRIOR_CONSTANTS[tag])
