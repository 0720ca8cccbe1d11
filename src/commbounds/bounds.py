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

from .exact import RATIONAL, Radical, cut, decimal_str, rational


class ProblemShape:
    """Dimensions of C[n1 x n3] = A[n1 x n2] * B[n2 x n3]."""

    __slots__ = ("n1", "n2", "n3")

    def __init__(self, n1: int, n2: int, n3: int):
        self.n1, self.n2, self.n3 = n1, n2, n3
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


def case_field(case: int, m: int, n: int, k: int, procs) -> Radical:
    """The generator b of the field a case's closed forms live in: 1 in
    case 1, (mnk^2/P)^(1/2) in case 2 and ((mnk/P)^2)^(1/3) in case 3."""
    if case == 1:
        return Radical((1,), 1, RATIONAL)
    p, q = procs.as_integer_ratio()
    if case == 2:
        return Radical.generator(rational(m * n * k * k * q, p), 2)
    return Radical.generator(rational((m * n * k * q) ** 2, p * p), 3)


def d_case(case: int, m: int, n: int, k: int, procs, b: Radical) -> Radical:
    """Accessed-data optimum of one case, at a possibly rational P, in the
    field of b = case_field(case, m, n, k, procs), the case's generator.

    Rational P is allowed so boundary continuity can be checked at P = m/n
    and P = mn/k^2 even when those are not integers.
    """
    def per_proc(num: int) -> Radical:
        """num/P in b's field, unreduced."""
        return Radical((num * procs.denominator, 0, 0)[:len(b.coeffs)], procs.numerator, b.root)

    if case == 1:
        return b * per_proc(m * n + m * k) + n * k
    if case == 2:
        return 2 * b + per_proc(m * n)
    return 3 * b


class BoundReport:
    __slots__ = (
        "case",              # 1, 2 or 3: the 1d, 2d or 3d regime, from case_of
        "on_boundary",       # P is also the first P of the next case
        "accessed",          # D, a Radical: words of matrix data touched per processor
        "owned",             # (mn + mk + nk)/P, in Q: words already resident
        "bound",             # D - owned >= 0, a Radical: words communicated
        "oversubscribed",    # P > mnk: fewer than one multiply per processor
        "memory",            # M, in Q, or None; the rest are None without it
        "memory_dependent",  # 2mnk/(P sqrt(M)), in Q(sqrt(M))
        "binding",           # which accessed-data term is larger given M
        "in_window",         # mn/k^2 < P <= (8/27) mnk / M^(3/2)
        "window_upper",      # (8/27) mnk / M^(3/2), in Q(sqrt(M))
    )

    def __init__(self, case, on_boundary, accessed, owned, bound, oversubscribed, memory=None,
                 memory_dependent=None, binding=None, in_window=None, window_upper=None):
        self.case, self.on_boundary, self.oversubscribed = case, on_boundary, oversubscribed
        self.accessed, self.owned, self.bound = accessed, owned, bound
        self.memory, self.memory_dependent, self.binding = memory, memory_dependent, binding
        self.in_window, self.window_upper = in_window, window_upper


def lower_bound(shape: ProblemShape, procs: int, memory=None) -> BoundReport:
    """Memory-independent communication lower bound, exact.

    The bound D - owned is never negative, in any regime and at any P, even
    above mnk.  In 1d, D - owned = nk - nk/P.  In 2d, P >= m/n gives
    2 sqrt(mnk^2/P) = 2k sqrt(mnP)/P >= 2km/P >= (m + n)k/P, the owned words
    mk/P + nk/P.  In 3d, P >= mn/k^2 gives D = 3 (mnk/P)^(2/3) >= 3mn/P, at
    least the owned words.

    When memory is given, as any rational with as_integer_ratio() (an int, a
    Fraction, a float or an element of Q), the classical memory-dependent
    leading term 2mnk/(P sqrt(M)) is evaluated and compared against D.  The
    comparison is between the two accessed-data terms (not the
    owned-subtracted bound): that is the form in which the first two regimes
    provably dominate for every feasible M, so the window where the
    memory-dependent term can dominate at all starts at mn/k^2 and in_window
    reports whether P lies in it.  Both decisions are the sign of one integer,
    with M = p/q in lowest terms,

        key = 729 P^2 p^3 - 64 (mnk)^2 q^3 = q^3 (729 P^2 M^3 - 64 (mnk)^2).

    binding is memory_dependent iff key < 0, and in_window holds iff
    key <= 0.  At key = 0 the two terms are equal: binding names
    memory_independent, and P is inside the window, at its upper edge.

    Proof.  In 3d, D = 3 (mnk/P)^(2/3), so squaring 2mnk/(P sqrt(M)) > D
    gives key < 0, and squaring P <= (8/27) mnk / M^(3/2) gives key <= 0.  In
    1d and 2d, P k^2 <= mn and D >= 2k sqrt(mn/P) + mn/P: equal in 2d, and by
    AM-GM on mk/P + nk in 1d.  A feasible M is at least the owned words, so
    M > mn/P.  Then 2mnk/(P sqrt(M)) < 2k sqrt(mn/P) < D, so the memory term
    is not larger; and 729 P^2 M^3 > 729 (mn)^3/P >= 64 (mnk)^2, so key > 0,
    which names memory_independent and keeps P, at most mn/k^2, out of the
    window.
    """
    _check_procs(procs)
    m, n, k = shape.sorted_dims
    case, on_boundary = case_of(m, n, k, procs)
    accessed = d_case(case, m, n, k, procs, case_field(case, m, n, k, procs))
    owned = rational(shape.pair_sum, procs)

    mem = mem_dep = binding = in_window = window_upper = None
    if memory is not None:
        p, q = memory.as_integer_ratio()
        if p <= 0:
            raise ValueError("memory must be positive")
        mem = rational(p, q)
        if p * procs < shape.pair_sum * q:
            # a terminating expansion has fewer fractional digits than the
            # denominator has bits; any other M prints as p/q
            digits = q.bit_length()
            typed = decimal_str(mem, digits) if 10**digits % q == 0 else f"{p}/{q}"
            a, b = owned.as_integer_ratio()
            raise ValueError(f"memory {cut(typed)} below (mn+mk+nk)/P = "
                             f"{cut(f'{a}/{b}' if b > 1 else str(a))}; inputs and output must fit")
        # 2mnk/(P sqrt(M)) = sqrt(M) 2mnk/(PM)
        mem_dep = Radical.generator(mem, 2) * rational(2 * m * n * k * q, procs * p)
        window_upper = Radical.generator(mem, 2) * rational(8 * m * n * k * q * q, 27 * p * p)
        key = 729 * procs ** 2 * p ** 3 - 64 * (m * n * k) ** 2 * q ** 3
        binding = "memory_dependent" if key < 0 else "memory_independent"
        in_window = key <= 0

    return BoundReport(
        case=case,
        on_boundary=on_boundary,
        accessed=accessed,
        owned=owned,
        bound=accessed - owned,
        oversubscribed=procs > shape.volume,
        memory=mem,
        memory_dependent=mem_dep,
        binding=binding,
        in_window=in_window,
        window_upper=window_upper,
    )


# Leading-term constants of the square-case bound c * n^2 / P^e established by
# prior work and here, per case (e = 2/3, 1/2, 0 in cases 3, 2, 1).  None
# marks cases a given work did not cover.  The two roots are written as field
# elements, b itself, so importing the module computes no root.
PRIOR_CONSTANTS = {
    3: {
        "ACS90": Radical((0, 1, 0), 1, (1, 4, 3)),  # (1/4)^(1/3) = (1/2)^(2/3)
        "ITT04": rational(1, 2),
        "DE+13": rational(1),
        "this_work": rational(3),
    },
    2: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": Radical((0, 1), 1, (2, 3, 2)),  # (2/3)^(1/2)
        "this_work": rational(2),
    },
    1: {
        "ACS90": None,
        "ITT04": None,
        "DE+13": rational(16, 25),
        "this_work": rational(1),
    },
}
