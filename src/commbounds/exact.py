"""Exact arithmetic shared by the bound formulas, the grid planner and the
KKT certificate.

Every closed-form quantity in this package is a rational number, or a rational
combination of 1, b and b^2 for one square or cube root b.  Radical holds the
values of one such field Q(b), b = r^(1/d), with integer coefficients; every
decision is an exact sign or equality in it.  A value becomes a float only to
be printed: Radical.to_value gives a Fraction for a rational element and a
float for an irrational one, and decimal_str, human_str and value_to_json
print through it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]  # a number as printed


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor s of the k-th root of n >= 0, k >= 1, plus an exactness flag.

    For k >= 3, integer Newton r -> ((k-1) r + n // r^(k-1)) // k starts at
    2^ceil(bits(n)/k) > n^(1/k) and stops at exactly s.  The nested floors
    equal one floor of t = ((k-1) r + n/r^(k-1))/k, and t >= n^(1/k) by AM-GM,
    so every step lands at or above s.  While r > s, r^k > n makes t < r, so
    the step is below r.  The iterates thus fall strictly, stay >= s, and can
    stop (a step not below r) only at r = s.
    """
    if n == 0 or k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    return r, r ** k == n


def nth_root_exact(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    num, ok = iroot(x.numerator, k)
    if not ok:
        return None
    den, ok = iroot(x.denominator, k)
    if not ok:
        return None
    return Fraction(num, den)


RATIONAL = (1, 1, 1)  # Radical.root of Q itself


class Radical:
    """An element (c0 + c1 b + c2 b^2) / den of the field Q(b), b = r^(1/d).

    r > 0 is rational, d is 1, 2 or 3, and `root` is (r.numerator,
    r.denominator, d); the d coefficients and den > 0 are ints, never reduced
    by a gcd, which would cost more than the arithmetic.  `generator` reduces
    a perfect d-th power to Q, so for d > 1 the numbers 1, b, b^2 are linearly
    independent: an element is zero exactly when its coefficients are.  Ints,
    Fractions and floats lift into the field exactly; fields do not mix.
    """

    __slots__ = ("coeffs", "den", "root")

    def __init__(self, coeffs: tuple, den: int, root: tuple[int, int, int]):
        self.coeffs, self.den, self.root = coeffs, den, root

    @classmethod
    def generator(cls, radicand, d: int) -> Radical:
        """b = radicand^(1/d) itself, for a positive radicand and d in 1..3;
        in Q when it is rational."""
        r = Fraction(radicand)
        exact = nth_root_exact(r, d)
        if exact is not None:
            return cls((exact.numerator,), exact.denominator, RATIONAL)
        return cls((0, 1, 0)[:d], 1, (r.numerator, r.denominator, d))

    def lift(self, v) -> Radical:
        """v as an element of this element's field."""
        if type(v) is Radical:
            if v.root is not self.root and v.root != self.root:
                raise ValueError(f"values of two fields, {v.root} and {self.root}")
            return v
        q = v if type(v) in (int, Fraction) else Fraction(v)
        return Radical((q.numerator, 0, 0)[: len(self.coeffs)], q.denominator, self.root)

    def _plus(self, o: Radical, s: int) -> Radical:
        """self + s * o for s = 1 or -1."""
        da, db = self.den, o.den
        if da == db:
            return Radical(tuple(a + s * b for a, b in zip(self.coeffs, o.coeffs)), da, self.root)
        return Radical(tuple(a * db + s * b * da for a, b in zip(self.coeffs, o.coeffs)),
                       da * db, self.root)

    def __add__(self, other) -> Radical:
        return self._plus(self.lift(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> Radical:
        return self._plus(self.lift(other), -1)

    def __rsub__(self, other) -> Radical:
        return self.lift(other)._plus(self, -1)

    def __mul__(self, other) -> Radical:
        o = self.lift(other)
        rn, rd, d = self.root
        a, b = self.coeffs, o.coeffs
        den = self.den * o.den
        if not any(b[1:]):  # a rational factor scales the coefficients
            return Radical(tuple(x * b[0] for x in a), den, self.root)
        if d == 2:  # b^2 = r
            c = (a[0] * b[0] * rd + a[1] * b[1] * rn, (a[0] * b[1] + a[1] * b[0]) * rd)
        else:  # b^3 = r, b^4 = r b
            a0, a1, a2 = a
            b0, b1, b2 = b
            c = (a0 * b0 * rd + (a1 * b2 + a2 * b1) * rn,
                 (a0 * b1 + a1 * b0) * rd + a2 * b2 * rn,
                 (a0 * b2 + a1 * b1 + a2 * b0) * rd)
        return Radical(c, den * rd, self.root)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        try:
            o = self.lift(other)
        except (TypeError, ValueError, OverflowError):
            return NotImplemented
        return all(a * o.den == b * self.den for a, b in zip(self.coeffs, o.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def sign(self) -> int:
        """-1, 0 or 1, in integers.  d = 2: a + b sqrt(r) has the sign of a
        and b where they agree, else that of (a^2 - b^2 r) a.  d = 3: the norm
        a^3 + b^3 r + c^3 r^2 - 3abc r is the element times |its complex
        conjugate|^2, so it has the element's sign.
        """
        rn, rd, d = self.root
        if d == 1:
            s = self.coeffs[0]
        elif d == 2:
            a, b = self.coeffs
            s = a or b if a * b >= 0 else (a * a * rd - b * b * rn) * a
        else:
            a, b, c = self.coeffs
            s = a ** 3 * rd * rd + b ** 3 * rn * rd + c ** 3 * rn * rn - 3 * a * b * c * rn * rd
        return (s > 0) - (s < 0)

    def __float__(self) -> float:
        """Display value, correctly rounded from a 128-bit approximation of b;
        0.0 where it underflows, and where it is too large an OverflowError
        that gives its leading digits and decimal exponent."""
        rn, rd, d = self.root
        # b = q^(1/d) / rd, and B / U is b to within 2^-128, relative
        q = rn * rd ** (d - 1)
        s = max(0, 130 - q.bit_length() // d)
        B, U = iroot(q << (d * s), d)[0], rd << s
        num = sum(c * B ** i * U ** (d - 1 - i) for i, c in enumerate(self.coeffs))
        den = self.den * U ** (d - 1)
        try:
            return num / den
        except OverflowError:
            digits = str(abs(num) // den)
            about = f"{'-' if num < 0 else ''}{digits[0]}.{digits[1:4]}e{len(digits) - 1}"
            raise OverflowError(f"a value of about {about} is beyond float range") from None

    def to_value(self) -> Value:
        """A Fraction for a rational element, else the display float."""
        if any(self.coeffs[1:]):
            return float(self)
        return Fraction(self.coeffs[0], self.den)

    def __str__(self) -> str:
        return str(self.to_value())


def coefficient_rows(values) -> tuple[int, list[list[int]]]:
    """Same-field elements as integer coefficient lists over one positive
    denominator, in lowest terms."""
    den = math.lcm(*(v.den for v in values))
    rows = [[a * (den // v.den) for a in v.coeffs] for v in values]
    g = math.gcd(den, *(a for row in rows for a in row))
    return den // g, [[a // g for a in row] for row in rows]


def _display(v) -> Value:
    """A Radical as its display value; a Fraction or float as it is."""
    return v.to_value() if type(v) is Radical else v


def decimal_str(v, digits: int = 28) -> str:
    """Decimal rendering that keeps every integer digit.

    A rational is exact when its expansion terminates within `digits`
    fractional digits (all attainment values do); otherwise it is rounded to
    that many fractional digits (`digits` significant ones below 1) and still
    shows its decimal point, so a number printed without one is exact.
    """
    v = _display(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        whole = abs(v.numerator) // v.denominator
        with localcontext() as ctx:
            ctx.prec = digits + (Decimal(whole).adjusted() + 1 if whole else 0)
            d = Decimal(v.numerator) / Decimal(v.denominator)
        return format(d, "f")
    return repr(float(v))


def human_str(v) -> str:
    """Compact rendering for terminal output.

    A float is shown to 12 significant digits unless that drops both the point
    and the exponent (1803989696.9957 rounds to 1803989697); then it is shown
    in full, so a number printed without a decimal point is exact.
    """
    v = _display(v)
    if isinstance(v, Fraction):
        return decimal_str(v)
    text = "%.12g" % float(v)
    if "." in text or "e" in text:
        return text
    return repr(float(v))


QUOTE_CAP = 40


def cut(text: str, show=str) -> str:
    """show(text) for an error line; past QUOTE_CAP characters, show of its
    start and its length, so a long input or number keeps the line short."""
    if len(text) <= QUOTE_CAP:
        return show(text)
    return f"{show(text[:QUOTE_CAP])}... ({len(text)} characters)"


def value_to_json(v):
    """JSON form: rationals as {decimal, num, den}, floats as plain numbers."""
    v = _display(v)
    if isinstance(v, Fraction):
        return {"decimal": decimal_str(v), "num": v.numerator, "den": v.denominator}
    return float(v)
