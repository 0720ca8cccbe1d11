"""Exact arithmetic shared by the bound formulas, the grid planner and the
KKT certificate.

Every closed-form quantity in this package is a rational number, or a rational
combination of 1, b and b^2 for one square or cube root b.  Radical holds the
values of one such field Q(b), b = r^(1/d), with integer coefficients; every
decision is an exact sign or equality in it.  A value becomes a float only to
be printed: Radical.to_value gives a Fraction for a rational element and a
float for an irrational one, and decimal_str and value_to_json print through
it.  human_str prints an irrational element's 12 significant digits rounded
from the element itself (rounded12), not from its float.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]  # a number as printed


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor s of the k-th root of n >= 0, k >= 1, plus an exactness flag.

    0 and 1 are their own roots.  For n >= 2 and k != 2, integer Newton
    r -> ((k-1) r + n // r^(k-1)) // k starts above n^(1/k) and stops at
    exactly s.  The start is 2^ceil(bits(n)/k), or, when bits(n) < 1000 k,
    int(y (1 + 2^-30)) + 1 for the float y = exp(log(n)/k): log and exp are
    good to a few ulps and log(n)/k < 694, so y is within a relative 2^-40
    of n^(1/k).  Any start >= s will do: the nested floors equal one floor
    of t = ((k-1) r + n/r^(k-1))/k, and t >= n^(1/k) by AM-GM, so every step
    lands at or above s.  While r > s, r^k > n makes t < r, so the step is
    below r.  The iterates thus fall strictly, stay >= s >= 1, and can stop
    (a step not below r) only at r = s.
    """
    if n < 2:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    bits = n.bit_length()
    if bits < 1000 * k:
        r = int(math.exp(math.log(n) / k) * (1 + 2**-30)) + 1
    else:
        r = 1 << -(-bits // k)
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
        return Radical(tuple(times(self.coeffs, o.coeffs, self.root)),
                       self.den * o.den * self.root[1], self.root)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        try:
            o = self.lift(other)
        except (TypeError, ValueError, OverflowError):
            return NotImplemented
        return all(a * o.den == b * self.den for a, b in zip(self.coeffs, o.coeffs))

    def sign(self) -> int:
        """-1, 0 or 1, in integers (coefficient_sign; den > 0)."""
        return coefficient_sign(self.coeffs, self.root)

    def approximation(self) -> tuple[int, int, int]:
        """(num, den, err): self lies within err/den of num/den, and err is 0
        or below 2^-64 |num|.  num/den is self's value at B/U, where
        B/U <= b < (B + 1)/U, b to within 2^-p relative: p = 128, doubled
        while cancellation among the coefficients leaves err too large."""
        rn, rd, d = self.root
        # b = q^(1/d) / rd
        q = rn * rd ** (d - 1)
        p = 64
        while True:
            p *= 2  # 128 bits first
            s = max(0, p + 2 - q.bit_length() // d)
            B, U = iroot(q << (d * s), d)[0], rd << s
            # (bU)^i lies in [B^i, (B + 1)^i)
            num = err = 0
            for i, c in enumerate(self.coeffs):
                num += c * B ** i * U ** (d - 1 - i)
                err += abs(c) * ((B + 1) ** i - B ** i) * U ** (d - 1 - i)
            if err << 64 < abs(num) or not err:
                return num, self.den * U ** (d - 1), err

    def __float__(self) -> float:
        """Display value: approximation() correctly rounded (_quotient)."""
        return _quotient(*self.approximation()[:2])

    def to_value(self) -> Value:
        """A Fraction for a rational element, else the display float."""
        if any(self.coeffs[1:]):
            return float(self)
        return Fraction(self.coeffs[0], self.den)

    def __str__(self) -> str:
        return str(self.to_value())


def times(a, b, root: tuple[int, int, int]) -> list[int]:
    """rd a b, for integer coefficient rows a and b of the field Q(b) that
    root names, b^d = rn/rd: a term in b^(d+j) folds back to rn/rd times
    b^j, so the factor rd keeps every coefficient an integer."""
    rn, rd, d = root
    if d == 1:
        return [rd * a[0] * b[0]]
    if d == 2:
        a0, a1 = a
        b0, b1 = b
        return [rd * a0 * b0 + rn * a1 * b1, rd * (a0 * b1 + a1 * b0)]
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [rd * a0 * b0 + rn * (a1 * b2 + a2 * b1),
            rd * (a0 * b1 + a1 * b0) + rn * a2 * b2,
            rd * (a0 * b2 + a1 * b1 + a2 * b0)]


def coefficient_sign(coeffs, root: tuple[int, int, int]) -> int:
    """-1, 0 or 1: the sign of c0 + c1 b + c2 b^2 in the field Q(b) that
    root names, in integers.  b > 0, so coefficients of one sign give it.
    Else, d = 2: a + b sqrt(r) has the sign of (a^2 - b^2 r) a.  d = 3: the
    norm a^3 + b^3 r + c^3 r^2 - 3abc r is the element times |its complex
    conjugate|^2, so it has the element's sign.
    """
    rn, rd, d = root
    if min(coeffs) >= 0 or max(coeffs) <= 0:
        s = sum(coeffs)
    elif d == 2:
        a, b = coeffs
        s = (a * a * rd - b * b * rn) * a
    else:
        a, b, c = coeffs
        s = a ** 3 * rd * rd + b ** 3 * rn * rd + c ** 3 * rn * rn - 3 * a * b * c * rn * rd
    return (s > 0) - (s < 0)


def _quotient(num: int, den: int) -> float:
    """num/den correctly rounded; 0.0 where it underflows, and where it is
    too large an OverflowError that gives its leading digits and decimal
    exponent."""
    try:
        return num / den
    except OverflowError:
        digits = str(abs(num) // den)
        about = f"{'-' if num < 0 else ''}{digits[0]}.{digits[1:4]}e{len(digits) - 1}"
        raise OverflowError(f"a value of about {about} is beyond float range") from None


def coefficient_rows(values) -> tuple[int, list[list[int]]]:
    """Same-field elements as integer coefficient lists over one positive
    denominator, in lowest terms."""
    den = math.lcm(*[v.den for v in values])
    scales = [den // v.den for v in values]
    # the gcd of den and every scaled coefficient
    g = math.gcd(den, *[s * math.gcd(*v.coeffs) for s, v in zip(scales, values)])
    return den // g, [[a * s // g for a in v.coeffs] for s, v in zip(scales, values)]


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


def _decade(e: int) -> tuple[int, int]:
    """10^e as (numerator, denominator)."""
    return (10 ** e, 1) if e >= 0 else (1, 10 ** -e)


def rounded12(v: Radical) -> str:
    """'%.12g' % v for an irrational v, with its 12 digits rounded from v
    itself, not from the double nearest it; beyond float range the
    OverflowError of float(v).

    Each comparison of |v| with a rational t is decided on the interval
    v.approximation() gives, and by the exact sign of |v| - t where t lies
    inside it; an irrational v is never t.  The interval is narrower than
    2^-64 |v|, far below the 10^-12 |v| that the digits resolve.  Once the
    digits c and the exponent e are decided, '%.12g' lays them out: the
    double nearest a 12-digit decimal prints as those digits, as a normal
    double carries 15.  Below 10^-307, where a double is subnormal or 0,
    '%.12g' lays out c 10^-11 and the exponent is appended.
    """
    num, den, err = v.approximation()
    _quotient(num, den)  # refuses a value beyond float range, as every format does
    # err < |num|, so num has v's sign
    s, n = (1 if num > 0 else -1), abs(num)

    def above(tn: int, td: int) -> bool:
        """|v| > tn/td."""
        if (n - err) * td >= tn * den:
            return True
        if (n + err) * td <= tn * den:
            return False
        return (v * (s * td) - tn).sign() > 0

    # the decade of |v|, 10^e < |v| < 10^(e + 1), from a guess within a few
    # decades
    e = (n.bit_length() - den.bit_length()) * 3 // 10
    while not above(*_decade(e)):
        e -= 1
    while above(*_decade(e + 1)):
        e += 1
    # c = |v| 10^(11 - e) rounded to the nearest integer, 12 digits: the
    # interval's lower end rounds to c or to c - 1, and to c - 1 only when
    # |v| lies above the midpoint between them
    sn, sd = _decade(11 - e)
    c = (2 * (n - err) * sn + den * sd) // (2 * den * sd)
    c += above((2 * c + 1) * sd, 2 * sn)
    if c == 10 ** 12:  # rounded up into the next decade
        c, e = 10 ** 11, e + 1
    sign = "-" if s < 0 else ""
    if e < -307:
        return f"{sign}{'%.12g' % float(f'{c}e-11')}e{e:+03d}"
    return "%.12g" % float(f"{sign}{c}e{e - 11}")


def human_str(v) -> str:
    """Compact rendering of an exact value for terminal output.

    A rational is shown as decimal_str shows it.  An irrational is shown to
    12 significant digits rounded from its exact value (rounded12), unless
    that drops both the point and the exponent (1803989696.9957 rounds to
    1803989697); then it is shown as the repr of its float, so a number
    printed without a decimal point is exact.
    """
    if type(v) is not Radical or not any(v.coeffs[1:]):
        return decimal_str(v)
    text = rounded12(v)
    return text if "." in text or "e" in text else repr(float(v))


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
