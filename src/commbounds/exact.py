"""Exact arithmetic shared by the bound formulas, the grid planner and the
KKT certificate.

Every closed-form quantity in this package is a rational number, or a rational
combination of 1, b and b^2 for one square or cube root b.  Radical holds the
values of one such field Q(b), b = r^(1/d), with integer coefficients, and a
rational as an element of Q, the field of degree 1 (rational()); every
decision is an exact sign or equality in it.  A value becomes decimal digits
only to be printed: digits() gives the n significant digits of a Radical,
rounded once from the exact value, in integers, and decimal_str, human_str and
value_to_json lay them out.  JSON and csv print an irrational inside double
range as the repr of its double, which round-trips, and outside it as 17
digits of number text, so no printed value depends on float range."""

from __future__ import annotations

import math


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


RATIONAL = (1, 1, 1)  # Radical.root of Q itself


class Radical:
    """An element (c0 + c1 b + c2 b^2) / den of the field Q(b), b = r^(1/d).

    r > 0 is rational, d is 1, 2 or 3, and `root` is (r.numerator,
    r.denominator, d); the d coefficients and den > 0 are ints, never reduced
    by a gcd, which would cost more than the arithmetic.  `generator` reduces
    a perfect d-th power to Q, so for d > 1 the numbers 1, b, b^2 are linearly
    independent: an element is zero exactly when its coefficients are.  Any
    rational (as_integer_ratio()) lifts into any field exactly; two
    irrational fields do not mix.
    """

    __slots__ = ("coeffs", "den", "root")

    def __init__(self, coeffs: tuple, den: int, root: tuple[int, int, int]):
        self.coeffs, self.den, self.root = coeffs, den, root

    @classmethod
    def generator(cls, radicand, d: int) -> Radical:
        """b = radicand^(1/d) itself, for a positive rational radicand and d
        in 1..3; in Q when both terms of the radicand are d-th powers."""
        rn, rd = radicand.as_integer_ratio()
        num, ok = iroot(rn, d)
        if ok:
            den, ok = iroot(rd, d)
            if ok:
                return cls((num,), den, RATIONAL)
        return cls((0, 1, 0)[:d], 1, (rn, rd, d))

    def as_integer_ratio(self) -> tuple[int, int]:
        """A rational element as (numerator, denominator) in lowest terms."""
        if any(self.coeffs[1:]):
            raise ValueError(f"an irrational value, of the field {self.root}")
        g = math.gcd(self.coeffs[0], self.den)
        return self.coeffs[0] // g, self.den // g

    def lift(self, v) -> Radical:
        """v as an element of this element's field; an irrational v of another
        field raises ValueError."""
        if type(v) is Radical and (v.root is self.root or v.root == self.root):
            return v
        num, den = v.as_integer_ratio()
        return Radical((num, 0, 0)[: len(self.coeffs)], den, self.root)

    def _both(self, other) -> tuple[Radical, Radical]:
        """self and other in one field: an element of Q lifts into the other's."""
        if len(self.coeffs) == 1 and type(other) is Radical:
            return other.lift(self), other
        return self, self.lift(other)

    def _plus(self, other, s: int) -> Radical:
        """self + s * other for s = 1 or -1."""
        x, o = self._both(other)
        da, db = x.den, o.den
        if da == db:
            return Radical(tuple(a + s * b for a, b in zip(x.coeffs, o.coeffs)), da, x.root)
        return Radical(tuple(a * db + s * b * da for a, b in zip(x.coeffs, o.coeffs)),
                       da * db, x.root)

    def __add__(self, other) -> Radical:
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> Radical:
        return self._plus(other, -1)

    def __rsub__(self, other) -> Radical:
        return self.lift(other)._plus(self, -1)

    def __mul__(self, other) -> Radical:
        x, o = self._both(other)
        return Radical(tuple(times(x.coeffs, o.coeffs, x.root)), x.den * o.den * x.root[1], x.root)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        x, o = self._both(other)
        return all(a * o.den == b * x.den for a, b in zip(x.coeffs, o.coeffs))

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

    def __str__(self) -> str:
        return decimal_str(self)


def rational(num: int, den: int = 1) -> Radical:
    """num/den, for den > 0, as an element of Q, unreduced."""
    return Radical((num,), den, RATIONAL)


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


def coefficient_rows(values) -> tuple[int, list[list[int]]]:
    """Same-field elements as integer coefficient lists over one positive
    denominator, in lowest terms."""
    den = math.lcm(*[v.den for v in values])
    scales = [den // v.den for v in values]
    # the gcd of den and every scaled coefficient
    g = math.gcd(den, *[s * math.gcd(*v.coeffs) for s, v in zip(scales, values)])
    return den // g, [[a * s // g for a in v.coeffs] for s, v in zip(scales, values)]


def _decade(e: int) -> tuple[int, int]:
    """10^e as (numerator, denominator)."""
    return (10 ** e, 1) if e >= 0 else (1, 10 ** -e)


def digits(v, n: int) -> tuple[int, int, int]:
    """(sign, c, e): a nonzero Radical v, rounded once, half to even, to n
    significant digits, is sign c 10^(e - n + 1), with 10^(n - 1) <= c <
    10^n; n <= 18 for an irrational v.

    Each comparison of |v| with a rational t is decided on the interval
    (num -+ err)/den that v.approximation() gives, and by the exact sign of
    |v| - t where t lies inside it; an irrational v is never t.  A rational
    has err = 0.  The interval is narrower than 2^-64 |v|, far below the
    10^-18 |v| that 18 digits resolve, so its lower end rounds half up to c
    or to c - 1, and to c - 1 only when |v| lies above the midpoint.
    """
    num, den, err = v.approximation()
    # err < |num|, so num has v's sign
    a = abs(num)
    sign = num // a

    def above(tn: int, td: int) -> bool:
        """|v| > tn/td; |v| >= tn/td for a rational v."""
        if (a - err) * td >= tn * den:
            return True
        if (a + err) * td <= tn * den:
            return False
        return (v * (sign * td) - tn).sign() == 1

    # 10^e <= |v| < 10^(e + 1): 2^(t - 1) < |v| < 2^(t + 1.01) for
    # t = bits(a - err) - bits(den), so e is this guess or the next.  For
    # |t| <= 10^5, (t - 1) log10 2 is 3 10^-6 or more from any nonzero
    # integer, and the float product is within 10^-11 of it.
    e = math.floor(((a - err).bit_length() - den.bit_length() - 1) * math.log10(2))
    e += above(*_decade(e + 1))
    sn, sd = _decade(n - 1 - e)
    c, r = divmod(2 * (a - err) * sn + den * sd, 2 * den * sd)
    if err:
        c += above((2 * c + 1) * sd, 2 * sn)
    elif not r:  # a rational halfway between c - 1 and c rounds to even
        c -= c & 1
    if c == 10 ** n:  # rounded up into the next decade
        c, e = 10 ** (n - 1), e + 1
    return sign, c, e


def _point(sign: int, text: str, e: int) -> str:
    """The digits text of a value of sign and decimal exponent e, in fixed
    point; e + 1 < len(text)."""
    text = "0." + "0" * (-e - 1) + text if e < 0 else f"{text[:e + 1]}.{text[e + 1:]}"
    return "-" + text if sign == -1 else text


def _double(v: Radical) -> float | str:
    """An irrational v as JSON and csv print it: the double nearest to
    v.approximation()'s num/den where that is nonzero and finite, else its
    17 digits as number text, such as 4.2426406871192851e-400."""
    num, den, _ = v.approximation()
    try:
        if x := num / den:
            return x
    except OverflowError:
        pass
    sign, c, e = digits(v, 17)
    return f"{'-' if sign == -1 else ''}{str(c)[0]}.{str(c)[1:]}e{e:+03d}"


def decimal_str(v, places: int = 28) -> str:
    """Decimal rendering that keeps every integer digit.

    A rational is exact when its expansion terminates within `places`
    fractional digits (all attainment values do); otherwise it is rounded to
    that many fractional digits (`places` significant ones below 1) and still
    shows its decimal point, so a number printed without one is exact.  An
    irrational is shown as JSON shows it (_double).
    """
    if any(v.coeffs[1:]):
        return str(_double(v))
    num, den = v.as_integer_ratio()
    if den == 1:
        return str(num)
    whole = abs(num) // den
    n = places + len(str(whole)) if whole else places
    sign, c, e = digits(v, n)
    exact = c * den == abs(num) * 10 ** (n - 1 - e)
    return _point(sign, str(c).rstrip("0") if exact else str(c), e)


def human_str(v) -> str:
    """Compact rendering of an exact value for terminal output.

    A rational is shown as decimal_str shows it.  An irrational is shown to
    12 significant digits rounded once from its exact value, laid out as
    '%.12g' lays them out, unless that drops both the point and the exponent
    (1803989696.9957 rounds to 1803989697); then it is shown as decimal_str
    shows it, so a number printed without a decimal point is exact.
    """
    if not any(v.coeffs[1:]):
        return decimal_str(v)
    sign, c, e = digits(v, 12)
    text = str(c).rstrip("0")
    if -4 <= e < 12:
        return _point(sign, text, e) if e + 1 < len(text) else decimal_str(v)
    text = f"{text[0]}.{text[1:]}".rstrip(".")
    return f"{'-' if sign == -1 else ''}{text}e{e:+03d}"


QUOTE_CAP = 40


def cut(text: str, show=str) -> str:
    """show(text) for an error line; past QUOTE_CAP characters, show of its
    start and its length, so a long input or number keeps the line short."""
    if len(text) <= QUOTE_CAP:
        return show(text)
    return f"{show(text[:QUOTE_CAP])}... ({len(text)} characters)"


def value_to_json(v):
    """JSON form: a rational as {decimal, num, den}, an irrational as _double."""
    if any(v.coeffs[1:]):
        return _double(v)
    num, den = v.as_integer_ratio()
    return {"decimal": decimal_str(v), "num": num, "den": den}
