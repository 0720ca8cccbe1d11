"""Exact-where-possible arithmetic shared by the bound formulas.

Every closed-form quantity in this package is a rational number, or a rational
times a square or cube root.  We keep fractions.Fraction as long as a value is
rational and fall back to IEEE doubles only when a root is genuinely
irrational.  A float produced here comes from a handful of roundings (root of
a correctly rounded float, at most a few arithmetic ops on top), so its
relative error is far below 1e-13; all float comparisons in this package use a
1e-12 relative tolerance, and Fraction results are compared exactly.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor of the k-th root of n >= 0, plus an exactness flag."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n == 0 or k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    # Integer Newton from an upper bound; converges in O(log) steps and never
    # touches floats, so arbitrary precision ints are fine.
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    return r, r ** k == n


def nth_root_exact(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("nth_root_exact needs a nonnegative value")
    num, ok = iroot(x.numerator, k)
    if not ok:
        return None
    den, ok = iroot(x.denominator, k)
    if not ok:
        return None
    return Fraction(num, den)


def root_value(x: Value, k: int) -> Value:
    """k-th root, exact Fraction when possible, float otherwise."""
    if isinstance(x, Fraction):
        r = nth_root_exact(x, k)
        if r is not None:
            return r
        x = float(x)
    if k == 2:
        return math.sqrt(x)
    return x ** (1.0 / k)


def sqrt_value(x: Value) -> Value:
    return root_value(x, 2)


def pow23(x: Value) -> Value:
    """x ** (2/3), exact when x is a rational perfect cube."""
    if isinstance(x, Fraction):
        r = nth_root_exact(x, 3)
        if r is not None:
            return r * r
        x = float(x)
    return x ** (2.0 / 3.0)


def values_agree(a: Value, b: Value, rel_tol: float = 1e-12) -> bool:
    """Exact equality for rational pairs, relative closeness otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= rel_tol * max(1.0, abs(fa), abs(fb))


def decimal_str(v: Value, digits: int = 28) -> str:
    """Decimal rendering that keeps every integer digit.

    A rational is exact when its expansion terminates within `digits`
    fractional digits (all attainment values do); otherwise it is rounded to
    that many fractional digits (`digits` significant ones below 1) and still
    shows its decimal point, so a number printed without one is exact.
    """
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        whole = abs(v.numerator) // v.denominator
        with localcontext() as ctx:
            ctx.prec = digits + (Decimal(whole).adjusted() + 1 if whole else 0)
            d = Decimal(v.numerator) / Decimal(v.denominator)
        return format(d, "f")
    return repr(float(v))


def human_str(v: Value) -> str:
    """Compact rendering for terminal output.

    A float is shown to 12 significant digits unless that drops both the point
    and the exponent (1803989696.9957 rounds to 1803989697); then it is shown
    in full, so a number printed without a decimal point is exact.
    """
    if isinstance(v, Fraction):
        return decimal_str(v)
    text = "%.12g" % float(v)
    if "." in text or "e" in text:
        return text
    return repr(float(v))


def value_to_json(v: Value):
    """JSON form: rationals as {decimal, num, den}, floats as plain numbers."""
    if isinstance(v, Fraction):
        return {"decimal": decimal_str(v), "num": v.numerator, "den": v.denominator}
    return float(v)


def json_to_value(obj) -> Value:
    """Inverse of value_to_json."""
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    if isinstance(obj, int):
        return Fraction(obj)
    return float(obj)
