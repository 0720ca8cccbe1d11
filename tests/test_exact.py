"""Exact arithmetic helpers: roots, the field type Radical, rendering,
serialization."""

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from commbounds.bounds import ProblemShape, lower_bound
from commbounds.exact import (
    RATIONAL,
    Radical,
    coefficient_rows,
    decimal_str,
    digits,
    human_str,
    iroot,
    nth_root_exact,
    value_to_json,
)


def json_to_value(obj):
    """Inverse of value_to_json: a Fraction for {num, den} or an int, else
    the float."""
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    if isinstance(obj, int):
        return Fraction(obj)
    return float(obj)


def to_float(v) -> float:
    """The double nearest an exact value; for a Radical, the num/den of its
    approximation, within 2^-64 of it relative, correctly rounded."""
    if type(v) is Radical:
        num, den, _ = v.approximation()
        return num / den
    return float(v)


def to_value(v) -> Fraction | float:
    """A Fraction for a rational value, else to_float(v)."""
    if type(v) is Radical and not any(v.coeffs[1:]):
        return Fraction(v.coeffs[0], v.den)
    return v if type(v) is Fraction else to_float(v)


def test_iroot_small_values():
    assert iroot(0, 3) == (0, True)
    assert iroot(1, 5) == (1, True)
    assert iroot(8, 3) == (2, True)
    assert iroot(9, 3) == (2, False)
    assert iroot(26, 3) == (2, False)
    assert iroot(27, 3) == (3, True)
    assert iroot(16, 2) == (4, True)
    assert iroot(17, 2) == (4, False)


@given(st.integers(0, 2**400), st.sampled_from([2, 3, 5]))
def test_iroot_is_the_floor_root(n, k):
    r, exact = iroot(n, k)
    assert r**k <= n < (r + 1) ** k and exact == (r**k == n)


def test_iroot_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(500):
        k = int(rng.integers(2, 7))
        base = int(rng.integers(1, 10**6))
        n = base**k
        assert iroot(n, k) == (base, True)
        if n > 1:
            r, ok = iroot(n - 1, k)
            assert r == base - 1 and not ok
        r, ok = iroot(n + 1, k)
        assert r == base and not ok


def power_of_two_start_iroot(n, k):
    """iroot's Newton descent from its former start, 2^ceil(bits(n)/k)."""
    if n < 2:
        return n, True
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            return r, r**k == n
        r = nr


@settings(max_examples=600)
@given(
    st.one_of(
        st.integers(0, 2**3000),
        st.builds(lambda bits, seed: seed % 2**bits, st.integers(1, 3000), st.integers(0, 2**3000)),
        st.builds(lambda base, k, shift: (base**k + shift, k),
                  st.integers(1, 2**600), st.integers(1, 5), st.sampled_from([-1, 0, 1])),
    ),
    st.integers(1, 6),
)
def test_iroot_float_start_matches_the_power_of_two_start(n, k):
    # a perfect power and its neighbours bring their own k
    if isinstance(n, tuple):
        n, k = n
    assert iroot(n, k) == power_of_two_start_iroot(n, k)


def test_iroot_huge_exact():
    base = 12345678901234567890
    n = base**3
    assert iroot(n, 3) == (base, True)


def test_nth_root_exact():
    assert nth_root_exact(Fraction(27, 8), 3) == Fraction(3, 2)
    assert nth_root_exact(Fraction(2), 2) is None
    assert nth_root_exact(Fraction(1, 4), 2) == Fraction(1, 2)
    assert nth_root_exact(Fraction(0), 3) == 0


def test_decimal_str():
    assert decimal_str(Fraction(76)) == "76"
    assert decimal_str(Fraction(421875, 2)) == "210937.5"
    assert decimal_str(Fraction(189, 16)) == "11.8125"
    assert float(decimal_str(Fraction(1, 3))) == pytest.approx(1 / 3)


def test_decimal_str_rounds_only_fractional_digits():
    # 28 significant digits used to round 10**30 / 7 inside its integer part
    # and print it with no decimal point, as if it were exact
    v = Fraction(10**30, 7)
    text = decimal_str(v)
    whole, frac = text.split(".")
    assert whole == str(10**30 // 7)
    assert len(frac) == 28
    assert abs(Fraction(text) - v) <= Fraction(1, 2 * 10**28)
    assert decimal_str(-v) == "-" + text
    assert decimal_str(Fraction(10**40 + 1, 2)) == str(10**40 // 2) + ".5"


def test_human_str():
    assert human_str(Fraction(76)) == "76"
    assert human_str(Radical.generator(32 ** 2, 3) * 3) == "30.2381051975"
    # 12 significant digits would print 1803989697, an integer it is not
    bound = lower_bound(ProblemShape(63868, 63868, 63868), 3).bound
    assert human_str(bound) == repr(to_float(bound)) == "1803989696.9957438"
    assert digits(bound, 12) == (1, 180398969700, 9)


def test_json_round_trip():
    for v in (Fraction(421875, 2), Fraction(7, 3), Fraction(0)):
        assert json_to_value(value_to_json(v)) == v
    b = Radical.generator(2, 3)
    assert json_to_value(value_to_json(b)) == to_float(b) == 2 ** (1 / 3)
    assert json_to_value(value_to_json(b * b * b)) == 2


def test_a_radical_prints_as_its_decimal_or_its_double():
    s2 = Radical.generator(2, 2)
    half = s2.lift(Fraction(1, 2))  # rational, in an irrational field
    assert str(half) == decimal_str(half) == human_str(half) == "0.5"
    assert value_to_json(half) == {"decimal": "0.5", "num": 1, "den": 2}
    assert to_float(s2) == math.sqrt(2)  # IEEE sqrt is correctly rounded
    assert str(s2) == decimal_str(s2) == repr(math.sqrt(2))
    assert value_to_json(s2) == math.sqrt(2)
    assert human_str(s2) == "1.41421356237"


def test_json_shape():
    doc = value_to_json(Fraction(421875, 2))
    assert doc == {"decimal": "210937.5", "num": 421875, "den": 2}


def test_generator_reduces_perfect_powers_to_q():
    b = Radical.generator(Fraction(27, 8), 3)
    assert b.root == RATIONAL and b == Fraction(3, 2)
    assert Radical.generator(49, 2) == 7
    assert Radical.generator(Fraction(2), 1).root == RATIONAL
    b = Radical.generator(Fraction(4, 2), 2)
    assert (b.coeffs, b.den, b.root) == ((0, 1), 1, (2, 1, 2))


def test_the_generator_to_its_index_is_the_radicand():
    for r, d in ((Fraction(2), 2), (Fraction(5, 3), 3), (Fraction(10**40 + 1, 7), 3)):
        b = Radical.generator(r, d)
        power = b * b * b if d == 3 else b * b
        assert power == r and power.root == b.root and power != r + Fraction(1, 10**60)


def test_signs_of_known_values():
    s2 = Radical.generator(2, 2)
    assert (1 - s2).sign() == -1 and (3 - 2 * s2).sign() == 1
    assert (s2 * s2 - 2).sign() == 0 and s2 * s2 == 2
    c7 = Radical.generator(7, 3)  # 1.9129...
    assert (2 - c7).sign() == 1 and (c7 * c7 - Fraction(366, 100)).sign() == -1
    assert (c7 * c7 - Fraction(365, 100)).sign() == 1


def test_fields_do_not_mix():
    with pytest.raises(ValueError):
        Radical.generator(2, 2) + Radical.generator(3, 2)
    assert Radical.generator(2, 2) != Radical.generator(2, 3)
    assert Radical.generator(2, 2) != float("nan")


def test_float_survives_where_the_radicand_underflows():
    # at P = 10^165, (8/P)^2 is below the smallest float
    assert float(Fraction(8, 10**165) ** 2) == 0.0
    assert to_float(Radical.generator(Fraction(8, 10**165) ** 2, 3)) == 4e-110
    b = Radical.generator(Fraction(8, 10**165 + 1) ** 2, 3)
    assert b.root != RATIONAL
    assert to_float(b) == pytest.approx(4e-110, rel=1e-15)
    assert to_float(b * Fraction(10**165 + 1)) == pytest.approx(4e55, rel=1e-15)


@pytest.mark.parametrize("v, text", [
    (Radical.generator(2 * 10**700, 2), "1.4142135623730950e+350"),
    (0 - Radical.generator(2 * 10**700, 2), "-1.4142135623730950e+350"),
    (Radical.generator(2, 2) * 3 * Fraction(10) ** -400, "4.2426406871192851e-400"),
    (Radical.generator(2, 2) * -3 * Fraction(10) ** -400, "-4.2426406871192851e-400"),
])
def test_json_and_csv_print_17_digits_beyond_double_range(v, text):
    # 3 sqrt(2) 10^-400 is below every double and sqrt(2) 10^350 above them;
    # neither prints as 0.0, inf or an error
    assert value_to_json(v) == decimal_str(v) == text
    with localcontext() as ctx:
        ctx.prec = 80
        assert Decimal(text) == Context(prec=17).plus(_decimal(v))


def test_coefficient_rows_share_one_denominator_in_lowest_terms():
    b = Radical.generator(3, 3)
    values = [b * Fraction(1, 2), b.lift(Fraction(3, 4)) + b * b, b.lift(0)]
    assert coefficient_rows(values) == (4, [[0, 2, 0], [3, 0, 4], [0, 0, 0]])
    assert coefficient_rows([Radical((6,), 4, RATIONAL)]) == (2, [[3]])


def _decimal(v: Radical) -> Decimal:
    rn, rd, d = v.root
    beta = (Decimal(rn) / Decimal(rd)) ** (Decimal(1) / d)
    return sum(Decimal(c) * beta**i for i, c in enumerate(v.coeffs)) / Decimal(v.den)


coefficient = st.integers(-(10**12), 10**12)
radicands = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


@given(radicands, st.sampled_from([2, 3]), st.tuples(coefficient, coefficient, coefficient),
       st.tuples(coefficient, coefficient, coefficient), st.integers(1, 10**6),
       st.integers(1, 10**6), st.fractions(max_denominator=10**6))
def test_arithmetic_sign_and_float_match_80_digit_decimals(r, d, ca, cb, da, db, q):
    b = Radical.generator(r, d)
    assume(b.root != RATIONAL)
    x, y = Radical(ca[:d], da, b.root), Radical(cb[:d], db, b.root)
    with localcontext() as ctx:
        ctx.prec = 80
        dx, dy = _decimal(x), _decimal(y)
        dq = Decimal(q.numerator) / Decimal(q.denominator)
        cases = [(x, dx), (x + y, dx + dy), (x - y, dx - dy), (q - x, dq - dx),
                 (x * y, dx * dy), (x * q, dx * dq)]
        # the decimals carry about 1e-75 of this scale as rounding error
        scale = (1 + abs(dx)) * (1 + abs(dy)) * (1 + abs(dq))
        for v, expect in cases:
            assert abs(_decimal(v) - expect) <= Decimal(10) ** -60 * scale
            if abs(expect) <= Decimal(10) ** -50 * scale:
                continue  # too close to 0 for the decimals to tell its sign
            assert v.sign() == (expect > 0) - (expect < 0) and v != 0
            assert abs(to_float(v) - float(expect)) <= math.ulp(float(expect))
        assert x - x == 0 and (x - x).sign() == 0


TWELVE = Context(prec=12)  # rounds half to even


def twelve_digits(v: Radical) -> str:
    """'%.12g' of v's 80-digit decimal rounded once to 12 digits; the double
    nearest a 12-digit decimal prints as those digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return "%.12g" % float(TWELVE.plus(_decimal(v)))


def decimal_digits(x: Decimal, n: int) -> tuple[int, int, int]:
    """digits' (sign, c, e) of a nonzero Decimal, rounded once, half to even,
    to n significant digits."""
    r = Context(prec=n, rounding=ROUND_HALF_EVEN).plus(x)
    e = r.adjusted()
    return (-1 if r < 0 else 1), int(abs(r).scaleb(n - 1 - e)), e


def test_digits_are_rounded_from_the_exact_value():
    # D of 4096^3 at P = 18963 is 70778.787840149999739...; its double is
    # above the midpoint, so "%.12g" of the double printed ...8402
    d = lower_bound(ProblemShape(4096, 4096, 4096), 18963).accessed
    assert "%.12g" % to_float(d) == "70778.7878402"
    assert human_str(d) == twelve_digits(d) == "70778.7878401"
    assert digits(d, 12) == (1, 707787878401, 4)


@pytest.mark.parametrize("radicand, degree", [(2, 2), (3, 3), (Fraction(5, 7), 3)])
@pytest.mark.parametrize("step", [1, -1])
def test_a_midpoint_inside_the_approximation_is_decided_exactly(radicand, degree, step):
    # v = M + step (b - beta), with M = 70778.78784015, a midpoint between
    # 12-digit decimals, and beta a 60-digit decimal next to b: v is within
    # 10^-59 of M, far inside the approximation's error, on the side of M
    # that the sign of step (b - beta) gives
    b = Radical.generator(radicand, degree)
    with localcontext() as ctx:
        ctx.prec = 60
        beta = Fraction(_decimal(b))
    v = (b - beta) * step + Fraction(7077878784015, 10**8)
    num, den, err = v.approximation()
    assert abs(Fraction(num, den) - Fraction(7077878784015, 10**8)) < Fraction(err, den)
    up = (b - beta).sign() * step > 0
    assert human_str(v) == twelve_digits(v) == ("70778.7878402" if up else "70778.7878401")


@given(radicands, st.sampled_from([2, 3]), st.tuples(coefficient, coefficient, coefficient),
       st.integers(1, 10**6), st.integers(-1000, 1000), st.sampled_from([12, 17]))
def test_digits_of_an_irrational_match_80_digit_decimals(r, d, c, den, scale, n):
    b = Radical.generator(r, d)
    assume(b.root != RATIONAL and any(c[1:d]))
    v = Radical(c[:d], den, b.root) * Fraction(10) ** scale
    with localcontext() as ctx:
        ctx.prec = 80
        exact = _decimal(v)
        size = sum(abs(Decimal(x)) for x in c) * Decimal(10) ** scale / den
        # too close to 0 for the decimals to carry n digits
        assume(abs(exact) > size * Decimal(10) ** -50)
    assert digits(v, n) == decimal_digits(exact, n)


@st.composite
def rationals_and_precisions(draw):
    """(v, n): a nonzero rational at a decimal exponent from -1000 to 1000,
    and n = 12 or 17.  A third of them lie halfway between two n-digit
    decimals, and a third at or next to 10^n - 1/2, which rounds up into
    the next decade."""
    n = draw(st.sampled_from([12, 17]))
    kind = draw(st.sampled_from(["any", "tie", "carry"]))
    if kind == "any":
        q = draw(st.fractions(min_value=1, max_value=10))
    elif kind == "tie":
        q = Fraction(2 * draw(st.integers(10 ** (n - 1), 10 ** n - 1)) + 1, 2)
    else:
        step = draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 10 ** draw(st.integers(1, 40)))
        q = Fraction(2 * 10**n - 1, 2) + step
    scale = draw(st.integers(-1000, 1000))
    return draw(st.sampled_from([1, -1])) * q * Fraction(10) ** scale, n


@given(rationals_and_precisions())
def test_digits_of_a_rational_match_a_decimal_division(case):
    v, n = case
    # one division at precision n rounds once, half to even
    expect = decimal_digits(Context(prec=n).divide(v.numerator, v.denominator), n)
    assert digits(v, n) == expect
    # as the rational element of a field, and of Q
    assert digits(Radical.generator(2, 2).lift(v), n) == expect
    assert digits(Radical((v.numerator,), v.denominator, RATIONAL), n) == expect


def decimal_formula(v: Fraction, places: int = 28) -> str:
    """decimal_str of a rational through a Decimal context, as the package
    computed it before its digits were integers."""
    if v.denominator == 1:
        return str(v.numerator)
    whole = abs(v.numerator) // v.denominator
    with localcontext() as ctx:
        ctx.prec = places + (Decimal(whole).adjusted() + 1 if whole else 0)
        d = Decimal(v.numerator) / Decimal(v.denominator)
    return format(d, "f")


@settings(max_examples=300)
@given(st.one_of(
    st.fractions(),
    # terminating expansions, printed exactly within `places`
    st.builds(lambda m, a, b: Fraction(m, 2**a * 5**b), st.integers(-(10**40), 10**40),
              st.integers(0, 60), st.integers(0, 60)),
    # just below 1, which may round up to 1.000...
    st.builds(lambda k, s: 1 - Fraction(s, 10**k), st.integers(1, 80), st.sampled_from([1, 5, 9])),
), st.integers(-60, 60), st.integers(2, 40))
def test_decimal_str_matches_the_decimal_formula(q, scale, places):
    v = q * Fraction(10) ** scale
    assert decimal_str(v, places) == decimal_formula(v, places)
    if places == 28:
        assert decimal_str(v) == decimal_formula(v)


def test_a_rounded_decimal_keeps_its_point():
    # at one place, 0.99 rounds up to 1 and 9.96 to 10, with no fractional
    # digit left: the formula printed them as integers, as if exact
    assert decimal_formula(Fraction(99, 100), 1) == "1"
    assert decimal_str(Fraction(99, 100), 1) == "1."
    assert decimal_str(Fraction(996, 100), 1) == "10."


@pytest.mark.parametrize("scale", [-5, -4, 11, 12])
def test_human_str_switches_to_an_exponent_where_g_does(scale):
    # %g writes the exponents -4 to 11 in fixed point and the rest with e;
    # at 11 the 12 digits form an integer, so the repr of the double prints
    v = Radical.generator(2, 2) * Fraction(10) ** scale
    text = twelve_digits(v)
    assert text == "%.12g" % (2 ** 0.5 * 10.0 ** scale)
    assert digits(v, 12) == (1, 141421356237, scale)
    assert human_str(v) == (text if "." in text or "e" in text else repr(to_float(v)))


@given(radicands, st.sampled_from([2, 3]), st.tuples(coefficient, coefficient, coefficient),
       st.integers(1, 10**6), st.integers(-40, 40))
def test_human_str_matches_80_digit_decimals(r, d, c, den, scale):
    b = Radical.generator(r, d)
    assume(b.root != RATIONAL and any(c[1:d]))
    v = Radical(c[:d], den, b.root) * Fraction(10) ** scale
    with localcontext() as ctx:
        ctx.prec = 80
        size = sum(abs(Decimal(x)) for x in c) * Decimal(10) ** scale / den
        # too close to 0 for the decimals to carry 12 digits
        assume(abs(_decimal(v)) > size * Decimal(10) ** -50)
    text = twelve_digits(v)
    # 12 digits that form an integer print as the repr of the double
    assert human_str(v) == (text if "." in text or "e" in text else repr(to_float(v)))


@pytest.mark.parametrize("below, offset, twelve, text", [
    (10**12, Fraction(1, 10**13), (1, 10**11, 12), "1e+12"),
    (Fraction(1, 10**4), Fraction(1, 10**13), (1, 10**11, -4), "0.0001"),
    (10**12, Fraction(2, 10**12), (1, 999999999997, 11), "999999999997"),
    (Fraction(1, 10**4), Fraction(2, 10**12), (1, 999999999997, -5), "9.99999999997e-05")])
def test_digits_carry_into_the_next_decade(below, offset, twelve, text):
    # 10^e less sqrt(2) 10^(e - 13) rounds up to 10^e, one decade above it;
    # 10^e less 2 sqrt(2) 10^(e - 12) keeps exponent e - 1, as its last
    # digit is worth 10^(e - 12)
    b = Radical.generator(2, 2)
    v = b * (-below * offset) + below
    assert digits(v, 12) == twelve
    assert twelve_digits(v) == text
    # 999999999997 is no integer: it prints as the repr of the double
    assert human_str(v) == (text if "." in text or "e" in text else repr(to_float(v)))


@pytest.mark.parametrize("scale, text", [
    (-320, "4.24264068712e-320"), (-308, "4.24264068712e-308"), (-400, "4.24264068712e-400")])
def test_human_str_keeps_its_digits_below_the_normal_doubles(scale, text):
    # the double nearest 3 sqrt(2) 10^-320 is subnormal and prints as
    # 4.24254170084e-320; 10^-400 is below every double
    v = Radical.generator(2, 2) * 3 * Fraction(10) ** scale
    with localcontext() as ctx:
        ctx.prec = 80
        assert Decimal(text) == TWELVE.plus(_decimal(v))
    assert human_str(v) == text
    assert human_str(0 - v) == "-" + text


def test_cancelling_coefficients_refine_the_approximation():
    # 10^60 sqrt(2) - floor(10^60 sqrt(2)) = 0.73799...: a 128-bit b leaves
    # an error near 10^21, so the approximation doubles its bits
    b = Radical.generator(2, 2)
    v = Radical((-math.isqrt(2 * 10**120), 10**60), 1, b.root)
    num, den, err = v.approximation()
    assert err << 64 < abs(num)
    assert to_float(v) == 0.7379907324784621
    assert human_str(v) == twelve_digits(v) == "0.737990732478"
