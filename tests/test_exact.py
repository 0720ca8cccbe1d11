"""Exact arithmetic helpers: roots, the field type Radical, rendering,
serialization."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from commbounds.exact import (
    RATIONAL,
    Radical,
    coefficient_rows,
    decimal_str,
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
    assert decimal_str(0.1) == "0.1"  # repr round-trips


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
    assert human_str(3 * 32 ** (2.0 / 3.0)) == "30.2381051975"
    # 12 significant digits would print 1803989697, an integer it is not
    assert human_str(1803989696.995737) == "1803989696.995737"


def test_json_round_trip():
    for v in (Fraction(421875, 2), Fraction(7, 3), Fraction(0), 2.0 ** (2.0 / 3.0)):
        assert json_to_value(value_to_json(v)) == v
    b = Radical.generator(2, 3)
    assert json_to_value(value_to_json(b)) == float(b)
    assert json_to_value(value_to_json(b * b * b)) == 2


def test_a_radical_prints_as_its_fraction_or_float():
    s2 = Radical.generator(2, 2)
    half = s2.lift(Fraction(1, 2))  # rational, in an irrational field
    assert half.to_value() == Fraction(1, 2) and str(half) == "1/2"
    assert value_to_json(half) == {"decimal": "0.5", "num": 1, "den": 2}
    assert decimal_str(half) == human_str(half) == "0.5"
    assert s2.to_value() == float(s2) == math.sqrt(2)  # IEEE sqrt is correctly rounded
    assert str(s2) == decimal_str(s2) == repr(math.sqrt(2))
    assert value_to_json(s2) == math.sqrt(2)
    assert human_str(s2) == "1.41421356237"


def test_json_shape():
    doc = value_to_json(Fraction(421875, 2))
    assert doc == {"decimal": "210937.5", "num": 421875, "den": 2}
    assert value_to_json(1.5) == 1.5


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
    assert (s2 * s2 - 2).sign() == 0 and not (s2 * s2 - 2)
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
    assert float(Radical.generator(Fraction(8, 10**165) ** 2, 3)) == 4e-110
    b = Radical.generator(Fraction(8, 10**165 + 1) ** 2, 3)
    assert b.root != RATIONAL
    assert float(b) == pytest.approx(4e-110, rel=1e-15)
    assert float(b * Fraction(10**165 + 1)) == pytest.approx(4e55, rel=1e-15)
    big = Radical.generator(2 * 10**700, 2)  # 1.41421...e350
    with pytest.raises(OverflowError, match=r"^a value of about 1\.414e350 is beyond float range$"):
        float(big)
    with pytest.raises(OverflowError, match=r"^a value of about -1\.414e350 "):
        float(0 - big)


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
            assert v.sign() == (expect > 0) - (expect < 0) and v
            assert abs(float(v) - float(expect)) <= math.ulp(float(expect))
        assert not (x - x) and (x - x).sign() == 0
