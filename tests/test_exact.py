"""Exact arithmetic helpers: roots, rendering, serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from commbounds.exact import (
    decimal_str,
    human_str,
    iroot,
    json_to_value,
    nth_root_exact,
    pow23,
    root_value,
    sqrt_value,
    value_to_json,
    values_agree,
)


def test_iroot_small_values():
    assert iroot(0, 3) == (0, True)
    assert iroot(1, 5) == (1, True)
    assert iroot(8, 3) == (2, True)
    assert iroot(9, 3) == (2, False)
    assert iroot(26, 3) == (2, False)
    assert iroot(27, 3) == (3, True)
    assert iroot(16, 2) == (4, True)
    assert iroot(17, 2) == (4, False)


def test_iroot_rejects_bad_args():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)


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
    with pytest.raises(ValueError):
        nth_root_exact(Fraction(-8), 3)


def test_root_value_types():
    r = root_value(Fraction(144), 2)
    assert isinstance(r, Fraction) and r == 12
    r = root_value(Fraction(2), 2)
    assert isinstance(r, float) and r == math.sqrt(2.0)
    assert sqrt_value(Fraction(9, 16)) == Fraction(3, 4)


def test_pow23():
    assert pow23(Fraction(27)) == Fraction(9)
    assert pow23(Fraction(27, 64)) == Fraction(9, 16)
    v = pow23(Fraction(2))
    assert isinstance(v, float) and v == 2.0 ** (2.0 / 3.0)
    # exactness detection keeps large attainable cases rational
    assert pow23(Fraction(96**3)) == Fraction(96**2)


def test_values_agree():
    assert values_agree(Fraction(1, 3), Fraction(1, 3))
    assert not values_agree(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))
    assert values_agree(1.0, 1.0 + 1e-13)
    assert not values_agree(1.0, 1.0 + 1e-11)
    assert values_agree(Fraction(1, 3), 1 / 3)


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


def test_json_shape():
    doc = value_to_json(Fraction(421875, 2))
    assert doc == {"decimal": "210937.5", "num": 421875, "den": 2}
    assert value_to_json(1.5) == 1.5
