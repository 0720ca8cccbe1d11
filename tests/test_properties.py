"""Properties of the claims `grid` and `bound --memory` print, over random
inputs.

Shapes have dimensions up to 10^6 and P is at most 10^4. Half the cases are
drawn at random; the other half are blocked shapes (p1 b, p2 b, p3 b) at
P = p1 p2 p3, whose analytic grid is integral, so the implication about
integral grids is exercised and not vacuous.  The converse is the paper's
tightness statement: a grid attains the bound only where the analytic grid is
integral, because the minimizer is unique in log space and every grid is a
feasible point.

`bound --memory` prints two decisions, `binding` and `in_window`; each must
equal the exact decision made here with integer powers, in all three formats,
and most of all next to the edge where it switches.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import commbounds.cli as cli
from commbounds.exact import json_to_value

dims = st.integers(1, 10**6)
random_cases = st.tuples(st.tuples(dims, dims, dims), st.integers(1, 10**4))
factors = st.integers(1, 21)
blocked_cases = st.builds(
    lambda p1, p2, p3, b: ((p1 * b, p2 * b, p3 * b), p1 * p2 * p3),
    factors, factors, factors, st.integers(1, 10**4),
)


def grid_json(shape, procs) -> dict:
    argv = ["grid", "--shape", *map(str, shape), "--procs", str(procs)]
    argv += ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@settings(deadline=None, max_examples=150)
@given(st.one_of(random_cases, blocked_cases))
def test_grid_claims(case):
    doc = grid_json(*case)
    cost = json_to_value(doc["exhaustive"]["cost"])
    bound = json_to_value(doc["lower_bound"])
    exact_bound = isinstance(doc["lower_bound"], dict)
    assert isinstance(cost, Fraction)
    if exact_bound:
        assert cost >= bound
    else:
        assert float(cost) >= bound - 1e-12 * max(1.0, abs(bound))
    assert doc["attained"] == (exact_bound and cost == bound)
    if doc["analytic"]["integral"]:
        assert doc["agreement"] and doc["attained"]
    if doc["attained"]:
        assert doc["analytic"]["integral"] and doc["agreement"]


def bound_outputs(shape, procs, memory) -> dict:
    """bound --memory in all three formats: the JSON document, the csv row
    as a dict, and the human lines."""
    argv = ["bound", "--shape", *map(str, shape), "--procs", str(procs),
            "--memory", repr(memory)]
    outs = {}
    for fmt in ("json", "csv", "human"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", fmt]) == 0
        outs[fmt] = out.getvalue()
    header, row = outs["csv"].splitlines()
    return {
        "json": json.loads(outs["json"]),
        "csv": dict(zip(header.split(","), row.split(","))),
        "human": outs["human"].splitlines(),
    }


def exact_decisions(shape, procs, memory) -> tuple[str, bool]:
    """binding and in_window from integer powers: with q = mnk/P, the
    memory-dependent term 2q/sqrt(M) exceeds D iff its square exceeds D^2 M;
    in the 3d regime D = 3 q^(2/3), so iff 64 q^2 > 729 M^3."""
    m, n, k = sorted(shape, reverse=True)
    M, q = Fraction(memory), Fraction(m * n * k, procs)
    if procs * n <= m:
        d = Fraction(m * n + m * k, procs) + n * k
        larger = 4 * q * q > d * d * M
    elif procs * k * k <= m * n:
        # D = 2s + a: compare 4q^2 - (4s^2 + a^2) M with 4aMs, both squared
        s2, a = Fraction(m * n * k * k, procs), Fraction(m * n, procs)
        lhs = 4 * q * q - (4 * s2 + a * a) * M
        larger = lhs > 0 and lhs * lhs > 16 * a * a * M * M * s2
    else:
        larger = 64 * q * q > 729 * M ** 3
    in_window = procs * k * k > m * n and 729 * procs**2 * M**3 <= 64 * (m * n * k) ** 2
    return ("memory_dependent" if larger else "memory_independent"), in_window


def assert_decisions_printed(shape, procs, memory):
    binding, in_window = exact_decisions(shape, procs, memory)
    out = bound_outputs(shape, procs, memory)
    assert out["json"]["binding"] == binding
    assert out["json"]["dominance"]["in_window"] is in_window
    assert out["csv"]["binding"] == binding
    line = next(l for l in out["human"] if l.startswith("binding"))
    assert line.split(":", 1)[1].split() == (
        [binding, "(inside", "dominance", "window)"] if in_window else [binding]
    )
    return binding, in_window


@pytest.mark.parametrize(
    "shape, procs, memory, expect",
    [
        # the memory-dependent term 8.82440692851180587 exceeds D
        # 8.82440692851180573; float comparison said the opposite
        ((157, 157, 157), 767101, 1.307319544964712, ("memory_dependent", True)),
        # 729 P^2 M^3 > 64 n^6, so P lies above the window whose float upper
        # edge printed as 87586.0
        ((180, 180, 180), 87586, 7.301398129198532, ("memory_independent", False)),
    ],
    ids=["binding-157", "in_window-180"],
)
def test_decision_repros(shape, procs, memory, expect):
    assert assert_decisions_printed(shape, procs, memory) == expect


def float_edges(target: Fraction) -> list[float]:
    """The floats just below and above target^(1/3), each with its outer
    neighbour: the nearest float to the edge and both its neighbours are
    among them."""
    lo = float(target) ** (1 / 3)
    while Fraction(lo) ** 3 > target:
        lo = math.nextafter(lo, 0)
    while Fraction(math.nextafter(lo, math.inf)) ** 3 <= target:
        lo = math.nextafter(lo, math.inf)
    hi = math.nextafter(lo, math.inf)
    return [math.nextafter(lo, 0), lo, hi, math.nextafter(hi, math.inf)]


@settings(deadline=None, max_examples=150)
@given(st.tuples(st.integers(2, 400), st.integers(2, 400), st.integers(2, 400)),
       st.integers(1, 10**7), st.integers(0, 3))
def test_binding_and_in_window_at_their_edge(shape, procs, which):
    # In the 3d regime both decisions switch where 64 q^2 = 729 M^3: the
    # memory term's crossover and the window's upper edge P = (8/27)mnk/M^1.5
    m, n, k = sorted(shape, reverse=True)
    procs = max(procs, m * n // (k * k) + 1)
    memory = float_edges(Fraction(64, 729) * Fraction(m * n * k, procs) ** 2)[which]
    assume(Fraction(memory) >= Fraction(m * n + m * k + n * k, procs))
    assert_decisions_printed(shape, procs, memory)


@settings(deadline=None, max_examples=100)
@given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 10**4)),
       st.integers(1, 10**6), st.fractions(1, 100))
def test_binding_and_in_window_anywhere(shape, procs, factor):
    # any feasible memory, from the owned words up
    m, n, k = sorted(shape, reverse=True)
    memory = float(Fraction(m * n + m * k + n * k, procs) * factor)
    assume(Fraction(memory) >= Fraction(m * n + m * k + n * k, procs))
    assert_decisions_printed(shape, procs, memory)
