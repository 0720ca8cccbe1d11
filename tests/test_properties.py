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
and most of all next to the edge where it switches and on it, at an exact
rational tie.  The printed numbers must
agree with them: correct rounding is monotone, so the term `binding` names is
printed no smaller than the other, and P no larger than `window_upper` inside
the window.

`bound` and `sweep` print each P's `regime` and `on_boundary`; they must
equal the integer decision, in all three formats, at P on a regime boundary
and at its two neighbours as well as at random P.

Every number `bound`, `grid` and `sweep` print in JSON is checked against its
exact value, recomputed here with 80-digit decimals, and every csv and human
number against its JSON value.

`simulate` prints, per phase, the measured maximum, the closed form
w - floor(w/p) and the ideal (1 - 1/p) w, then the predicted total and the
lower bound; each must equal its exact value in all three formats, and
`attained`, `all_within_bound` and `all_exact` must be the decisions those
values make.
"""

import contextlib
import csv
import io
import itertools
import json
import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import commbounds.cli as cli
from commbounds.exact import iroot
from test_exact import json_to_value
from test_simulate import dividing_runs

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
    # a float bound is correctly rounded, and rounding is monotone
    assert cost >= bound if exact_bound else float(cost) >= bound
    assert doc["attained"] == (exact_bound and cost == bound)
    if doc["analytic"]["integral"]:
        assert doc["agreement"] and doc["attained"]
    if doc["attained"]:
        assert doc["analytic"]["integral"] and doc["agreement"]


def cli_outputs(command, shape, procs, *flags) -> dict:
    """One command in all three formats: the JSON document, the csv rows as
    dicts, and the human lines."""
    argv = [command, "--shape", *map(str, shape), "--procs", str(procs), *flags]
    outs = {}
    for fmt in ("json", "csv", "human"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", fmt]) == 0
        outs[fmt] = out.getvalue()
    return {
        "json": json.loads(outs["json"]),
        "csv": list(csv.DictReader(io.StringIO(outs["csv"]))),
        "human": outs["human"].splitlines(),
    }


def memory_text(memory) -> str:
    """The exact text a memory means: p/q for a Fraction, the decimal
    expansion for a float, which terminates, and a text as typed."""
    if isinstance(memory, Fraction):
        return f"{memory.numerator}/{memory.denominator}"
    return str(Decimal(memory))


def bound_outputs(shape, procs, memory) -> dict:
    return cli_outputs("bound", shape, procs, "--memory", memory_text(memory))


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
    assert out["csv"][0]["binding"] == binding
    line = next(l for l in out["human"] if l.startswith("binding"))
    assert line.split(":", 1)[1].split() == (
        [binding, "(inside", "dominance", "window)"] if in_window else [binding]
    )
    # the printed numbers agree with the decisions
    doc = out["json"]
    mem_dep, accessed = (
        float(json_to_value(doc[key])) for key in ("memory_dependent", "accessed")
    )
    assert mem_dep >= accessed if binding == "memory_dependent" else mem_dep <= accessed
    upper = float(json_to_value(doc["dominance"]["window_upper"]))
    assert procs <= upper if in_window else upper <= procs
    return binding, in_window


@pytest.mark.parametrize(
    "shape, procs, memory, expect",
    [
        # the memory-dependent term 8.82440692851180587 exceeds D
        # 8.82440692851180573; float comparison said the opposite
        ((157, 157, 157), 767101, 1.307319544964712, ("memory_dependent", True)),
        # the decimal as typed is a different rational, outside the window
        ((157, 157, 157), 767101, "1.307319544964712", ("memory_independent", False)),
        # 729 P^2 M^3 > 64 n^6, so P lies above the window whose float upper
        # edge printed as 87586.0
        ((180, 180, 180), 87586, 7.301398129198532, ("memory_independent", False)),
    ],
    ids=["binding-157", "binding-157-typed", "in_window-180"],
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
@given(st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60)),
       st.integers(1, 200), st.integers(1, 12))
def test_binding_and_in_window_on_an_exact_tie(xyz, c, d):
    # shape c (x, y, z) at P = xyz d^3 has mnk/P = (c/d)^3, so the two terms
    # tie at M = 4c^2 / (9d^2): memory_independent, and P inside the window
    shape, procs = tuple(c * v for v in xyz), math.prod(xyz) * d**3
    memory = Fraction(4 * c * c, 9 * d * d)
    assume(memory >= Fraction(sum(a * b for a, b in itertools.combinations(shape, 2)), procs))
    assert assert_decisions_printed(shape, procs, memory) == ("memory_independent", True)


@settings(deadline=None, max_examples=100)
@given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 10**4)),
       st.integers(1, 10**6), st.fractions(1, 100))
def test_binding_and_in_window_anywhere(shape, procs, factor):
    # any feasible memory, from the owned words up
    m, n, k = sorted(shape, reverse=True)
    memory = float(Fraction(m * n + m * k + n * k, procs) * factor)
    assume(Fraction(memory) >= Fraction(m * n + m * k + n * k, procs))
    assert_decisions_printed(shape, procs, memory)


def exact_regime(shape, procs) -> tuple[str, bool]:
    """1d iff P n <= m, else 2d iff P k^2 <= mn, else 3d; on the boundary iff
    the comparison that decided holds with equality."""
    m, n, k = sorted(shape, reverse=True)
    if procs * n <= m:
        return "1d", procs * n == m
    if procs * k * k <= m * n:
        return "2d", procs * k * k == m * n
    return "3d", False


def printed_regime(regime: str, on_boundary: str) -> tuple[str, bool]:
    assert on_boundary in ("true", "false")
    return regime, on_boundary == "true"


def assert_regimes_printed(shape, lo, hi):
    expect = [exact_regime(shape, procs) for procs in range(lo, hi + 1)]
    for procs, e in zip(range(lo, hi + 1), expect):
        out = cli_outputs("bound", shape, procs)
        assert (out["json"]["regime"], out["json"]["on_boundary"]) == e
        assert printed_regime(out["csv"][0]["regime"], out["csv"][0]["on_boundary"]) == e
        words = out["human"][0].split("regime ", 1)[1].split()
        assert (words[0], words[1:] == ["(on", "boundary)"]) == e
    out = cli_outputs("sweep", shape, f"{lo}:{hi}")
    assert [(r["regime"], r["on_boundary"]) for r in out["json"]["rows"]] == expect
    assert [printed_regime(r["regime"], r["on_boundary"]) for r in out["csv"]] == expect
    header, *lines = out["human"][1:]
    rows = [dict(zip(header.split(), line.split(), strict=True)) for line in lines]
    assert [printed_regime(r["regime"], r["on_boundary"]) for r in rows] == expect


def _on_one_two(n, k, procs, perm):
    # m = P n >= n >= k, so P = m/n
    n, k = max(n, k), min(n, k)
    dims = (procs * n, n, k)
    return tuple(dims[i] for i in perm), procs


def _on_two_three(k, a, c, perm):
    # m = c k >= n = a k >= k, so P = mn/k^2 = ac
    a, c = min(a, c), max(a, c)
    dims = (c * k, a * k, k)
    return tuple(dims[i] for i in perm), a * c


sides, perms = st.integers(1, 1000), st.permutations(range(3))
boundary_cases = st.one_of(
    st.builds(_on_one_two, sides, sides, sides, perms),
    st.builds(_on_two_three, sides, sides, sides, perms),
)


@settings(deadline=None, max_examples=60)
@given(boundary_cases)
def test_regime_at_boundaries(case):
    shape, procs = case
    assert_regimes_printed(shape, max(1, procs - 1), procs + 1)


@settings(deadline=None, max_examples=40)
@given(random_cases, st.integers(0, 2))
def test_regime_anywhere(case, extra):
    shape, procs = case
    assert_regimes_printed(shape, procs, procs + extra)


# Printed numbers.  Exact values are Fractions where rational and 80-digit
# Decimals otherwise, computed here from the closed forms in bounds.py's
# docstring; float() of such a Decimal is its correctly rounded double.


DIGITS = Context(prec=80)


def _dec(q: Fraction):
    return DIGITS.divide(q.numerator, q.denominator)


def root(q: Fraction, d: int):
    """q^(1/d): a Fraction when rational, else a Decimal."""
    num, num_ok = iroot(q.numerator, d)
    den, den_ok = iroot(q.denominator, d)
    if num_ok and den_ok:
        return Fraction(num, den)
    return DIGITS.power(_dec(q), DIGITS.divide(1, d))


def affine(c: Fraction, x, a: Fraction):
    """c x + a, a Fraction when x is one."""
    if isinstance(x, Fraction):
        return c * x + a
    return DIGITS.add(DIGITS.multiply(_dec(c), x), _dec(a))


def expected_bound(shape, procs, memory=None) -> dict:
    m, n, k = sorted(shape, reverse=True)
    owned = Fraction(m * n + m * k + n * k, procs)
    if procs * n <= m:
        d = Fraction(m * n + m * k, procs) + n * k
    elif procs * k * k <= m * n:
        d = affine(Fraction(2), root(Fraction(m * n * k * k, procs), 2), Fraction(m * n, procs))
    else:
        d = affine(Fraction(3), root(Fraction(m * n * k, procs) ** 2, 3), Fraction(0))
    values = {"accessed": d, "owned": owned, "lower_bound": affine(Fraction(1), d, -owned)}
    if memory is not None:
        mem = Fraction(memory)
        values["memory"] = mem
        # 2mnk/(P sqrt(M)) and (8/27) mnk / M^(3/2)
        values["memory_dependent"] = affine(
            Fraction(2 * m * n * k, procs) / mem, root(mem, 2), Fraction(0))
        values["window_upper"] = affine(
            Fraction(8 * m * n * k, 27) / mem ** 2, root(mem, 2), Fraction(0))
    return values


def expected_factors(shape, procs) -> list:
    """The analytic grid factors, on the shape's own axes."""
    m, n, k = sorted(shape, reverse=True)
    if procs * n <= m:
        pqr = (Fraction(procs), Fraction(1), Fraction(1))
    elif procs * k * k <= m * n:
        pqr = (root(Fraction(procs * m, n), 2), root(Fraction(procs * n, m), 2), Fraction(1))
    else:
        pqr = [root(Fraction(procs * a * a, b * c), 3) for a, b, c in ((m, n, k), (n, m, k),
                                                                      (k, m, n))]
    factors = [None] * 3
    for axis, f in zip(sorted(range(3), key=lambda i: -shape[i]), pqr):
        factors[axis] = f
    return factors


def grid_cost(shape, grid) -> tuple:
    """(words_a, words_b, words_c, total) of the 3D algorithm on a grid."""
    (n1, n2, n3), (p1, p2, p3) = shape, grid
    words = ((1 - Fraction(1, p3)) * Fraction(n1 * n2, p1 * p2),
             (1 - Fraction(1, p1)) * Fraction(n2 * n3, p2 * p3),
             (1 - Fraction(1, p2)) * Fraction(n1 * n3, p1 * p3))
    return (*words, sum(words))


def assert_exact(j, e):
    """A JSON number against its exact value: a rational equal exactly, an
    irrational as the double nearest to it."""
    if isinstance(e, Fraction):
        assert isinstance(j, dict) and Fraction(j["num"], j["den"]) == e
    else:
        assert isinstance(j, float) and j == float(e)


TWELVE = Context(prec=12)  # rounds half to even, as correct rounding does


def assert_printed(text, j, exact=None):
    """A csv number, or with its exact value a human one, against its JSON
    value: a rational as the same decimal; an irrational in csv as the repr
    of its float, which round-trips, and in human text as its exact value
    rounded once to 12 significant digits, in %.12g's form (the double
    nearest a 12-digit decimal prints as those digits), or as the repr where
    that form has neither a point nor an exponent."""
    if isinstance(j, dict):
        assert text == j["decimal"]
    elif exact is not None:
        twelve = "%.12g" % float(TWELVE.plus(exact))
        assert text == (twelve if "." in twelve or "e" in twelve else repr(j))
    else:
        assert text == repr(j) and float(text) == j


def labelled(lines) -> dict:
    """Human lines `label : value` as a dict."""
    return dict((a.strip(), b) for a, b in (l.split(" : ", 1) for l in lines if " : " in l))


BOUND_LABELS = {"accessed data D": "accessed", "owned per proc": "owned",
                "lower bound": "lower_bound", "memory M": "memory",
                "memory-dep term": "memory_dependent"}


def assert_bound_numbers(shape, procs, memory=None):
    flags = () if memory is None else ("--memory", memory_text(memory))
    out = cli_outputs("bound", shape, procs, *flags)
    doc, row, human = out["json"], out["csv"][0], labelled(out["human"])
    expected = expected_bound(shape, procs, memory)
    for key, e in expected.items():
        j = doc["dominance"][key] if key == "window_upper" else doc[key]
        assert_exact(j, e)
        if key not in ("memory", "window_upper"):
            assert_printed(row[key], j)
    if memory is None:
        assert row["memory_dependent"] == ""
    for label, key in BOUND_LABELS.items():
        if key in doc:
            assert_printed(human[label].split()[0], doc[key], expected[key])


def assert_grid_numbers(shape, procs):
    out = cli_outputs("grid", shape, procs)
    doc, row, human = out["json"], out["csv"][0], labelled(out["human"])
    an, ex = doc["analytic"], doc["exhaustive"]
    for j, e in zip(an["factors"], expected_factors(shape, procs)):
        assert_exact(j, e)
    bound = expected_bound(shape, procs)["lower_bound"]
    assert_exact(doc["lower_bound"], bound)
    costs = grid_cost(shape, ex["grid"])
    for key, e in zip(("words_a", "words_b", "words_c", "cost"), costs):
        assert_exact(ex[key], e)
    assert_printed(row["exhaustive_cost"], ex["cost"])
    assert_printed(row["lower_bound"], doc["lower_bound"])
    assert_printed(human["exhaustive grid"].split()[-1], ex["cost"], costs[3])
    assert_printed(human["lower bound"].split()[0], doc["lower_bound"], bound)
    analytic = human["analytic grid"]
    if an["integral"]:
        cost = grid_cost(shape, an["grid"])[3]
        assert_exact(an["cost"], cost)
        assert_printed(analytic.split()[-1], an["cost"], cost)
    else:
        texts = analytic[analytic.index("(") + 1:analytic.index(")")].split(" x ")
        for text, j, e in zip(texts, an["factors"], expected_factors(shape, procs), strict=True):
            assert_printed(text, j, e)


def assert_sweep_numbers(shape, lo, hi):
    out = cli_outputs("sweep", shape, f"{lo}:{hi}")
    doc, title, header, *rows = out["json"], *out["human"]
    m, n, k = sorted(shape, reverse=True)
    for key, e in (("one_two", Fraction(m, n)), ("two_three", Fraction(m * n, k * k))):
        assert_exact(doc["boundaries"][key], e)
    assert title.endswith(f"m/n = {doc['boundaries']['one_two']['decimal']}, "
                          f"mn/k^2 = {doc['boundaries']['two_three']['decimal']}")
    for row, row_csv, line in zip(doc["rows"], out["csv"], rows, strict=True):
        row_human = dict(zip(header.split(), line.split(), strict=True))
        e = expected_bound(shape, row["procs"])
        e["exhaustive_cost"] = grid_cost(shape, map(int, row["exhaustive_grid"].split("x")))[3]
        for key in ("accessed", "owned", "lower_bound", "exhaustive_cost"):
            assert_exact(row[key], e[key])
            assert_printed(row_csv[key], row[key])
            assert_printed(row_human[key], row[key], e[key])


@settings(deadline=None, max_examples=100)
@given(random_cases, st.one_of(st.none(), st.fractions(1, 100)))
def test_bound_numbers(case, factor):
    shape, procs = case
    memory = None
    if factor is not None:  # any feasible memory, from the owned words up
        m, n, k = shape
        memory = float(Fraction(m * n + m * k + n * k, procs) * factor)
        assume(Fraction(memory) >= Fraction(m * n + m * k + n * k, procs))
    assert_bound_numbers(shape, procs, memory)


@settings(deadline=None, max_examples=100)
@given(st.one_of(random_cases, blocked_cases))
def test_grid_numbers(case):
    assert_grid_numbers(*case)


@settings(deadline=None, max_examples=50)
@given(random_cases, st.integers(0, 3))
def test_sweep_numbers(case, extra):
    shape, procs = case
    assert_sweep_numbers(shape, procs, procs + extra)


@pytest.mark.parametrize("command", ["bound", "grid", "sweep"])
def test_numbers_at_huge_dimensions(command):
    # mnk/P = 10^330/7: every number is beyond float range before it is
    # reduced, and D is about 10^220
    shape = (10**110,) * 3
    if command == "bound":
        assert_bound_numbers(shape, 7)
    elif command == "grid":
        assert_grid_numbers(shape, 7)
    else:
        assert_sweep_numbers(shape, 7, 8)


@settings(deadline=None, max_examples=60)
@given(dividing_runs(), st.integers(0, 2**32))
def test_simulate_claims(run, seed):
    shape, grid = run
    (n1, n2, n3), (p1, p2, p3) = shape.dims, grid.dims
    out = cli_outputs("simulate", shape.dims, grid.size, "--grid", *map(str, grid.dims),
                      "--seed", str(seed))
    doc, rows, human = out["json"], out["csv"], out["human"]
    # (block words w, fiber size p) of the A, B and C phases
    blocks = ((n1 * n2 // (p1 * p2), p3), (n2 * n3 // (p2 * p3), p1), (n1 * n3 // (p1 * p3), p2))
    measured = []
    phases = zip(doc["per_phase"], rows[:3], human[1:4], blocks, strict=True)
    for ph, row, line, (w, p) in phases:
        top = max(*ph["per_proc_sent"], *ph["per_proc_received"])
        closed_form, ideal = w - w // p, (1 - Fraction(1, p)) * w
        assert (ph["max_sent"], ph["closed_form"]) == (top, closed_form)
        assert_exact(ph["ideal"], ideal)
        assert ph["even_split"] == (ideal.denominator == 1)
        split = "even" if ph["even_split"] else "uneven"
        assert row == {"phase": ph["phase"], "measured_max": str(top),
                       "closed_form": str(closed_form), "ideal": ph["ideal"]["decimal"],
                       "even_split": str(ph["even_split"]).lower()}
        assert line == (f"{ph['phase']:<17}: max {top} words   (closed form {closed_form}, "
                        f"ideal {ph['ideal']['decimal']}, {split} split)")
        measured.append((top, closed_form, ideal))
    cost = sum(top for top, _, _ in measured)
    bound = expected_bound(shape.dims, grid.size)["lower_bound"]
    assert doc["critical_path_words"] == cost
    predicted = sum(ideal for _, _, ideal in measured)
    assert_exact(doc["predicted_total"], predicted)
    assert_exact(doc["lower_bound"], bound)
    attained = isinstance(bound, Fraction) and cost == bound
    assert doc["attained"] == attained
    assert doc["comparison"] == {
        "all_exact": all(top == ideal for top, _, ideal in measured),
        "all_within_bound": all(top == closed_form for top, closed_form, _ in measured),
    }
    assert rows[3] == {"phase": "total", "measured_max": str(cost), "closed_form": "",
                       "ideal": doc["predicted_total"]["decimal"], "even_split": ""}
    labels = labelled(human)
    assert labels["critical path"] == f"{cost} words"
    assert_printed(labels["predicted total"], doc["predicted_total"], predicted)
    printed_bound, attained_text = labels["lower bound"].split("   attained: ")
    assert_printed(printed_bound, doc["lower_bound"], bound)
    assert attained_text == ("yes" if attained else "no")
