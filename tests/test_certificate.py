"""The stdlib checker in check_certificate.py accepts every certificate that
`verify --format json` prints and refuses one that is altered anywhere."""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commbounds.cli as cli
from check_certificate import check

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
GOLDEN_VERIFY = [
    key for key, (code, _, _) in CORPUS.items()
    if key.startswith("verify ") and key.endswith("--format json") and code == 0
]


def verify_json(shape, procs) -> dict:
    argv = ["verify", "--shape", *map(str, shape), "--procs", str(procs), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_the_corpus_has_verify_outputs():
    assert len(GOLDEN_VERIFY) >= 10


@pytest.mark.parametrize("key", GOLDEN_VERIFY)
def test_golden_certificate_holds(key):
    assert check(json.loads(CORPUS[key][1])) == []


dims = st.integers(1, 10**5)


@settings(deadline=None, max_examples=200)
@given(st.tuples(dims, dims, dims), st.integers(1, 10**12),
       st.sampled_from(["any", "m/n", "mn/k^2"]))
def test_sampled_certificate_holds(shape, procs, near):
    m, n, k = sorted(shape, reverse=True)
    if near != "any":
        procs = max(1, m // n if near == "m/n" else m * n // (k * k))
    assert check(verify_json(shape, procs)) == []


@pytest.mark.parametrize("procs", [3, 37, 9999])
@pytest.mark.parametrize("part, row", [("x", 0), ("x", 2), ("mu", 0), ("mu", 3), ("d", 0)])
def test_altered_certificate_fails(procs, part, row):
    doc = verify_json((9600, 2400, 600), procs)
    doc["certificate"][part]["coefficients"][row][0] += 1
    assert check(doc) != []


def as_fractions(rows: dict) -> list:
    """A certificate's coefficient rows as Fractions over their den."""
    return [[Fraction(c, rows["den"]) for c in row] for row in rows["coefficients"]]


@pytest.mark.parametrize("procs, degree", [(3, 1), (37, 2), (9999, 3)])
def test_moving_one_coefficient_fails_verify_itself(monkeypatch, procs, degree):
    # every coefficient of every printed x and mu row, moved by +1 and by -1
    from test_kkt import moved

    real = cli.analytic_solution_for_case
    argv = ["verify", "--shape", "9600", "2400", "600", "--procs", str(procs), "--format", "json"]
    printed = verify_json((9600, 2400, 600), procs)["certificate"]
    for part, count in (("x", 3), ("mu", 4)):
        for i in range(count):
            for j in range(degree):
                for step in (1, -1):
                    monkeypatch.setattr(cli, "analytic_solution_for_case",
                                        lambda *a: moved(real(*a), part, i, j, step))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    doc = json.loads(out.getvalue())
                    # the printed value moved by step over the printed den
                    want = as_fractions(printed[part])
                    want[i][j] += Fraction(step, printed[part]["den"])
                    assert as_fractions(doc["certificate"][part]) == want
                    assert doc["certificate"]["root"] == degree
                    assert (code, doc["passed"]) == (4, False), (part, i, j, step)
                    assert check(doc) != [], (part, i, j, step)


@pytest.mark.parametrize("num, den, root", [(0, 1, 2), (2, 4, 2), (36, 1, 2), (8, 27, 3), (2, 1, 4)])
def test_a_field_that_is_not_one_fails(num, den, root):
    # a zero or unreduced radicand, a perfect power or a root index above 3
    doc = verify_json((9600, 2400, 600), 37)
    doc["certificate"]["radicand"] = {"num": num, "den": den}
    doc["certificate"]["root"] = root
    assert check(doc) == ["field"]


@pytest.mark.parametrize("part, row", [("x", 1), ("mu", None), ("d", None)])
def test_malformed_rows_raise(part, row):
    doc = verify_json((9600, 2400, 600), 37)
    rows = doc["certificate"][part]["coefficients"]
    if row is None:
        rows.pop()  # one value too few
    else:
        rows[row].append(0)  # a row longer than the root index
    with pytest.raises(ValueError):
        check(doc)
