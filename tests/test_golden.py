"""Golden CLI outputs: exit code, stdout and stderr, byte for byte.

`golden_cli.json` maps an argv, its words joined by single spaces, to
`[exit code, stdout, stderr]`. It covers every README example; `bound` in
each regime, on both boundaries, with P > mnk, with `--memory` (also next to
the edges where `binding` and `in_window` switch, on the exact tie of 64^3 at
P = 512 with M = 256/9, where both terms are 192, where M is the decimal as
typed, and as a decimal and the equal p/q, 500.5 and 1001/2, which print the
same report) and with a float bound whose 12 significant digits form an
integer, at 4096^3 on P = 18963, whose D the double nearest it would round
to the wrong 12th digit (with `verify` there too), and with a memory term
within 10^-60 of a 12-digit rounding midpoint, on each side of it, and
just below 100: by 10^-60, where its digits carry into the next decade,
and by 2.8 10^-10, where they keep the exponent of 99, and at
4.24 10^-320, whose double is subnormal and carries fewer than 12 digits;
`grid` with integral
and non-integral analytic grids; `simulate`
with even and uneven splits; `verify` plain, `--tiny`, with irrational optima
and at huge dimensions and P; `bound`, `grid` and `sweep` at dimensions
10^110, whose products are beyond float range; `bound` at dimensions 10^201
on P = 7, whose bound is above every double, and at P = 10^400 with
`--memory 2`, whose memory term is below every double, and `verify` with all
four numbers 10^300 + 7, each printing its digits; the owned data of
32769 x 32769 x 2 on P = 2^29, which lies halfway between two 28-place
decimals and rounds to the even one; `sweep` across both boundaries
and the constants table; each in the human, json and csv formats; and the
error paths, among them a flag short of its values and a dash-led value,
which cli.parse hands to argparse. A change to any output shows here as a
failing case.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import commbounds.cli as cli

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("key", list(CORPUS))
def test_output_matches_golden(key, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(key.split())
    assert [code, out.getvalue(), err.getvalue()] == CORPUS[key]
