"""Golden CLI outputs: exit code, stdout and stderr, byte for byte.

`golden_cli.json` maps an argv, its words joined by single spaces, to
`[exit code, stdout, stderr]`. It covers every README example; `bound` in
each regime, on both boundaries, with P > mnk, with `--memory` (also next to
the edges where `binding` and `in_window` switch) and with a float
bound whose 12 significant digits form an integer; `grid` with
integral and non-integral analytic grids; `simulate` with even and uneven
splits; `verify` plain, `--tiny`, with irrational optima and at huge
dimensions and P; `bound`, `grid` and `sweep` at dimensions 10^110, whose
products are beyond float range; `sweep` across both boundaries and the
constants table; each in the human, json and csv formats; and the error
paths. A change to any output shows here as a failing case.
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
