"""End-to-end CLI behavior: output formats, config files, exit codes."""

import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commbounds.cli as cli
from commbounds.bounds import ProblemShape, lower_bound
from commbounds.exact import rational, value_to_json
from commbounds.simulate import MESSAGE_CAP, WORD_CAP
from test_exact import json_to_value, to_value


NINES = "9" * 1000  # the longest integer an input key takes


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_human_case_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--shape", "9600", "2400", "600", "--procs", "512"
        )
        assert code == 0
        assert "210937.5" in out
        assert "regime 3d" in out

    def test_human_case_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--shape", "96", "24", "6", "--procs", "3"
        )
        assert code == 0
        assert "lower bound     : 96" in out

    def test_inexact_float_keeps_its_point(self, capsys):
        # 1803989696.9957437982... has 12 significant digits 1803989697;
        # both floats are its correctly rounded value
        code, out, _ = run_cli(
            capsys, "bound", "--shape", "63868", "63868", "63868", "--procs", "3"
        )
        assert code == 0
        assert "accessed data D : 5883111120.995744\n" in out
        assert "lower bound     : 1803989696.9957438\n" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--shape", "9600", "2400", "600", "--procs", "512",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert json_to_value(doc["lower_bound"]) == Fraction(421875, 2)
        assert doc["lower_bound"]["decimal"] == "210937.5"
        assert doc["regime"] == "3d"

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--shape", "96", "24", "6", "--procs", "36",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n1"
        assert len(rows) == 2
        idx = rows[0].index("lower_bound")
        assert rows[1][idx] == "76"

    def test_memory_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--shape", "96", "96", "96", "--procs", "512",
            "--memory", "54", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["binding"] == "memory_dependent"
        assert doc["dominance"]["in_window"] is True

    @pytest.mark.parametrize("form", ["flag", "config-string", "config-number"])
    def test_memory_is_the_decimal_typed(self, capsys, tmp_path, form):
        argv = ["bound", "--shape", "96", "96", "96", "--procs", "512"]
        if form == "flag":
            argv += ["--memory", "54.1"]
        else:
            path = tmp_path / "run.json"
            path.write_text('{"memory": %s}' % ('"54.1"' if form == "config-string" else "54.1"))
            argv += ["--config", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "memory M        : 54.1\n" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert json_to_value(json.loads(out)["memory"]) == Fraction(541, 10)

    def test_memory_below_the_owned_words_is_printed_as_typed(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--shape", "96", "96", "96", "--procs", "512", "--memory", "53.9"
        )
        assert (code, out) == (2, "")
        assert err == "error: memory 53.9 below (mn+mk+nk)/P = 54; inputs and output must fit\n"

    @pytest.mark.parametrize("memory", ["1/3", "2/7", "0.0009765625"])
    def test_memory_below_is_printed_exactly(self, capsys, memory):
        # a non-terminating M prints as p/q, a terminating one as its decimal
        code, out, err = run_cli(
            capsys, "bound", "--shape", "96", "96", "96", "--procs", "512", "--memory", memory
        )
        assert (code, out) == (2, "")
        assert err == f"error: memory {memory} below (mn+mk+nk)/P = 54; inputs and output must fit\n"

    @pytest.mark.parametrize(
        "side, memory, typed, owned",
        [
            (NINES, "1", "1", str(Fraction(3 * int(NINES) ** 2, 2))),
            ("2", "1e-1000", "0." + "0" * 999 + "1", "6"),
        ],
        ids=["long-owned", "long-memory"],
    )
    def test_memory_below_cuts_a_long_number(self, capsys, side, memory, typed, owned):
        # each number past 40 characters prints as its start and its length
        code, out, err = run_cli(
            capsys, "bound", "--shape", side, side, side, "--procs", "2", "--memory", memory
        )
        assert (code, out) == (2, "")
        cut = [t if len(t) <= 40 else f"{t[:40]}... ({len(t)} characters)" for t in (typed, owned)]
        assert err == (f"error: memory {cut[0]} below (mn+mk+nk)/P = {cut[1]}; "
                       "inputs and output must fit\n")
        assert len(err.encode()) < 200

    def test_missing_shape_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--procs", "4")
        assert code == 2
        assert "shape" in err

    def test_range_rejected_for_single_p_command(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--shape", "4", "4", "4", "--procs", "2:8"
        )
        assert code == 2


class TestGrid:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--shape", "9600", "2400", "600", "--procs", "36"
        )
        assert code == 0
        assert "12x3x1" in out
        assert "attained: yes" in out

    def test_non_integral_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--shape", "7", "7", "7", "--procs", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic"]["integral"] is False
        assert doc["analytic"]["non_integral_axes"] == [1, 2, 3]
        assert doc["exhaustive"]["grid"] == [7, 1, 1]

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_irrational_bound_is_never_attained(self, capsys, fmt):
        # the 2x2x2 grid costs 37500002500000; the bound is irrational,
        # 37500002499999.9166..., within 1e-12 relative of that cost
        code, out, _ = run_cli(
            capsys, "grid", "--shape", "10000001", "10000000", "10000000",
            "--procs", "8", "--format", fmt,
        )
        assert code == 0
        if fmt == "human":
            assert out.splitlines()[-1].endswith("attained: no")
        elif fmt == "json":
            doc = json.loads(out)
            assert json_to_value(doc["exhaustive"]["cost"]) == 37500002500000
            assert isinstance(doc["lower_bound"], float)
            assert doc["attained"] is False
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[1][rows[0].index("attained")] == "false"


class TestSimulate:
    def test_explicit_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--shape", "96", "24", "6", "--grid", "12", "3", "1",
        )
        assert code == 0
        assert "critical path    : 76 words" in out
        assert "correctness      : PASS" in out

    def test_grid_from_procs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--shape", "96", "24", "6", "--procs", "36"
        )
        assert code == 0
        assert "76" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--shape", "96", "96", "96", "--grid", "2", "2", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["shape"] == [96, 96, 96]
        assert doc["grid"] == [2, 2, 2]
        assert doc["critical_path_words"] == 3456
        assert doc["correctness"] is True
        assert doc["attained"] is True
        assert {p["phase"] for p in doc["per_phase"]} == {
            "A_all_gather", "B_all_gather", "C_reduce_scatter"
        }
        for p in doc["per_phase"]:
            assert p["max_sent"] == max(p["per_proc_sent"])
        phases = {p["phase"]: p["max_sent"] for p in doc["per_phase"]}
        assert phases["A_all_gather"] == 1152
        assert doc["comparison"]["all_exact"] is True

    def test_mismatched_grid_procs(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--shape", "96", "24", "6",
            "--grid", "12", "3", "1", "--procs", "35",
        )
        assert code == 2

    def test_non_dividing_grid_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--shape", "7", "4", "2", "--grid", "2", "2", "1",
        )
        assert code == 2
        assert "divide" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            ("--shape 100000 100000 100000 --procs 8",
             f"simulate needs 68750000000 8-byte words, above the cap of {WORD_CAP}"),
            ("--shape 1 1 600 --grid 1 1 600",
             f"simulate sends 359400 messages, above the cap of {MESSAGE_CAP}"),
        ],
        ids=["words", "messages"],
    )
    def test_work_above_a_cap_exits_2_with_one_line(self, capsys, argv, line):
        code, out, err = run_cli(capsys, "simulate", *argv.split())
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_correctness_failure_exits_3(self, capsys, monkeypatch):
        import commbounds.simulate as simulate

        real = simulate.run_algorithm

        def broken(shape, grid, seed=0):
            rep = real(shape, grid, seed)
            rep.correctness = False
            return rep

        monkeypatch.setattr(cli, "run_algorithm", broken)
        code, out, _ = run_cli(
            capsys,
            "simulate", "--shape", "24", "12", "6", "--grid", "2", "3", "1",
        )
        assert code == 3
        assert "FAIL" in out


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "9600", "2400", "600", "--procs", "512"
        )
        assert code == 0
        assert "kkt                : PASS   (15 conditions by exact sign in Q)\n" in out
        assert "overall            : PASS" in out

    def test_tiny_adds_projection_checks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--shape", "4", "3", "2", "--procs", "4", "--tiny",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == [
            "kkt", "certificate", "min_projection_sum", "loomis_whitney", "projection_lb"
        ]
        assert doc["passed"] is True

    def test_tiny_rejects_big_shapes(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--shape", "96", "24", "6", "--procs", "4", "--tiny"
        )
        assert code == 2
        assert err == "error: --tiny needs n1*n2*n3 <= 24, got 13824\n"

    def test_tiny_cuts_a_long_volume(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--shape", NINES, NINES, NINES, "--procs", "2", "--tiny"
        )
        volume = str(int(NINES) ** 3)
        assert (code, out) == (2, "")
        assert err == (f"error: --tiny needs n1*n2*n3 <= 24, got {volume[:40]}... "
                       "(3000 characters)\n")
        assert len(err.encode()) < 200

    def test_tiny_cap_is_checked_before_any_work(self, capsys, monkeypatch):
        calls = []
        real = cli.analytic_solution_for_case

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "analytic_solution_for_case", recording)
        code, out, err = run_cli(
            capsys, "verify", "--shape", "96", "24", "6", "--procs", "4", "--tiny"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --tiny needs n1*n2*n3 <= 24, got 13824\n"
        assert calls == []

    @pytest.mark.parametrize(
        "shape, procs",
        [((2, 2, 2), 10**165), ((2, 2, 2), 10**165 + 1), ((10**110,) * 3, 7)],
        ids=["P-10^165", "P-10^165+1", "dims-10^110"],
    )
    def test_huge_inputs_are_decided_exactly(self, capsys, shape, procs):
        # (mnk/P)^2 is far below the smallest float, or mnk far above the
        # largest; the certificate is exact, and only display values are floats
        from check_certificate import check

        code, out, err = run_cli(
            capsys, "verify", "--shape", *map(str, shape), "--procs", str(procs),
            "--format", "json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [c["passed"] for c in doc["checks"]] == [True, True]
        assert check(doc) == []

    @pytest.mark.parametrize("procs", [3, 37, 65])
    def test_certificate_fails_on_a_wrong_d(self, capsys, monkeypatch, procs):
        # the KKT point is right; a D off by 10^-30 fails the exact check
        real = cli.d_case
        monkeypatch.setattr(cli, "d_case", lambda *a: real(*a) + Fraction(1, 10**30))
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "9600", "2400", "600", "--procs", str(procs),
            "--format", "json",
        )
        assert code == 4
        doc = json.loads(out)
        assert [(c["name"], c["passed"]) for c in doc["checks"]] == [
            ("kkt", True), ("certificate", False)
        ]

    def test_verification_failure_exits_4(self, capsys, monkeypatch):
        import commbounds.kkt as kkt

        def bad_solution(prob, case, b):
            b = kkt.case_field(1, prob.m, prob.n, prob.k, prob.P)
            return kkt.analytic_solution_for_case(prob, 1, b)

        monkeypatch.setattr(cli, "analytic_solution_for_case", bad_solution)
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "9600", "2400", "600", "--procs", "512"
        )
        assert code == 4
        # the case 1 multipliers go negative above P = m/n
        assert "kkt                : FAIL   (15 conditions by exact sign in Q; failed: dual)\n" in out


class TestSweep:
    @pytest.mark.parametrize("rows", [cli.SWEEP_ROW_CAP, cli.SWEEP_ROW_CAP + 1],
                             ids=["at-the-cap", "over-it"])
    def test_row_cap_holds_at_equality(self, rows):
        # counted, not planned: check_rows only compares integers
        if rows == cli.SWEEP_ROW_CAP:
            cli.check_rows(rows)
        else:
            with pytest.raises(ValueError, match=f"^sweep has {rows} rows, above the cap of "
                                                 f"{cli.SWEEP_ROW_CAP}$"):
                cli.check_rows(rows)

    @pytest.mark.parametrize(
        "procs, rows",
        [("1:100000000", "100000000"),
         (f"2:{NINES}", f"{NINES[:40]}... (1000 characters)")],
        ids=["1e8", "1000-digits"],
    )
    def test_a_range_above_the_cap_exits_2_before_planning(
        self, capsys, monkeypatch, procs, rows
    ):
        def planned(*args, **kwargs):
            raise AssertionError("a row was planned")

        monkeypatch.setattr(cli, "lower_bound", planned)
        code, out, err = run_cli(capsys, "sweep", "--shape", "9600", "2400", "600",
                                 "--procs", procs)
        assert (code, out) == (2, "")
        assert err == f"error: sweep has {rows} rows, above the cap of {cli.SWEEP_ROW_CAP}\n"
    def test_regime_switches_in_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "9600", "2400", "600", "--procs", "3:5",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        regime = header.index("regime")
        boundary = header.index("on_boundary")
        assert [r[regime] for r in rows[1:]] == ["1d", "1d", "2d"]
        assert [r[boundary] for r in rows[1:]] == ["false", "true", "false"]

    def test_second_switch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "96", "24", "6", "--procs", "63:65",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        regime = rows[0].index("regime")
        assert [r[regime] for r in rows[1:]] == ["2d", "2d", "3d"]

    def test_human_row_keeps_the_point_of_an_inexact_float(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--shape", "63868", "63868", "63868", "--procs", "3:3"
        )
        assert code == 0
        row = out.splitlines()[-1].split()
        assert row[:6] == [
            "3", "3d", "false", "5883111120.995744", "4079121424", "1803989696.9957438"
        ]

    def test_attained_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "96", "24", "6", "--procs", "36:36",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["attained"] is True
        assert json_to_value(row["lower_bound"]) == 76

    def test_constants_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--table", "constants", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert [r[0] for r in data] == ["3d", "2d", "1d"]
        get = lambda r, c: data[r][header.index(c)]
        assert float(get(0, "ACS90")) == pytest.approx(0.5 ** (2 / 3), abs=1e-12)
        assert get(0, "ITT04") == "0.5"
        assert get(0, "DE+13") == "1"
        assert get(0, "this_work") == "3"
        assert float(get(1, "DE+13")) == pytest.approx((2 / 3) ** 0.5, abs=1e-12)
        assert get(1, "this_work") == "2"
        assert get(2, "DE+13") == "0.64"
        assert get(2, "this_work") == "1"
        assert get(1, "ACS90") == "" and get(2, "ITT04") == ""


class TestConfigAndIO:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"shape": [96, 24, 6], "procs": 36, "format": "json"})
        )
        code, out, _ = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["procs"] == 36

    def test_explicit_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"shape": [96, 24, 6], "procs": 36}))
        code, out, _ = run_cli(
            capsys, "bound", "--config", str(cfg), "--procs", "3"
        )
        assert code == 0
        assert "lower bound     : 96" in out

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv, config, line",
        [
            ("bound", "[1, 2]", "config file must hold a JSON object"),
            ("bound --shape 2 2 2", None, "--procs is required"),
            ("bound --shape 2 2 2 --procs 1 --memory 0", None, "memory must be positive"),
        ],
        ids=["config-not-an-object", "procs-missing", "memory-zero"],
    )
    def test_error_line(self, capsys, tmp_path, argv, config, line):
        argv = argv.split()
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(config)
            argv += ["--config", str(path)]
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_out_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "bound.json"
        code, out, _ = run_cli(
            capsys,
            "bound", "--shape", "96", "24", "6", "--procs", "36",
            "--format", "json", "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert json_to_value(doc["lower_bound"]) == 76

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"shape": 5, "procs": 2}, []),
            ({"shape": [96.7, 24, 6], "procs": 36}, []),
            ({"shape": [96, 24, 6], "procs": 8, "memory": [1]}, []),
            ({"shape": [96, 24, 6], "procs": 8, "seed": [1]}, []),
            ({"shape": [96, 24, 6], "procs": 8, "out": 3}, []),
            ({"shape": [96, 24, 6], "procs": 8, "tiny": "no"}, []),
            ({"shape": [96, 24, 6], "procs": 8, "seed": 1.7}, []),
            ({"shape": [96, 24, 6], "procs": 8, "seed": True}, []),
            ({"shape": [1, 1, 1], "procs": 3, "memory": True}, []),
            ({"shape": [8, 8, True], "procs": 8}, []),
            (None, ["--memory", "inf"]),
            (None, ["--out", "{tmp}/missing/out.txt"]),
        ],
        ids=["shape-not-a-list", "shape-not-integers", "memory-list", "seed-list",
             "out-not-a-path", "tiny-not-a-bool", "seed-float", "seed-bool", "memory-bool",
             "shape-with-a-bool", "memory-inf", "out-missing-dir"],
    )
    def test_malformed_input_exits_2_with_one_line(
        self, capsys, tmp_path, config, flags
    ):
        argv = ["bound"]
        if config is None:
            argv += ["--shape", "96", "24", "6", "--procs", "8"]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        argv += [f.format(tmp=tmp_path) for f in flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    @pytest.mark.parametrize("command", ["bound", "grid", "sweep"])
    def test_huge_dimensions_print_the_digits_of_their_bound(self, capsys, command, fmt):
        # the irrational bound at P = 7 is about 3.9 10^401, beyond float
        # range: JSON and csv print its 17 significant digits, human text 12
        huge = str(10**200)
        procs = "7:8" if command == "sweep" else "7"
        code, out, err = run_cli(
            capsys, command, "--shape", huge, huge, huge, "--procs", procs, "--format", fmt
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            doc = json.loads(out, parse_float=str)  # the number's text
            text = (doc["rows"][0] if command == "sweep" else doc)["lower_bound"]
        elif fmt == "csv":
            text = next(csv.DictReader(io.StringIO(out)))["lower_bound"]
        elif command == "sweep":
            header, row = (line.split() for line in out.splitlines()[1:3])
            text = row[header.index("lower_bound")]
        else:
            text = out.split("lower bound     : ")[1].split()[0]
        with localcontext() as ctx:
            ctx.prec = 80
            # 3 (mnk/P)^(2/3) - (mn + mk + nk)/P
            bound = 3 * (Decimal(10) ** 600 / 7) ** (Decimal(2) / 3) - 3 * Decimal(10) ** 400 / 7
        n = 12 if fmt == "human" else 17
        assert Decimal(text) == Context(prec=n).plus(bound)
        assert len(text.split("e")[0].replace(".", "")) == n

    @pytest.mark.parametrize(
        "argv",
        [
            "grid --shape 96 24 6 --procs 64 --grid 4 4 4",
            "bound --shape 96 24 6 --procs 8 --tiny",
            "bound --shape 96 24 6 --procs 8 --seed 3",
            "sweep --shape 96 24 6 --procs 1:4 --memory 500",
            "verify --shape 2 2 2 --procs 2 --table constants",
            "verify --shape 2 2 2 --procs 2 --seed 3",
        ],
        ids=["grid-grid", "bound-tiny", "bound-seed", "sweep-memory", "verify-table",
             "verify-seed"],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("commbounds: error: unrecognized arguments: --")
        assert err.count("\n") == 1

    def test_config_keys_of_other_commands_are_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"shape": [96, 24, 6], "procs": 36, "grid": [12, 3, 1], "seed": 1,
             "memory": 500, "tiny": False, "table": None}
        ))
        for command in ("bound", "grid", "simulate", "verify"):
            code, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert (code, err) == (0, ""), command

    def test_unknown_subcommand_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert out == ""
        assert err.startswith("commbounds: error: argument command: invalid choice")
        assert err.count("\n") == 1

    def test_csv_round_trip_recomputes(self, capsys, tmp_path):
        # emitted values parse back to exactly what a fresh run computes
        from commbounds.bounds import ProblemShape, lower_bound

        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "96", "24", "6", "--procs", "30:40",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        for row in rows[1:]:
            procs = int(row[header.index("procs")])
            rep = lower_bound(ProblemShape(96, 24, 6), procs)
            got = row[header.index("lower_bound")]
            expect = to_value(rep.bound)
            if isinstance(expect, Fraction):
                assert Fraction(got) == expect
            else:
                assert float(got) == expect


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, capsys, monkeypatch, tmp_path):
        dest = tmp_path / "grid.txt"
        sequence = [
            ["verify", "--shape", "4", "3", "2", "--procs", "4", "--tiny",
             "--format", "json"],
            ["verify", "--shape", "9600", "2400", "600", "--procs", "36"],
            ["bound", "--shape", "96", "24", "6", "--procs", "8", "--bogus"],
            ["--help"],
            ["bound", "--shape", "96", "24", "6", "--procs", "8",
             "--memory", "500", "--format", "csv"],
            ["grid", "--shape", "96", "24", "6", "--procs", "36",
             "--out", str(dest)],
        ]

        def results():
            got = []
            for argv in sequence:
                dest.unlink(missing_ok=True)
                code, out, err = run_cli(capsys, *argv)
                written = dest.read_text() if dest.exists() else None
                got.append((code, out, err, written))
            return got

        shared = results()
        assert cli.build_parser() is cli.build_parser()
        build = cli.build_parser

        def fresh_parser():
            cli._parser = None
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", fresh_parser)
        fresh = results()
        assert [r[0] for r in shared] == [0, 0, 2, 0, 0, 0]
        assert shared[3][1].startswith("usage: commbounds")
        assert shared[5][3] is not None and shared[5][1] == ""
        assert shared == fresh


dims = st.integers(1, 10**6)
json_scalars = st.one_of(
    st.text(), st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)),
    st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0), st.just(5e-324), st.builds(rational, st.integers(), st.integers(1)),
    st.builds(lambda shape, procs, part: getattr(lower_bound(ProblemShape(*shape), procs), part),
              st.tuples(dims, dims, dims), st.integers(1, 10**12),
              st.sampled_from(["accessed", "bound"])),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.lists(json_values, max_size=4), st.lists(json_values, max_size=4).map(tuple),
                 st.dictionaries(st.text(), json_values, max_size=4)))
def test_json_emitter_is_json_dumps(v):
    assert cli.to_json(v) == json.dumps(v, indent=2, default=value_to_json)


ARGV_WORDS = st.sampled_from([
    *cli._ALL, *(f"--{key}" for key in cli._KEYS), "--config",
    "--sh", "--s", "--form", "--ti", "--procs=8", "-h", "--help", "--",
])
argv_word = st.one_of(ARGV_WORDS, ARGV_WORDS, st.integers(-99, 10**4).map(str),
                      st.text("ab-=:/.1", max_size=5))
argvs = st.one_of(
    st.lists(argv_word, max_size=8),
    st.builds(lambda command, rest: [command, *rest], st.sampled_from(cli._ALL),
              st.lists(argv_word, max_size=8)),
)


def parsed_run(parse, argv):
    """main's exit code, stdout, stderr and resolved config with argv read by parse."""
    configs = []

    def record(cfg):
        configs.append(cfg)
        raise cli.ConfigError("recorded")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        mp.setattr(cli, "parse", parse)
        mp.setattr(cli, "_DISPATCH", dict.fromkeys(cli._ALL, record))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), configs


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@settings(deadline=None, max_examples=400)
@given(argvs)
def test_parse_reads_any_words_as_the_full_parser(argv):
    assert parsed_run(cli.parse, argv) == parsed_run(full_parse, argv)


FLAG_VALUES = st.sampled_from(["", "-5", "8:4", "1e3", "0", "7", "96", "json", "constants"])


@st.composite
def well_formed_argvs(draw):
    """A command, then its own flags spelled in full, in any order and
    possibly repeated, each with as many values as it takes."""
    command = draw(st.sampled_from(cli._ALL))
    own = {"--config": 1, **{f"--{key}": spec.get("nargs", 0 if "action" in spec else 1)
                              for key, (spec, commands, _) in cli._KEYS.items()
                              if command in commands}}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(own)), max_size=8)):
        argv += [flag, *draw(st.lists(FLAG_VALUES, min_size=own[flag], max_size=own[flag]))]
    return argv


@settings(deadline=None, max_examples=400)
@given(well_formed_argvs())
def test_parse_reads_well_formed_argv_as_the_full_parser_without_it(argv):
    # argparse runs only for a dash-led value, here "-5", which it reads as
    # a negative number
    parser, built = cli.build_parser(), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", lambda: built.append(1) or parser)
        got = parsed_run(cli.parse, argv)
    assert got == parsed_run(full_parse, argv)
    assert bool(built) == ("-5" in argv)


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize(
    "argv, argparse_imported",
    [
        ("bound --shape 96 96 96 --procs 512 --memory 54", False),
        ("grid --shape 9600 2400 600 --procs 36", False),
        ("simulate --shape 96 24 6 --procs 8", False),
        ("sweep --shape 96 24 6 --procs 1:70", False),
        ("sweep --table constants", False),
        ("verify --shape 9600 2400 600 --procs 36", False),
        ("verify --shape 4 3 2 --procs 4 --tiny", False),
        ("verify --shape 9600 2400 600 --procs=37", True),
    ],
)
def test_command_imports_only_what_it_needs(argv, argparse_imported, fmt):
    # numpy is imported only by the functions that compute with it, which
    # only simulate calls; argparse only when parse hands argv over to it;
    # csv only to write csv; dataclasses never, typing only by numpy;
    # decimal, fractions and json never; and re, functools and collections
    # only by csv, argparse or numpy, each of which imports all three.
    # The child runs with -S: site can preload modules (a .pth file can
    # import typing or re), which would hide an import of the package's own.
    # numpy's directory goes on the path, as site would have put it there.
    src = str(Path(cli.__file__).resolve().parents[1])
    numpy_dir = str(Path(importlib.util.find_spec("numpy").origin).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH"), numpy_dir]))}
    watched = ("numpy", "argparse", "csv", "dataclasses", "typing", "decimal", "fractions",
               "json", "re", "functools", "collections")
    script = (
        "import sys\n"
        "from commbounds.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, *[m in sys.modules for m in {watched}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv.split(), "--format", fmt],
        capture_output=True, text=True, env=env, timeout=60,
    )
    simulate, csv_format = argv.startswith("simulate"), fmt == "csv"
    uses_re = simulate or argparse_imported or csv_format
    want = (f"0 {simulate} {argparse_imported} {csv_format} False {simulate} False False False"
            f" {uses_re} {uses_re} {uses_re}")
    assert proc.stdout.splitlines()[-1] == want, proc.stdout + proc.stderr
