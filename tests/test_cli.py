"""End-to-end CLI behavior: output formats, config files, exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

import commbounds.cli as cli
from commbounds.exact import json_to_value


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
        assert doc["critical_path_words"] == "3456"
        assert doc["correctness"] is True
        assert doc["attained"] is True
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
        assert "overall            : PASS" in out

    def test_tiny_adds_projection_checks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--shape", "4", "3", "2", "--procs", "4", "--tiny",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        names = {c["name"] for c in doc["checks"]}
        assert {"kkt", "oracle", "quasiconvexity", "min_projection_sum",
                "loomis_whitney", "projection_lb"} <= names
        assert doc["passed"] is True

    def test_tiny_rejects_big_shapes(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--shape", "96", "24", "6", "--procs", "4", "--tiny"
        )
        assert code == 2
        assert "24" in err

    def test_tiny_cap_is_checked_before_any_work(self, capsys, monkeypatch):
        calls = []
        real = cli.numeric_minimize_oracle

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "numeric_minimize_oracle", recording)
        code, out, err = run_cli(
            capsys, "verify", "--shape", "96", "24", "6", "--procs", "4", "--tiny"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --tiny needs n1*n2*n3 <= 24, got 13824\n"
        assert calls == []

    def test_verification_failure_exits_4(self, capsys, monkeypatch):
        import commbounds.kkt as kkt

        def bad_solution(prob):
            sol = kkt.analytic_solution_for_case(prob, 1)
            return sol

        monkeypatch.setattr(cli, "analytic_solution", bad_solution)
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "9600", "2400", "600", "--procs", "512"
        )
        assert code == 4
        assert "FAIL" in out


class TestSweep:
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
            (None, ["--memory", "inf"]),
            (None, ["--out", "{tmp}/missing/out.txt"]),
        ],
        ids=["shape-not-a-list", "shape-not-integers", "memory-list", "seed-list",
             "out-not-a-path", "memory-inf", "out-missing-dir"],
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

    @pytest.mark.parametrize("command", ["bound", "grid", "verify", "sweep"])
    def test_huge_dimensions_exit_2_with_one_line(self, capsys, command):
        huge = str(10**110)
        procs = "7:8" if command == "sweep" else "7"
        code, out, err = run_cli(
            capsys, command, "--shape", huge, huge, huge, "--procs", procs
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

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
            if isinstance(rep.bound, Fraction):
                assert Fraction(got) == rep.bound
            else:
                assert float(got) == rep.bound


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
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = results()
        assert [r[0] for r in shared] == [0, 0, 2, 0, 0, 0]
        assert shared[3][1].startswith("usage: commbounds")
        assert shared[5][3] is not None and shared[5][1] == ""
        assert shared == fresh
