"""Command line front end.

Subcommands, with the flags each reads besides the common ones:
    bound     lower bound for one (shape, P), optionally against a memory cap
              (--memory M)
    grid      analytic grid selection plus exhaustive confirmation
    simulate  run the 3D algorithm on a virtual machine and compare to the
              prediction and the bound (--grid P1 P2 P3, --seed S)
    verify    KKT certificate and feasible-sampling oracle, plus the
              exhaustive projection oracle (--tiny); kkt.py's docstring
              proves that a KKT point is the global minimum
    sweep     bound/grid/attainment table over a P range, or the prior-work
              constants table (--table constants)

The common flags are --shape N1 N2 N3, --procs P (LO:HI for sweep),
--format {human,json,csv}, --out PATH and --config FILE; a command rejects
any other flag.  A config file is a JSON object keyed by flag name (flags
win); it may hold any key, checked whichever command reads the file.

Each cmd_* function computes its answer once, as a record: the JSON document
with its values still typed (Fractions, floats, tuples), plus an exit code.
render() is the only place that knows the output formats: JSON through one
encoder hook for Fractions, CSV through one writer over the command's
(header, rows) view, and human text through the command's template.

Exit codes: 0 success, 2 bad configuration or input too large for the float
formulas, 3 simulation correctness failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import (
    ProblemShape,
    RegimeTag,
    bound_dominance,
    lower_bound,
    prior_constants,
)
from .exact import Value, decimal_str, human_str, value_to_json
from .grids import ProcessorGrid, analytic_grid, comm_cost, exhaustive_grid
from .kkt import (
    OptProblem,
    analytic_solution,
    kkt_verify,
    numeric_minimize_oracle,
    objective,
)
from .projections import min_projection_sum, subset_stats
from .simulate import compare_to_prediction, run_algorithm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CORRECTNESS = 3
EXIT_VERIFY = 4

ORACLE_BUDGET = 100_000


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    shape: Optional[tuple[int, int, int]]
    procs: Optional[tuple[int, int]]
    memory: Optional[object]
    grid: Optional[tuple[int, int, int]]
    seed: int
    fmt: str
    out: Optional[str]
    tiny: bool
    table: Optional[str]


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_procs(value) -> tuple[int, int]:
    if isinstance(value, int):
        lo = hi = value
    else:
        text = str(value)
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 2:
                raise ConfigError(f"bad --procs range {text!r}, expected LO:HI")
            try:
                lo, hi = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigError(f"bad --procs range {text!r}, expected integers")
        else:
            try:
                lo = hi = int(text)
            except ValueError:
                raise ConfigError(f"bad --procs value {text!r}")
    if lo < 1 or hi < lo:
        raise ConfigError(f"empty or invalid --procs range {value!r}")
    return lo, hi


def _int_triple(value, message: str) -> tuple[int, int, int]:
    """Three integers from a flag or a JSON list, else a ConfigError."""
    try:
        triple = tuple(map(operator.index, value)) if isinstance(value, list) else ()
    except TypeError:
        triple = ()
    if len(triple) != 3:
        raise ConfigError(f"{message}, got {value!r}")
    return triple


# The flags each command reads besides the common ones; argparse rejects the
# rest.  Config files may hold any of them, since one file can serve several
# commands.
_COMMAND_FLAGS = {
    "bound": ("memory",),
    "grid": (),
    "simulate": ("grid", "seed"),
    "verify": ("tiny",),
    "sweep": ("table",),
}
_FLAG_SPECS = {
    "memory": dict(type=_number, metavar="M"),
    "grid": dict(nargs=3, type=int, metavar=("P1", "P2", "P3")),
    "seed": dict(type=int, metavar="S"),
    "tiny": dict(action="store_const", const=True, default=None),
    "table": dict(choices=("constants",)),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, without the usage text before it;
    subparsers are built from the same class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call.

    Parsing keeps nothing on the parser: each parse_args call returns a new
    Namespace, and resolve_config turns it into a new RunConfig.
    """
    parser = _Parser(
        prog="commbounds",
        description="communication lower bounds for parallel matrix multiplication",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="JSON config; flags win")
        p.add_argument("--shape", nargs=3, type=int, metavar=("N1", "N2", "N3"))
        p.add_argument("--procs", metavar="P|LO:HI")
        p.add_argument("--format", choices=("human", "json", "csv"))
        p.add_argument("--out", metavar="PATH")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_SPECS[flag])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(name, default=None):
        v = getattr(args, name, None)
        if v is None:
            v = file_cfg.get(name, default)
        return v

    shape = pick("shape")
    if shape is not None:
        shape = _int_triple(shape, "--shape needs three dimensions")
    procs = pick("procs")
    if procs is not None:
        procs = _parse_procs(procs)
    memory = pick("memory")
    if memory is not None:
        try:
            Fraction(memory)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"--memory needs a finite number, got {memory!r}")
    grid = pick("grid")
    if grid is not None:
        grid = _int_triple(grid, "--grid needs three factors")
    seed = pick("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"--seed needs an integer, got {seed!r}")
    fmt = pick("format", "human")
    if fmt not in ("human", "json", "csv"):
        raise ConfigError(f"bad format {fmt!r}")
    out = pick("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"--out needs a path, got {out!r}")
    table = pick("table")
    if table not in (None, "constants"):
        raise ConfigError(f"bad table {table!r}")
    return RunConfig(
        command=args.command,
        shape=shape,
        procs=procs,
        memory=memory,
        grid=grid,
        seed=seed,
        fmt=fmt,
        out=out,
        tiny=bool(pick("tiny", False)),
        table=table,
    )


def _require_shape(cfg: RunConfig) -> ProblemShape:
    if cfg.shape is None:
        raise ConfigError("--shape is required")
    return ProblemShape(*cfg.shape)


def _single_procs(cfg: RunConfig) -> int:
    if cfg.procs is None:
        raise ConfigError("--procs is required")
    lo, hi = cfg.procs
    if lo != hi:
        raise ConfigError("this command takes a single --procs value, not a range")
    return lo


def _grid_str(dims) -> str:
    return "x".join(str(d) for d in dims)


def _shape_str(dims) -> str:
    return " x ".join(str(d) for d in dims)


def _attained(measured: Value, bound: Value) -> bool:
    # a float bound is irrational (no rational root exists), so no cost equals it
    return isinstance(bound, Fraction) and measured == bound


# ---------------------------------------------------------------- commands


def cmd_bound(cfg: RunConfig) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    rep = lower_bound(shape, procs, memory=cfg.memory)
    record = {
        "command": "bound",
        "shape": shape.dims,
        "procs": procs,
        "regime": rep.regime.tag.value,
        "on_boundary": rep.regime.on_boundary,
        "oversubscribed": rep.oversubscribed,
        "accessed": rep.accessed,
        "owned": rep.owned,
        "lower_bound": rep.bound,
    }
    if cfg.memory is not None:
        dom = bound_dominance(shape, procs, cfg.memory)
        record["memory"] = rep.memory
        record["memory_dependent"] = rep.memory_dependent
        record["binding"] = rep.binding
        record["dominance"] = {
            "in_window": dom.in_window,
            "window_upper": dom.window_upper,
        }
    return record, EXIT_OK


def cmd_grid(cfg: RunConfig) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    res = analytic_grid(shape, procs)
    ex_grid, ex_cb = exhaustive_grid(shape, procs)
    rep = lower_bound(shape, procs)
    analytic_cost = comm_cost(shape, res.grid).total if res.grid is not None else None
    record = {
        "command": "grid",
        "shape": shape.dims,
        "procs": procs,
        "case": res.case,
        "analytic": {
            "factors": res.factors,
            "integral": res.grid is not None,
            "grid": res.grid.dims if res.grid is not None else None,
            "non_integral_axes": res.non_integral_axes,
            "cost": analytic_cost,
        },
        "exhaustive": {
            "grid": ex_grid.dims,
            "cost": ex_cb.total,
            "words_a": ex_cb.words_a,
            "words_b": ex_cb.words_b,
            "words_c": ex_cb.words_c,
        },
        "agreement": analytic_cost is not None and analytic_cost == ex_cb.total,
        "lower_bound": rep.bound,
        "attained": _attained(ex_cb.total, rep.bound),
    }
    return record, EXIT_OK


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    if cfg.grid is not None:
        grid = ProcessorGrid(*cfg.grid)
        if cfg.procs is not None and _single_procs(cfg) != grid.size:
            raise ConfigError(f"--grid product {grid.size} does not match --procs")
    else:
        procs = _single_procs(cfg)
        grid, _ = exhaustive_grid(shape, procs, require_divisibility=True)
    try:
        report = run_algorithm(shape, grid, cfg.seed)
    except ValueError as e:
        raise ConfigError(str(e))
    comp = compare_to_prediction(report)
    rep = lower_bound(shape, grid.size)
    record = {
        "shape": report.shape,
        "grid": report.grid,
        "seed": report.seed,
        "per_phase": [
            {
                "phase": ph.name,
                "per_proc_sent": ph.sent,
                "max_sent": max(ph.sent),
                "per_proc_received": ph.received,
                "ideal": ph.ideal,
                "even_split": ph.even_split,
            }
            for ph in report.phases
        ],
        "critical_path_words": str(report.critical_path_words),
        "flops_per_proc": report.flops_per_proc,
        "correctness": report.correctness,
        "predicted_total": report.predicted.total,
        "command": "simulate",
        "comparison": {
            "all_exact": comp.all_exact,
            "all_within_bound": comp.all_within,
            "phases": [
                {
                    "phase": r.phase,
                    "measured_max": r.measured_max,
                    "ideal": r.ideal,
                    "exact": r.exact,
                    "deviation": r.deviation,
                }
                for r in comp.phases
            ],
        },
        "lower_bound": rep.bound,
        "attained": _attained(Fraction(report.critical_path_words), rep.bound),
    }
    return record, EXIT_OK if report.correctness else EXIT_CORRECTNESS


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    if cfg.tiny and shape.volume > 24:
        raise ConfigError(f"--tiny needs n1*n2*n3 <= 24, got {shape.volume}")
    m, n, k = shape.sorted_dims
    prob = OptProblem(m, n, k, procs)
    sol = analytic_solution(prob)
    krep = kkt_verify(prob, sol, tol=1e-9)
    opt = objective(sol.x)
    oracle = numeric_minimize_oracle(prob, budget=ORACLE_BUDGET)
    oracle_ok = float(opt) * (1 - 1e-9) <= oracle <= float(opt) * 1.01

    checks = [
        (
            "kkt",
            krep.passed,
            "residuals "
            + " ".join(f"{k_}={v:.2e}" for k_, v in krep.residuals.items()),
        ),
        (
            "oracle",
            oracle_ok,
            f"analytic {human_str(opt)}, oracle {human_str(oracle)}",
        ),
    ]

    if cfg.tiny:
        rep = lower_bound(shape, procs)
        mp = min_projection_sum(shape, procs)
        if isinstance(rep.accessed, Fraction):
            proj_ok = Fraction(mp.minimum) >= rep.accessed
        else:
            proj_ok = mp.minimum >= rep.accessed * (1 - 1e-12)
        stats = subset_stats(shape.dims)
        t = mp.threshold
        plb_ok = (
            stats.min_phi_from_size["a"][t] * procs >= shape.n1 * shape.n2
            and stats.min_phi_from_size["b"][t] * procs >= shape.n2 * shape.n3
            and stats.min_phi_from_size["c"][t] * procs >= shape.n1 * shape.n3
        )
        checks += [
            (
                "min_projection_sum",
                proj_ok,
                f"minimum {mp.minimum} vs D {human_str(rep.accessed)}",
            ),
            ("loomis_whitney", stats.lw_ok, f"all subsets of {shape.dims}"),
            ("projection_lb", plb_ok, f"threshold {t}"),
        ]

    passed = all(ok for _, ok, _ in checks)
    record = {
        "command": "verify",
        "shape": shape.dims,
        "procs": procs,
        "case": sol.case_tag,
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "passed": passed,
    }
    return record, EXIT_OK if passed else EXIT_VERIFY


def cmd_sweep(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.table == "constants":
        return _sweep_constants(), EXIT_OK
    shape = _require_shape(cfg)
    if cfg.procs is None:
        raise ConfigError("--procs LO:HI is required")
    lo, hi = cfg.procs
    m, n, k = shape.sorted_dims

    rows = []
    for procs in range(lo, hi + 1):
        rep = lower_bound(shape, procs)
        ag = analytic_grid(shape, procs)
        ex_grid, ex_cb = exhaustive_grid(shape, procs)
        rows.append(
            {
                "procs": procs,
                "regime": rep.regime.tag.value,
                "on_boundary": rep.regime.on_boundary,
                "accessed": rep.accessed,
                "owned": rep.owned,
                "lower_bound": rep.bound,
                "analytic_grid": _grid_str(ag.grid.dims) if ag.grid else "",
                "exhaustive_grid": _grid_str(ex_grid.dims),
                "exhaustive_cost": ex_cb.total,
                "attained": _attained(ex_cb.total, rep.bound),
            }
        )
    record = {
        "command": "sweep",
        "shape": shape.dims,
        "boundaries": {
            "one_two": Fraction(m, n),
            "two_three": Fraction(m * n, k * k),
        },
        "rows": rows,
    }
    return record, EXIT_OK


def _sweep_constants() -> dict:
    leading = {"3d": "n^2/P^(2/3)", "2d": "n^2/P^(1/2)", "1d": "n^2"}
    rows = [
        {
            "regime": tag.value,
            "leading_term": leading[tag.value],
            **prior_constants(tag),
        }
        for tag in (RegimeTag.THREE_D, RegimeTag.TWO_D, RegimeTag.ONE_D)
    ]
    return {"command": "sweep", "table": "constants", "rows": rows}


# ---------------------------------------------------------------- views
# A table view gives a record's (header, rows); a human view its text lines.


def _bound_table(r: dict) -> tuple[list, list]:
    header = [
        "n1", "n2", "n3", "procs", "regime", "on_boundary",
        "accessed", "owned", "lower_bound", "memory_dependent", "binding",
    ]
    row = [
        *r["shape"], r["procs"], r["regime"], r["on_boundary"], r["accessed"],
        r["owned"], r["lower_bound"], r.get("memory_dependent"), r.get("binding"),
    ]
    return header, [row]


def _bound_human(r: dict) -> list[str]:
    lines = [
        f"shape {_shape_str(r['shape'])}   P = {r['procs']}   regime {r['regime']}"
        + ("   (on boundary)" if r["on_boundary"] else ""),
        f"accessed data D : {human_str(r['accessed'])}",
        f"owned per proc  : {human_str(r['owned'])}",
        f"lower bound     : {human_str(r['lower_bound'])}",
    ]
    if r["oversubscribed"]:
        lines.append("note: P exceeds the multiply count mnk")
    if "memory" in r:
        lines += [
            f"memory M        : {human_str(r['memory'])}",
            f"memory-dep term : {human_str(r['memory_dependent'])}",
            f"binding         : {r['binding']}"
            + ("   (inside dominance window)" if r["dominance"]["in_window"] else ""),
        ]
    return lines


def _grid_table(r: dict) -> tuple[list, list]:
    an, ex = r["analytic"], r["exhaustive"]
    header = [
        "n1", "n2", "n3", "procs", "case", "analytic_grid",
        "non_integral_axes", "exhaustive_grid", "exhaustive_cost",
        "lower_bound", "attained",
    ]
    row = [
        *r["shape"], r["procs"], r["case"],
        _grid_str(an["grid"]) if an["integral"] else "",
        " ".join(f"p{a}" for a in an["non_integral_axes"]),
        _grid_str(ex["grid"]), ex["cost"], r["lower_bound"], r["attained"],
    ]
    return header, [row]


def _grid_human(r: dict) -> list[str]:
    an, ex = r["analytic"], r["exhaustive"]
    lines = [f"shape {_shape_str(r['shape'])}   P = {r['procs']}   case {r['case']}"]
    if an["integral"]:
        lines.append(
            f"analytic grid   : {_grid_str(an['grid'])}   total {human_str(an['cost'])}"
        )
    else:
        factors = " x ".join(human_str(f) for f in an["factors"])
        axes = ", ".join(f"p{a}" for a in an["non_integral_axes"])
        lines.append(f"analytic grid   : non-integral ({factors}); axes {axes}")
    lines += [
        f"exhaustive grid : {_grid_str(ex['grid'])}   total {human_str(ex['cost'])}",
        "agreement       : "
        + ("exact" if r["agreement"] else "exhaustive is the fallback"),
        f"lower bound     : {human_str(r['lower_bound'])}   "
        f"attained: {'yes' if r['attained'] else 'no'}",
    ]
    return lines


def _simulate_table(r: dict) -> tuple[list, list]:
    header = ["phase", "measured_max", "ideal", "even_split", "deviation"]
    rows = [
        [c["phase"], c["measured_max"], c["ideal"], ph["even_split"], c["deviation"]]
        for c, ph in zip(r["comparison"]["phases"], r["per_phase"])
    ]
    rows.append(["total", r["critical_path_words"], r["predicted_total"], None, None])
    return header, rows


def _simulate_human(r: dict) -> list[str]:
    lines = [
        f"shape {_shape_str(r['shape'])}   "
        f"grid {_grid_str(r['grid'])}   seed {r['seed']}"
    ]
    for c, ph in zip(r["comparison"]["phases"], r["per_phase"]):
        split = "even" if ph["even_split"] else "uneven"
        lines.append(
            f"{c['phase']:<17}: max {c['measured_max']} words   "
            f"(ideal {human_str(c['ideal'])}, {split} split)"
        )
    lines += [
        f"critical path    : {r['critical_path_words']} words",
        f"predicted total  : {human_str(r['predicted_total'])}",
        f"lower bound      : {human_str(r['lower_bound'])}   "
        f"attained: {'yes' if r['attained'] else 'no'}",
        f"flops per proc   : {r['flops_per_proc']}",
        f"correctness      : {'PASS' if r['correctness'] else 'FAIL'}",
    ]
    return lines


def _verify_table(r: dict) -> tuple[list, list]:
    rows = [[c["name"], c["passed"], c["detail"]] for c in r["checks"]]
    return ["check", "passed", "detail"], rows


def _verify_human(r: dict) -> list[str]:
    m, n, k = sorted(r["shape"], reverse=True)
    lines = [f"problem m={m} n={n} k={k}  P={r['procs']}  case {r['case']}"]
    for c in r["checks"]:
        lines.append(
            f"{c['name']:<19}: {'PASS' if c['passed'] else 'FAIL'}   ({c['detail']})"
        )
    lines.append(f"overall            : {'PASS' if r['passed'] else 'FAIL'}")
    return lines


def _rows_table(r: dict) -> tuple[list, list]:
    """Both sweep tables: one column per key of the record's row dicts."""
    return list(r["rows"][0]), [list(row.values()) for row in r["rows"]]


def _human_table(r: dict, width: int) -> list[str]:
    header, rows = _rows_table(r)
    return [
        "  ".join(f"{_cell(v, human_str, '-'):>{width}}" for v in row)
        for row in [header, *rows]
    ]


def _sweep_human(r: dict) -> list[str]:
    b = r["boundaries"]
    title = (
        f"shape {_shape_str(r['shape'])}   "
        f"boundaries m/n = {human_str(b['one_two'])}, "
        f"mn/k^2 = {human_str(b['two_three'])}"
    )
    return [title, *_human_table(r, 15)]


# ---------------------------------------------------------------- rendering

_VIEWS = {
    "bound": (_bound_table, _bound_human),
    "grid": (_grid_table, _grid_human),
    "simulate": (_simulate_table, _simulate_human),
    "verify": (_verify_table, _verify_human),
    "sweep": (_rows_table, _sweep_human),
    "constants": (_rows_table, lambda r: _human_table(r, 12)),
}


def _json_number(v):
    if isinstance(v, Fraction):
        return value_to_json(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _cell(v, number_str, empty: str) -> str:
    """One table cell, csv or human; only numbers and empty cells differ."""
    if v is None or v == "":
        return empty
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (Fraction, float)):
        return number_str(v)
    return str(v)


def _csv_value(v) -> str:
    # floats print as repr, which round-trips; rationals print exactly unless
    # their expansion runs past 28 fractional digits, where they are rounded
    return _cell(v, decimal_str, "")


def render(record: dict, fmt: str) -> str:
    """A command's record as json, csv or human text."""
    if fmt == "json":
        return json.dumps(record, indent=2, default=_json_number) + "\n"
    table, human = _VIEWS[record.get("table", record["command"])]
    if fmt == "csv":
        header, rows = table(record)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows([_csv_value(v) for v in row] for row in rows)
        return buf.getvalue()
    return "\n".join(human(record)) + "\n"


_DISPATCH = {
    "bound": cmd_bound,
    "grid": cmd_grid,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        cfg = resolve_config(args)
        record, code = _DISPATCH[cfg.command](cfg)
        text = render(record, cfg.fmt)
    except (ConfigError, ValueError, OverflowError) as e:
        # OverflowError: a dimension too large for the float closed forms, or
        # a P too large for the float oracle
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {cfg.out}: {e.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
