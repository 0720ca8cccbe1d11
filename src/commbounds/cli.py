"""Command line front end.

Subcommands:
    bound     lower bound for one (shape, P), optionally against a memory cap
    grid      analytic grid selection plus exhaustive confirmation
    simulate  run the 3D algorithm on a virtual machine and compare to the
              prediction and the bound
    verify    KKT certificate, feasible-sampling oracle, quasiconvexity, and
              (with --tiny) the exhaustive projection oracle
    sweep     bound/grid/attainment table over a P range, or the prior-work
              constants table (--table constants)

All commands share --shape N1 N2 N3, --procs P (or LO:HI for sweep),
--memory M, --grid P1 P2 P3, --seed S, --format {human,json,csv}, --out PATH,
--tiny, --table constants, and --config FILE (JSON with the same keys; flags
win).  Exit codes: 0 success, 2 bad configuration, 3 simulation correctness
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
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
from .exact import Value, decimal_str, human_str, value_to_json, values_agree
from .grids import ProcessorGrid, analytic_grid, comm_cost, exhaustive_grid
from .kkt import (
    OptProblem,
    analytic_solution,
    kkt_verify,
    numeric_minimize_oracle,
    objective,
    quasiconvexity_check,
)
from .projections import min_projection_sum, subset_stats
from .simulate import compare_to_prediction, run_algorithm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CORRECTNESS = 3
EXIT_VERIFY = 4

ORACLE_BUDGET = 100_000
QUASI_PAIRS = 100_000


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commbounds",
        description="communication lower bounds for parallel matrix multiplication",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bound", "grid", "simulate", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="JSON config; flags win")
        p.add_argument("--shape", nargs=3, type=int, metavar=("N1", "N2", "N3"))
        p.add_argument("--procs", metavar="P|LO:HI")
        p.add_argument("--memory", type=_number, metavar="M")
        p.add_argument("--grid", nargs=3, type=int, metavar=("P1", "P2", "P3"))
        p.add_argument("--seed", type=int, metavar="S")
        p.add_argument("--format", choices=("human", "json", "csv"))
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--tiny", action="store_const", const=True, default=None)
        p.add_argument("--table", choices=("constants",))
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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _csv_value(v) -> str:
    # floats print as repr, which round-trips; rationals print exactly unless
    # their expansion runs past 28 fractional digits, where they are rounded
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (Fraction, float)):
        return decimal_str(v)
    return str(v)


def _attained(measured: Value, bound: Value) -> bool:
    return values_agree(measured, bound)


# ---------------------------------------------------------------- commands


def cmd_bound(cfg: RunConfig) -> tuple[str, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    rep = lower_bound(shape, procs, memory=cfg.memory)
    dom = (
        bound_dominance(shape, procs, cfg.memory) if cfg.memory is not None else None
    )

    if cfg.fmt == "json":
        doc = {
            "command": "bound",
            "shape": list(shape.dims),
            "procs": procs,
            "regime": rep.regime.tag.value,
            "on_boundary": rep.regime.on_boundary,
            "oversubscribed": rep.oversubscribed,
            "accessed": value_to_json(rep.accessed),
            "owned": value_to_json(rep.owned),
            "lower_bound": value_to_json(rep.bound),
        }
        if dom is not None:
            doc["memory"] = value_to_json(rep.memory)
            doc["memory_dependent"] = value_to_json(rep.memory_dependent)
            doc["binding"] = rep.binding
            doc["dominance"] = {
                "in_window": dom.in_window,
                "window_upper": value_to_json(dom.window_upper),
            }
        return json.dumps(doc, indent=2) + "\n", EXIT_OK

    if cfg.fmt == "csv":
        header = [
            "n1", "n2", "n3", "procs", "regime", "on_boundary",
            "accessed", "owned", "lower_bound", "memory_dependent", "binding",
        ]
        row = [
            shape.n1, shape.n2, shape.n3, procs, rep.regime.tag.value,
            _csv_value(rep.regime.on_boundary), _csv_value(rep.accessed),
            _csv_value(rep.owned), _csv_value(rep.bound),
            _csv_value(rep.memory_dependent), rep.binding or "",
        ]
        return _csv_text(header, [row]), EXIT_OK

    lines = [
        f"shape {shape.n1} x {shape.n2} x {shape.n3}   P = {procs}   "
        f"regime {rep.regime.tag.value}"
        + ("   (on boundary)" if rep.regime.on_boundary else ""),
        f"accessed data D : {human_str(rep.accessed)}",
        f"owned per proc  : {human_str(rep.owned)}",
        f"lower bound     : {human_str(rep.bound)}",
    ]
    if rep.oversubscribed:
        lines.append("note: P exceeds the multiply count mnk")
    if dom is not None:
        lines += [
            f"memory M        : {human_str(rep.memory)}",
            f"memory-dep term : {human_str(rep.memory_dependent)}",
            f"binding         : {rep.binding}"
            + ("   (inside dominance window)" if dom.in_window else ""),
        ]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_grid(cfg: RunConfig) -> tuple[str, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    res = analytic_grid(shape, procs)
    ex_grid, ex_cb = exhaustive_grid(shape, procs)
    rep = lower_bound(shape, procs)
    analytic_cost = comm_cost(shape, res.grid) if res.grid is not None else None
    agree = analytic_cost is not None and analytic_cost.total == ex_cb.total
    attained = _attained(ex_cb.total, rep.bound)

    if cfg.fmt == "json":
        doc = {
            "command": "grid",
            "shape": list(shape.dims),
            "procs": procs,
            "case": res.case,
            "analytic": {
                "factors": [value_to_json(f) for f in res.factors],
                "integral": res.grid is not None,
                "grid": list(res.grid.dims) if res.grid is not None else None,
                "non_integral_axes": list(res.non_integral_axes),
                "cost": value_to_json(analytic_cost.total) if analytic_cost else None,
            },
            "exhaustive": {
                "grid": list(ex_grid.dims),
                "cost": value_to_json(ex_cb.total),
                "words_a": value_to_json(ex_cb.words_a),
                "words_b": value_to_json(ex_cb.words_b),
                "words_c": value_to_json(ex_cb.words_c),
            },
            "agreement": agree,
            "lower_bound": value_to_json(rep.bound),
            "attained": attained,
        }
        return json.dumps(doc, indent=2) + "\n", EXIT_OK

    if cfg.fmt == "csv":
        header = [
            "n1", "n2", "n3", "procs", "case", "analytic_grid",
            "non_integral_axes", "exhaustive_grid", "exhaustive_cost",
            "lower_bound", "attained",
        ]
        row = [
            shape.n1, shape.n2, shape.n3, procs, res.case,
            _grid_str(res.grid.dims) if res.grid is not None else "",
            " ".join(f"p{a}" for a in res.non_integral_axes),
            _grid_str(ex_grid.dims), _csv_value(ex_cb.total),
            _csv_value(rep.bound), _csv_value(attained),
        ]
        return _csv_text(header, [row]), EXIT_OK

    lines = [
        f"shape {shape.n1} x {shape.n2} x {shape.n3}   P = {procs}   case {res.case}"
    ]
    if res.grid is not None:
        lines.append(
            f"analytic grid   : {_grid_str(res.grid.dims)}   "
            f"total {human_str(analytic_cost.total)}"
        )
    else:
        factors = " x ".join(human_str(f) for f in res.factors)
        axes = ", ".join(f"p{a}" for a in res.non_integral_axes)
        lines.append(f"analytic grid   : non-integral ({factors}); axes {axes}")
    lines += [
        f"exhaustive grid : {_grid_str(ex_grid.dims)}   total {human_str(ex_cb.total)}",
        f"agreement       : {'exact' if agree else 'exhaustive is the fallback'}",
        f"lower bound     : {human_str(rep.bound)}   "
        f"attained: {'yes' if attained else 'no'}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_simulate(cfg: RunConfig) -> tuple[str, int]:
    shape = _require_shape(cfg)
    if cfg.grid is not None:
        grid = ProcessorGrid(*cfg.grid)
        if cfg.procs is not None and _single_procs(cfg) != grid.size:
            raise ConfigError(
                f"--grid product {grid.size} does not match --procs"
            )
    else:
        procs = _single_procs(cfg)
        grid, _ = exhaustive_grid(shape, procs, require_divisibility=True)
    try:
        report = run_algorithm(shape, grid, cfg.seed)
    except ValueError as e:
        raise ConfigError(str(e))
    comp = compare_to_prediction(report)
    rep = lower_bound(shape, grid.size)
    attained = _attained(Fraction(report.critical_path_words), rep.bound)
    code = EXIT_OK if report.correctness else EXIT_CORRECTNESS

    if cfg.fmt == "json":
        doc = report.to_json_dict()
        doc["command"] = "simulate"
        doc["comparison"] = {
            "all_exact": comp.all_exact,
            "all_within_bound": comp.all_within,
            "phases": [
                {
                    "phase": r.phase,
                    "measured_max": r.measured_max,
                    "ideal": value_to_json(r.ideal),
                    "exact": r.exact,
                    "deviation": value_to_json(r.deviation),
                }
                for r in comp.phases
            ],
        }
        doc["lower_bound"] = value_to_json(rep.bound)
        doc["attained"] = attained
        return json.dumps(doc, indent=2) + "\n", code

    if cfg.fmt == "csv":
        header = ["phase", "measured_max", "ideal", "even_split", "deviation"]
        rows = [
            [r.phase, r.measured_max, _csv_value(r.ideal),
             _csv_value(ph.even_split), _csv_value(r.deviation)]
            for r, ph in zip(comp.phases, report.phases)
        ]
        rows.append(
            ["total", report.critical_path_words,
             _csv_value(report.predicted.total), "", ""]
        )
        return _csv_text(header, rows), code

    lines = [
        f"shape {shape.n1} x {shape.n2} x {shape.n3}   "
        f"grid {_grid_str(grid.dims)}   seed {cfg.seed}"
    ]
    for r, ph in zip(comp.phases, report.phases):
        split = "even" if ph.even_split else "uneven"
        lines.append(
            f"{r.phase:<17}: max {r.measured_max} words   "
            f"(ideal {human_str(r.ideal)}, {split} split)"
        )
    lines += [
        f"critical path    : {report.critical_path_words} words",
        f"predicted total  : {human_str(report.predicted.total)}",
        f"lower bound      : {human_str(rep.bound)}   "
        f"attained: {'yes' if attained else 'no'}",
        f"flops per proc   : {report.flops_per_proc}",
        f"correctness      : {'PASS' if report.correctness else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n", code


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    m, n, k = shape.sorted_dims
    prob = OptProblem(m, n, k, procs)
    sol = analytic_solution(prob)
    krep = kkt_verify(prob, sol, tol=1e-9)
    opt = objective(sol.x)
    oracle = numeric_minimize_oracle(prob, budget=ORACLE_BUDGET)
    oracle_ok = float(opt) * (1 - 1e-9) <= oracle <= float(opt) * 1.01
    quasi = quasiconvexity_check(QUASI_PAIRS, seed=cfg.seed)

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
            f"analytic {human_str(opt)}, oracle {oracle:.6g}",
        ),
        (
            "quasiconvexity",
            quasi.passed,
            f"{quasi.checked} pairs, {quasi.violations} violations",
        ),
    ]

    if cfg.tiny:
        if shape.volume > 24:
            raise ConfigError(
                f"--tiny needs n1*n2*n3 <= 24, got {shape.volume}"
            )
        rep = lower_bound(shape, procs)
        mp = min_projection_sum(shape, procs)
        if isinstance(rep.accessed, Fraction):
            proj_ok = Fraction(mp.minimum) >= rep.accessed
        else:
            proj_ok = mp.minimum >= rep.accessed * (1 - 1e-12)
        stats = subset_stats(shape.dims)
        t = mp.threshold
        plb_ok = bool(
            stats.min_phi_from_size["a"][t] * procs >= shape.n1 * shape.n2
            and stats.min_phi_from_size["b"][t] * procs >= shape.n2 * shape.n3
            and stats.min_phi_from_size["c"][t] * procs >= shape.n1 * shape.n3
        )
        checks += [
            (
                "min_projection_sum",
                bool(proj_ok),
                f"minimum {mp.minimum} vs D {human_str(rep.accessed)}",
            ),
            ("loomis_whitney", stats.lw_ok, f"all subsets of {shape.dims}"),
            ("projection_lb", plb_ok, f"threshold {t}"),
        ]

    passed = all(ok for _, ok, _ in checks)
    code = EXIT_OK if passed else EXIT_VERIFY

    if cfg.fmt == "json":
        doc = {
            "command": "verify",
            "shape": list(shape.dims),
            "procs": procs,
            "case": sol.case_tag,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "passed": passed,
        }
        return json.dumps(doc, indent=2) + "\n", code

    if cfg.fmt == "csv":
        header = ["check", "passed", "detail"]
        rows = [[name, _csv_value(ok), detail] for name, ok, detail in checks]
        return _csv_text(header, rows), code

    lines = [f"problem m={m} n={n} k={k}  P={procs}  case {sol.case_tag}"]
    for name, ok, detail in checks:
        lines.append(f"{name:<19}: {'PASS' if ok else 'FAIL'}   ({detail})")
    lines.append(f"overall            : {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n", code


_CONSTANT_COLUMNS = ("ACS90", "ITT04", "DE+13", "this_work")


def cmd_sweep(cfg: RunConfig) -> tuple[str, int]:
    if cfg.table == "constants":
        return _sweep_constants(cfg)
    shape = _require_shape(cfg)
    if cfg.procs is None:
        raise ConfigError("--procs LO:HI is required")
    lo, hi = cfg.procs
    m, n, k = shape.sorted_dims
    boundary_12 = Fraction(m, n)
    boundary_23 = Fraction(m * n, k * k)

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

    if cfg.fmt == "json":
        doc = {
            "command": "sweep",
            "shape": list(shape.dims),
            "boundaries": {
                "one_two": value_to_json(boundary_12),
                "two_three": value_to_json(boundary_23),
            },
            "rows": [
                {
                    **row,
                    "accessed": value_to_json(row["accessed"]),
                    "owned": value_to_json(row["owned"]),
                    "lower_bound": value_to_json(row["lower_bound"]),
                    "exhaustive_cost": value_to_json(row["exhaustive_cost"]),
                }
                for row in rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n", EXIT_OK

    header = [
        "procs", "regime", "on_boundary", "accessed", "owned", "lower_bound",
        "analytic_grid", "exhaustive_grid", "exhaustive_cost", "attained",
    ]
    if cfg.fmt == "csv":
        out_rows = [
            [
                row["procs"], row["regime"], _csv_value(row["on_boundary"]),
                _csv_value(row["accessed"]), _csv_value(row["owned"]),
                _csv_value(row["lower_bound"]), row["analytic_grid"],
                row["exhaustive_grid"], _csv_value(row["exhaustive_cost"]),
                _csv_value(row["attained"]),
            ]
            for row in rows
        ]
        return _csv_text(header, out_rows), EXIT_OK

    def cell(v) -> str:
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, (Fraction, float)):
            return human_str(v)
        return str(v) if v != "" else "-"

    lines = [
        f"shape {shape.n1} x {shape.n2} x {shape.n3}   "
        f"boundaries m/n = {human_str(boundary_12)}, "
        f"mn/k^2 = {human_str(boundary_23)}",
        "  ".join(f"{h:>15}" for h in header),
    ]
    for row in rows:
        lines.append("  ".join(f"{cell(row[h]):>15}" for h in header))
    return "\n".join(lines) + "\n", EXIT_OK


def _sweep_constants(cfg: RunConfig) -> tuple[str, int]:
    order = (RegimeTag.THREE_D, RegimeTag.TWO_D, RegimeTag.ONE_D)
    leading = {"3d": "n^2/P^(2/3)", "2d": "n^2/P^(1/2)", "1d": "n^2"}
    rows = []
    for tag in order:
        consts = prior_constants(tag)
        rows.append((tag.value, leading[tag.value], consts))

    if cfg.fmt == "json":
        doc = {
            "command": "sweep",
            "table": "constants",
            "rows": [
                {
                    "regime": regime,
                    "leading_term": lead,
                    **{
                        col: (None if consts[col] is None else value_to_json(consts[col]))
                        for col in _CONSTANT_COLUMNS
                    },
                }
                for regime, lead, consts in rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n", EXIT_OK

    header = ["regime", "leading_term", *_CONSTANT_COLUMNS]
    if cfg.fmt == "csv":
        out_rows = [
            [regime, lead] + [_csv_value(consts[col]) for col in _CONSTANT_COLUMNS]
            for regime, lead, consts in rows
        ]
        return _csv_text(header, out_rows), EXIT_OK

    lines = ["  ".join(f"{h:>12}" for h in header)]
    for regime, lead, consts in rows:
        cells = [regime, lead] + [
            human_str(consts[col]) if consts[col] is not None else "-"
            for col in _CONSTANT_COLUMNS
        ]
        lines.append("  ".join(f"{c:>12}" for c in cells))
    return "\n".join(lines) + "\n", EXIT_OK


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
        text, code = _DISPATCH[cfg.command](cfg)
    except (ConfigError, ValueError) as e:
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
