"""Command line front end.

Subcommands:
    bound     lower bound for one (shape, P), optionally against a memory cap
    grid      analytic grid selection plus exhaustive confirmation
    simulate  run the 3D algorithm fiber by fiber and compare each phase to
              its closed form, the prediction and the bound
    verify    exact KKT certificate of the closed-form optimum, plus the
              exhaustive projection oracle; kkt.py's docstring proves that a
              KKT point is the global minimum
    sweep     bound/grid/attainment table over a P range, or the prior-work
              constants table

parse() reads a well-formed argv itself, in one pass over a table built
from _KEYS: a command, then its flags spelled in full, each with all its
values and none led by a dash.  Any other argv goes to argparse, imported
and built only then, so every help text, error message and abbreviation is
argparse's.  A config file is a JSON object keyed by flag name (flags win);
it may hold any key, checked whichever command reads the file.  _KEYS reads
every key.  json is imported only to read a config file.

Each cmd_* function computes its answer once, as a record: the JSON document
with its values still typed (exact Radicals, tuples), plus an exit code.
render() is the only place that knows the output formats: JSON through
to_json, which writes what json.dumps(indent=2) with value_to_json as its
hook would, byte for byte, with no json module; CSV through one writer over
the command's rows as dicts; and human text through the command's template.

`verify --format json` also prints its certificate: the integer rows that
kkt_verify decided the KKT signs on, which tests/check_certificate.py
checks without this package.

Exit codes: 0 success, 2 bad configuration, a simulate run above its work
caps, a sweep above its row cap or a planner scan above its triple cap, 3
simulation correctness failure, 4 verification failure.
"""

from __future__ import annotations

import io
import sys
from _json import encode_basestring_ascii
from types import SimpleNamespace

from .bounds import PRIOR_CONSTANTS, ProblemShape, case_field, case_of, d_case, lower_bound
from .exact import Radical, coefficient_rows, cut, decimal_str, human_str, rational, value_to_json
from .grids import ProcessorGrid, comm_cost, plan
from .kkt import CONDITIONS, OptProblem, analytic_solution_for_case, kkt_verify
from .projections import EXHAUSTIVE_LIMIT, min_projection_sum
from .simulate import run_algorithm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CORRECTNESS = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


NUMBER_CAP = 1000


def _expect(ok: bool, v, what: str):
    """v if ok, else a converter's one-line error.  The error quotes a text
    as typed and shows any other value (a JSON list, say) as its repr, each
    cut to its start and length past exact.QUOTE_CAP characters."""
    if not ok:
        got = cut(v, repr) if isinstance(v, str) else cut(repr(v))
        raise ValueError(f"expected {what}, got {got}")
    return v


class _Literal(str):
    """A JSON number's text as typed: its key's converter reads it with the
    flag's grammar and quotes it as typed.  `out` asks for type str, so it
    refuses one."""


def _rational(v) -> Radical:
    """The exact rational a memory value means: a text that is an integer, a
    decimal with an optional exponent, or p/q, in ASCII digits, at most
    NUMBER_CAP characters long and with |exponent| <= NUMBER_CAP, so that
    1e1000000 is refused at once; a decimal may start with a minus, as JSON
    numbers do."""
    num, slash, den = _expect(isinstance(v, str), v, "a number").partition("/")
    mantissa, e, exponent = num.lower().partition("e")
    whole, point, frac = mantissa.removeprefix("-").partition(".")
    unsigned_exponent = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    _expect(
        len(v) <= NUMBER_CAP
        and v.isascii()
        and whole.isdigit()
        and (frac.isdigit() or not point)
        and (unsigned_exponent.isdigit() or not e)
        and abs(int(exponent or 0)) <= NUMBER_CAP
        and (not slash or num == whole and den.isdigit() and int(den) > 0),
        v,
        f"an integer, a decimal or p/q, in at most {NUMBER_CAP} characters "
        f"and with |exponent| <= {NUMBER_CAP}",
    )
    scale = int(exponent or 0) - len(frac)
    return rational(int(mantissa.replace(".", "")) * 10 ** max(scale, 0),
                    int(den or 1) * 10 ** max(-scale, 0))


def _integer(v, least: int = 1) -> int:
    """An integer >= least in at most NUMBER_CAP ASCII digits: a flag's text,
    a config string or a JSON integer as typed."""
    ok = isinstance(v, str) and v.isascii() and v.isdigit() and len(v) <= NUMBER_CAP
    _expect(ok and int(v) >= least, v,
            f"an integer >= {least} in at most {NUMBER_CAP} digits")
    return int(v)


def _triple(v) -> tuple[int, ...]:
    _expect(type(v) is list and len(v) == 3, v, "three integers >= 1")
    return tuple(map(_integer, v))


def _procs(v) -> range:
    """P or LO:HI, with 1 <= LO <= HI, as the range of processor counts."""
    lo, colon, hi = v.partition(":") if isinstance(v, str) else (v, "", v)
    lo = _integer(lo)
    hi = _integer(hi) if colon else lo
    _expect(lo <= hi, v, "LO <= HI")
    return range(lo, hi + 1)


def _one_of(*choices):
    what = f"one of {', '.join(choices)}"
    return lambda v: _expect(v in choices, v, what)


# Every input key: its argparse spec, the commands that take it as a flag,
# and its converter.  A flag's value reaches the converter as text (a list of
# texts for a triple), a config file's value as JSON, which may also be the
# flag's text.  The converter returns the typed value or raises ValueError;
# no other code checks a key's value.
_ALL = ("bound", "grid", "simulate", "verify", "sweep")
_KEYS = {
    "shape": (dict(nargs=3, metavar=("N1", "N2", "N3")), _ALL, _triple),
    "procs": (dict(metavar="P|LO:HI"), _ALL, _procs),
    "format": (dict(metavar="{human,json,csv}"), _ALL, _one_of("human", "json", "csv")),
    "out": (dict(metavar="PATH"), _ALL, lambda v: _expect(type(v) is str, v, "a path")),
    "memory": (dict(metavar="M"), ("bound",), _rational),
    "grid": (dict(nargs=3, metavar=("P1", "P2", "P3")), ("simulate",), _triple),
    "seed": (dict(metavar="S"), ("simulate",), lambda v: _integer(v, 0)),
    "tiny": (dict(action="store_const", const=True), ("verify",),
             lambda v: _expect(type(v) is bool, v, "true or false")),
    "table": (dict(metavar="{constants}"), ("sweep",), _one_of("constants")),
}


# Each command's flags spelled in full: flag -> (key, number of values).
_FLAGS = {c: {"--config": ("config", 1), **{
    f"--{key}": (key, 0 if "action" in spec else spec.get("nargs", 1))
    for key, (spec, commands, _) in _KEYS.items() if c in commands}} for c in _ALL}


_parser = None


def build_parser():
    """The argparse parser, built on first use and shared by every call.

    Parsing keeps nothing on the parser: each parse returns a new
    Namespace, and resolve_config turns it into a new SimpleNamespace.
    """
    global _parser
    if _parser is not None:
        return _parser
    import argparse

    class _Parser(argparse.ArgumentParser):
        """One-line usage errors, without the usage text; subparsers too."""

        def error(self, message):
            self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="commbounds",
        description="communication lower bounds for parallel matrix multiplication",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _ALL:
        p = sub.add_parser(command)
        p.add_argument("--config", metavar="PATH", help="JSON config; flags win")
        for key, (spec, commands, _) in _KEYS.items():
            if command in commands:
                p.add_argument(f"--{key}", **spec)
    _parser = parser
    return parser


def parse(argv: list[str]):
    """build_parser().parse_args(argv): the same namespace, output and exit.

    A command's own flags, spelled in full, each with all its values and
    none led by a dash, are read here: every key of the command, None where
    unset, plus `command`.  At any other word (`--sh`, `--procs=8`, `-h`,
    `--`, a stray or missing value) the whole argv goes to argparse.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is not None:
        args = {key: None for key, _ in flags.values()}
        i = 1
        while i < len(argv):
            key, count = flags.get(argv[i], (None, -1))  # unknown: no slice fits
            values = argv[i + 1:i + 1 + count]
            if len(values) != count or any(v[:1] == "-" for v in values):
                break
            args[key] = True if count == 0 else values[0] if count == 1 else list(values)
            i += 1 + count
        else:
            return SimpleNamespace(command=argv[0], **args)
    return build_parser().parse_args(argv)


def resolve_config(args) -> SimpleNamespace:
    """Each key from its flag, else from the config file, through the key's
    converter; JSON null leaves a key unset: None, or human for format, 0
    for seed and false for tiny."""
    file_cfg = {}
    if args.config:
        import json

        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh, parse_int=_Literal, parse_float=_Literal)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = vars(args)
    values = {**dict.fromkeys(_KEYS), "format": "human", "seed": 0, "tiny": False}
    for key, (_, _, convert) in _KEYS.items():
        v = flags.get(key)
        if v is None:
            v = file_cfg.get(key)
        if v is not None:
            try:
                values[key] = convert(v)
            except ValueError as e:
                raise ConfigError(f"--{key}: {e}")
    return SimpleNamespace(**values)


def _require_shape(cfg: SimpleNamespace) -> ProblemShape:
    if cfg.shape is None:
        raise ConfigError("--shape is required")
    return ProblemShape(*cfg.shape)


def _single_procs(cfg: SimpleNamespace) -> int:
    if cfg.procs is None:
        raise ConfigError("--procs is required")
    if cfg.procs[0] != cfg.procs[-1]:
        raise ConfigError("this command takes a single --procs value, not a range")
    return cfg.procs[0]


def _grid_str(dims) -> str:
    return "x".join(str(d) for d in dims)


def _shape_str(dims) -> str:
    return " x ".join(str(d) for d in dims)


def _field_str(root) -> str:
    """The field Q(b) an exact.Radical.root names."""
    rn, rd, degree = root
    if degree == 1:
        return "Q"
    return f"Q(b), b^{degree} = {rn}" + (f"/{rd}" if rd != 1 else "")


# ---------------------------------------------------------------- commands


def cmd_bound(cfg: SimpleNamespace) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    rep = lower_bound(shape, procs, memory=cfg.memory)
    record = {
        "command": "bound",
        "shape": shape.dims,
        "procs": procs,
        "regime": f"{rep.case}d",
        "on_boundary": rep.on_boundary,
        "oversubscribed": rep.oversubscribed,
        "accessed": rep.accessed,
        "owned": rep.owned,
        "lower_bound": rep.bound,
    }
    if cfg.memory is not None:
        record["memory"] = rep.memory
        record["memory_dependent"] = rep.memory_dependent
        record["binding"] = rep.binding
        record["dominance"] = {
            "in_window": rep.in_window,
            "window_upper": rep.window_upper,
        }
    return record, EXIT_OK


def cmd_grid(cfg: SimpleNamespace) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    res, ex_grid, ex_cb, rep, attained = plan(shape, procs)
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
        "attained": attained,
    }
    return record, EXIT_OK


def cmd_simulate(cfg: SimpleNamespace) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    if cfg.grid is not None:
        grid = ProcessorGrid(*cfg.grid)
        if cfg.procs is not None and _single_procs(cfg) != grid.size:
            raise ConfigError(f"--grid product {grid.size} does not match --procs")
        rep = lower_bound(shape, grid.size)
    else:
        _, grid, _, rep, _ = plan(shape, _single_procs(cfg), require_divisibility=True)
    report = run_algorithm(shape, grid, cfg.seed)
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
                "closed_form": ph.closed_form,
                "ideal": ph.ideal,
                "even_split": ph.even_split,
            }
            for ph in report.phases
        ],
        "critical_path_words": report.critical_path_words,
        "flops_per_proc": report.flops_per_proc,
        "correctness": report.correctness,
        "predicted_total": report.predicted.total,
        "command": "simulate",
        "comparison": {
            "all_exact": all(ph.max_words == ph.ideal for ph in report.phases),
            "all_within_bound": all(
                ph.max_words == ph.closed_form for ph in report.phases
            ),
        },
        "lower_bound": rep.bound,
        "attained": rep.bound == report.critical_path_words,
    }
    return record, EXIT_OK if report.correctness else EXIT_CORRECTNESS


def cmd_verify(cfg: SimpleNamespace) -> tuple[dict, int]:
    shape = _require_shape(cfg)
    procs = _single_procs(cfg)
    if cfg.tiny and shape.volume > EXHAUSTIVE_LIMIT:
        raise ConfigError(
            f"--tiny needs n1*n2*n3 <= {EXHAUSTIVE_LIMIT}, got {cut(str(shape.volume))}"
        )
    m, n, k = shape.sorted_dims
    prob = OptProblem(m, n, k, procs)
    case = case_of(m, n, k, procs)[0]
    b = case_field(case, m, n, k, procs)
    krep = kkt_verify(prob, analytic_solution_for_case(prob, case, b))
    d = d_case(case, m, n, k, procs, b)
    # x1 + x2 + x3 = D, as one identity of integer rows: sum(x rows) dd =
    # (d row) dx, with dx and dd the two denominators
    (dx, x), (dd, (d_row,)) = krep.x, coefficient_rows([d])
    rn, rd, root = krep.root
    d_str = human_str(d)

    failed = krep.failed
    checks = [
        (
            "kkt",
            not failed,
            f"{CONDITIONS} conditions by exact sign in {_field_str(krep.root)}"
            + (f"; failed: {', '.join(failed)}" if failed else ""),
        ),
        (
            "certificate",
            d.root == krep.root and [sum(c) * dd for c in zip(*x)] == [c * dx for c in d_row],
            f"x1 + x2 + x3 = D = {d_str}, exact in {_field_str(d.root)}",
        ),
    ]
    certificate = {
        "radicand": {"num": rn, "den": rd},
        "root": root,
        "x": {"den": dx, "coefficients": x},
        "mu": {"den": krep.mu[0], "coefficients": krep.mu[1]},
        "d": {"den": dd, "coefficients": [d_row]},
    }

    if cfg.tiny:
        mp = min_projection_sum(shape, procs)
        proj_ok = (mp.minimum - d).sign() >= 0
        stats, t = mp.stats, mp.threshold
        plb_ok = (stats.x1[t] * procs >= n * k
                  and stats.x2[t] * procs >= m * k
                  and stats.x3[t] * procs >= m * n)
        checks += [
            ("min_projection_sum", proj_ok, f"minimum {mp.minimum} vs D {d_str}"),
            ("loomis_whitney", stats.lw_ok, f"all subsets of {shape.dims}"),
            ("projection_lb", plb_ok, f"threshold {t}"),
        ]

    passed = all(ok for _, ok, _ in checks)
    record = {
        "command": "verify",
        "shape": shape.dims,
        "procs": procs,
        "case": case,
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "certificate": certificate,
        "passed": passed,
    }
    return record, EXIT_OK if passed else EXIT_VERIFY


# A row of 9600x2400x600 plans its grid in about 0.25 ms on a 2-core VM with
# Python 3.11 when P is small, so 2^14 such rows take about 4 s.  Each row
# factors its P alone, though: 200 rows near 10^12 took 3.1 s from a cold
# start on the same VM, so the 2^14 rows the cap admits there take minutes
# (ROADMAP item 3, factoring the whole range once, is the fix).
SWEEP_ROW_CAP = 2**14


def check_rows(rows: int) -> None:
    """Raise ValueError when a sweep of this many rows exceeds SWEEP_ROW_CAP."""
    if rows > SWEEP_ROW_CAP:
        raise ValueError(f"sweep has {cut(str(rows))} rows, above the cap of {SWEEP_ROW_CAP}")


def cmd_sweep(cfg: SimpleNamespace) -> tuple[dict, int]:
    if cfg.table == "constants":
        leading = {3: "n^2/P^(2/3)", 2: "n^2/P^(1/2)", 1: "n^2"}
        rows = [
            {"regime": f"{case}d", "leading_term": term, **PRIOR_CONSTANTS[case]}
            for case, term in leading.items()
        ]
        return {"command": "sweep", "table": "constants", "rows": rows}, EXIT_OK
    shape = _require_shape(cfg)
    if cfg.procs is None:
        raise ConfigError("--procs LO:HI is required")
    check_rows(cfg.procs.stop - cfg.procs.start)
    m, n, k = shape.sorted_dims

    rows = []
    for procs in cfg.procs:
        ag, ex_grid, ex_cb, rep, attained = plan(shape, procs)
        rows.append(
            {
                "procs": procs,
                "regime": f"{rep.case}d",
                "on_boundary": rep.on_boundary,
                "accessed": rep.accessed,
                "owned": rep.owned,
                "lower_bound": rep.bound,
                "analytic_grid": _grid_str(ag.grid.dims) if ag.grid else "",
                "exhaustive_grid": _grid_str(ex_grid.dims),
                "exhaustive_cost": ex_cb.total,
                "attained": attained,
            }
        )
    record = {
        "command": "sweep",
        "shape": shape.dims,
        "boundaries": {
            "one_two": rational(m, n),
            "two_three": rational(m * n, k * k),
        },
        "rows": rows,
    }
    return record, EXIT_OK


# ---------------------------------------------------------------- views
# A table view gives a record's rows as dicts keyed by column; a human view its lines.


def _bound_table(r: dict) -> list[dict]:
    n1, n2, n3 = r["shape"]
    return [{
        "n1": n1, "n2": n2, "n3": n3, "procs": r["procs"], "regime": r["regime"],
        "on_boundary": r["on_boundary"], "accessed": r["accessed"], "owned": r["owned"],
        "lower_bound": r["lower_bound"], "memory_dependent": r.get("memory_dependent"),
        "binding": r.get("binding"),
    }]


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


def _grid_table(r: dict) -> list[dict]:
    an, ex = r["analytic"], r["exhaustive"]
    n1, n2, n3 = r["shape"]
    return [{
        "n1": n1, "n2": n2, "n3": n3, "procs": r["procs"], "case": r["case"],
        "analytic_grid": _grid_str(an["grid"]) if an["integral"] else "",
        "non_integral_axes": " ".join(f"p{a}" for a in an["non_integral_axes"]),
        "exhaustive_grid": _grid_str(ex["grid"]), "exhaustive_cost": ex["cost"],
        "lower_bound": r["lower_bound"], "attained": r["attained"],
    }]


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


def _simulate_table(r: dict) -> list[dict]:
    rows = [
        {"phase": ph["phase"], "measured_max": ph["max_sent"], "closed_form": ph["closed_form"],
         "ideal": ph["ideal"], "even_split": ph["even_split"]}
        for ph in r["per_phase"]
    ]
    return [*rows, {"phase": "total", "measured_max": r["critical_path_words"],
                    "closed_form": None, "ideal": r["predicted_total"], "even_split": None}]


def _simulate_human(r: dict) -> list[str]:
    lines = [
        f"shape {_shape_str(r['shape'])}   "
        f"grid {_grid_str(r['grid'])}   seed {r['seed']}"
    ]
    for ph in r["per_phase"]:
        split = "even" if ph["even_split"] else "uneven"
        lines.append(
            f"{ph['phase']:<17}: max {ph['max_sent']} words   "
            f"(closed form {ph['closed_form']}, ideal {human_str(ph['ideal'])}, "
            f"{split} split)"
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


def _verify_human(r: dict) -> list[str]:
    m, n, k = sorted(r["shape"], reverse=True)
    lines = [f"problem m={m} n={n} k={k}  P={r['procs']}  case {r['case']}"]
    for c in r["checks"]:
        lines.append(
            f"{c['name']:<19}: {'PASS' if c['passed'] else 'FAIL'}   ({c['detail']})"
        )
    lines.append(f"overall            : {'PASS' if r['passed'] else 'FAIL'}")
    return lines


def _human_table(rows: list[dict], width: int) -> list[str]:
    return ["  ".join(f"{c:>{width}}" for c in line) for line in _cells(rows, human_str, "-")]


def _sweep_human(r: dict) -> list[str]:
    b = r["boundaries"]
    title = (
        f"shape {_shape_str(r['shape'])}   "
        f"boundaries m/n = {human_str(b['one_two'])}, "
        f"mn/k^2 = {human_str(b['two_three'])}"
    )
    return [title, *_human_table(r["rows"], 15)]


# ---------------------------------------------------------------- rendering

_VIEWS = {
    "bound": (_bound_table, _bound_human),
    "grid": (_grid_table, _grid_human),
    "simulate": (_simulate_table, _simulate_human),
    "verify": (lambda r: [{"check": c["name"], "passed": c["passed"], "detail": c["detail"]}
                          for c in r["checks"]], _verify_human),
    "sweep": (lambda r: r["rows"], _sweep_human),
    "constants": (lambda r: r["rows"], lambda r: _human_table(r["rows"], 12)),
}


def _cell(v, number_str, empty: str) -> str:
    """One table cell, csv or human; only numbers and empty cells differ."""
    if type(v) is Radical:
        return number_str(v)
    if v is None or v == "":
        return empty
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


def _cells(rows: list[dict], number_str, empty: str) -> list[list[str]]:
    """The header, the first row's keys, then each row's cells in header order."""
    return [list(rows[0]), *([_cell(row[key], number_str, empty) for key in rows[0]]
                             for row in rows)]


def to_json(v, indent: str = "\n") -> str:
    """json.dumps(v, indent=2, default=value_to_json), byte for byte, for a
    dict, list or tuple that holds dicts with str keys, lists, tuples, str,
    int, bool, None, finite floats and exact values, none of them of a
    subclass; indent is the newline and indentation that v's own line
    starts with.  An irrational beyond double range is the one exception:
    value_to_json gives its number text, which is written as it is, where
    json.dumps would quote it.  A str or int is written in place in its
    container, anything else by a call of its own.  Loops gather the items:
    in Python 3.11 a comprehension is a call of its own too."""
    t = type(v)
    if t is dict or t is list or t is tuple:
        if not v:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        items = []
        if t is dict:
            for key, x in v.items():
                tx = type(x)
                items.append(encode_basestring_ascii(key) + ": " + (
                    encode_basestring_ascii(x) if tx is str else
                    int.__repr__(x) if tx is int else to_json(x, inner)))
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        for x in v:
            tx = type(x)
            items.append(encode_basestring_ascii(x) if tx is str else
                         int.__repr__(x) if tx is int else to_json(x, inner))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if t is float:
        return float.__repr__(v)
    j = value_to_json(v)
    return j if type(j) is str else to_json(j, indent)


def render(record: dict, fmt: str) -> str:
    """A command's record as json, csv or human text."""
    if fmt == "json":
        return to_json(record) + "\n"
    table, human = _VIEWS[record.get("table", record["command"])]
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        # a rational prints exactly unless its expansion runs past 28 fractional
        # digits, where it is rounded; an irrational prints the repr of its double,
        # which round-trips, or beyond double range its 17 significant digits
        csv.writer(buf, lineterminator="\n").writerows(_cells(table(record), decimal_str, ""))
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
    # an admitted 1000-digit input gives certificate integers of about 8000
    # digits, beyond the int-to-text limit of 4300 that Python 3.10.7+ sets
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        cfg = resolve_config(args)
        record, code = _DISPATCH[args.command](cfg)
        text = render(record, cfg.format)
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
