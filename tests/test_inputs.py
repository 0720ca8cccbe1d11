"""Every input is read through the one key table in commbounds.cli.

A key's converter reads the flag's text or the config file's JSON value, so
the same input typed as a flag, as a config string or as a config number
gives the same output, or exit 2 on every side.  Any argv and config drawn
from the keys' types, valid or malformed, exits 0, 2, 3 or 4, and exit 2
prints one stderr line and nothing else.  Sizes stay small so that every draw
finishes fast: shapes up to 64, P up to 10^4, sweeps of at most 50 rows, and
simulated shapes up to 8 on grids of at most 64 processors.
"""

import contextlib
import io
import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commbounds.cli as cli
import commbounds.exact as exact

CAP = cli.NUMBER_CAP


def run(argv, config=None):
    """(exit code, stdout, stderr) of one request.  config is the JSON text of
    a config file; "{tmp}" in argv or config names a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        if config is not None:
            path = Path(tmp, "run.json")
            path.write_text(config.replace("{tmp}", tmp))
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean(result):
    code, out, err = result
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert out == "" and err.startswith(("error: ", "commbounds")), err
        assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------- inputs
# An input is (flag, literals): the flag's text (three texts for a triple,
# presence for --tiny) and the JSON literals that type the same input in a
# config file.

JUNK = st.sampled_from(
    ["", "x", "1.5", "1e3", "٣", "1_000", " 7", "0x10", "-", "1/2", "nan", "true"]
)
JSON_ONLY = st.sampled_from(
    ["true", "false", "1.5", "2.0", "[]", "{}", "[1, 2]", "[1, 2, 3, 4]", "-0.0",
     "1e999", "NaN", '"x"']
)


def as_text(text):
    return text, [json.dumps(text)]


def as_int(n):
    return str(n), [str(n), json.dumps(str(n))]


def integers(lo, hi):
    return st.one_of(st.integers(lo, hi).map(as_int), JUNK.map(as_text))


def triples(hi):
    def triple(items):
        flag = [f for f, _ in items]
        literals = ["[" + ", ".join(json.dumps(f) for f in flag) + "]"]
        if all(len(lits) == 2 for _, lits in items):  # all integers
            literals.append("[" + ", ".join(lits[0] for _, lits in items) + "]")
        return flag, literals

    return st.lists(integers(-1, hi), min_size=3, max_size=3).map(triple)


def proc_ranges():
    def text(lo, rows, flip):
        hi = lo + rows - 1
        return as_text(f"{hi}:{lo}" if flip and rows > 1 else f"{lo}:{hi}")

    return st.builds(text, st.integers(0, 10**4), st.integers(1, 50), st.booleans())


def decimals():
    """Decimal texts, with exponents on both sides of the cap; each is also a
    JSON number."""

    def text(whole, frac, exp):
        t = str(whole) + (f".{frac}" if frac else "") + (f"e{exp}" if exp is not None else "")
        return t, [t, json.dumps(t)]

    exps = st.one_of(st.none(), st.integers(-8, 8), st.integers(CAP - 2, CAP + 2),
                     st.integers(-CAP - 2, -CAP + 2))
    return st.builds(text, st.integers(0, 10**6), st.text("0123456789", max_size=20), exps)


def memories():
    ratios = st.builds(lambda p, q: as_text(f"{p}/{q}"), st.integers(0, 10**7),
                       st.integers(0, 10**4))
    return st.one_of(integers(-1, 10**6), decimals(), ratios)


def one_of_texts(*valid):
    return st.one_of(st.sampled_from(valid).map(as_text), JUNK.map(as_text))


INPUTS = {
    "shape": triples(64),
    "procs": st.one_of(integers(-1, 10**4), proc_ranges()),
    "format": one_of_texts("human", "json", "csv"),
    "memory": memories(),
    "grid": triples(4),
    "seed": integers(-3, 2**70),
    "tiny": st.sampled_from([(True, ["true"]), (False, ["false"])]),
    "table": one_of_texts("constants"),
}


def flag_args(key, flag) -> list:
    if key == "tiny":
        return ["--tiny"] if flag else []
    return [f"--{key}", *flag] if isinstance(flag, list) else [f"--{key}", flag]


# A request that reads the key, with every other key valid.
BASES = {
    "shape": "bound --procs 8",
    "procs": "sweep --shape 12 12 12",
    "format": "bound --shape 12 12 12 --procs 8",
    "memory": "bound --shape 12 12 12 --procs 8",
    "grid": "simulate --shape 8 8 8",
    "seed": "simulate --shape 8 8 8 --grid 2 2 2",
    "tiny": "verify --shape 2 2 2 --procs 2",
    "table": "sweep --shape 4 4 4 --procs 1:3",
}


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(BASES)).flatmap(
    lambda key: st.tuples(st.just(key), INPUTS[key])))
def test_flag_and_config_read_an_input_alike(case):
    key, (flag, literals) = case
    argv = BASES[key].split()
    want = run(argv + flag_args(key, flag))
    assert_clean(want)
    for literal in literals:
        got = run(argv, config=f'{{"{key}": {literal}}}')
        assert_clean(got)
        # exit 2 messages quote the value as it was typed, so only codes agree
        assert got[:2] == want[:2] if want[0] != 2 else got[0] == 2, literal


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_any_request_exits_cleanly(data):
    command = data.draw(st.sampled_from(cli._ALL))
    inputs = dict(INPUTS)
    if command == "simulate":  # keep the simulated machine small
        inputs["shape"], inputs["procs"] = triples(8), integers(-1, 64)
    inputs["out"] = st.sampled_from(
        ["{tmp}/out.txt", "{tmp}/missing/out.txt"]).map(as_text)
    argv, config = [command], {}
    for key, strategy in inputs.items():
        where = data.draw(st.sampled_from(["absent", "flag", "config", "json-only"]))
        if where == "flag" and command not in cli._KEYS[key][1]:
            where = "config"  # argparse refuses it; test_cli covers that
        flag, literals = data.draw(strategy)
        if where == "flag":
            argv += flag_args(key, flag)
        elif where == "config":
            config[key] = data.draw(st.sampled_from(literals))
        elif where == "json-only":
            literal = data.draw(JSON_ONLY)
            # "x" as out is a file the command writes: keep it in the temporary directory
            config[key] = '"{tmp}/x"' if key == "out" and literal == '"x"' else literal
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in config.items()) + "}"
    assert_clean(run(argv, config=text if config else None))


@pytest.mark.parametrize("command", cli._ALL)
def test_help_lists_the_flags_the_table_gives(command):
    code, out, err = run([command, "--help"])
    assert (code, err) == (0, "")
    own = {key for key, (_, commands, _) in cli._KEYS.items() if command in commands}
    assert set(re.findall(r"--(\w+)", out)) == {"help", "config", *own}


# ---------------------------------------------------------------- converters


@pytest.mark.parametrize(
    "argv, config, key",
    [
        ("simulate --shape 8 8 8 --grid 2 2 2 --seed -1", None, "seed"),
        ("simulate --shape 8 8 8 --grid 2 0 2", None, "grid"),
        ("bound --shape 8 x 8 --procs 2", None, "shape"),
        ("bound --shape 8 8 8 --procs 0", None, "procs"),
        ("sweep --shape 8 8 8 --procs 9:2", None, "procs"),
        ("bound --shape 8 8 8 --procs 2 --format xml", None, "format"),
        ("bound --shape 8 8 8 --procs 2 --memory 1_000", None, "memory"),
        ("sweep --table all", None, "table"),
        ("bound --shape 8 8 8 --procs 2", '{"out": 3}', "out"),
        ("bound --shape 8 8 8 --procs 2", '{"tiny": "no"}', "tiny"),
        ("bound --shape 8 8 8 --procs 2", '{"seed": 1.0}', "seed"),
    ],
)
def test_converter_errors_name_their_key(argv, config, key):
    code, out, err = run(argv.split(), config)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --{key}: expected ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, value",
    [
        ("54.1", Fraction(541, 10)),
        ("1/3", Fraction(1, 3)),
        ("007", Fraction(7)),
        ("1e400", Fraction(10**400)),
        ("9.99E-8", Fraction(999, 10**10)),
        ("-2.5e+1", Fraction(-25)),
        (f"1e{CAP}", Fraction(10**CAP)),
        (f"1e-{CAP}", Fraction(1, 10**CAP)),
    ],
)
def test_number_texts_are_read_exactly(text, value):
    assert cli._rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["1_000", " 1", "1 ", "+1", "1.", ".5", "1e", "1e+", "1/0", "-1/2", "1.5/2", "1/2e3",
     "inf", "nan", "0x10", "٣", "1e-+3", f"1e{CAP + 1}", f"1e-{CAP + 1}", "1" * (CAP + 1)],
)
def test_number_texts_outside_the_grammar_are_refused(text):
    with pytest.raises(ValueError, match=f"at most {CAP} characters"):
        cli._rational(text)


@pytest.mark.parametrize(
    "config, line",
    [
        ('{"procs": 2, "seed": 1.7}',
         f"--seed: expected an integer >= 0 in at most {CAP} digits, got '1.7'"),
        ('{"procs": 1e3}',
         f"--procs: expected an integer >= 1 in at most {CAP} digits, got '1e3'"),
        ('{"procs": 2, "out": 3}', "--out: expected a path, got '3'"),
    ],
    ids=["seed", "procs", "out"],
)
def test_a_config_number_is_quoted_as_typed(config, line):
    assert run("bound --shape 8 8 8".split(), config) == (2, "", f"error: {line}\n")


# key: (a request without the key, the key's flag words and its config
# object with {} for the number, the unit the error's cap is stated in)
CAPPED = {
    "memory": ("bound --shape 96 24 6 --procs 8", "--memory {}", '{{"memory": {}}}',
               "characters"),
    "shape": ("bound --procs 8", "--shape {} 2 2", '{{"shape": [{}, 2, 2]}}', "digits"),
    "procs": ("bound --shape 96 24 6", "--procs {}", '{{"procs": {}}}', "digits"),
}


@pytest.mark.parametrize("key", sorted(CAPPED))
@pytest.mark.parametrize("form", ["flag", "config-string", "config-number"])
@pytest.mark.parametrize("text", ["1e1000000", "1" * (CAP + 1)], ids=["exponent", "digits"])
def test_a_number_beyond_the_cap_is_refused_at_once(key, form, text):
    base, flag, config, unit = CAPPED[key]
    start = time.perf_counter()
    if form == "flag":
        result = run(base.split() + flag.format(text).split())
    else:
        literal = json.dumps(text) if form == "config-string" else text
        result = run(base.split(), config=config.format(literal))
    assert time.perf_counter() - start < 1
    assert result[0] == 2 and result[2].startswith(f"error: --{key}: ")
    assert f"at most {CAP} {unit}" in result[2]
    assert_clean(result)


@pytest.mark.parametrize("key", ["procs", "memory"])
@pytest.mark.parametrize("form", ["flag", "config-string", "config-number"])
def test_a_number_of_exactly_the_cap_is_read(key, form):
    # NUMBER_CAP characters are accepted for an integer key and for --memory
    text = "1" + "0" * (CAP - 1)
    base, flag, config = {
        "procs": ("bound --shape 2 2 2", "--procs {}", '{{"procs": {}}}'),
        "memory": ("bound --shape 2 2 2 --procs 1", "--memory {}", '{{"memory": {}}}'),
    }[key]
    if form == "flag":
        code, out, err = run(base.split() + flag.format(text).split() + ["--format", "json"])
    else:
        literal = json.dumps(text) if form == "config-string" else text
        code, out, err = run(base.split() + ["--format", "json"], config=config.format(literal))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["procs"] if key == "procs" else doc["memory"]["num"]) == 10 ** (CAP - 1)


@pytest.mark.parametrize("key", ["shape", "memory"])
@pytest.mark.parametrize("form", ["flag", "config-number"])
def test_a_long_refused_number_is_quoted_by_its_start_and_length(key, form):
    # the stderr line quotes 40 characters and the count, not all 5000
    text = "9" * 5000
    base, flag, config, _ = CAPPED[key]
    if form == "flag":
        code, out, err = run(base.split() + flag.format(text).split())
    else:
        code, out, err = run(base.split(), config=config.format(text))
    assert (code, out) == (2, "")
    assert err.endswith(f", got '{text[:40]}'... (5000 characters)\n")
    assert len(err.encode()) < 200 and err.count("\n") == 1


@pytest.mark.parametrize(
    "value, got",
    [("x" * 40, "'" + "x" * 40 + "'"), ("x" * 41, "'" + "x" * 40 + "'... (41 characters)"),
     (["1", "2"], "['1', '2']"),
     ([str(i) for i in range(1, 17)], "['1', '2', '3', '4', '5', '6', '7', '8',... (87 characters)")],
    ids=["at-the-quote-cap", "past-it", "short-list", "long-list"],
)
def test_a_refused_value_is_quoted_whole_up_to_the_quote_cap(value, got):
    # a text is quoted as typed; a config list is shown, and cut, as its
    # repr, which is not quoted a second time
    assert exact.QUOTE_CAP == 40
    base = ["bound", "--shape", "2", "2", "2", "--procs", "1"]
    if isinstance(value, str):
        code, out, err = run(base + ["--memory", value])
    else:
        code, out, err = run(base, config=json.dumps({"memory": value}))
    assert (code, out) == (2, "")
    assert err.endswith(f", got {got}\n")
