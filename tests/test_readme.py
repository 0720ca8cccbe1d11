"""The README's examples run and print what the README says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import commbounds
import commbounds.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"
TRANSCRIPTS = re.findall(r"```text\n(\$ commbounds .*?)```", README.read_text(), re.S)


def test_quick_start_runs_and_prints_its_comments():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # each print line documents its output as "# value", optionally followed
    # by two spaces and a remark
    documented = [
        line.split("# ", 1)[1].split("  ")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert documented == ["2d 760000", "(12, 3, 1)", "760000", "76", "True", "True"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == documented


def test_package_exports_the_quick_start_names():
    code = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[0]
    names = re.search(r"from commbounds import \((.*?)\)", code, re.S)[1]
    assert sorted(n.strip() for n in names.split(",") if n.strip()) == sorted(commbounds.__all__)


def test_flag_table_matches_the_parser():
    table = README.read_text().split("| its own flags", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (.*?) +\|$", table, re.M)
    documented = {
        command: tuple(re.findall(r"--(\w+)", flags)) for command, flags in rows
    }
    # a command's own flags are the keys not every command takes
    own = {
        command: tuple(key for key, (_, commands, _) in cli._KEYS.items()
                       if command in commands and commands != cli._ALL)
        for command in cli._ALL
    }
    assert documented == own


def transcript_pattern(lines: list[str]) -> re.Pattern:
    """A line "..." matches any lines, "..." inside a line any text."""
    parts = [
        r"(?:.*\n)*?"
        if line == "..."
        else ".*".join(re.escape(part) for part in line.split("...")) + r"\n"
        for line in lines
    ]
    return re.compile("".join(parts))


def test_every_cli_example_is_checked():
    assert [t.split()[2] for t in TRANSCRIPTS] == [
        "bound", "bound", "grid", "simulate", "verify", "sweep",
    ]


@pytest.mark.parametrize("transcript", TRANSCRIPTS, ids=lambda t: t.splitlines()[0][2:])
def test_cli_transcript_matches(transcript):
    command, *expected = transcript.splitlines()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command)[2:])
    assert code == 0
    assert transcript_pattern(expected).fullmatch(out.getvalue()), out.getvalue()


def test_transcript_pattern():
    pattern = transcript_pattern(["a", "...", "b ... d"])
    assert pattern.fullmatch("a\nb c d\n")
    assert pattern.fullmatch("a\nx\ny\nb  d\n")
    assert not pattern.fullmatch("a\nb c e\n")
    assert not pattern.fullmatch("x\na\nb d\n")
