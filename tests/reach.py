"""Product reach: every line of src/ runs when the product is used.

    python tests/reach.py

The product is the command line and the names the README's quick start
imports.  This script traces, in process, every argv list of
tests/golden_cli.json, the quick start, and the EXTRA calls below, which need
a file in a temporary directory.  It then lists each executable line of
src/commbounds that none of them ran and that ALLOWED does not name, and
each ALLOWED line that is no longer an unreached line, and exits 1 if there
is any.  A line that only the tests call belongs in the tests; a check that a
caller's validation already makes true belongs nowhere.  The script uses only
the standard library; pytest does not collect it.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "commbounds"

# (module, the unreached line's text): why it stays although no product path
# runs it.
ALLOWED = {
    ("bounds.py", 'raise ValueError(f"dimensions must be positive integers, got {self.dims}")'):
        "ProblemShape is exported; its constructor validates what a library caller passes",
    ("bounds.py", 'raise ValueError(f"processor count must be a positive integer, got {procs!r}")'):
        "_check_procs validates P for the exported lower_bound and analytic_grid",
    ("grids.py", 'raise ValueError(f"grid factors must be positive integers, got {self.dims}")'):
        "ProcessorGrid is exported; its constructor validates what a library caller passes",
    ("kkt.py", 'raise ValueError(f"need m >= n >= k >= 1, got ({self.m}, {self.n}, {self.k})")'):
        "OptProblem is exported; its constructor validates what a library caller passes",
    ("kkt.py", 'raise ValueError(f"need P >= 1, got {self.P}")'):
        "OptProblem is exported; its constructor validates what a library caller passes",
    ("exact.py", 'raise ValueError(f"an irrational value, of the field {self.root}")'):
        "safety: reading an irrational as a rational, as mixing two fields would, "
        "would silently give wrong numbers",
    ("cli.py", "sys.exit(main())"):
        "the console script's entry point, run(), as pyproject.toml names it",
    ("cli.py", "run()"):
        "python -m commbounds.cli",
}

# Calls that read or write a file: (argv with {dir} for the temporary
# directory, the name and text of a file to write there first or None).
EXTRA = [
    (["bound", "--shape", "96", "24", "6", "--procs", "8", "--out", "{dir}/out.txt"], None),
    (["verify", "--config", "{dir}/cfg.json"],
     ("cfg.json", '{"shape": [9600, 2400, 600], "procs": 37, "format": "json"}')),
    (["bound", "--config", "{dir}/list.json"], ("list.json", "[]")),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled module holds instructions for."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run_product(hit: set) -> None:
    """Run every call of the product with the tracer adding (file, line) to hit."""
    files = {str(p) for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            hit.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    readme = (ROOT / "README.md").read_text()
    quick_start = re.search(r"```python\n(.*?)```", readme, re.S)[1]
    corpus = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    os.environ["COLUMNS"] = "80"  # as the golden test sets it
    sys.settrace(tracer)
    try:
        import commbounds.cli as cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exec(compile(quick_start, "<README quick start>", "exec"), {})
            for key in corpus:
                cli.main(key.split())
            with tempfile.TemporaryDirectory() as tmp:
                for argv, file in EXTRA:
                    if file is not None:
                        Path(tmp, file[0]).write_text(file[1])
                    cli.main([a.replace("{dir}", tmp) for a in argv])
    finally:
        sys.settrace(None)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hit: set = set()
    run_product(hit)
    total, unreached = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unreached += [(path.name, n, text[n - 1].strip())
                      for n in sorted(lines) if (str(path), n) not in hit]
    found = {(name, line) for name, _, line in unreached}
    missing = [f"src/commbounds/{name}:{n}: {line}" for name, n, line in unreached
               if (name, line) not in ALLOWED]
    stale = [f"allowed but not an unreached line: src/commbounds/{name}: {line}"
             for name, line in ALLOWED if (name, line) not in found]
    for entry in missing + stale:
        print(entry)
    print(f"{total - len(unreached)} of {total} executable src/ lines ran; "
          f"{len(unreached)} unreached, {len(unreached) - len(missing)} of them allowed")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
