"""Comparison mutants of the package, each run against the test suite.

    python tests/mutate.py src/commbounds/bounds.py src/commbounds/kkt.py

For every comparison in the named files, one mutant swaps its operator:
< with <=, > with >=, == with !=, and back.  Each mutant is written into a
temporary copy of the repository, where the suite runs with -x, WORKERS
mutants at a time; a mutant the suite passes survives, and one it runs past
SUITE_TIMEOUT seconds is reported as hanging.  The output lists the survivors and hangs as
file:line old -> new, then the counts.  Only the operator's characters
change, so every other line keeps its text and its number.  pytest does not
collect this file.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}
OPERATOR = re.compile(r"<=|>=|==|!=|<|>")
# each suite run takes one core.  The conftest alarm fails a test's call,
# a hypothesis property's too, 60 s in, and -x then ends the run, so a
# mutant that hangs a test counts as killed; SUITE_TIMEOUT catches a suite
# that hangs outside any test's call, in collection or a fixture
WORKERS = 2
SUITE_TIMEOUT = 600


def offset(lines: list[str], lineno: int, col: int) -> int:
    """The index in the joined text of (1-based line, 0-based utf-8 column)."""
    return sum(map(len, lines[: lineno - 1])) + len(
        lines[lineno - 1].encode()[:col].decode())


def mutants(source: str):
    """(line, old, new, mutated source) for every comparison operator."""
    lines = source.splitlines(keepends=True)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for left, op, right in zip([node.left, *node.comparators], node.ops,
                                   node.comparators):
            if type(op) not in SWAP:
                continue
            old, new = SWAP[type(op)]
            start = offset(lines, left.end_lineno, left.end_col_offset)
            end = offset(lines, right.lineno, right.col_offset)
            found = OPERATOR.search(source, start, end)
            assert found and found.group() == old, (left.end_lineno, source[start:end])
            yield (left.end_lineno, old, new,
                   source[: found.start()] + new + source[found.end():])


def run_suite(root: Path) -> str:
    """How the suite in root fares: killed, survived or hangs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SUITE_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "hangs"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository")
    args = parser.parse_args(argv)

    jobs = []
    for name in args.files:
        source = (ROOT / name).read_text()
        jobs += [(name, line, old, new, text) for line, old, new, text in mutants(source)]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "out")

    def run(job):
        name, line, old, new, text = job
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp, "repo")
            shutil.copytree(ROOT, copy, ignore=ignore)
            (copy / name).write_text(text)
            return job, run_suite(copy)

    counts = {"killed": 0, "survived": 0, "hangs": 0}
    with ThreadPoolExecutor(WORKERS) as pool:
        for (name, line, old, new, _), verdict in pool.map(run, jobs):
            counts[verdict] += 1
            if verdict != "killed":
                print(f"{verdict:<8} {name}:{line} {old} -> {new}", flush=True)
    print(f"{len(jobs)} mutants: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
