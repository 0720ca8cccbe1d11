"""Comparison mutants of the package, each run against the test suite.

    python tests/mutate.py src/commbounds/bounds.py src/commbounds/kkt.py
    python tests/mutate.py --since REV src/commbounds/cli.py

For every comparison in the named files, one mutant swaps its operator:
< with <=, > with >=, == with !=, and back.  The unmutated suite runs first,
once, and must pass; its time, times SUITE_TIMEOUT_FACTOR, is each mutant's
suite timeout, and the output gives both.  Each mutant is written into a
temporary copy of the repository, where the suite runs with -x, WORKERS
mutants at a time.  A mutant the suite passes survives.  One whose suite
runs past the timeout hangs, and so does one under which a test runs past
the conftest time limit; any other failure kills it.  The output lists the
survivors and hangs as file:line old -> new, then the counts.  Only the
operator's characters change, so every other line keeps its text and its
number.  With --since REV, only the comparisons whose line lies in a hunk
that `git diff REV -- FILE` adds or changes are mutated, and the output
gives how many were skipped.  pytest does not collect this file.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}
OPERATOR = re.compile(r"<=|>=|==|!=|<|>")
# each suite run takes one core.  The conftest alarm raises
# TimeLimitExceeded in a test's call, a hypothesis property's too, at
# TEST_TIME_LIMIT, and -x then ends the run; the suite timeout catches a
# suite that hangs outside any test's call, in collection or a fixture, and
# one the mutant slows more than SUITE_TIMEOUT_FACTOR times
WORKERS = 2
SUITE_TIMEOUT_FACTOR = 3


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


def changed_lines(rev: str, name: str) -> set[int]:
    """The working tree's numbers of the lines of name that git diff rev adds
    or changes."""
    done = subprocess.run(["git", "diff", "-U0", rev, "--", name], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(done.stderr.strip())
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", done.stdout, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def run_suite(root: Path, timeout) -> str:
    """How the suite in root fares, within timeout seconds (None: no limit):
    killed, survived or hangs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "hangs"
    if done.returncode == 0:
        return "survived"
    return "hangs" if "TimeLimitExceeded" in done.stdout else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository")
    parser.add_argument("--since", metavar="REV",
                        help="mutate only the lines that git diff REV adds or changes")
    args = parser.parse_args(argv)

    jobs, total = [], 0
    for name in args.files:
        found = [(name, *m) for m in mutants((ROOT / name).read_text())]
        total += len(found)
        if args.since:
            changed = changed_lines(args.since, name)
            found = [job for job in found if job[1] in changed]
        jobs += found
    if args.since:
        print(f"--since {args.since}: {len(jobs)} comparisons on changed lines, "
              f"{total - len(jobs)} skipped", flush=True)
    if not jobs:
        return 0
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "out")

    def run(job, timeout=None):
        name, line, old, new, text = job
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp, "repo")
            shutil.copytree(ROOT, copy, ignore=ignore)
            if text is not None:
                (copy / name).write_text(text)
            return job, run_suite(copy, timeout)

    t0 = time.perf_counter()
    _, verdict = run((None, None, None, None, None))
    measured = time.perf_counter() - t0
    if verdict != "survived":
        print(f"the unmutated suite {'hangs' if verdict == 'hangs' else 'fails'}; "
              "no mutant can be judged", flush=True)
        return 1
    timeout = SUITE_TIMEOUT_FACTOR * measured
    print(f"unmutated suite: {measured:.1f} s; a mutant's suite hangs past {timeout:.0f} s "
          f"({SUITE_TIMEOUT_FACTOR}x)", flush=True)

    counts = {"killed": 0, "survived": 0, "hangs": 0}
    with ThreadPoolExecutor(WORKERS) as pool:
        for (name, line, old, new, _), verdict in pool.map(lambda j: run(j, timeout), jobs):
            counts[verdict] += 1
            if verdict != "killed":
                print(f"{verdict:<8} {name}:{line} {old} -> {new}", flush=True)
    print(f"{len(jobs)} mutants: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
