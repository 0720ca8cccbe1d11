"""Differential run: a git revision's command line against the working tree's.

    python tests/differ.py REV [--box D N] [--ties D N] [--declared FILE]

`git archive REV src` is extracted into a temporary directory, and one worker
process starts per tree, each importing commbounds from its own src.  Both
get the same argv lists, in order, run each in process through cli.main, and
return its exit code, stdout and stderr, which must match byte for byte.  The
output gives each source's request, difference and declared counts, then the
first 20 undeclared differences and the first 20 declared ones, each with
both answers, then each declared line that no request differed on, as
unused.  The exit code is 1 when any undeclared request differs.

--declared FILE lists the argv whose output a change declares changed, one a
line, its words joined by single spaces as the golden corpus spells its keys;
blank lines and lines that start with # are skipped.

Sources of argv, in this order:
  always     every key of tests/golden_cli.json;
  --box D N  every ordered shape with dims <= D at every P <= N in bound,
             grid, simulate and verify, `sweep --procs 1:N` on every shape,
             and `verify --tiny` at every P <= N on every ordered shape, of
             any dims, with n1*n2*n3 at most EXHAUSTIVE_LIMIT + 1, so each
             box in all its axis orders and the refusal just past the cap;
             each in the three formats.
  --ties D N `bound --memory M` on every ordered shape with dims <= D at
             every P <= N, or at LO <= P <= HI for N written LO:HI, in the
             three formats, M written as p/q: where
             mnk/P is the cube of a rational a/b, at the dominance tie
             M* = 4a^2/(9b^2), where 729 P^2 M*^3 = 64 (mnk)^2, and at
             M* times 999/1000 and 1001/1000; and everywhere at the least
             admitted M, the owned words (mn + mk + nk)/P, and at 999/1000
             of it, which is refused.

The script uses only the standard library; pytest does not collect it.
"""

import argparse
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("human", "json", "csv")
SHOWN = 20

# Reads one JSON argv list a line and answers [exit code, stdout, stderr] as
# one JSON line.  An exception that escapes cli.main is an answer too.
WORKER = """
import contextlib, io, json, sys
import commbounds.cli as cli
answer = sys.stdout
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except Exception as e:
            code = f"raised {type(e).__name__}: {e}"
    answer.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\\n")
    answer.flush()
"""


def golden() -> list[list[str]]:
    corpus = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    return [key.split() for key in corpus]


def box(most_dim: int, most_procs: int) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    from commbounds.projections import EXHAUSTIVE_LIMIT

    shapes = [[str(d) for d in dims]
              for dims in itertools.product(range(1, most_dim + 1), repeat=3)]
    most = EXHAUSTIVE_LIMIT + 1
    tiny = [[str(a), str(b), str(c)] for a in range(1, most + 1)
            for b in range(1, most // a + 1) for c in range(1, most // (a * b) + 1)]
    requests = []
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for shape in shapes:
            for command in ("bound", "grid", "simulate", "verify"):
                requests += ([command, "--shape", *shape, "--procs", str(p), *tail]
                             for p in range(1, most_procs + 1))
            requests.append(["sweep", "--shape", *shape, "--procs", f"1:{most_procs}", *tail])
        for shape in tiny:
            requests += (["verify", "--shape", *shape, "--procs", str(p), "--tiny", *tail]
                         for p in range(1, most_procs + 1))
    return requests


def cube_root(n: int):
    """The integer whose cube is n, or None."""
    c = round(n ** (1 / 3))
    return next((r for r in (c - 1, c, c + 1) if r ** 3 == n), None)


def procs_range(text: str) -> range:
    """N as the range 1..N, or LO:HI as LO..HI."""
    lo, colon, hi = text.partition(":")
    return range(int(lo), int(hi) + 1) if colon else range(1, int(text) + 1)


def ties(most_dim: int, procs: range) -> list[list[str]]:
    requests = []
    for fmt in FORMATS:
        for n1, n2, n3 in itertools.product(range(1, most_dim + 1), repeat=3):
            for p in procs:
                per_proc = Fraction(n1 * n2 * n3, p)
                owned = Fraction(n1 * n2 + n1 * n3 + n2 * n3, p)
                memories = [owned, owned * Fraction(999, 1000)]
                a, b = cube_root(per_proc.numerator), cube_root(per_proc.denominator)
                if a and b:
                    tie = Fraction(4 * a * a, 9 * b * b)
                    memories += [tie, tie * Fraction(999, 1000), tie * Fraction(1001, 1000)]
                requests += (["bound", "--shape", str(n1), str(n2), str(n3), "--procs", str(p),
                              "--memory", f"{m.numerator}/{m.denominator}", "--format", fmt]
                             for m in memories)
    return requests


def declared_lines(path: str) -> list[str]:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def start(src: Path) -> subprocess.Popen:
    # argparse wraps its usage lines to the terminal width
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    return subprocess.Popen([sys.executable, "-c", WORKER], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def ask(workers, argv: list[str]) -> list[str]:
    """Both trees' answers to argv, as JSON lines; the trees run at once."""
    line = json.dumps(argv) + "\n"
    for w in workers:
        w.stdin.write(line)
        w.stdin.flush()
    answers = [w.stdout.readline() for w in workers]
    if not all(answers):
        raise SystemExit(f"a worker exited on {argv}")
    return answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with the working tree")
    parser.add_argument("--box", nargs=2, type=int, metavar=("D", "N"),
                        help="every shape with dims <= D at every P <= N")
    parser.add_argument("--ties", nargs=2, metavar=("D", "N"),
                        help="bound --memory at the dominance ties and the least "
                        "admitted memory, on the same box; N may be LO:HI")
    parser.add_argument("--declared", metavar="FILE",
                        help="argv lines whose output is declared changed")
    args = parser.parse_args(argv)
    declared = declared_lines(args.declared) if args.declared else []
    sources = [("golden", golden())]
    if args.box:
        sources.append((f"box {args.box[0]} {args.box[1]}", box(*args.box)))
    if args.ties:
        sources.append((f"ties {args.ties[0]} {args.ties[1]}",
                        ties(int(args.ties[0]), procs_range(args.ties[1]))))

    archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode:
        parser.error(archive.stderr.decode().strip())
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        workers = [start(Path(tmp) / "src"), start(ROOT / "src")]
        # undeclared and declared differences: (request, then, now)
        shown, total, used = ([], []), 0, set()
        try:
            for name, requests in sources:
                t0, differ, expected = time.perf_counter(), 0, 0
                for request in requests:
                    then, now = ask(workers, request)
                    if then != now:
                        line = " ".join(request)
                        is_declared = line in declared
                        differ += 1
                        expected += is_declared
                        if is_declared:
                            used.add(line)
                        if len(shown[is_declared]) < SHOWN:
                            shown[is_declared].append((request, then, now))
                total += differ - expected
                print(f"{name}: {len(requests)} requests, {differ} differ, {expected} of them "
                      f"declared ({time.perf_counter() - t0:.1f} s)")
        finally:
            for w in workers:
                w.stdin.close()
                w.wait()

    for tag, differences in zip(("", " (declared)"), shown):
        for request, then, now in differences:
            print(f"\n$ commbounds {' '.join(request)}{tag}")
            print(f"  {args.rev}: {then.rstrip()}")
            print(f"  working tree: {now.rstrip()}")
    for line in declared:
        if line not in used:
            print(f"\nunused: {line}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
