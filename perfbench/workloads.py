"""Seeded request streams and the correctness gate for every answer.

A stream is one cold-start request (the workload's fixed probe) followed by
cycles.  A cycle is the unit of stratification: it holds a fixed mix of
request kinds, and the seed only picks the values inside each kind, so two
seeds give streams with the same composition and nearly the same cost.  A run
replays a whole number of cycles, fixed by its length in seconds and the
workload's nominal cycle time, so the sample it measures does not depend on
how fast the machine happened to be.

Every argv ends in ``--format json``; the program sees nothing else.  The
same seed gives byte-identical argv lists (``random.Random`` seeded with a
string is stable across processes and Python versions).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    tags: frozenset[str] = frozenset()


def _req(command: str, shape, procs: int, *extra: str, tags=()) -> Request:
    argv = (command, "--shape", *map(str, shape), "--procs", str(procs), *extra,
            "--format", "json")
    return Request(argv, frozenset(tags))


def _permuted(rng: random.Random, dims) -> tuple[int, int, int]:
    dims = list(dims)
    rng.shuffle(dims)
    return tuple(dims)


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))


# ---------------------------------------------------------------- plan

# Three shapes whose regime boundaries m/n and mn/k^2 are integers, so the
# log-uniform P range crosses 1d, 2d and 3d on each of them.
PLAN_SHAPES = ((9600, 2400, 600), (4096, 4096, 4096), (1_000_000, 1000, 10))
PLAN_P_MAX = 10**7
# Highly composite numbers from 720 to 720720 (OEIS A002182): the factor-triple
# count, and so the exhaustive planner's cost, peaks on them.
HIGHLY_COMPOSITE = (
    720, 840, 1260, 1680, 2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720,
    45360, 50400, 55440, 83160, 110880, 166320, 221760, 277200, 332640, 498960,
    554400, 665280, 720720,
)


def _plan_cycle(rng: random.Random) -> list[Request]:
    """One round per highly composite P, in seeded order.  A round is one
    grid request at that P, seven grid requests at log-uniform P and four
    bound requests, two of them with --memory.  The shape of the highly
    composite request is fixed by its P, so the costliest requests, which set
    the tail, are the same set for every seed; the seed permutes their axes."""
    out = []
    hc_shapes = {hc: PLAN_SHAPES[i % len(PLAN_SHAPES)] for i, hc in enumerate(HIGHLY_COMPOSITE)}
    for hc in rng.sample(HIGHLY_COMPOSITE, len(HIGHLY_COMPOSITE)):
        rnd = [_req("grid", _permuted(rng, hc_shapes[hc]), hc, tags={"hc"})]
        for _ in range(7):
            shape = _permuted(rng, rng.choice(PLAN_SHAPES))
            rnd.append(_req("grid", shape, _log_uniform_int(rng, 1, PLAN_P_MAX)))
        for with_memory in (False, False, True, True):
            shape = _permuted(rng, rng.choice(PLAN_SHAPES))
            procs = _log_uniform_int(rng, 1, PLAN_P_MAX)
            extra = ()
            if with_memory:
                n1, n2, n3 = shape
                owned = -(-(n1 * n2 + n2 * n3 + n1 * n3) // procs)
                extra = ("--memory", str(_log_uniform_int(rng, owned, 100 * owned)))
            rnd.append(_req("bound", shape, procs, *extra))
        rng.shuffle(rnd)
        out += rnd
    return out


# ---------------------------------------------------------------- sim_flops

# Multiples of 24 from 192 to 384: every P below divides 24, so a dividing
# grid always exists and no request fails by construction.
SIM_FLOPS_SIDES = tuple(range(192, 385, 24))
SIM_FLOPS_PROCS = (2, 3, 4, 6, 8)


def _sim_flops_cycle(rng: random.Random) -> list[Request]:
    """Nine simulate requests; each axis takes every side length once (a
    Latin hypercube), so every cycle has the same spread of volumes, and the
    P values are the same multiset in every cycle."""
    k = len(SIM_FLOPS_SIDES)
    perms = [rng.sample(SIM_FLOPS_SIDES, k) for _ in range(3)]
    procs = [SIM_FLOPS_PROCS[i % len(SIM_FLOPS_PROCS)] for i in range(k)]
    rng.shuffle(procs)
    return [
        _req("simulate", (perms[0][i], perms[1][i], perms[2][i]), procs[i],
             "--seed", str(rng.randrange(2**31)))
        for i in range(k)
    ]


# ---------------------------------------------------------------- sim_ranks

# (P, sides) pairs of one cycle.  Powers of two: any power-of-two P up to
# n1*n2*n3 has a dividing grid.  P=4096 twice per cycle, so the tail lands
# among the P=4096 requests.
SIM_RANKS_MIX = (
    (512, (32, 32, 64)), (1024, (32, 64, 64)), (2048, (32, 64, 64)),
    (4096, (32, 64, 64)), (4096, (64, 64, 64)),
)


def _sim_ranks_cycle(rng: random.Random) -> list[Request]:
    """The five requests of SIM_RANKS_MIX in seeded order, axes permuted."""
    return [
        _req("simulate", _permuted(rng, sides), p, "--seed", str(rng.randrange(2**31)))
        for p, sides in rng.sample(SIM_RANKS_MIX, len(SIM_RANKS_MIX))
    ]


# ---------------------------------------------------------------- certify

# Shapes with integer regime boundaries b12 = m/n and b23 = mn/k^2, so a plain
# verify can sit inside each regime or exactly on either boundary.
CERTIFY_SHAPES = ((9600, 2400, 600), (8192, 512, 128), (100_000, 1000, 10))
CERTIFY_PLAIN_PER_CYCLE = 18
# Fresh --tiny boxes per cycle, by volume.  Cold subset_stats costs about
# 2^volume, so these are the cost levels of the tail.  Volume 20 comes twice,
# so with one volume-24 box per cycle the tail (ten samples beyond it) lands
# inside the volume-20 group for passes of 4 to 9 cycles.  Volume 20 has 18
# distinct boxes and the others at least 15, so a pass of up to 9 cycles never
# runs out; after that a drawn box is a repeat.
CERTIFY_FRESH_VOLUMES = (24, 20, 20, 18, 16, 12)
# Repeats of boxes already answered in this process, per fresh box: 1 gives
# a repeat share of 1/2 among --tiny requests.
CERTIFY_REPEATS_PER_FRESH = 1
CERTIFY_PROBE_BOX = (2, 3, 3)


def boxes_of_volume(v: int) -> list[tuple[int, int, int]]:
    return [(a, b, v // (a * b)) for a in range(1, v + 1) if v % a == 0
            for b in range(1, v // a + 1) if (v // a) % b == 0]


REGIME_SPOTS = ("1d", "b12", "2d", "b23", "3d")


def _plain_verify(rng: random.Random, where: str, shape=None) -> Request:
    """A verify request on one of CERTIFY_SHAPES (drawn unless given), with P
    inside a regime or on a boundary, as ``where`` says."""
    m, n, k = shape or CERTIFY_SHAPES[rng.randrange(len(CERTIFY_SHAPES))]
    b12, b23 = m // n, m * n // (k * k)
    procs = {
        "1d": lambda: rng.randint(1, b12 - 1),
        "b12": lambda: b12,
        "2d": lambda: rng.randint(b12 + 1, b23 - 1),
        "b23": lambda: b23,
        "3d": lambda: _log_uniform_int(rng, b23 + 1, PLAN_P_MAX),
    }[where]()
    return _req("verify", _permuted(rng, (m, n, k)), procs, tags={where})


class _CertifyState:
    """Per-stream memory of which tiny boxes the process has answered."""

    def __init__(self, rng: random.Random):
        self.pools = {}
        for v in CERTIFY_FRESH_VOLUMES:
            boxes = boxes_of_volume(v)
            self.pools[v] = rng.sample(boxes, len(boxes))
        self.seen = [CERTIFY_PROBE_BOX]

    def fresh(self, v: int) -> tuple[tuple[int, int, int], bool]:
        pool = [b for b in self.pools[v] if b not in self.seen]
        if not pool:  # every box of this volume answered: it is a repeat now
            return self.pools[v][0], True
        self.seen.append(pool[0])
        return pool[0], False


def _certify_cycle(rng: random.Random, state: _CertifyState) -> list[Request]:
    plain = [_plain_verify(rng, REGIME_SPOTS[i % len(REGIME_SPOTS)])
             for i in range(CERTIFY_PLAIN_PER_CYCLE)]
    tiny = []
    for v in rng.sample(CERTIFY_FRESH_VOLUMES, len(CERTIFY_FRESH_VOLUMES)):
        box, repeated = state.fresh(v)
        tiny.append((box, repeated))
        for _ in range(CERTIFY_REPEATS_PER_FRESH):
            tiny.append((rng.choice(state.seen), True))
    tiny_reqs = [
        _req("verify", box, rng.randint(1, box[0] * box[1] * box[2]), "--tiny",
             tags={"tiny", "repeat" if repeated else "fresh"})
        for box, repeated in tiny
    ]
    # Mix plain requests among the tiny ones but keep the tiny order, so a
    # repeat never precedes the fresh request that introduced its box.
    is_tiny = [True] * len(tiny_reqs) + [False] * len(plain)
    rng.shuffle(is_tiny)
    it_tiny, it_plain = iter(tiny_reqs), iter(plain)
    return [next(it_tiny) if t else next(it_plain) for t in is_tiny]


# ---------------------------------------------------------------- verify


def _verify_cycle(rng: random.Random) -> list[Request]:
    """Every shape at every regime spot once, in seeded order: the plain
    verify requests of certify without its --tiny ones."""
    reqs = [_plain_verify(rng, where, shape)
            for shape in CERTIFY_SHAPES for where in REGIME_SPOTS]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- prelude

# One small request per subcommand, answered after the probe and before the
# measured requests of every pass.  Every layer then runs on every workload,
# so every per-layer metric is a measurement on every workload.  The prelude
# is checked like any answer but is not in the latency sample.  Its tiny box
# has a volume no certify cycle draws.
PRELUDE = (
    _req("bound", (96, 24, 6), 8, "--memory", "500"),
    _req("grid", (96, 24, 6), 36),
    _req("simulate", (24, 24, 24), 8, "--seed", "0"),
    _req("verify", (1, 2, 5), 2, "--tiny"),
)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    probe: Request
    cycles: Callable[[random.Random], Iterator[list[Request]]]
    # Seconds one cycle took on the reference machine (2 cores, Python 3.11,
    # numpy 2.4); it only sizes runs, it is never compared with a measurement.
    cycle_s: float

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


def _repeat(cycle_fn):
    def cycles(rng):
        while True:
            yield cycle_fn(rng)
    return cycles


def _certify_cycles(rng):
    state = _CertifyState(rng)
    while True:
        yield _certify_cycle(rng, state)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan",
            "grid and bound requests over three shapes and all regimes; "
            "log-uniform P to 1e7 plus highly composite P to 720720",
            _req("bound", (9600, 2400, 600), 36),
            _repeat(_plan_cycle),
            cycle_s=3.3,
        ),
        Workload(
            "sim_flops",
            "simulate on 192-384 sides with P <= 8: local and reference "
            "multiplies dominate, collectives are small",
            _req("simulate", (192, 192, 192), 8, "--seed", "0"),
            _repeat(_sim_flops_cycle),
            cycle_s=0.8,
        ),
        Workload(
            "sim_ranks",
            "simulate on 32-64 sides over 512-4096 ranks: ring collective "
            "bookkeeping and the message log dominate",
            _req("simulate", (32, 32, 32), 512, "--seed", "0"),
            _repeat(_sim_ranks_cycle),
            cycle_s=1.4,
        ),
        Workload(
            "verify",
            "plain verify requests, every shape inside each regime and on both "
            "boundaries: kkt checks with projections bypassed",
            _req("verify", (9600, 2400, 600), 36),
            _repeat(_verify_cycle),
            cycle_s=0.5,
        ),
        Workload(
            "certify",
            "verify across regimes and boundaries plus --tiny boxes, half of "
            "them repeats: the only projections workload",
            _req("verify", CERTIFY_PROBE_BOX, 4, "--tiny"),
            _certify_cycles,
            cycle_s=1.9,
        ),
    )
}


def stream(workload: str, seed: int) -> Iterator[list[Request]]:
    """The workload's cycles for this seed; probe and prelude not included."""
    rng = random.Random(f"commbounds-perfbench/{workload}/{seed}")
    return WORKLOADS[workload].cycles(rng)


# ---------------------------------------------------------------- checks


def _value(obj):
    """Inverse of the program's JSON number form: {num, den} or a float."""
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    return obj


def _at_least(a, b) -> bool:
    """a >= b, exactly for rationals and within 1e-12 relative otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a >= b
    return float(a) >= float(b) - 1e-12 * max(1.0, abs(float(a)), abs(float(b)))


def check(argv, code: Optional[int], out: str, err: str):
    """The parsed answer, or a string saying why the answer is wrong."""
    if code != 0:
        return f"exit code {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    command = argv[0]
    try:
        if doc.get("command") != command:
            return f"answer is for command {doc.get('command')!r}"
        if command == "grid":
            procs = int(argv[argv.index("--procs") + 1])
            ex = doc["exhaustive"]
            if math.prod(ex["grid"]) != procs:
                return f"exhaustive grid {ex['grid']} does not multiply to {procs}"
            if not _at_least(_value(ex["cost"]), _value(doc["lower_bound"])):
                return "exhaustive cost below the lower bound"
            if doc["analytic"]["integral"] and not (doc["agreement"] and doc["attained"]):
                return "integral analytic grid without agreement and attainment"
        elif command == "simulate":
            comp = doc["comparison"]
            if not (doc["correctness"] and comp["all_within_bound"]):
                return "simulated product wrong or a phase outside its bound"
            if comp["all_exact"] and (
                Fraction(int(doc["critical_path_words"])) != _value(doc["predicted_total"])
            ):
                return "critical path differs from the exact prediction"
        elif command == "verify":
            if doc["passed"] is not True:
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                return f"verification failed: {failed}"
    except (KeyError, TypeError, ValueError) as e:
        return f"answer lacks a field or has a bad one: {e!r}"
    return doc


def simulate_counts(doc) -> dict[str, int]:
    """Work of one simulate answer: exact words from per_proc_sent, and
    messages and multiply-add operations computed from shape and grid."""
    n1, n2, n3 = doc["shape"]
    p1, p2, p3 = doc["grid"]
    return {
        "words": sum(sum(ph["per_proc_sent"]) for ph in doc["per_phase"]),
        "messages": p1 * p2 * p3 * ((p1 - 1) + (p2 - 1) + (p3 - 1)),
        "mult_ops": 2 * n1 * n2 * n3 + 2 * n1 * n2 * n3,
    }
