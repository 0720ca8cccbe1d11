"""Virtual-machine run of the 3D algorithm with exact word counting.

Every message of the A and B all-gathers and the C reduce-scatter is
materialized and logged, so measured word counts are integers that can be
compared exactly against the planner's CostBreakdown.  Matrices carry small
random integers, which makes the final check C = A @ B exact regardless of
reduction order.  The simulation is logical-time only: the cost metric is the
per-phase maximum over processors, summed across the three phases, matching
the critical-path convention the bound is stated in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .bounds import ProblemShape
from .grids import CostBreakdown, ProcessorGrid, comm_cost

if TYPE_CHECKING:
    import numpy as np

Coord = tuple[int, int, int]


@dataclass(frozen=True)
class Message:
    phase: str
    sender: Coord
    receiver: Coord
    words: int
    step: int


def split_sizes(total: int, parts: int) -> list[int]:
    """Contiguous near-even split; remainder words go to the lowest ranks."""
    q, r = divmod(total, parts)
    return [q + 1 if i < r else q for i in range(parts)]


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    out, start = [], 0
    for w in split_sizes(total, parts):
        out.append((start, start + w))
        start += w
    return out


def ring_all_gather(members, chunks, tag: str = ""):
    """One ring all-gather over an ordered fiber.

    members[i] starts with chunks[i] (a 1-D array); after p-1 steps every
    member holds the concatenation in member order.  At step s, member i
    forwards the chunk that originated at member (i - s + 1) mod p to its ring
    successor, so each member receives every chunk but its own:
    received_i = total - |chunk_i|, sent_i = total - |chunk_{i+1}|, both
    (1 - 1/p) w for even splits.

    Returns (gathered, sent, received, messages).
    """
    import numpy as np

    p = len(members)
    if len(chunks) != p or p == 0:
        raise ValueError("need one chunk per fiber member")
    lens = [len(c) for c in chunks]
    total = sum(lens)
    sent = [0] * p
    received = [0] * p
    messages = []
    for step in range(1, p):
        for i in range(p):
            src = (i - step + 1) % p
            nxt = (i + 1) % p
            w = lens[src]
            messages.append(Message(tag, members[i], members[nxt], w, step))
            sent[i] += w
            received[nxt] += w
    for i in range(p):
        assert sent[i] == total - lens[(i + 1) % p]
        assert received[i] == total - lens[i]
    gathered = np.concatenate(chunks) if p > 1 else chunks[0].copy()
    return gathered, sent, received, messages


def ring_reduce_scatter(members, addends, tag: str = ""):
    """One ring reduce-scatter over an ordered fiber.

    Every member contributes an equal-length 1-D addend; member j ends with
    shard j of the elementwise sum, shards being the contiguous near-even
    split.  Shard j travels j+1 -> j+2 -> ... -> j, each hop adding the local
    contribution, so sent_i = total - |shard_i| and additions = words
    received; both are (1 - 1/p) w for even shards.

    Returns (shards, sent, received, messages).
    """
    import numpy as np

    p = len(members)
    if len(addends) != p or p == 0:
        raise ValueError("need one addend per fiber member")
    w = len(addends[0])
    for a in addends:
        if len(a) != w:
            raise ValueError("all addends must have the same length")
    if p == 1:
        return [addends[0].copy()], [0], [0], []
    ranges = split_ranges(w, p)
    sent = [0] * p
    received = [0] * p
    messages = []
    for j, (a, b) in enumerate(ranges):
        words = b - a
        for step in range(1, p):
            s = (j + step) % p
            r = (s + 1) % p
            messages.append(Message(tag, members[s], members[r], words, step))
            sent[s] += words
            received[r] += words
    for i in range(p):
        assert sent[i] == w - (ranges[i][1] - ranges[i][0])
    stack = np.stack(addends)
    shards = [stack[:, a:b].sum(axis=0) for a, b in ranges]
    return shards, sent, received, messages


@dataclass
class ProcessorStore:
    a_chunk: np.ndarray = None
    b_chunk: np.ndarray = None
    a_block: Optional[np.ndarray] = None
    b_block: Optional[np.ndarray] = None
    d_block: Optional[np.ndarray] = None
    c_shard: Optional[np.ndarray] = None


@dataclass
class VirtualMachine:
    shape: ProblemShape
    grid: ProcessorGrid
    seed: int
    a: np.ndarray
    b: np.ndarray
    stores: dict[Coord, ProcessorStore] = field(default_factory=dict)

    @property
    def coords(self) -> list[Coord]:
        p1, p2, p3 = self.grid.dims
        return [(i, j, l) for i in range(p1) for j in range(p2) for l in range(p3)]

    def rank(self, c: Coord) -> int:
        p1, p2, p3 = self.grid.dims
        return (c[0] * p2 + c[1]) * p3 + c[2]


def _block(mat: np.ndarray, i: int, j: int, rows: int, cols: int) -> np.ndarray:
    return mat[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols]


def build_machine(shape: ProblemShape, grid: ProcessorGrid, seed: int = 0) -> VirtualMachine:
    """Fill A, B from the seed and distribute one copy of each across stores.

    Block A_{ij} lives spread over fiber (i, j, :) and B_{jl} over (:, j, l),
    as contiguous column-major chunks with any remainder on the lowest ranks.
    """
    import numpy as np

    for name, d, p in zip(("n1", "n2", "n3"), shape.dims, grid.dims):
        if d % p != 0:
            raise ValueError(f"grid factor {p} does not divide {name} = {d}")
    rng = np.random.default_rng(seed)
    a = rng.integers(-8, 9, size=(shape.n1, shape.n2), dtype=np.int64)
    b = rng.integers(-8, 9, size=(shape.n2, shape.n3), dtype=np.int64)
    vm = VirtualMachine(shape=shape, grid=grid, seed=seed, a=a, b=b)
    p1, p2, p3 = grid.dims
    br1, br2, br3 = shape.n1 // p1, shape.n2 // p2, shape.n3 // p3
    for c in vm.coords:
        vm.stores[c] = ProcessorStore()
    for i in range(p1):
        for j in range(p2):
            flat = _block(a, i, j, br1, br2).flatten(order="F")
            for l, (s, e) in enumerate(split_ranges(flat.size, p3)):
                vm.stores[(i, j, l)].a_chunk = flat[s:e].copy()
    for j in range(p2):
        for l in range(p3):
            flat = _block(b, j, l, br2, br3).flatten(order="F")
            for i, (s, e) in enumerate(split_ranges(flat.size, p1)):
                vm.stores[(i, j, l)].b_chunk = flat[s:e].copy()
    # one-copy-in: the chunks partition A and B exactly
    assert sum(st.a_chunk.size for st in vm.stores.values()) == shape.n1 * shape.n2
    assert sum(st.b_chunk.size for st in vm.stores.values()) == shape.n2 * shape.n3
    return vm


@dataclass(frozen=True)
class PhaseStats:
    name: str
    fiber_size: int
    ideal: Fraction          # per-processor words for an even split
    sent: tuple[int, ...]    # indexed by processor rank
    received: tuple[int, ...]
    even_split: bool

    @property
    def max_words(self) -> int:
        return max(max(self.sent), max(self.received))


@dataclass
class SimReport:
    shape: tuple[int, int, int]
    grid: tuple[int, int, int]
    seed: int
    phases: list[PhaseStats]
    critical_path_words: int
    flops_per_proc: int           # local multiplies, identical on every rank
    rs_adds: tuple[int, ...]      # reduce-scatter additions per rank
    correctness: bool
    predicted: CostBreakdown
    messages: list[Message]


def run_algorithm(shape: ProblemShape, grid: ProcessorGrid, seed: int = 0) -> SimReport:
    """Execute the 3D algorithm and count every word on the wire.

    Phases: all-gather A over (i, j, :), all-gather B over (:, j, l), local
    D = A_block @ B_block, reduce-scatter D over (i, :, l).  Asserts the
    one-copy invariants and verifies the assembled C against a sequential
    multiply.
    """
    import numpy as np

    vm = build_machine(shape, grid, seed)
    p1, p2, p3 = grid.dims
    br1, br2, br3 = shape.n1 // p1, shape.n2 // p2, shape.n3 // p3
    P = grid.size
    predicted = comm_cost(shape, grid)
    messages: list[Message] = []
    phases: list[PhaseStats] = []

    def run_phase(name, fiber_size, block_words, fibers_chunks, ideal, gather):
        sent_all = [0] * P
        recv_all = [0] * P
        out = {}
        for members, data in fibers_chunks:
            if gather:
                res, sent, recv, msgs = ring_all_gather(members, data, tag=name)
            else:
                res, sent, recv, msgs = ring_reduce_scatter(members, data, tag=name)
            messages.extend(msgs)
            for mem, s, r in zip(members, sent, recv):
                sent_all[vm.rank(mem)] += s
                recv_all[vm.rank(mem)] += r
            out[tuple(members)] = res
        phases.append(
            PhaseStats(
                name=name,
                fiber_size=fiber_size,
                ideal=ideal,
                sent=tuple(sent_all),
                received=tuple(recv_all),
                even_split=block_words % fiber_size == 0,
            )
        )
        return out

    # A all-gather: everyone in fiber (i, j, :) ends with block A_{ij}
    a_fibers = []
    for i in range(p1):
        for j in range(p2):
            members = [(i, j, l) for l in range(p3)]
            a_fibers.append((members, [vm.stores[c].a_chunk for c in members]))
    a_gathered = run_phase(
        "A_all_gather", p3, br1 * br2, a_fibers, predicted.words_a, gather=True
    )
    for members, _ in a_fibers:
        i, j, _l = members[0]
        blk = a_gathered[tuple(members)].reshape((br1, br2), order="F")
        assert np.array_equal(blk, _block(vm.a, i, j, br1, br2))
        for c in members:
            vm.stores[c].a_block = blk

    # B all-gather: everyone in fiber (:, j, l) ends with block B_{jl}
    b_fibers = []
    for j in range(p2):
        for l in range(p3):
            members = [(i, j, l) for i in range(p1)]
            b_fibers.append((members, [vm.stores[c].b_chunk for c in members]))
    b_gathered = run_phase(
        "B_all_gather", p1, br2 * br3, b_fibers, predicted.words_b, gather=True
    )
    for members, _ in b_fibers:
        _, j, l = members[0]
        blk = b_gathered[tuple(members)].reshape((br2, br3), order="F")
        assert np.array_equal(blk, _block(vm.b, j, l, br2, br3))
        for c in members:
            vm.stores[c].b_block = blk

    # local multiply
    for c in vm.coords:
        st = vm.stores[c]
        st.d_block = st.a_block @ st.b_block
    flops_per_proc = br1 * br2 * br3

    # C reduce-scatter: fiber (i, :, l) sums its D blocks, shard j to (i, j, l)
    c_fibers = []
    for i in range(p1):
        for l in range(p3):
            members = [(i, j, l) for j in range(p2)]
            c_fibers.append(
                (members, [vm.stores[c].d_block.flatten(order="F") for c in members])
            )
    block_words_c = br1 * br3
    c_shards = run_phase(
        "C_reduce_scatter", p2, block_words_c, c_fibers, predicted.words_c, gather=False
    )
    for members, _ in c_fibers:
        shards = c_shards[tuple(members)]
        for c, shard in zip(members, shards):
            vm.stores[c].c_shard = shard

    rs_adds = tuple(phases[-1].received)

    # assemble and check: one copy of C, equal to the sequential product
    c_sim = np.zeros((shape.n1, shape.n3), dtype=np.int64)
    written = 0
    for i in range(p1):
        for l in range(p3):
            flat = np.concatenate([vm.stores[(i, j, l)].c_shard for j in range(p2)])
            assert flat.size == block_words_c
            written += flat.size
            c_sim[
                i * br1 : (i + 1) * br1, l * br3 : (l + 1) * br3
            ] = flat.reshape((br1, br3), order="F")
    assert written == shape.n1 * shape.n3
    correctness = bool(np.array_equal(c_sim, vm.a @ vm.b))

    critical_path = sum(ph.max_words for ph in phases)
    return SimReport(
        shape=shape.dims,
        grid=grid.dims,
        seed=seed,
        phases=phases,
        critical_path_words=critical_path,
        flops_per_proc=flops_per_proc,
        rs_adds=rs_adds,
        correctness=correctness,
        predicted=predicted,
        messages=messages,
    )


@dataclass(frozen=True)
class PhaseComparison:
    phase: str
    measured_max: int
    ideal: Fraction
    exact: bool
    deviation: Fraction
    within_bound: bool   # |measured - ideal| <= fiber_size - 1


@dataclass(frozen=True)
class PredictionComparison:
    phases: tuple[PhaseComparison, ...]
    all_exact: bool
    all_within: bool
    predicted_total: Fraction


def compare_to_prediction(report: SimReport) -> PredictionComparison:
    """Measured per-phase words against the planner's ideal terms.

    Even splits must match exactly; uneven splits may exceed the ideal by
    less than one element per ring slot, i.e. within fiber_size - 1 words.
    """
    rows = []
    for ph in report.phases:
        measured = ph.max_words
        dev = abs(Fraction(measured) - ph.ideal)
        rows.append(
            PhaseComparison(
                phase=ph.name,
                measured_max=measured,
                ideal=ph.ideal,
                exact=Fraction(measured) == ph.ideal,
                deviation=dev,
                within_bound=dev <= max(ph.fiber_size - 1, 0),
            )
        )
    return PredictionComparison(
        phases=tuple(rows),
        all_exact=all(r.exact for r in rows),
        all_within=all(r.within_bound for r in rows),
        predicted_total=report.predicted.total,
    )
