"""Word-exact run of the 3D algorithm on seeded integer matrices.

run_algorithm executes the phases fiber by fiber on plain numpy blocks: the A
and B all-gathers, the local multiply of the gathered blocks and the C
reduce-scatter of the products.  Each fiber is one ring collective call.  Both
collectives count through one ring schedule (_ring_counts), the reduce-scatter
being the all-gather's schedule with each piece shifted by one member (Chan,
Heimlich, Purkayastha and van de Geijn, 2007): it sums, hop by hop, the words
each member sends and receives, and the run sums the counts per rank.
Matrices carry small random integers, so the check C = A @ B is exact
regardless of reduction order.  The cost metric is logical-time: the
per-phase maximum over processors, summed across the phases, the
critical-path convention the bound is stated in.  For a phase with block
words w and fiber size p that maximum is w - floor(w/p)
(PhaseStats.closed_form), which the tests check the hop counts against.  The
run counts its work in integers (work) before it allocates anything, and
check_work refuses a run above WORD_CAP int64 words or MESSAGE_CAP messages.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bounds import ProblemShape
from .grids import CostBreakdown, ProcessorGrid, comm_cost

# 2^26 int64 words are 512 MiB.  2^18 messages bound the hops the ring
# schedule counts, one loop iteration each; a 16x16x16 grid sends 184,320.
WORD_CAP = 2**26
MESSAGE_CAP = 2**18


def split_sizes(total: int, parts: int) -> list[int]:
    """Contiguous near-even split; remainder words go to the lowest ranks."""
    q, r = divmod(total, parts)
    return [q + 1 if i < r else q for i in range(parts)]


def _ring_counts(sizes, shift):
    """(sent, received) of one ring schedule over pieces of these sizes.

    At step s = 1..p-1 member i sends member i+1 the piece (i - s + shift)
    mod p.  The all-gather forwards the chunk it received the step before
    (shift 1); the reduce-scatter passes on the partial sum of shard i - s,
    which it has just added its own addend to (shift 0).  Each count is a sum
    over the hops, taken piece by piece: piece j leaves member j + s - shift
    (mod p) at step s.
    """
    p = len(sizes)
    sent, received = [0] * p, [0] * p
    for j, words in enumerate(sizes):
        for i in range(j + 1 - shift, j + p - shift):
            sent[i % p] += words
            received[(i + 1) % p] += words
    return sent, received


def ring_all_gather(chunks):
    """One ring all-gather over an ordered fiber of p = len(chunks) members.

    Member i starts with chunks[i] (a 1-D array); after p-1 steps every
    member holds the concatenation in member order.  Each member receives
    every chunk but its own and forwards every chunk but its successor's, so
    received_i = total - |chunk_i| and sent_i = total - |chunk_{i+1}|, both
    (1 - 1/p) w for even splits.

    Returns (gathered, sent, received).
    """
    import numpy as np

    sent, received = _ring_counts([len(c) for c in chunks], 1)
    return np.concatenate(chunks), sent, received


def ring_reduce_scatter(addends):
    """One ring reduce-scatter over an ordered fiber of p = len(addends) members.

    Every member contributes an equal-length 1-D addend; member j ends with
    shard j of the elementwise sum, shards being the contiguous near-even
    split.  Shard j travels j+1 -> j+2 -> ... -> j, each hop adding the local
    contribution, so sent_i = total - |shard_i| and additions = words
    received; both are (1 - 1/p) w for even shards.

    Returns (shards, sent, received).
    """
    import numpy as np

    sizes = split_sizes(len(addends[0]), len(addends))
    sent, received = _ring_counts(sizes, 0)
    shards = np.split(np.stack(addends).sum(axis=0), np.cumsum(sizes)[:-1])
    return shards, sent, received


@dataclass(frozen=True)
class PhaseStats:
    name: str
    fiber_size: int          # p
    block_words: int         # w, the words of the block each fiber moves
    ideal: Fraction          # (1 - 1/p) w, the planner's even-split term
    sent: tuple[int, ...]    # indexed by processor rank
    received: tuple[int, ...]

    @property
    def even_split(self) -> bool:
        return self.block_words % self.fiber_size == 0

    @property
    def closed_form(self) -> int:
        """w - floor(w/p): a rank moves w less one chunk or shard, and
        floor(w/p) is the smallest that split_sizes makes."""
        return self.block_words - self.block_words // self.fiber_size

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
    correctness: bool
    predicted: CostBreakdown


def work(shape: ProblemShape, grid: ProcessorGrid) -> tuple[int, int]:
    """(int64 words, messages) of one run, counted in integers.

    Words: A, B, the gathered blocks of each, the P local products (p2 n1n3
    in all) and the assembled and reference C.  Messages: a fiber of p
    members sends p(p - 1), and each phase's fibers cover the P ranks once.
    """
    n1, n2, n3 = shape.dims
    p1, p2, p3 = grid.dims
    words = 2 * (n1 * n2 + n2 * n3) + (p2 + 2) * n1 * n3
    return words, grid.size * (p1 + p2 + p3 - 3)


def check_work(words: int, messages: int) -> None:
    """Raise ValueError when a run's work, as counted by work, exceeds a cap."""
    if words > WORD_CAP:
        raise ValueError(f"simulate needs {words} int64 words, above the cap of {WORD_CAP}")
    if messages > MESSAGE_CAP:
        raise ValueError(f"simulate sends {messages} messages, above the cap of {MESSAGE_CAP}")


def _phase(name, collective, fibers, data, size, w, ideal):
    """Run the collective on each fiber with its inputs from data; return the
    phase's stats, counts summed per rank, and the fibers' results in order."""
    sent, received, results = [0] * size, [0] * size, []
    for members, inputs in zip(fibers, data):
        out, s, r = collective(inputs)
        for rank, si, ri in zip(members, s, r):
            sent[rank] += si
            received[rank] += ri
        results.append(out)
    stats = PhaseStats(name, len(fibers[0]), w, ideal, tuple(sent), tuple(received))
    return stats, results


def run_algorithm(shape: ProblemShape, grid: ProcessorGrid, seed: int = 0) -> SimReport:
    """Execute the 3D algorithm and count every word on the wire.

    Raises ValueError, before allocating anything, when a grid factor does
    not divide its dimension or the run's work exceeds a cap.  Verifies the
    assembled C against a sequential multiply.
    """
    for name, d, p in zip(("n1", "n2", "n3"), shape.dims, grid.dims):
        if d % p != 0:
            raise ValueError(f"grid factor {p} does not divide {name} = {d}")
    check_work(*work(shape, grid))
    import numpy as np

    p1, p2, p3 = grid.dims
    r1, r2, r3 = shape.n1 // p1, shape.n2 // p2, shape.n3 // p3
    rng = np.random.default_rng(seed)
    a = rng.integers(-8, 9, size=(shape.n1, shape.n2), dtype=np.int64)
    b = rng.integers(-8, 9, size=(shape.n2, shape.n3), dtype=np.int64)
    c = np.zeros((shape.n1, shape.n3), dtype=np.int64)
    # block (i, j) of a is a_blocks[i, :, j, :], and likewise for b and c
    a_blocks, b_blocks = a.reshape(p1, r1, p2, r2), b.reshape(p2, r2, p3, r3)
    c_blocks = c.reshape(p1, r1, p3, r3)
    ranks = np.arange(grid.size).reshape(grid.dims)
    predicted = comm_cost(shape, grid)

    def chunks(block, p):
        """The block's column-major words in split_sizes pieces."""
        flat = block.flatten(order="F")
        return np.split(flat, np.cumsum(split_sizes(flat.size, p))[:-1])

    ij = [(i, j) for i in range(p1) for j in range(p2)]
    a_stats, gathered = _phase(
        "A_all_gather", ring_all_gather,
        [ranks[i, j, :].tolist() for i, j in ij],
        (chunks(a_blocks[i, :, j, :], p3) for i, j in ij),
        grid.size, r1 * r2, predicted.words_a,
    )
    a_gathered = {f: g.reshape((r1, r2), order="F") for f, g in zip(ij, gathered)}

    jl = [(j, l) for j in range(p2) for l in range(p3)]
    b_stats, gathered = _phase(
        "B_all_gather", ring_all_gather,
        [ranks[:, j, l].tolist() for j, l in jl],
        (chunks(b_blocks[j, :, l, :], p1) for j, l in jl),
        grid.size, r2 * r3, predicted.words_b,
    )
    b_gathered = {f: g.reshape((r2, r3), order="F") for f, g in zip(jl, gathered)}

    # rank (i, j, l) multiplies its gathered blocks just before its fiber
    # (i, :, l) reduces the products
    il = [(i, l) for i in range(p1) for l in range(p3)]
    c_stats, shards = _phase(
        "C_reduce_scatter", ring_reduce_scatter,
        [ranks[i, :, l].tolist() for i, l in il],
        (
            [(a_gathered[i, j] @ b_gathered[j, l]).flatten(order="F") for j in range(p2)]
            for i, l in il
        ),
        grid.size, r1 * r3, predicted.words_c,
    )
    for (i, l), fiber_shards in zip(il, shards):
        c_blocks[i, :, l, :] = np.concatenate(fiber_shards).reshape((r1, r3), order="F")

    phases = [a_stats, b_stats, c_stats]
    return SimReport(
        shape=shape.dims,
        grid=grid.dims,
        seed=seed,
        phases=phases,
        critical_path_words=sum(ph.max_words for ph in phases),
        flops_per_proc=r1 * r2 * r3,
        correctness=bool(np.array_equal(c, a @ b)),
        predicted=predicted,
    )
