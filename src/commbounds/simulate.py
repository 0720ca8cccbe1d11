"""Word-exact run of the 3D algorithm on seeded integer matrices.

run_algorithm counts the three phases fiber by fiber, the A and B
all-gathers and the C reduce-scatter, through one ring schedule
(_ring_counts), the reduce-scatter being the all-gather's schedule with each
piece shifted by one member (Chan, Heimlich, Purkayastha and van de Geijn,
2007): it sums, hop by hop, the words each member sends and receives, and the
run sums the counts per rank.  The numeric payload is what the collectives
deliver: block (i, l) of C is the sum over j of A(i, j) @ B(j, l), checked
against A @ B.  Matrices carry small random integers, so the check is exact
regardless of reduction order.  The cost metric is logical-time: the
per-phase maximum over processors, summed across the phases, the
critical-path convention the bound is stated in.  For a phase with block
words w and fiber size p that maximum is w - floor(w/p)
(PhaseStats.closed_form), which the tests check the hop counts against.  The
run counts its work in integers (work) before it allocates anything, and
check_work refuses a run above WORD_CAP 8-byte words or MESSAGE_CAP messages.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bounds import ProblemShape
from .grids import CostBreakdown, ProcessorGrid, comm_cost

# 2^26 8-byte words are 512 MiB.  2^18 messages bound the hops the ring
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
    """(8-byte words, messages) of one run, counted in integers.

    Words: an upper bound on what the run's arrays hold at once.  A and B
    are drawn as int64 and cast to float64, so each is held twice while it
    is cast: 2(n1n2 + n2n3).  C and the reference a @ b hold n1n3 each, and
    their comparison a bool array of n1n3 bytes, ceil(n1n3/8) words.  A block
    of C is a running sum over j of r1 x r3 products: the sum so far, the
    next product and their new sum, so at most three r1r3 blocks at once.
    Messages: a fiber of p members sends p(p - 1), and each phase's fibers
    cover the P ranks once.
    """
    n1, n2, n3 = shape.dims
    p1, p2, p3 = grid.dims
    words = (2 * (n1 * n2 + n2 * n3) + 2 * n1 * n3 + -(-n1 * n3 // 8)
             + 3 * (n1 // p1) * (n3 // p3))
    return words, grid.size * (p1 + p2 + p3 - 3)


def check_work(words: int, messages: int) -> None:
    """Raise ValueError when a run's work, as counted by work, exceeds a cap."""
    if words > WORD_CAP:
        raise ValueError(f"simulate needs {words} 8-byte words, above the cap of {WORD_CAP}")
    if messages > MESSAGE_CAP:
        raise ValueError(f"simulate sends {messages} messages, above the cap of {MESSAGE_CAP}")


def _phase(name, fibers, shift, size, w, ideal):
    """Count the ring schedule with this shift over each fiber's split of w
    words; return the phase's stats, counts summed per rank."""
    sent, received = [0] * size, [0] * size
    for members in fibers:
        s, r = _ring_counts(split_sizes(w, len(members)), shift)
        for rank, si, ri in zip(members, s, r):
            sent[rank] += si
            received[rank] += ri
    return PhaseStats(name, len(fibers[0]), w, ideal, tuple(sent), tuple(received))


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
    ranks = np.arange(grid.size).reshape(grid.dims)
    predicted = comm_cost(shape, grid)
    phases = [
        _phase("A_all_gather", [ranks[i, j, :].tolist() for i in range(p1) for j in range(p2)],
               1, grid.size, r1 * r2, predicted.words_a),
        _phase("B_all_gather", [ranks[:, j, l].tolist() for j in range(p2) for l in range(p3)],
               1, grid.size, r2 * r3, predicted.words_b),
        _phase("C_reduce_scatter", [ranks[i, :, l].tolist() for i in range(p1) for l in range(p3)],
               0, grid.size, r1 * r3, predicted.words_c),
    ]

    # Entries lie in [-8, 8], so every product and partial sum is an integer
    # of magnitude at most 64 n2.  WORD_CAP forces n1 n2 <= 2^26, so
    # 64 n2 < 2^53 and float64 holds each one exactly, in any order.
    rng = np.random.default_rng(seed)
    a = rng.integers(-8, 9, size=(shape.n1, shape.n2), dtype=np.int64).astype(np.float64)
    b = rng.integers(-8, 9, size=(shape.n2, shape.n3), dtype=np.int64).astype(np.float64)
    c = np.zeros((shape.n1, shape.n3), dtype=np.float64)
    # block (i, j) of a is a_blocks[i, :, j, :], and likewise for b and c
    a_blocks, b_blocks = a.reshape(p1, r1, p2, r2), b.reshape(p2, r2, p3, r3)
    c_blocks = c.reshape(p1, r1, p3, r3)
    for i in range(p1):
        for l in range(p3):
            c_blocks[i, :, l, :] = sum(
                a_blocks[i, :, j, :] @ b_blocks[j, :, l, :] for j in range(p2))

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
