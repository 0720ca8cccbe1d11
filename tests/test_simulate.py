"""Ring collectives and the word-exact 3D algorithm simulator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commbounds.bounds import ProblemShape, lower_bound
from commbounds.grids import ProcessorGrid
from commbounds.simulate import (
    MESSAGE_CAP,
    WORD_CAP,
    _ring_counts,
    check_work,
    ring_all_gather,
    ring_reduce_scatter,
    run_algorithm,
    split_sizes,
    work,
)
from ring_reference import all_gather_hops, reduce_scatter_hops, tally


def even_chunks(p, w):
    per = w // p
    return [np.arange(i * per, (i + 1) * per, dtype=np.int64) for i in range(p)]


class TestSplit:
    def test_even(self):
        assert split_sizes(12, 4) == [3, 3, 3, 3]

    def test_remainder_to_low_ranks(self):
        assert split_sizes(14, 4) == [4, 4, 3, 3]
        assert split_sizes(3, 5) == [1, 1, 1, 0, 0]


class TestRingAllGather:
    def test_even_split_counts(self):
        # p = 4, w = 12: every member sends and receives 9 = (1 - 1/4) * 12
        gathered, sent, received = ring_all_gather(even_chunks(4, 12))
        assert sent == [9, 9, 9, 9]
        assert received == [9, 9, 9, 9]
        np.testing.assert_array_equal(gathered, np.arange(12))
        hops = list(all_gather_hops([3] * 4))
        assert len(hops) == 3 * 4
        assert tally(hops, 4) == (sent, received)

    def test_p3_w144(self):
        _, sent, _ = ring_all_gather(even_chunks(3, 144))
        assert sent == [96, 96, 96]

    def test_uneven_counts(self):
        # w = 7 over p = 3: chunks 3, 2, 2; member i sends total - next chunk
        chunks = [np.arange(3), np.arange(3, 5), np.arange(5, 7)]
        gathered, sent, received = ring_all_gather(chunks)
        assert sent == [7 - 2, 7 - 2, 7 - 3]
        assert received == [7 - 3, 7 - 2, 7 - 2]
        np.testing.assert_array_equal(gathered, np.arange(7))

    def test_single_member_silent(self):
        gathered, sent, received = ring_all_gather([np.arange(5)])
        assert sent == [0] and received == [0]
        assert list(all_gather_hops([5])) == []
        np.testing.assert_array_equal(gathered, np.arange(5))

    def test_conservation(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            p = int(rng.integers(1, 9))
            w = int(rng.integers(p, 40))
            sizes = split_sizes(w, p)
            chunks, at = [], 0
            for s in sizes:
                chunks.append(np.arange(at, at + s))
                at += s
            _, sent, received = ring_all_gather(chunks)
            assert sum(sent) == sum(received)
            assert (sent, received) == tally(all_gather_hops(sizes), p)


class TestRingReduceScatter:
    def test_even_split_counts(self):
        # p = 2, w = 2304: each sends one 1152-word shard
        addends = [np.ones(2304, dtype=np.int64), 2 * np.ones(2304, dtype=np.int64)]
        shards, sent, received = ring_reduce_scatter(addends)
        assert sent == [1152, 1152]
        np.testing.assert_array_equal(shards[0], 3 * np.ones(1152, dtype=np.int64))
        np.testing.assert_array_equal(shards[1], 3 * np.ones(1152, dtype=np.int64))

    def test_p3_w48(self):
        addends = [np.full(48, i, dtype=np.int64) for i in range(3)]
        shards, sent, _ = ring_reduce_scatter(addends)
        assert sent == [32, 32, 32]
        for s in shards:
            np.testing.assert_array_equal(s, np.full(16, 3, dtype=np.int64))

    def test_uneven_shards(self):
        # w = 5 over p = 2: shards 3 and 2
        addends = [np.arange(5), np.arange(5)]
        shards, sent, received = ring_reduce_scatter(addends)
        assert sent == [5 - 3, 5 - 2]
        assert len(shards[0]) == 3 and len(shards[1]) == 2
        np.testing.assert_array_equal(shards[0], 2 * np.arange(3))

    def test_adds_equal_received(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            w = int(rng.integers(p, 30))
            addends = [rng.integers(-5, 5, size=w) for _ in range(p)]
            shards, sent, received = ring_reduce_scatter(addends)
            total = sum(a for a in addends)
            got = np.concatenate(shards)
            np.testing.assert_array_equal(got, total)
            assert (sent, received) == tally(reduce_scatter_hops(split_sizes(w, p)), p)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 64).flatmap(lambda p: st.lists(st.integers(0, 50), min_size=p, max_size=p)),
    st.integers(0, 200),
)
def test_ring_counts_match_the_hop_reference(lens, w):
    # fibers of 1..64 members; uneven and empty chunks for the all-gather,
    # an uneven split of w, empty shards when w < p, for the reduce-scatter;
    # on average a member moves (1 - 1/p) w words, and each exactly that when
    # the split is even; the schedule itself takes any pieces in either shift
    p = len(lens)
    assert _ring_counts(lens, 0) == tally(reduce_scatter_hops(lens), p)
    chunks = [np.zeros(n, dtype=np.int64) for n in lens]
    _, sent, received = ring_all_gather(chunks)
    assert (sent, received) == tally(all_gather_hops(lens), p)
    total = sum(lens)
    assert sum(sent) == sum(received) == p * (1 - Fraction(1, p)) * total
    if len(set(lens)) == 1:
        assert sent == received == [(1 - Fraction(1, p)) * total] * p

    addends = [np.zeros(w, dtype=np.int64) for _ in range(p)]
    _, sent, received = ring_reduce_scatter(addends)
    sizes = split_sizes(w, p)
    assert (sent, received) == tally(reduce_scatter_hops(sizes), p)
    assert sum(sent) == sum(received) == p * (1 - Fraction(1, p)) * w
    if w % p == 0:
        assert sent == received == [(1 - Fraction(1, p)) * w] * p


def chunk_sizes(phase):
    """Each rank's own chunk of the phase's block: received_i = w - |chunk_i|."""
    return [phase.block_words - r for r in phase.received]


class TestDistribution:
    def test_even_ownership(self):
        rep = run_algorithm(ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2))
        a, b, _ = rep.phases
        assert chunk_sizes(a) == [96 * 96 // 8] * 8  # 1152
        assert chunk_sizes(b) == [1152] * 8

    def test_small_example_b_ownership(self):
        rep = run_algorithm(ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1))
        assert chunk_sizes(rep.phases[1]) == [4] * 36  # 24*6 / 36

    def test_one_copy_of_inputs(self):
        rep = run_algorithm(ProblemShape(8, 4, 2), ProcessorGrid(2, 2, 1), seed=3)
        a, b, _ = rep.phases
        assert sum(chunk_sizes(a)) == 32
        assert sum(chunk_sizes(b)) == 8

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="does not divide n1 = 7"):
            run_algorithm(ProblemShape(7, 4, 2), ProcessorGrid(2, 2, 1))


class TestRunAlgorithm:
    def test_small_1d_example(self):
        rep = run_algorithm(ProblemShape(96, 24, 6), ProcessorGrid(3, 1, 1))
        assert rep.critical_path_words == 96
        assert rep.correctness
        assert rep.flops_per_proc == 96 * 24 * 6 // 3

    def test_small_2d_example(self):
        rep = run_algorithm(ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1))
        assert rep.critical_path_words == 76
        by_name = {ph.name: ph for ph in rep.phases}
        assert by_name["A_all_gather"].max_words == 0
        assert by_name["B_all_gather"].max_words == 44
        assert by_name["C_reduce_scatter"].max_words == 32
        assert rep.correctness

    def test_cube_example(self):
        rep = run_algorithm(ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2))
        assert rep.critical_path_words == 3456
        assert rep.correctness

    def test_single_processor(self):
        rep = run_algorithm(ProblemShape(5, 4, 3), ProcessorGrid(1, 1, 1))
        assert rep.critical_path_words == 0
        assert rep.correctness
        assert rep.flops_per_proc == 60

    def test_matches_prediction_exactly_when_even(self):
        cases = [
            (ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1)),
            (ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2)),
            (ProblemShape(24, 12, 8), ProcessorGrid(2, 3, 4)),
            (ProblemShape(30, 30, 30), ProcessorGrid(5, 3, 2)),
        ]
        for shape, grid in cases:
            rep = run_algorithm(shape, grid)
            assert all(ph.max_words == ph.ideal for ph in rep.phases), (shape, grid)
            assert Fraction(rep.critical_path_words) == rep.predicted.total

    def test_uneven_split_meets_the_closed_form(self):
        # fibers that do not divide the blocks move w - floor(w/p), above the ideal
        rep = run_algorithm(ProblemShape(192, 48, 12), ProcessorGrid(32, 8, 2))
        assert rep.correctness
        a, b, c = rep.phases
        assert a.even_split and a.max_words == a.ideal
        assert (b.max_words, b.closed_form, b.ideal) == (35, 35, Fraction(279, 8))
        assert (c.max_words, c.closed_form, c.ideal) == (32, 32, Fraction(63, 2))
        assert not b.even_split and not c.even_split

    def test_attains_bound_on_matched_shapes(self):
        for shape, grid in (
            (ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1)),
            (ProblemShape(96, 96, 96), ProcessorGrid(8, 8, 8)),
            (ProblemShape(9600 // 100, 2400 // 100, 600 // 100), ProcessorGrid(4, 1, 1)),
        ):
            rep = run_algorithm(shape, grid)
            bound = lower_bound(shape, grid.size).bound
            assert Fraction(rep.critical_path_words) == bound, (shape, grid)

    def test_seed_changes_data_not_counts(self):
        a = run_algorithm(ProblemShape(12, 8, 4), ProcessorGrid(2, 2, 2), seed=0)
        b = run_algorithm(ProblemShape(12, 8, 4), ProcessorGrid(2, 2, 2), seed=99)
        assert a.critical_path_words == b.critical_path_words
        assert a.correctness and b.correctness

    def test_per_rank_load_balance(self):
        rep = run_algorithm(ProblemShape(24, 12, 6), ProcessorGrid(3, 2, 1))
        assert len(set(rep.phases[-1].received)) == 1  # even split here
        for ph in rep.phases:
            assert len(ph.sent) == 6


@st.composite
def dividing_runs(draw):
    """A shape with sides <= 24 and a grid of P <= 64 whose factors divide it."""
    p1 = draw(st.integers(1, 24))
    p2 = draw(st.integers(1, min(24, 64 // p1)))
    p3 = draw(st.integers(1, min(24, 64 // (p1 * p2))))
    sides = [p * draw(st.integers(1, 24 // p)) for p in (p1, p2, p3)]
    return ProblemShape(*sides), ProcessorGrid(p1, p2, p3)


@settings(deadline=None, max_examples=150)
@given(dividing_runs(), st.integers(0, 2**32))
def test_every_phase_moves_its_closed_form(run, seed):
    shape, grid = run
    rep = run_algorithm(shape, grid, seed)
    assert rep.correctness
    (n1, n2, n3), (p1, p2, p3) = shape.dims, grid.dims
    blocks = (n1 * n2 // (p1 * p2), n2 * n3 // (p2 * p3), n1 * n3 // (p1 * p3))
    for ph, p, w in zip(rep.phases, (p3, p1, p2), blocks):
        assert (ph.fiber_size, ph.block_words) == (p, w)
        assert ph.max_words == ph.closed_form == w - w // p
        assert ph.even_split == (w % p == 0) == (ph.max_words == ph.ideal)
    assert rep.critical_path_words == sum(ph.closed_form for ph in rep.phases)


class TestWorkCaps:
    def test_largest_documented_runs_fit(self):
        # 1024^3 on 16x16x16 (ROADMAP), 64^3 on 4096 ranks and 384^3 on 8
        # (perfbench), 96^3 on 2x2x2 (tests and README)
        for sides, dims, want in (
            ((1024,) * 3, (16, 16, 16), (22 * 2**20, 184_320)),
            ((64,) * 3, (16, 16, 16), (22 * 2**12, 184_320)),
            ((384,) * 3, (2, 2, 2), (8 * 384**2, 24)),
            ((96,) * 3, (2, 2, 2), (8 * 96**2, 24)),
        ):
            words, messages = work(ProblemShape(*sides), ProcessorGrid(*dims))
            assert (words, messages) == want
            assert words <= WORD_CAP and messages <= MESSAGE_CAP

    def test_words_above_the_cap_are_refused_before_allocating(self):
        shape, grid = ProblemShape(100000, 100000, 100000), ProcessorGrid(2, 2, 2)
        assert work(shape, grid)[0] > WORD_CAP
        with pytest.raises(ValueError, match=f"above the cap of {WORD_CAP}$"):
            run_algorithm(shape, grid)

    @pytest.mark.parametrize(
        "words, messages, refused",
        [
            (WORD_CAP, MESSAGE_CAP, None),
            (WORD_CAP + 1, 0, f"simulate needs {WORD_CAP + 1} int64 words"),
            (0, MESSAGE_CAP + 1, f"simulate sends {MESSAGE_CAP + 1} messages"),
        ],
        ids=["at-caps", "words-over", "messages-over"],
    )
    def test_caps_hold_at_equality(self, words, messages, refused):
        # counted, not allocated: check_work only compares integers
        if refused is None:
            check_work(words, messages)
        else:
            with pytest.raises(ValueError, match=f"^{refused}, above the cap of "):
                check_work(words, messages)

    def test_messages_above_the_cap_are_refused(self):
        # 600 ranks on one ring: 600 * 599 messages, 3002 words
        shape, grid = ProblemShape(1, 1, 600), ProcessorGrid(1, 1, 600)
        assert work(shape, grid) == (3002, 600 * 599)
        with pytest.raises(ValueError, match=f"above the cap of {MESSAGE_CAP}$"):
            run_algorithm(shape, grid)
