"""Ring collectives and the word-exact 3D algorithm simulator."""

from fractions import Fraction

import numpy as np
import pytest

from commbounds.bounds import ProblemShape, lower_bound
from commbounds.grids import ProcessorGrid, comm_cost
from commbounds.simulate import (
    build_machine,
    compare_to_prediction,
    ring_all_gather,
    ring_reduce_scatter,
    run_algorithm,
    split_sizes,
)


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
        gathered, sent, received, messages = ring_all_gather(
            [10, 11, 12, 13], even_chunks(4, 12)
        )
        assert sent == [9, 9, 9, 9]
        assert received == [9, 9, 9, 9]
        np.testing.assert_array_equal(gathered, np.arange(12))
        assert len(messages) == 3 * 4

    def test_p3_w144(self):
        _, sent, _, _ = ring_all_gather([0, 1, 2], even_chunks(3, 144))
        assert sent == [96, 96, 96]

    def test_uneven_counts(self):
        # w = 7 over p = 3: chunks 3, 2, 2; member i sends total - next chunk
        chunks = [np.arange(3), np.arange(3, 5), np.arange(5, 7)]
        gathered, sent, received, _ = ring_all_gather([4, 5, 6], chunks)
        assert sent == [7 - 2, 7 - 2, 7 - 3]
        assert received == [7 - 3, 7 - 2, 7 - 2]
        np.testing.assert_array_equal(gathered, np.arange(7))

    def test_single_member_silent(self):
        gathered, sent, received, messages = ring_all_gather([9], [np.arange(5)])
        assert sent == [0] and received == [0]
        assert messages == []
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
            _, sent, received, messages = ring_all_gather(list(range(p)), chunks)
            assert sum(sent) == sum(received)
            assert sum(sent) == sum(m.words for m in messages)


class TestRingReduceScatter:
    def test_even_split_counts(self):
        # p = 2, w = 2304: each sends one 1152-word shard
        addends = [np.ones(2304, dtype=np.int64), 2 * np.ones(2304, dtype=np.int64)]
        shards, sent, received, _ = ring_reduce_scatter([0, 1], addends)
        assert sent == [1152, 1152]
        np.testing.assert_array_equal(shards[0], 3 * np.ones(1152, dtype=np.int64))
        np.testing.assert_array_equal(shards[1], 3 * np.ones(1152, dtype=np.int64))

    def test_p3_w48(self):
        addends = [np.full(48, i, dtype=np.int64) for i in range(3)]
        shards, sent, _, _ = ring_reduce_scatter([7, 8, 9], addends)
        assert sent == [32, 32, 32]
        for s in shards:
            np.testing.assert_array_equal(s, np.full(16, 3, dtype=np.int64))

    def test_uneven_shards(self):
        # w = 5 over p = 2: shards 3 and 2
        addends = [np.arange(5), np.arange(5)]
        shards, sent, received, _ = ring_reduce_scatter([0, 1], addends)
        assert sent == [5 - 3, 5 - 2]
        assert len(shards[0]) == 3 and len(shards[1]) == 2
        np.testing.assert_array_equal(shards[0], 2 * np.arange(3))

    def test_adds_equal_received(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            w = int(rng.integers(p, 30))
            addends = [rng.integers(-5, 5, size=w) for _ in range(p)]
            shards, sent, received, messages = ring_reduce_scatter(
                list(range(p)), addends
            )
            total = sum(a for a in addends)
            got = np.concatenate(shards)
            np.testing.assert_array_equal(got, total)
            assert sum(sent) == sum(m.words for m in messages)


class TestBuildMachine:
    def test_even_ownership(self):
        vm = build_machine(ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2))
        for st in vm.stores.values():
            assert st.a_chunk.size == 96 * 96 // 8  # 1152
            assert st.b_chunk.size == 1152

    def test_small_example_b_ownership(self):
        vm = build_machine(ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1))
        sizes = [st.b_chunk.size for st in vm.stores.values()]
        assert all(s == 4 for s in sizes)  # 24*6 / 36

    def test_one_copy_of_inputs(self):
        shape = ProblemShape(8, 4, 2)
        vm = build_machine(shape, ProcessorGrid(2, 2, 1), seed=3)
        assert sum(st.a_chunk.size for st in vm.stores.values()) == 32
        assert sum(st.b_chunk.size for st in vm.stores.values()) == 8

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            build_machine(ProblemShape(7, 4, 2), ProcessorGrid(2, 2, 1))


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
            comp = compare_to_prediction(rep)
            assert comp.all_exact, (shape, grid)
            assert Fraction(rep.critical_path_words) == comp.predicted_total

    def test_uneven_split_within_slack(self):
        # fibers that do not divide the blocks stay within one element per slot
        rep = run_algorithm(ProblemShape(192, 48, 12), ProcessorGrid(32, 8, 2))
        assert rep.correctness
        comp = compare_to_prediction(rep)
        assert not comp.all_exact
        assert comp.all_within
        by_phase = {c.phase: c for c in comp.phases}
        assert by_phase["A_all_gather"].exact
        assert by_phase["B_all_gather"].measured_max == 35
        assert by_phase["B_all_gather"].ideal == Fraction(279, 8)
        assert by_phase["C_reduce_scatter"].measured_max == 32
        assert by_phase["C_reduce_scatter"].ideal == Fraction(63, 2)

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
        assert len(set(rep.rs_adds)) <= 2  # even split here: all equal
        for ph in rep.phases:
            assert len(ph.sent) == 6

    def test_message_log_consistent(self):
        rep = run_algorithm(ProblemShape(24, 12, 6), ProcessorGrid(2, 3, 1))
        by_phase = {}
        for msg in rep.messages:
            by_phase.setdefault(msg.phase, 0)
            by_phase[msg.phase] += msg.words
        for ph in rep.phases:
            assert by_phase.get(ph.name, 0) == sum(ph.sent)
