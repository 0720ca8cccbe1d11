"""The bound's case, its regime boundaries and the memory-independent bound."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commbounds.bounds import PRIOR_CONSTANTS, ProblemShape, d_case, lower_bound
from commbounds.exact import RATIONAL, Radical

RUNNING = ProblemShape(9600, 2400, 600)  # m/n = 4, mn/k^2 = 64


def random_shapes(count, seed, hi=2000):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield ProblemShape(*(int(v) for v in rng.integers(1, hi, size=3)))


class TestShape:
    def test_sorted_dims(self):
        s = ProblemShape(600, 9600, 2400)
        assert s.sorted_dims == (9600, 2400, 600)

    def test_axis_order_stable_ties(self):
        assert ProblemShape(5, 5, 2).axis_order == (0, 1, 2)
        assert ProblemShape(2, 5, 5).axis_order == (1, 2, 0)
        assert ProblemShape(7, 7, 7).axis_order == (0, 1, 2)

    def test_volume_pair_sum(self):
        s = ProblemShape(96, 24, 6)
        assert s.volume == 96 * 24 * 6
        assert s.pair_sum == 96 * 24 + 24 * 6 + 96 * 6

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 2.0), (True, 1, 1)])
    def test_rejects_bad_dims(self, bad):
        with pytest.raises((ValueError, TypeError)):
            ProblemShape(*bad)


class TestRegimes:
    def test_running_example_cases(self):
        assert lower_bound(RUNNING, 3).case == 1
        assert lower_bound(RUNNING, 36).case == 2
        assert lower_bound(RUNNING, 512).case == 3

    def test_boundaries_flagged(self):
        rep = lower_bound(RUNNING, 4)  # P = m/n
        assert (rep.case, rep.on_boundary) == (1, True)
        rep = lower_bound(RUNNING, 64)  # P = mn/k^2
        assert (rep.case, rep.on_boundary) == (2, True)
        assert not lower_bound(RUNNING, 5).on_boundary

    def test_square_shapes_collapse_to_case_3(self):
        # m/n = mn/k^2 = 1, so P = 1 sits on both boundaries and P >= 2 is 3d
        assert lower_bound(ProblemShape(64, 64, 64), 2).case == 3
        rep = lower_bound(ProblemShape(64, 64, 64), 1)
        assert (rep.case, rep.on_boundary) == (1, True)

    def test_rejects_bad_procs(self):
        for procs in (0, -3, 2.0, True):
            with pytest.raises(ValueError):
                lower_bound(RUNNING, procs)


class TestBoundValues:
    def test_case_3_running_example(self):
        rep = lower_bound(RUNNING, 512)
        assert rep.accessed == Fraction(270000)
        assert rep.owned == Fraction(118125, 2)
        assert rep.bound == Fraction(421875, 2)  # 210937.5

    def test_case_2_running_example(self):
        rep = lower_bound(RUNNING, 36)
        assert rep.accessed == Fraction(1600000)
        assert rep.bound == Fraction(760000)

    def test_case_1_running_example(self):
        rep = lower_bound(RUNNING, 3)
        assert rep.accessed == Fraction(11040000)
        assert rep.bound == Fraction(960000)

    def test_small_example(self):
        shape = ProblemShape(96, 24, 6)
        assert lower_bound(shape, 3).bound == Fraction(96)
        assert lower_bound(shape, 36).bound == Fraction(76)

    def test_single_processor_no_communication(self):
        rep = lower_bound(RUNNING, 1)
        assert rep.bound == 0
        assert rep.accessed == rep.owned == Fraction(RUNNING.pair_sum)

    def test_huge_dimensions_are_exact(self):
        # mnk/P = 10^330/7 is beyond float range; D = 3b with b^3 = (mnk/P)^2
        rep = lower_bound(ProblemShape(10**110, 10**110, 10**110), 7)
        q = Fraction(10**330, 7)
        assert rep.accessed * rep.accessed * rep.accessed == 27 * q * q
        assert rep.owned == Fraction(3 * 10**220, 7)
        assert rep.bound == rep.accessed - rep.owned and rep.bound.sign() > 0

    def test_oversubscription_flag(self):
        shape = ProblemShape(2, 2, 2)
        assert not lower_bound(shape, 8).oversubscribed
        assert lower_bound(shape, 9).oversubscribed

    def test_bound_never_negative(self):
        for shape in random_shapes(200, seed=1, hi=60):
            procs = int(np.random.default_rng(shape.volume).integers(1, 3 * shape.volume))
            assert lower_bound(shape, procs).bound.sign() >= 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        for shape in random_shapes(50, seed=3, hi=500):
            procs = int(rng.integers(1, 1000))
            base = lower_bound(shape, procs)
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
                other = ProblemShape(*(shape.dims[i] for i in perm))
                rep = lower_bound(other, procs)
                assert rep.bound == base.bound
                assert rep.accessed == base.accessed
                assert (rep.case, rep.on_boundary) == (base.case, base.on_boundary)


class TestContinuityMonotonicity:
    def test_exact_agreement_at_boundaries(self):
        # P = m/n: case 1 and 2 give n^2 + 2nk; P = mn/k^2: case 2 and 3 give 3k^2
        m, n, k = 9600, 2400, 600
        assert d_case(1, m, n, k, 4) == d_case(2, m, n, k, 4) == n * n + 2 * n * k
        assert d_case(2, m, n, k, 64) == d_case(3, m, n, k, 64) == 3 * k * k

    def test_rational_boundary_agreement(self):
        # boundaries need not be integers; evaluate both sides at rational P
        rng = np.random.default_rng(4)
        for _ in range(200):
            m, n, k = sorted(
                (int(v) for v in rng.integers(1, 300, size=3)), reverse=True
            )
            # both sides lie in Q there, so they agree exactly
            p12 = Fraction(m, n)
            assert d_case(1, m, n, k, p12) == d_case(2, m, n, k, p12)
            p23 = Fraction(m * n, k * k)
            assert d_case(2, m, n, k, p23) == d_case(3, m, n, k, p23)

    def test_accessed_data_non_increasing(self):
        # D decreases in P (the communicated part need not), exactly, and
        # correct rounding is monotone, so the printed floats do too
        for shape in random_shapes(30, seed=5, hi=200):
            prev = None
            for procs in range(1, 40):
                d = lower_bound(shape, procs).accessed
                if prev is not None:
                    assert float(d) <= float(prev)
                prev = d

    @settings(deadline=None, max_examples=200)
    @given(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6)),
           st.integers(1, 10**6))
    def test_accessed_data_non_increasing_drawn(self, dims, procs):
        shape = ProblemShape(*dims)
        d, after = lower_bound(shape, procs).accessed, lower_bound(shape, procs + 1).accessed
        assert float(after) <= float(d)

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 10**4)),
           st.integers(1, 10**13))
    def test_bound_is_never_negative(self, dims, procs):
        # D >= (mn + mk + nk)/P in every regime, with no clamp; P runs past mnk
        rep = lower_bound(ProblemShape(*dims), procs)
        assert (rep.accessed - rep.owned).sign() >= 0

    def test_case_1_communication_increases_in_p(self):
        # (1 - 1/P) nk grows with P, the reason the bound is not monotone;
        # case 1 values are rational
        vals = [lower_bound(RUNNING, p).bound.to_value() for p in (1, 2, 3, 4)]
        assert vals == sorted(vals)
        assert vals[0] == 0


class TestSquare:
    def test_closed_form(self):
        # perfect-cube P keeps 3n^2/P^(2/3) - 3n^2/P rational
        for n, procs in ((12, 8), (96, 8), (96, 512), (10, 27)):
            rep = lower_bound(ProblemShape(n, n, n), procs)
            cbrt = round(procs ** (1 / 3))
            assert cbrt**3 == procs
            expect = Fraction(3 * n * n, cbrt**2) - Fraction(3 * n * n, procs)
            assert rep.bound == expect

    def test_examples(self):
        assert lower_bound(ProblemShape(12, 12, 12), 8).bound == Fraction(54)
        assert lower_bound(ProblemShape(96, 96, 96), 8).bound == Fraction(3456)


class TestMemory:
    def test_memory_dependent_term(self):
        shape = ProblemShape(96, 96, 96)
        rep = lower_bound(shape, 512, memory=54)
        # 2 96^3 / (512 sqrt(54)) = sqrt(54) 2 96^3 / (512 54)
        assert rep.memory_dependent == Radical.generator(54, 2) * Fraction(2 * 96**3, 512 * 54)
        assert rep.memory_dependent * rep.memory_dependent == Fraction(2 * 96**3, 512) ** 2 / 54
        assert rep.binding == "memory_dependent"

    def test_memory_must_fit_inputs(self):
        with pytest.raises(ValueError):
            lower_bound(ProblemShape(96, 96, 96), 512, memory=53)
        with pytest.raises(ValueError):
            lower_bound(ProblemShape(4, 4, 4), 2, memory=0)

    def test_dominance_window(self):
        shape = ProblemShape(96, 96, 96)
        rep = lower_bound(shape, 512, memory=54)
        assert rep.in_window
        # (8/27) 96^3 / 54^(3/2), squared
        assert rep.window_upper * rep.window_upper == Fraction(8 * 96**3, 27) ** 2 / 54**3
        assert rep.window_upper.sign() > 0
        assert rep.binding == "memory_dependent"

    def test_memory_independent_dominates_through_case_2(self):
        # for P <= mn/k^2 no feasible M lets the classical term win
        rng = np.random.default_rng(7)
        tried = 0
        while tried < 300:
            m, n, k = sorted(
                (int(v) for v in rng.integers(1, 200, size=3)), reverse=True
            )
            pmax = (m * n) // (k * k)
            if pmax < 1:
                continue
            procs = int(rng.integers(1, pmax + 1))
            shape = ProblemShape(m, n, k)
            owned = Fraction(shape.pair_sum, procs)
            mem = owned * (1 + Fraction(int(rng.integers(0, 100)), 17))
            rep = lower_bound(shape, procs, memory=mem)
            assert rep.binding == "memory_independent"
            assert not rep.in_window
            tried += 1


class TestConstants:
    def test_table_values(self):
        c3 = PRIOR_CONSTANTS[3]
        acs90 = c3["ACS90"]  # (1/2)^(2/3), whose cube is 1/4
        assert acs90 * acs90 * acs90 == Fraction(1, 4) and acs90.root != RATIONAL
        assert c3["ITT04"] == Fraction(1, 2)
        assert c3["DE+13"] == 1
        assert c3["this_work"] == 3
        c2 = PRIOR_CONSTANTS[2]
        assert c2["ACS90"] is None and c2["ITT04"] is None
        de13 = c2["DE+13"]  # (2/3)^(1/2)
        assert de13 * de13 == Fraction(2, 3) and de13.root != RATIONAL
        assert c2["this_work"] == 2
        c1 = PRIOR_CONSTANTS[1]
        assert c1["DE+13"] == Fraction(16, 25)
        assert c1["this_work"] == 1

    def test_roots_are_the_generators(self):
        # written as field elements so that importing bounds computes no root
        for value, (radicand, d) in ((PRIOR_CONSTANTS[3]["ACS90"], (Fraction(1, 4), 3)),
                                     (PRIOR_CONSTANTS[2]["DE+13"], (Fraction(2, 3), 2))):
            b = Radical.generator(radicand, d)
            assert value.root == b.root and value == b

    def test_this_work_matches_square_bound_leading_term(self):
        # c * n^2 / P^(2/3) with c = 3 is exactly the accessed data for cubes
        n, procs = 96, 512
        rep = lower_bound(ProblemShape(n, n, n), procs)
        assert rep.accessed == Fraction(3 * n * n, round(procs ** (2 / 3)))
