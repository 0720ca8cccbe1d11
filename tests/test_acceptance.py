"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
each test also fails loudly on its own, so plain `pytest -v` reports the same
verdicts through test outcomes.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import commbounds.cli as cli
from commbounds.bounds import (
    ProblemShape,
    d_case,
    lower_bound,
)
from commbounds.grids import ProcessorGrid, analytic_grid, exhaustive_grid
from commbounds.kkt import (
    OptProblem,
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
    objective,
)
from commbounds.projections import min_projection_sum, subset_stats
from commbounds.simulate import (
    ring_all_gather,
    ring_reduce_scatter,
    run_algorithm,
    split_sizes,
)
from ring_reference import all_gather_hops, reduce_scatter_hops, tally

RUNNING = ProblemShape(9600, 2400, 600)


@contextmanager
def criterion(num, text):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[C{num}] {text} ... FAIL", flush=True)
        raise
    print(f"[C{num}] {text} ... PASS ({time.time() - t0:.2f}s)", flush=True)


def test_c1_running_example_grids():
    with criterion(1, "planner reproduces the running-example grids in < 1s"):
        t0 = time.time()
        expect = {3: (3, 1, 1), 36: (12, 3, 1), 512: (32, 8, 2)}
        for procs, dims in expect.items():
            res = analytic_grid(RUNNING, procs)
            assert res.grid is not None and res.grid.dims == dims
            grid, cb = exhaustive_grid(RUNNING, procs)
            assert grid.dims == dims
            assert cb.total == lower_bound(RUNNING, procs).bound
        assert time.time() - t0 < 1.0


def test_c2_simulated_attainment():
    with criterion(2, "simulator attains the bound exactly and multiplies right, < 10s"):
        t0 = time.time()
        cases = [
            (ProblemShape(96, 24, 6), ProcessorGrid(3, 1, 1), 96),
            (ProblemShape(96, 24, 6), ProcessorGrid(12, 3, 1), 76),
            (ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2), 3456),
        ]
        for shape, grid, words in cases:
            rep = run_algorithm(shape, grid)
            assert rep.correctness, (shape, grid)
            assert rep.critical_path_words == words
            assert Fraction(words) == lower_bound(shape, grid.size).bound
            assert rep.flops_per_proc * grid.size == shape.volume
        assert time.time() - t0 < 10.0


def test_c3_square_closed_form():
    with criterion(3, "square-shape closed form and 3d structure"):
        assert lower_bound(ProblemShape(12, 12, 12), 8).bound == Fraction(54)
        assert lower_bound(ProblemShape(96, 96, 96), 8).bound == Fraction(3456)
        # closed form 3n^2/P^(2/3) - 3n^2/P on perfect-cube P
        for n, procs in ((12, 8), (96, 8), (60, 27)):
            cbrt = round(procs ** (1 / 3))
            expect = Fraction(3 * n * n, cbrt * cbrt) - Fraction(3 * n * n, procs)
            assert lower_bound(ProblemShape(n, n, n), procs).bound == expect
        # the value is structural: the cube-grid run hits it word for word
        rep = run_algorithm(ProblemShape(96, 96, 96), ProcessorGrid(2, 2, 2))
        assert rep.critical_path_words == 3456


def _c4_tuples(seed, total_random=700):
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(total_random):
        m, n, k = sorted((int(v) for v in rng.integers(1, 2500, size=3)), reverse=True)
        tuples.append((m, n, k, int(rng.integers(1, 5000))))
    # force coverage of each regime
    for _ in range(120):
        n, k = sorted((int(v) for v in rng.integers(1, 200, size=2)), reverse=True)
        j = int(rng.integers(2, 40))
        tuples.append((n * j, n, k, int(rng.integers(1, j + 1))))  # case 1 range
    for _ in range(120):
        m, n, k = sorted((int(v) for v in rng.integers(1, 400, size=3)), reverse=True)
        lo, hi = -(-m // n), (m * n) // (k * k)
        if hi >= lo:
            tuples.append((m, n, k, int(rng.integers(lo, hi + 1))))
        tuples.append((m, n, k, (m * n) // (k * k) + int(rng.integers(1, 1000))))
    # exact boundary tuples: P = m/n and P = mn/k^2
    for _ in range(60):
        n, k = sorted((int(v) for v in rng.integers(1, 150, size=2)), reverse=True)
        j = int(rng.integers(1, 30))
        tuples.append((n * j, n, k, j))
    for _ in range(60):
        k = int(rng.integers(1, 30))
        b = int(rng.integers(1, 20))
        a = b * int(rng.integers(1, 10))
        tuples.append((k * a, k * b, k, a * b))
    return tuples


def test_c4_kkt_and_oracle_sweep():
    from test_kkt import full_scan_oracle, in_range

    with criterion(4, ">= 1000 tuples: exact KKT and D, each case exactly in its range, "
                      "oracle floor, exact boundary match, < 2min"):
        t0 = time.time()
        tuples = _c4_tuples(seed=100)
        assert len(tuples) >= 1000
        for m, n, k, P in tuples:
            prob = OptProblem(m, n, k, P)
            sol = analytic_solution(prob)
            rep = kkt_verify(prob, sol)
            assert rep.passed, (m, n, k, P, rep)
            d = d_case(sol.case_tag, m, n, k, P)
            assert objective(sol.x) == d, (m, n, k, P)
            # every case's closed form fails exactly outside its P range
            for case in (1, 2, 3):
                other = kkt_verify(prob, analytic_solution_for_case(prob, case))
                assert other.passed == in_range(prob, case), (m, n, k, P, case)
            val = full_scan_oracle(prob, budget=100_000)
            assert val >= float(d) * (1 - 1e-9), (m, n, k, P, val, float(d))
            # boundary tuples: both adjacent closed forms coincide exactly
            if P * n == m or P * k * k == m * n:
                ca, cb = (1, 2) if P * n == m else (2, 3)
                sa = analytic_solution_for_case(prob, ca)
                sb = analytic_solution_for_case(prob, cb)
                assert sa.x + sa.mu == sb.x + sb.mu, (m, n, k, P)
        assert time.time() - t0 < 120.0


def _phi_key_for_dropped_position(pos):
    # stats on descending dims: key "b" drops the largest axis, "c" the
    # middle, "a" the smallest
    return {0: "b", 1: "c", 2: "a"}[pos]


def _ordered_shapes(volume_cap):
    for a in range(1, volume_cap + 1):
        for b in range(1, volume_cap // a + 1):
            for c in range(1, volume_cap // (a * b) + 1):
                yield (a, b, c)


def test_c5_exhaustive_projection_oracle():
    with criterion(5, "projection minima dominate D on every tiny shape, < 2min"):
        t0 = time.time()
        assert min_projection_sum(ProblemShape(2, 2, 2), 2).minimum == 8
        row = min_projection_sum(ProblemShape(2, 1, 1), 2)
        assert row.minimum == 3
        assert Fraction(row.minimum) == lower_bound(ProblemShape(2, 1, 1), 2).accessed

        checked = 0
        for dims in _ordered_shapes(24):
            shape = ProblemShape(*dims)
            canon = tuple(sorted(dims, reverse=True))
            stats = subset_stats(canon)
            assert stats.lw_ok, canon
            order = sorted(range(3), key=lambda i: -dims[i])
            # input axis j sits at descending position order.index(j)
            key_a = _phi_key_for_dropped_position(order.index(2))
            key_b = _phi_key_for_dropped_position(order.index(0))
            key_c = _phi_key_for_dropped_position(order.index(1))
            n1, n2, n3 = dims
            volume = shape.volume
            for procs in range(1, volume + 1):
                t = -(-volume // procs)
                min_sum = int(stats.min_sum_from_size[t])
                d = lower_bound(shape, procs).accessed
                assert (min_sum - d).sign() >= 0, (dims, procs)
                # per-matrix floors: phi * P covers each face
                assert int(stats.min_phi_from_size[key_a][t]) * procs >= n1 * n2
                assert int(stats.min_phi_from_size[key_b][t]) * procs >= n2 * n3
                assert int(stats.min_phi_from_size[key_c][t]) * procs >= n1 * n3
                checked += 1
        assert checked > 1000
        assert time.time() - t0 < 120.0


def test_c6_ring_collectives():
    with criterion(6, "ring collectives move (1 - 1/p) w words, hop-by-hop audited"):
        for p in range(2, 17):
            w = 6 * p
            per = w // p
            chunks = [
                np.arange(i * per, (i + 1) * per, dtype=np.int64) for i in range(p)
            ]
            expect = [(1 - Fraction(1, p)) * w] * p
            gathered, sent, received = ring_all_gather(chunks)
            hops = list(all_gather_hops([per] * p))
            assert len(hops) == p * (p - 1)
            assert (sent, received) == tally(hops, p)
            assert sent == expect and received == expect
            np.testing.assert_array_equal(gathered, np.arange(w))

            addends = [np.full(w, i, dtype=np.int64) for i in range(p)]
            shards, sent, received = ring_reduce_scatter(addends)
            hops = list(reduce_scatter_hops(split_sizes(w, p)))
            assert len(hops) == p * (p - 1)
            assert (sent, received) == tally(hops, p)
            assert sent == expect and received == expect
            total = p * (p - 1) // 2
            for s in shards:
                np.testing.assert_array_equal(s, np.full(per, total, dtype=np.int64))


def test_c7_constants_table(tmp_path):
    with criterion(7, "prior-work constants table matches to 1e-12"):
        out = tmp_path / "constants.json"
        code = cli.main(
            ["sweep", "--table", "constants", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        rows = {r["regime"]: r for r in doc["rows"]}

        def val(regime, col):
            cell = rows[regime][col]
            return float(Fraction(cell["num"], cell["den"])) if isinstance(
                cell, dict
            ) else cell

        expect = [
            ("3d", "ACS90", 0.5 ** (2.0 / 3.0)),
            ("3d", "ITT04", 0.5),
            ("3d", "DE+13", 1.0),
            ("3d", "this_work", 3.0),
            ("2d", "DE+13", (2.0 / 3.0) ** 0.5),
            ("2d", "this_work", 2.0),
            ("1d", "DE+13", 16.0 / 25.0),
            ("1d", "this_work", 1.0),
        ]
        for regime, col, v in expect:
            assert abs(val(regime, col) - v) <= 1e-12, (regime, col)
        for regime, col in (("2d", "ACS90"), ("2d", "ITT04"),
                            ("1d", "ACS90"), ("1d", "ITT04")):
            assert rows[regime][col] is None


def test_c8_continuity_and_dominance():
    with criterion(8, "1000 random shapes: boundary continuity and dominance"):
        rng = np.random.default_rng(200)
        count = 0
        while count < 1000:
            m, n, k = sorted(
                (int(v) for v in rng.integers(1, 3000, size=3)), reverse=True
            )
            # both sides lie in Q at P = m/n and P = mn/k^2
            p12 = Fraction(m, n)
            assert d_case(1, m, n, k, p12) == d_case(2, m, n, k, p12)
            p23 = Fraction(m * n, k * k)
            assert d_case(2, m, n, k, p23) == d_case(3, m, n, k, p23)
            # any P up to mn/k^2 with any feasible M: the memory-independent
            # term is the binding one
            pmax = (m * n) // (k * k)
            if pmax >= 1:
                procs = int(rng.integers(1, pmax + 1))
                shape = ProblemShape(m, n, k)
                owned = Fraction(shape.pair_sum, procs)
                mem = owned * (1 + Fraction(int(rng.integers(0, 1000)), 64))
                rep = lower_bound(shape, procs, memory=mem)
                assert rep.binding == "memory_independent", (m, n, k, procs, mem)
            count += 1
