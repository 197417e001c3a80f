import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bruhat_degrees.stats import (
    _triple_sum_literal,
    check_increment_lemma,
    distribution,
    down_degrees_batch,
    exhaustive_mean,
    expected_down_degree,
    harmonic,
    ltrm_counts,
    monte_carlo_mean,
    random_permutation_matrix,
    rising_factorial_coefficients,
    triple_sum_expectation,
)
from bruhat_degrees import bruhat, stats
from bruhat_degrees._parallel import block_sizes, map_blocks
from bruhat_degrees.bruhat import down_degree, up_degree
from bruhat_degrees.perm import Permutation
from conftest import all_perms, shuffled


def _sleep_less_later(block):
    index, count = block
    time.sleep(0.05 * (count - index))
    return index


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(9) == Fraction(7129, 2520)

    def test_matches_left_fold(self):
        for n in range(0, 120):
            assert harmonic(n) == sum((Fraction(1, i) for i in range(1, n + 1)),
                                      Fraction(0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestExpectation:
    def test_closed_form_values(self):
        assert expected_down_degree(1) == 0
        assert expected_down_degree(3) == Fraction(4, 3)
        assert expected_down_degree(9) == Fraction(2593, 252)

    def test_triple_sum_values(self):
        assert triple_sum_expectation(1) == 0
        assert triple_sum_expectation(2) == Fraction(1, 2)
        assert triple_sum_expectation(3) == Fraction(4, 3)

    def test_triple_sum_matches_literal_evaluation(self):
        for n in range(1, 26):
            assert triple_sum_expectation(n) == _triple_sum_literal(n)

    def test_two_forms_agree(self):
        for n in range(1, 61):
            assert triple_sum_expectation(n) == expected_down_degree(n)

    def test_exhaustive_mean_matches(self):
        for n in range(1, 7):
            assert exhaustive_mean(n, "down") == expected_down_degree(n)

    def test_mean_total_is_twice_mean_down(self):
        for n in range(1, 6):
            assert exhaustive_mean(n, "total") == 2 * expected_down_degree(n)

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            expected_down_degree(100_001)

    def test_expected_ltrm(self):
        assert harmonic(0) == 0
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(5) == Fraction(137, 60)


class TestLtrMaxima:
    def test_counts_match_rising_factorial(self):
        for t in range(0, 8):
            assert ltrm_counts(t) == rising_factorial_coefficients(t)

    def test_empty_word_has_no_maxima(self):
        assert ltrm_counts(0) == [1]

    def test_mean_from_counts_is_harmonic(self):
        for t in range(1, 7):
            counts = ltrm_counts(t)
            mean = Fraction(sum(k * c for k, c in enumerate(counts)),
                            math.factorial(t))
            assert mean == harmonic(t)


class TestIncrementLemma:
    def test_identity(self):
        assert check_increment_lemma(Permutation([1, 2, 3]))

    def test_worked_example(self):
        assert check_increment_lemma(Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6]))

    def test_exhaustive_small(self):
        for n in range(2, 8):
            for p in all_perms(n):
                assert check_increment_lemma(p)

    def test_scans_each_restriction_once(self, monkeypatch):
        calls = []
        real = bruhat.down_degree

        def counted(p):
            calls.append(p.n)
            return real(p)

        monkeypatch.setattr(bruhat, "down_degree", counted)
        assert check_increment_lemma(shuffled(40, random.Random(3)))
        assert calls == list(range(2, 41))

    def test_fails_when_down_degree_is_off_by_one(self, monkeypatch):
        real = bruhat.down_degree
        monkeypatch.setattr(bruhat, "down_degree", lambda p: real(p) + (p.n == 3))
        assert not check_increment_lemma(Permutation([1, 2, 3]))
        assert not check_increment_lemma(Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6]))

    def test_random_n8(self):
        rng = random.Random(99)
        for _ in range(50):
            assert check_increment_lemma(shuffled(8, rng))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            check_increment_lemma(Permutation([1]))


class TestDistribution:
    def test_s3_down(self):
        assert distribution(3, "down").counts == {0: 1, 1: 2, 2: 3}

    def test_s3_total(self):
        assert distribution(3, "total").counts == {2: 2, 3: 4}

    def test_s2_down(self):
        assert distribution(2, "down").counts == {0: 1, 1: 1}

    def test_counts_sum_to_factorial(self):
        for n in range(1, 7):
            assert distribution(n, "down").total() == math.factorial(n)

    def test_rth_label_and_values(self):
        hist = distribution(4, "rth", r=3)
        assert hist.stat == "rth(3)"
        assert hist.counts == {0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1}

    def test_json_exact(self):
        assert distribution(3, "down").to_json() == (
            '{"n":3,"stat":"down","counts":{"0":1,"1":2,"2":3}}')

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            distribution(10, "down")

    def test_parallel_matches_serial(self):
        assert distribution(6, "down", jobs=2).counts == distribution(6, "down").counts

    @pytest.mark.parametrize("call", [distribution, exhaustive_mean, monte_carlo_mean])
    @pytest.mark.parametrize("stat", ["down", "total"])
    def test_order_refused_where_it_means_nothing(self, call, stat):
        with pytest.raises(ValueError) as err:
            call(5, stat, r=3)
        assert str(err.value) == f"statistic {stat!r} takes no order parameter r"


class TestBatchHelpers:
    def test_batch_degrees_match_scalar(self):
        W = random_permutation_matrix(9, 60, (1, 2))
        downs = down_degrees_batch(W)
        ups = down_degrees_batch(10 - W)  # the up degree is the down degree of n + 1 - p
        for row, d, u in zip(W, downs, ups):
            p = Permutation(tuple(int(x) for x in row))
            assert down_degree(p) == d
            assert up_degree(p) == u

    @staticmethod
    def assert_kernel_matches_scans(W, r=1):
        n = W.shape[1]
        degrees = down_degrees_batch(W, r)
        assert degrees.dtype == np.int64
        assert degrees.shape == (W.shape[0],)
        assert degrees.tolist() == [len(bruhat._rth_pairs(w, r)) for w in W.tolist()]
        if r == 1:
            ups = down_degrees_batch(n + 1 - W)
            assert ups.tolist() == [len(bruhat._up_pairs_word(w)) for w in W.tolist()]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kernel_on_all_of_sn(self, n):
        W = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
        for r in range(1, max(n, 2)):
            self.assert_kernel_matches_scans(W, r)

    @pytest.mark.parametrize("n", [254, 255, 256, 300])
    def test_kernel_across_letter_types(self, n):
        # uint8 columns hold letters up to 255, uint16 from n = 256
        W = random_permutation_matrix(n, 12, (n, 7))
        for r in (1, 2, n // 2, n - 1):
            self.assert_kernel_matches_scans(W, r)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_kernel_on_zero_rows(self, n, r):
        degrees = down_degrees_batch(np.zeros((0, n), dtype=np.int64), r)
        assert degrees.dtype == np.int64 and degrees.shape == (0,)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_kernel_at_n_one_and_two(self, r):
        # from r = n - 1 on, every inversion is an r-th strong descent
        assert down_degrees_batch(np.array([[1], [1]]), r).tolist() == [0, 0]
        degrees = down_degrees_batch(np.array([[1, 2], [2, 1], [2, 1]]), r)
        assert degrees.dtype == np.int64
        assert degrees.tolist() == [0, 1, 1]

    def test_kernel_refuses_order_zero(self):
        with pytest.raises(ValueError, match="r=0 must be >= 1"):
            down_degrees_batch(np.array([[2, 1]]), 0)

    @pytest.mark.parametrize("stat,r,chunks", [
        ("rth", 5, [5] * 6),  # 1000 cells hold 5 rows of five slot arrays at n = 40
        ("total", 1, [25, 25, 5, 5]),  # and 25 rows of one, down and up in turn
        ("down", 1, [25, 5]),
    ])
    def test_chunks_leave_a_block_unchanged(self, monkeypatch, stat, r, chunks):
        block = (40, stat, r, 1, 0, 30)
        whole = stats._mc_block(block)
        scored = []
        real = stats.down_degrees_batch
        monkeypatch.setattr(stats, "_MC_CELLS", 1000)
        monkeypatch.setattr(stats, "down_degrees_batch",
                            lambda W, r=1: scored.append(len(W)) or real(W, r))
        assert stats._mc_block(block) == whole
        assert scored == chunks

    def test_matrix_rows_are_permutations(self):
        W = random_permutation_matrix(12, 25, (3, 4))
        for row in W:
            assert sorted(row) == list(range(1, 13))

    def test_matrix_deterministic_by_key(self):
        a = random_permutation_matrix(10, 5, (7, 0))
        b = random_permutation_matrix(10, 5, (7, 0))
        c = random_permutation_matrix(10, 5, (7, 1))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        first = monte_carlo_mean(12, "down", samples=4000, seed=5)
        second = monte_carlo_mean(12, "down", samples=4000, seed=5)
        assert first == second

    def test_jobs_do_not_change_result(self):
        serial = monte_carlo_mean(12, "down", samples=50_000, seed=5, jobs=1)
        parallel = monte_carlo_mean(12, "down", samples=50_000, seed=5, jobs=4)
        assert serial == parallel

    def test_small_case_within_four_sigma(self):
        mean, se = monte_carlo_mean(3, "down", samples=20_000, seed=2)
        assert abs(mean - 4 / 3) <= 4 * se

    def test_total_stat(self):
        mean, se = monte_carlo_mean(6, "total", samples=20_000, seed=3)
        exact = float(2 * expected_down_degree(6))
        assert abs(mean - exact) <= 4 * se

    def test_rth_stat(self):
        mean, se = monte_carlo_mean(6, "rth", r=5, samples=4000, seed=4)
        exact = 15 / 2  # mean inversion count C(6,2)/2
        assert abs(mean - exact) <= 4 * se

    def test_degenerate_degree_one(self):
        assert monte_carlo_mean(1, "down", samples=10, seed=0) == (0.0, 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_mean(5, "down", samples=1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"--seed must be >= 0, got -1"):
            monte_carlo_mean(5, "down", samples=3, seed=-1)

    @pytest.mark.parametrize("total,size,expected", [
        (45_000, 20_000, [20_000, 20_000, 5000]),
        (40_000, 20_000, [20_000, 20_000]),
        (7, 2000, [7]),
        (0, 2000, []),
        (-5, 2000, []),
    ])
    def test_block_sizes(self, total, size, expected):
        assert block_sizes(total, size) == expected

    def test_map_blocks_returns_block_order(self):
        # the later a block, the sooner it finishes; results keep block order
        blocks = [(index, 4) for index in range(4)]
        assert map_blocks(_sleep_less_later, blocks, jobs=2) == [0, 1, 2, 3]

    @pytest.mark.parametrize("call,message", [
        (lambda: distribution(3, jobs=0), "--jobs must be >= 1, got 0"),
        (lambda: monte_carlo_mean(20, samples=50, seed=1, jobs=-3), "--jobs must be >= 1, got -3"),
    ])
    def test_jobs_below_one_refused(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_blocks_bounded_by_cells(self, monkeypatch):
        # a cap of 1000 cells gives blocks of 16 rows at n = 60
        monkeypatch.setattr(stats, "_MC_CELLS", 1000)
        shapes = []
        real = stats.random_permutation_matrix
        monkeypatch.setattr(stats, "random_permutation_matrix",
                            lambda n, count, key: shapes.append((count, n)) or real(n, count, key))
        serial = monte_carlo_mean(60, "total", samples=100, seed=1, jobs=1)
        assert sorted(shapes) == [(4, 60)] + [(16, 60)] * 6
        assert all(rows * n <= 1000 for rows, n in shapes)
        assert monte_carlo_mean(60, "total", samples=100, seed=1, jobs=2) == serial
