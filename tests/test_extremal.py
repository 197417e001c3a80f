import math

import pytest

from bruhat_degrees import stats
from bruhat_degrees.bruhat import down_degree, total_degree
from bruhat_degrees.extremal import (
    brute_force_max,
    extremal_down_permutations,
    extremal_total_permutations,
    max_down_degree,
    max_total_degree,
)
from bruhat_degrees.graphs import strong_descent_graph
from bruhat_degrees.perm import MAX_DEGREE, longest_decreasing_subsequence, longest_element
from bruhat_degrees.stats import distribution


class TestClosedForms:
    def test_max_down_values(self):
        assert max_down_degree(1) == 0
        assert max_down_degree(3) == 2
        assert max_down_degree(9) == 20

    def test_max_total_values(self):
        assert max_total_degree(2) == 1
        assert max_total_degree(3) == 3
        assert max_total_degree(4) == 6

    def test_max_total_needs_two(self):
        with pytest.raises(ValueError):
            max_total_degree(1)

    def test_total_below_twice_down_and_binomial(self):
        for n in range(5, 40):
            assert max_total_degree(n) < 2 * max_down_degree(n)
            assert max_total_degree(n) <= math.comb(n, 2)


class TestDownFamily:
    def test_family_n4(self):
        assert [p.values for p in extremal_down_permutations(4)] == [
            (3, 4, 1, 2), (4, 2, 3, 1)]

    def test_family_n2(self):
        assert [p.values for p in extremal_down_permutations(2)] == [(2, 1)]

    def test_family_sizes(self):
        for n in range(2, 10):
            expected = n if n % 2 else n // 2
            assert len(extremal_down_permutations(n)) == expected

    def test_family_attains_maximum(self):
        for n in range(2, 10):
            for p in extremal_down_permutations(n):
                assert down_degree(p) == max_down_degree(n)

    def test_family_has_no_long_decreasing_run(self):
        for n in range(2, 10):
            for p in extremal_down_permutations(n):
                assert longest_decreasing_subsequence(p) <= 3

    def test_family_descent_graphs_balanced_bipartite(self):
        for n in range(4, 9):
            for p in extremal_down_permutations(n):
                parts = strong_descent_graph(p, 1).complete_multipartite_parts()
                assert parts is not None
                assert sorted(map(len, parts)) == [n // 2, (n + 1) // 2]


@pytest.mark.parametrize("family", [extremal_down_permutations, extremal_total_permutations])
def test_families_refuse_degrees_above_the_cap(family):
    with pytest.raises(ValueError, match=f"degree n={MAX_DEGREE + 1} exceeds the cap"):
        family(MAX_DEGREE + 1)


class TestTotalFamily:
    def test_n2(self):
        assert [p.values for p in extremal_total_permutations(2)] == [(1, 2), (2, 1)]

    def test_n3_exact_set(self):
        assert {p.values for p in extremal_total_permutations(3)} == {
            (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)}

    def test_counts(self):
        expected = {2: 2, 3: 4, 4: 4, 5: 16, 6: 8, 7: 16, 8: 8, 9: 16}
        for n, count in expected.items():
            assert len(extremal_total_permutations(n)) == count

    def test_n5_witnesses(self):
        vals = {p.values for p in extremal_total_permutations(5)}
        assert (3, 2, 5, 1, 4) in vals
        assert (4, 2, 5, 1, 3) in vals

    def test_family_attains_maximum(self):
        for n in range(2, 9):
            for p in extremal_total_permutations(n):
                assert total_degree(p).total == max_total_degree(n)


class TestBruteForce:
    def test_down_s4(self):
        best, attaining = brute_force_max(4, "down")
        assert best == 4
        assert [p.values for p in attaining] == [(3, 4, 1, 2), (4, 2, 3, 1)]

    def test_total_s3(self):
        best, attaining = brute_force_max(3, "total")
        assert best == 3
        assert len(attaining) == 4

    def test_down_s5(self):
        best, attaining = brute_force_max(5, "down")
        assert best == 6
        assert len(attaining) == 5

    def test_rth_top_order_maximum_is_reversal(self):
        best, attaining = brute_force_max(4, "rth", r=3)
        assert best == math.comb(4, 2)
        assert attaining == [longest_element(4)]

    def test_matches_families_small(self):
        for n in range(2, 8):
            assert brute_force_max(n, "down")[1] == extremal_down_permutations(n)
            assert brute_force_max(n, "total")[1] == extremal_total_permutations(n)

    def test_parallel_matches_serial(self):
        assert brute_force_max(6, "down", jobs=2) == brute_force_max(6, "down", jobs=1)
        assert brute_force_max(6, "total", jobs=3) == brute_force_max(6, "total")

    def test_limit_enforced(self):
        with pytest.raises(ValueError) as err:
            brute_force_max(10, "down")
        assert str(err.value) == (
            "n=10 exceeds the exhaustive limit 9; pass a larger limit to override")
        best, _ = brute_force_max(4, "down", limit=4)
        assert best == 4

    @pytest.mark.parametrize("args,kwargs", [
        ((4, "sideways"), {}),
        ((4, "rth"), {}),
        ((4, "rth"), {"r": 4}),
        ((0, "down"), {}),
        ((10, "down"), {}),
        ((5, "total"), {"limit": 4}),
        # the statistic, then the order, then the limit
        ((12, "sideways"), {}),
        ((12, "rth"), {"r": 12}),
        ((0, "down"), {"limit": -1}),
    ])
    def test_rejects_what_distribution_rejects(self, args, kwargs):
        messages = set()
        for scan in (brute_force_max, distribution, stats.exhaustive):
            with pytest.raises(ValueError) as err:
                scan(*args, **kwargs)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_bad_stat(self):
        with pytest.raises(ValueError):
            brute_force_max(4, "sideways")
        with pytest.raises(ValueError):
            brute_force_max(4, "rth")
