import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_degrees.perm import (
    InvalidPermutationError,
    Permutation,
    _inversion_number_quadratic,
    apply_transposition_left,
    identity,
    iter_permutations,
    longest_decreasing_subsequence,
    longest_element,
    ltr_maxima,
    parse_permutation,
    rank,
    unrank,
)
from conftest import shuffled

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(lambda v: Permutation(tuple(v)))


class TestConstruction:
    def test_well_formed(self):
        assert Permutation([2, 1, 3]).values == (2, 1, 3)

    def test_degree_nine_example(self):
        assert Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6]).n == 9

    def test_duplicate_rejected_with_value(self):
        with pytest.raises(InvalidPermutationError, match="duplicate value 1"):
            Permutation([1, 1, 2])

    def test_out_of_range_rejected_with_value(self):
        with pytest.raises(InvalidPermutationError, match="value 4 out of range"):
            Permutation([1, 4, 3])

    def test_gap_manifests_as_range_error(self):
        # a gap with correct length forces some value out of range
        with pytest.raises(InvalidPermutationError):
            Permutation([1, 2, 5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidPermutationError):
            Permutation([])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidPermutationError):
            Permutation([1, "2", 3])

    @pytest.mark.parametrize("text", ["[2,1,3]", "2 1 3", "2, 1, 3", " [2 , 1 , 3 ] "])
    def test_parse_formats(self, text):
        assert parse_permutation(text).values == (2, 1, 3)

    def test_parse_bad_token(self):
        with pytest.raises(InvalidPermutationError, match="'x'"):
            parse_permutation("[1,x,3]")

    def test_format_round_trip(self):
        p = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])
        assert parse_permutation(str(p)) == p
        assert str(p) == "[7,9,5,2,3,8,4,1,6]"

    def test_call(self):
        p = Permutation([2, 3, 1])
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(IndexError):
            p(0)


class TestGroupOps:
    def test_inverse_examples(self):
        assert Permutation([1, 2, 3]).inverse().values == (1, 2, 3)
        assert Permutation([2, 3, 1]).inverse().values == (3, 1, 2)
        assert Permutation([3, 4, 1, 2]).inverse().values == (3, 4, 1, 2)

    @given(perms)
    def test_inverse_involution(self, p):
        assert p.inverse().inverse() == p

    @given(perms)
    def test_inverse_preserves_inversions(self, p):
        assert p.inversion_number() == p.inverse().inversion_number()

    def test_inversion_examples(self):
        assert Permutation([1, 2, 3]).inversion_number() == 0
        assert Permutation([3, 2, 1]).inversion_number() == 3
        assert Permutation([2, 3, 1]).inversion_number() == 2

    @given(perms)
    def test_merge_count_matches_quadratic_reference(self, p):
        assert p.inversion_number() == _inversion_number_quadratic(p.values)

    def test_length_is_inversion_count_bfs(self, length_oracle):
        for n in range(1, 6):
            dist = length_oracle(n)
            for w, d in dist.items():
                assert Permutation(w).inversion_number() == d
            assert len(dist) == math.factorial(n)

    def test_apply_transposition_examples(self):
        assert apply_transposition_left((1, 2), Permutation([2, 3, 1])).values == (1, 3, 2)
        assert apply_transposition_left((1, 3), Permutation([1, 2, 3])).values == (3, 2, 1)
        assert apply_transposition_left(
            (2, 4), Permutation([3, 4, 1, 2])).values == (3, 2, 1, 4)

    def test_apply_transposition_out_of_range(self):
        with pytest.raises(ValueError):
            apply_transposition_left((2, 4), Permutation([2, 1, 3]))

    @pytest.mark.parametrize("t", [(1, 10), (10, 1), (0, 2)])
    def test_plain_pair_outside_s_n_refused(self, t):
        p = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])
        with pytest.raises(ValueError) as err:
            apply_transposition_left(t, p)
        assert str(err.value) == f"transposition {t} does not fit in S_9"

    @given(perms, st.data())
    def test_transposition_involution(self, p, data):
        if p.n < 2:
            return
        a = data.draw(st.integers(1, p.n - 1))
        b = data.draw(st.integers(a + 1, p.n))
        t = (a, b)
        assert apply_transposition_left(t, apply_transposition_left(t, p)) == p


class TestSymmetries:
    def test_reverse_positions(self):
        assert Permutation([3, 4, 1, 2]).reverse_positions().values == (2, 1, 4, 3)

    def test_exchange_end_positions(self):
        assert Permutation([3, 4, 1, 2]).exchange_end_positions().values == (2, 4, 1, 3)

    def test_exchange_extreme_values(self):
        assert Permutation([3, 4, 1, 2]).exchange_extreme_values().values == (3, 1, 4, 2)

    def test_size_one_rejected(self):
        one = identity(1)
        with pytest.raises(ValueError):
            one.exchange_end_positions()
        with pytest.raises(ValueError):
            one.exchange_extreme_values()
        assert one.reverse_positions() == one


class TestWords:
    def test_restrict_below_known_values(self):
        p = Permutation([6, 1, 4, 8, 3, 2, 5, 9, 7])
        assert p.restrict_below(7) == (6, 1, 4, 3, 2, 5)
        assert p.restrict_below(4) == (1, 3, 2)
        assert p.restrict_below(10) == p.values

    def test_restrict_below_range(self):
        p = Permutation([2, 1, 3])
        with pytest.raises(ValueError):
            p.restrict_below(1)
        with pytest.raises(ValueError):
            p.restrict_below(5)

    def test_ltr_maxima(self):
        assert ltr_maxima((1, 2, 3)) == 3
        assert ltr_maxima((3, 2, 1)) == 1
        assert ltr_maxima(()) == 0

    def test_lds_examples(self):
        assert longest_decreasing_subsequence(Permutation([1, 2, 3])) == 1
        assert longest_decreasing_subsequence(Permutation([3, 2, 1])) == 3
        assert longest_decreasing_subsequence(Permutation([3, 4, 1, 2])) == 2

    def test_lds_against_subsequence_enumeration(self):
        rng = random.Random(5)
        sampled = [shuffled(rng.randrange(1, 7), rng) for _ in range(40)]
        every = [p for n in range(1, 7) for p in iter_permutations(n)]
        for p in sampled + every:
            n = p.n
            best = max(
                len(combo)
                for k in range(1, n + 1)
                for combo in itertools.combinations(p.values, k)
                if all(x > y for x, y in zip(combo, combo[1:]))
            )
            assert longest_decreasing_subsequence(p) == best


class TestEnumeration:
    def test_lexicographic_contract(self):
        listed = list(iter_permutations(3))
        assert len(listed) == 6
        assert listed[0].values == (1, 2, 3)
        assert listed[-1].values == (3, 2, 1)
        assert listed == sorted(listed, key=lambda p: p.values)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_and_distinctness(self, n):
        seen = set(p.values for p in iter_permutations(n))
        assert len(seen) == math.factorial(n)

    def test_unrank_examples(self):
        assert unrank(3, 0).values == (1, 2, 3)
        assert unrank(3, 5).values == (3, 2, 1)

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(3, 6)
        with pytest.raises(ValueError):
            unrank(3, -1)

    def test_rank_unrank_round_trip(self):
        for n in range(1, 6):
            for k, p in enumerate(iter_permutations(n)):
                assert rank(p) == k
                assert unrank(n, k) == p

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60)
    def test_rank_unrank_large(self, n, data):
        k = data.draw(st.integers(0, math.factorial(n) - 1))
        assert rank(unrank(n, k)) == k

    def test_longest_element(self):
        assert longest_element(4).values == (4, 3, 2, 1)
        assert longest_element(4).inversion_number() == 6
