import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_degrees.bruhat import (
    DegreeProfile,
    StrongDescentSet,
    _descent_pairs_word,
    _rth_pairs,
    _sorted_members,
    between_counts,
    covered_by,
    covers_of,
    down_degree,
    is_cover,
    length_change,
    rth_down_degree,
    strong_descent_set,
    total_degree,
    up_degree,
)
from bruhat_degrees.perm import (
    Permutation,
    Transposition,
    from_one_line,
    identity,
    longest_element,
    random_permutation,
)
from bruhat_degrees.reconstruct import reconstruct
from conftest import all_perms

EXAMPLE = from_one_line([7, 9, 5, 2, 3, 8, 4, 1, 6])

# the strong descent set of the 9-element worked example, sorted
EXAMPLE_R1 = [
    (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5),
    (4, 8), (5, 7), (5, 9), (6, 7), (6, 8), (8, 9),
]
# the order-2 additions; t(4,9) does not qualify (length drop 5, window is
# (0,-4)), see test_order_two_set_and_the_misprinted_member
EXAMPLE_R2_EXTRA = [(1, 8), (2, 7), (2, 9), (3, 7), (3, 9), (4, 7), (6, 9)]


def all_transpositions(n):
    return [Transposition(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


class TestDegreesOnS3:
    # the complete degree table of S_3
    TABLE = {
        (1, 2, 3): (0, 2),
        (1, 3, 2): (1, 2),
        (2, 1, 3): (1, 2),
        (2, 3, 1): (2, 1),
        (3, 1, 2): (2, 1),
        (3, 2, 1): (2, 0),
    }

    def test_down_degrees(self):
        for vals, (down, _) in self.TABLE.items():
            assert down_degree(Permutation(vals)) == down, vals

    def test_total_degrees(self):
        for vals, (down, up) in self.TABLE.items():
            profile = total_degree(Permutation(vals))
            assert (profile.down, profile.up, profile.total) == (down, up, down + up)

    def test_degree_profile_total(self):
        assert DegreeProfile(down=2, up=1).total == 3


class TestCovers:
    def test_identity_covers_nothing(self):
        assert covered_by(identity(3)) == []

    def test_reversal_covers_two_in_s3(self):
        assert len(covered_by(from_one_line([3, 2, 1]))) == 2

    def test_neighbor_count_of_213(self):
        p = from_one_line([2, 1, 3])
        assert len(covers_of(p)) + len(covered_by(p)) == 3

    def test_is_cover_examples(self):
        assert is_cover(from_one_line([2, 1, 3]), from_one_line([1, 2, 3]))
        assert not is_cover(from_one_line([3, 2, 1]), from_one_line([1, 2, 3]))
        assert is_cover(from_one_line([3, 2, 1]), from_one_line([2, 3, 1]))

    def test_is_cover_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_cover(from_one_line([2, 1, 3]), from_one_line([2, 1]))

    def test_down_degree_of_block_rotation(self):
        assert down_degree(from_one_line([3, 4, 1, 2])) == 4

    def test_covers_against_length_oracle_exhaustive(self):
        for n in range(1, 7):
            for p in all_perms(n):
                downs, ups = set(), set()
                for t in all_transpositions(n):
                    q = p.swap_values(t.a, t.b)
                    delta = q.inversion_number() - p.inversion_number()
                    assert delta % 2 == 1
                    if delta == -1:
                        downs.add(q)
                    elif delta == 1:
                        ups.add(q)
                    assert is_cover(p, q) == (delta == -1)
                assert set(covered_by(p)) == downs
                assert set(covers_of(p)) == ups
                assert down_degree(p) == len(downs)
                assert up_degree(p) == len(ups)


class TestStrongDescentSets:
    def test_worked_example_r1(self):
        descents = strong_descent_set(EXAMPLE, 1)
        assert descents.pairs() == EXAMPLE_R1
        assert len(descents) == 12
        assert rth_down_degree(EXAMPLE, 1) == 12

    def test_order_two_set_and_the_misprinted_member(self):
        # the order-2 set gains exactly seven pairs; t(4,9) is sometimes
        # quoted with this example but fails the defining length window,
        # which the independent inversion-count oracle confirms
        descents = strong_descent_set(EXAMPLE, 2)
        assert descents.pairs() == sorted(EXAMPLE_R1 + EXAMPLE_R2_EXTRA)
        assert len(descents) == 19
        assert length_change((4, 9), EXAMPLE) == length_change(Transposition(4, 9), EXAMPLE) == -5
        assert (4, 9) not in descents.pairs()
        for a, b in EXAMPLE_R2_EXTRA:
            assert 0 > length_change(Transposition(a, b), EXAMPLE) > -4

    def test_identity_has_no_descents(self):
        for r in range(1, 5):
            assert len(strong_descent_set(identity(5), r)) == 0

    def test_top_order_gives_inversions(self):
        assert rth_down_degree(EXAMPLE, 8) == EXAMPLE.inversion_number() == 23
        for n in range(2, 7):
            for p in all_perms(n):
                assert rth_down_degree(p, n - 1) == p.inversion_number()

    def test_membership_matches_length_window_exhaustive(self):
        # all of S_n through n=7, every transposition, every order
        for n in range(2, 8):
            for p in all_perms(n):
                pair_sets = [set(strong_descent_set(p, r).pairs()) for r in range(1, n)]
                for t in all_transpositions(n):
                    delta = length_change(t, p)
                    for r in range(1, n):
                        assert (((t.a, t.b) in pair_sets[r - 1])
                                == (0 > delta > -2 * r)), (p, t, r)

    def test_monotone_in_r(self):
        for p in all_perms(5):
            prev = set()
            for r in range(1, 5):
                cur = set(strong_descent_set(p, r).pairs())
                assert prev <= cur
                prev = cur

    def test_inverse_symmetry_exhaustive(self):
        for n in range(2, 6):
            for p in all_perms(n):
                q = p.inverse()
                for r in range(1, n):
                    sp = strong_descent_set(p, r)
                    sq = strong_descent_set(q, r)
                    assert len(sp) == len(sq)
                    mapped = {Transposition.of(q.values[a - 1], q.values[b - 1])
                              for a, b in sp.pairs()}
                    assert mapped == set(sq.members)

    def test_boundary_degrees(self):
        for n in range(1, 8):
            assert down_degree(identity(n)) == 0
            assert up_degree(identity(n)) == n - 1
            assert down_degree(longest_element(n)) == n - 1
            assert up_degree(longest_element(n)) == 0

    def test_up_equals_down_of_complement(self):
        for n in range(1, 7):
            for p in all_perms(n):
                comp = Permutation(tuple(n + 1 - v for v in p.values))
                assert up_degree(p) == down_degree(comp)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            strong_descent_set(identity(4), 0)
        with pytest.raises(ValueError):
            strong_descent_set(identity(4), 4)
        with pytest.raises(ValueError):
            rth_down_degree(identity(4), 5)

    @pytest.mark.parametrize("n", [8, 31, 32, 33, 40, 64, 100])
    def test_scan_and_vectorized_paths_agree(self, n):
        # the word scans against the prefix-sum table: (a, b) with b before a
        # and fewer than r values between them in both position and value
        rng = random.Random(n)
        for _ in range(5):
            p = random_permutation(n, rng)
            counts, pos = between_counts(p)
            for r in {1, 2, n // 2, n - 1}:
                table = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if pos[b] < pos[a] and counts[a - 1, b - 1] < r]
                assert sorted(_descent_pairs_word(p.values, r)) == table
                assert strong_descent_set(p, r).pairs() == table


# words whose walks stop early: from b, the letters b-r..b-1 follow soon
EARLY_STOP_WORDS = [
    (10, 9, 8, 7, 1, 2, 3, 4, 5, 6),
    (5, 1, 4, 3, 2, 6),
    (9, 1, 8, 2, 7, 3, 6, 4, 5),
    (8, 7, 6, 5, 4, 3, 2, 1),
]


class _ReadLog(tuple):
    """A word that logs the position of every letter read from it."""

    def __getitem__(self, k):
        self.reads.append(k)
        return tuple.__getitem__(self, k)


def _scan_order(w, pairs):
    """pairs in the order the scan emits them: by the position of b, then
    by the position of a."""
    pos = {v: i for i, v in enumerate(w)}
    return sorted(pairs, key=lambda ab: (pos[ab[1]], pos[ab[0]]))


class TestTopRScan:
    @pytest.mark.parametrize("n", [200, 500])
    def test_large_rows_against_the_table(self, n):
        p = random_permutation(n, random.Random(n))
        counts, pos = between_counts(p)
        a, b = np.triu_indices(n, 1)  # value pairs a < b, 0-based, sorted
        after = pos[b + 1] < pos[a + 1]
        for r in sorted({1, 2, 3, 5, n // 4, n // 2, n - 1}):
            hit = after & (counts[a, b] < r)
            table = list(zip((a[hit] + 1).tolist(), (b[hit] + 1).tolist()))
            assert _descent_pairs_word(p.values, r) == _scan_order(p.values, table), r

    @pytest.mark.parametrize("w", EARLY_STOP_WORDS)
    def test_early_stop_words_against_length_change(self, w):
        p = from_one_line(list(w))
        for r in range(1, min(3, len(w) - 1) + 1):
            members = [(t.a, t.b) for t in all_transpositions(len(w))
                       if 0 > length_change(t, p) > -2 * r]
            assert _descent_pairs_word(w, r) == _scan_order(w, members), r

    @pytest.mark.parametrize("w", EARLY_STOP_WORDS + [
        tuple(random_permutation(30, seed).values) for seed in range(3)])
    def test_walk_stops_once_b_minus_r_to_b_minus_1_are_seen(self, w):
        # the walk from position i reads up to the position where the last of
        # b-r..b-1 appears, or to the end when one of them came before i
        n = len(w)
        for r in range(1, min(5, n - 1) + 1):
            expected = []
            for i, b in enumerate(w[:-1]):
                expected.append(i)
                if b == 1:
                    continue
                later = {v: k for k, v in enumerate(w) if k > i}
                needed = range(max(b - r, 1), b)
                end = (max(later[v] for v in needed)
                       if b > r and all(v in later for v in needed) else n - 1)
                expected.extend(range(i + 1, end + 1))
            word = _ReadLog(w)
            word.reads = []
            _descent_pairs_word(word, r)
            assert word.reads == expected, r


class TestInverseRoute:
    """``strong_descent_set`` scans p^-1 and maps each pair (x, y) to
    (p(y), p(x)); the members must come out in (a, b) order, equal to the
    sorted position-order scan of p."""

    def test_all_of_s_n_every_order(self):
        for n in range(1, 9):
            for p in all_perms(n):
                for r in range(1, max(n, 2)):
                    assert list(_sorted_members(p, r)) == sorted(_rth_pairs(p.values, r)), (p, r)

    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_large_rows(self, n):
        p = random_permutation(n, random.Random(n + 1))
        for r in (1, 2, n // 2, n - 1):
            assert list(_sorted_members(p, r)) == sorted(_rth_pairs(p.values, r)), r

    def test_members_strictly_increasing_and_kept(self):
        # members in strict (a, b) order are stored as given, not re-sorted;
        # the scan's members are plain pairs, equal to Transpositions
        for seed in range(20):
            p = random_permutation(60, seed)
            for r in (1, 2, 30, 59):
                members = strong_descent_set(p, r).members
                assert all(s < t for s, t in zip(members, members[1:])), (seed, r)
                assert StrongDescentSet(60, r, members).members is members
                assert all(type(t) is tuple for t in members), (seed, r)
                wrapped = StrongDescentSet(60, r, tuple(Transposition(*t) for t in members))
                assert wrapped == strong_descent_set(p, r), (seed, r)


class TestLengthChange:
    def test_examples(self):
        assert length_change(Transposition(1, 2), identity(3)) == 1
        assert length_change(Transposition(1, 3), from_one_line([3, 2, 1])) == -3
        assert length_change(Transposition(1, 2), from_one_line([2, 1, 3])) == -1

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=100)
    def test_always_odd(self, n, data):
        p = random_permutation(n, data.draw(st.integers(0, 10 ** 6)))
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        assert length_change(Transposition(a, b), p) % 2 == 1


class TestSerialization:
    def test_json_shape(self):
        descents = strong_descent_set(from_one_line([3, 4, 1, 2]), 1)
        text = descents.to_json()
        assert text == '{"n":4,"r":1,"members":[[1,3],[1,4],[2,3],[2,4]]}'
        assert StrongDescentSet.from_json(text) == descents

    def test_text_shape(self):
        descents = strong_descent_set(from_one_line([3, 4, 1, 2]), 1)
        assert descents.to_text() == "t(1,3) t(1,4) t(2,3) t(2,4)"
        assert StrongDescentSet.from_text(4, 1, descents.to_text()) == descents

    def test_contains(self):
        descents = strong_descent_set(EXAMPLE, 1)
        assert Transposition(4, 8) in descents
        assert (5, 9) in descents
        assert (4, 9) not in descents
        assert Transposition(4, 9) not in descents
        assert "t(4,8)" not in descents

    def test_members_sorted_and_deduplicated(self):
        s = StrongDescentSet(3, 1, (Transposition(2, 3), Transposition(1, 2),
                                    Transposition(2, 3)))
        assert s.pairs() == [(1, 2), (2, 3)]

    def test_text_out_of_order_is_sorted_and_deduplicated(self):
        descents = strong_descent_set(EXAMPLE, 1)
        tokens = descents.to_text().split()
        shuffled = " ".join(tokens[::-1] + tokens[3:7])
        assert StrongDescentSet.from_text(9, 1, shuffled) == descents
        assert StrongDescentSet.from_text(9, 1, shuffled).pairs() == EXAMPLE_R1

    def test_plain_tuple_member_is_accepted(self):
        plain = StrongDescentSet(3, 1, ((1, 2),))
        assert plain == StrongDescentSet(3, 1, (Transposition(1, 2),))
        assert plain.to_json() == StrongDescentSet(3, 1, (Transposition(1, 2),)).to_json()

    @pytest.mark.parametrize("member", [[2, 3], (1, 2, 3), 1])
    def test_member_that_is_not_a_pair_is_rejected(self, member):
        with pytest.raises(ValueError) as err:
            StrongDescentSet(3, 1, (Transposition(1, 2), member))
        assert str(err.value) == f"member {member!r} is not an (a, b) pair"

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            StrongDescentSet(3, 1, (Transposition(1, 4),))

    @pytest.mark.parametrize("member", [Transposition(1.5, 2), Transposition(True, 2),
                                        Transposition(1, 2.0), Transposition("1", 2)])
    def test_endpoint_that_is_not_an_int_is_rejected(self, member):
        # a float passed the range check and reached to_json, which from_json refuses
        with pytest.raises(ValueError) as err:
            StrongDescentSet(3, 1, (Transposition(1, 3), member))
        assert str(err.value) == f"member {member!r} has an endpoint that is not an integer"

    @pytest.mark.parametrize("n,r", [(9, 1), (9, 2), (9, 4), (9, 8),
                                     (100, 1), (100, 2), (100, 50), (100, 99)])
    def test_parsed_sets_serialize_like_scanned_ones(self, n, r):
        # parsed sets hold Transpositions, scanned ones plain pairs
        p = EXAMPLE if n == 9 else random_permutation(n, random.Random(r))
        scanned = strong_descent_set(p, r)
        parsed = [StrongDescentSet.from_text(n, r, scanned.to_text()),
                  StrongDescentSet.from_json(scanned.to_json())]
        for descents in parsed:
            assert descents == scanned
            assert descents.to_text() == scanned.to_text()
            assert descents.to_json() == scanned.to_json()
        if r == 1:
            assert [reconstruct(n, descents) for descents in parsed] == [p, p]

    def test_bad_text_token(self):
        with pytest.raises(ValueError):
            StrongDescentSet.from_text(3, 1, "t[1,2]")

    def test_full_example_json_round_trip(self):
        descents = strong_descent_set(EXAMPLE, 1)
        payload = json.loads(descents.to_json())
        assert payload["n"] == 9 and payload["r"] == 1
        assert payload["members"] == [list(t) for t in EXAMPLE_R1]
