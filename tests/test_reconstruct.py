import importlib
import random

import pytest

from bruhat_degrees.bruhat import StrongDescentSet, strong_descent_set
from bruhat_degrees.perm import Permutation
from bruhat_degrees.reconstruct import ValidationFailure, is_realizable, reconstruct
from conftest import all_perms, shuffled

EXAMPLE = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])


def descent_set_of(values, n, r=1):
    return StrongDescentSet(n, r, tuple(values))


class TestReconstruct:
    def test_worked_example(self):
        rebuilt = reconstruct(9, strong_descent_set(EXAMPLE, 1))
        assert rebuilt == EXAMPLE

    def test_empty_set_gives_identity(self):
        assert reconstruct(3, descent_set_of([], 3)).values == (1, 2, 3)

    def test_triangle_is_unrealizable(self):
        with pytest.raises(ValidationFailure):
            reconstruct(3, descent_set_of([(1, 2), (1, 3), (2, 3)], 3))

    def test_single_long_member_is_unrealizable(self):
        # {t(1,3)} forces [3,1,2], whose descent set also contains t(2,3)
        with pytest.raises(ValidationFailure):
            reconstruct(3, descent_set_of([(1, 3)], 3))

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError, match="n=3"):
            reconstruct(4, descent_set_of([(1, 2)], 3))

    def test_wrong_r_rejected(self):
        with pytest.raises(ValueError, match="r=2"):
            reconstruct(4, descent_set_of([(1, 2)], 4, r=2))

    def test_degree_below_one_rejected(self):
        assert not is_realizable(0, [])
        with pytest.raises(ValueError, match="degree must be >= 1"):
            descent_set_of([], -3)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            descent_set_of([(1, 5)], 4)

    def test_round_trip_exhaustive(self):
        for n in range(1, 8):
            for p in all_perms(n):
                assert reconstruct(n, strong_descent_set(p, 1)) == p

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_round_trip_sampled(self, n):
        rng = random.Random(n)
        for _ in range(30):
            p = shuffled(n, rng)
            assert reconstruct(n, strong_descent_set(p, 1)) == p

    def test_injectivity_exhaustive(self):
        for n in range(1, 7):
            seen = {}
            for p in all_perms(n):
                key = strong_descent_set(p, 1).members
                assert key not in seen, (p, seen[key])
                seen[key] = p


class TestIsRealizable:
    def test_empty(self):
        assert is_realizable(3, [])

    def test_triangle(self):
        assert not is_realizable(5, [(1, 2), (1, 3), (2, 3)])
        assert not is_realizable(5, [(2, 3), (2, 5), (3, 5)])

    def test_worked_example(self):
        assert is_realizable(9, strong_descent_set(EXAMPLE, 1).pairs())

    def test_out_of_range_members(self):
        assert not is_realizable(3, [(1, 7)])
        assert not is_realizable(3, [(2, 2)])
        assert not is_realizable(3, [(2, 0)])

    @pytest.mark.parametrize("members", [[1], [None], [("1", 2)]])
    def test_malformed_members(self, members):
        # not a pair, or endpoints that do not compare: unrealizable, not a TypeError
        assert not is_realizable(3, members)

    def test_members_in_either_order(self):
        assert is_realizable(3, [(2, 1), (3, 2)])  # the descent set of [3,2,1]

    def test_builds_plain_pairs(self, monkeypatch):
        # the package exports the function reconstruct under the module's name
        module = importlib.import_module("bruhat_degrees.reconstruct")
        seen = []
        monkeypatch.setattr(module, "reconstruct", lambda n, d: seen.append(d))
        assert is_realizable(3, [(2, 1), [2, 3]])
        assert [type(m) for m in seen[0].members] == [tuple, tuple]

    def test_matches_reconstruction_over_all_small_sets(self):
        # over S_4, realizable sets are exactly the images of the descent map
        images = {strong_descent_set(p, 1).members for p in all_perms(4)}
        import itertools
        pairs = [(a, b) for a in range(1, 4) for b in range(a + 1, 5)]
        realizable = 0
        for k in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, k):
                if is_realizable(4, combo):
                    realizable += 1
                    assert combo in images
        assert realizable == len(images) == 24
