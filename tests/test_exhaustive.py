"""The insertion-tree engine against the per-permutation word scans.

``stats.exhaustive`` never scans a permutation: it adds up increments along
the insertion tree.  The word scans of ``bruhat``, whose pair lists give the
degrees as their lengths, are the independent side here (the closed-form mean rests on the same increment lemma as the engine,
so it cannot vouch for it).
"""
import functools

import pytest

from bruhat_degrees import stats
from bruhat_degrees.bruhat import _descent_pairs_word, _down_pairs_word, _up_pairs_word
from bruhat_degrees.perm import _value_tuples, ltr_maxima

MAX_N = 8


def down(w):
    return len(_down_pairs_word(w))


def up(w):
    return len(_up_pairs_word(w))


def rth(w, r):
    return len(_descent_pairs_word(w, r))


def _cases(n):
    return [("down", None), ("total", None)] + [("rth", r) for r in range(1, max(n, 2))]


@functools.lru_cache(maxsize=None)
def scanned(n):
    """Every statistic of every permutation of S_n, by the word scans, in
    lexicographic order."""
    words = list(_value_tuples(n))
    values = {}
    for stat, r in _cases(n):
        if stat == "down":
            values[stat, r] = [down(w) for w in words]
        elif stat == "total":
            values[stat, r] = [down(w) + up(w) for w in words]
        else:
            values[stat, r] = [rth(w, r) for w in words]
    return words, values


def oracle(n, stat, r):
    words, values = scanned(n)
    vals = values[stat, r]
    counts = {}
    for v in vals:
        counts[v] = counts.get(v, 0) + 1
    best = max(vals)
    return counts, best, [w for w, v in zip(words, vals) if v == best]


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_engine_matches_word_scans(n):
    for stat, r in _cases(n):
        counts, best, attaining = oracle(n, stat, r)
        scan = stats.exhaustive(n, stat, r=r, jobs=1)
        assert scan.histogram.counts == counts, (stat, r)
        assert scan.maximum == best, (stat, r)
        assert scan.attaining == attaining, (stat, r)
        assert scan.histogram.stat == (stat if r is None else f"rth({r})")


@pytest.mark.parametrize("n", range(4, MAX_N + 2))
def test_job_counts_agree(n):
    # the pool starts only from n = 9, so n = 9 compares the pooled blocks
    # with the serial walk; down and total keep it cheap
    for stat, r in _cases(n) if n <= MAX_N else _cases(n)[:2]:
        assert stats.exhaustive(n, stat, r=r, jobs=2) == stats.exhaustive(n, stat, r=r, jobs=1)


@pytest.mark.parametrize("n", range(2, 8))
def test_increment_identities_on_all_of_s_n(n):
    """Insert n into the restriction of p below n: the up degree gains the
    right-to-left maxima of the prefix, and the r-th down degree gains each
    later letter with fewer than r larger letters between the slot and it."""
    for p in _value_tuples(n):
        j = p.index(n)
        w = p[:j] + p[j + 1:]
        down_gain = stats._down_increments(w)
        up_gain = [t - d for t, d in zip(stats._total_increments(w), down_gain)]
        assert up_gain[j] == up(p) - up(w)
        assert up_gain[j] == ltr_maxima(reversed(w[:j]))
        assert down_gain[j] == down(p) - down(w)
        for r in range(1, n):
            gain = stats._rth_increments(w, r)[j]
            assert gain == rth(p, r) - rth(w, r)
            assert gain == sum(1 for q in range(j, n - 1)
                               if sum(1 for c in w[j:q] if c > w[q]) < r)


def test_pool_starts_only_from_n_9(monkeypatch):
    blocks_seen = []
    real = stats.map_blocks

    def counted(fn, blocks, jobs):
        blocks_seen.append(len(blocks))
        return real(fn, blocks, jobs)

    monkeypatch.setattr(stats, "map_blocks", counted)
    stats.exhaustive(8, "down", jobs=2)
    stats.exhaustive(9, "down", jobs=2)
    assert blocks_seen == [1, 24]


def test_validation_matches_distribution():
    with pytest.raises(ValueError, match="unknown statistic"):
        stats.exhaustive(4, "sideways")
    with pytest.raises(ValueError, match="needs the order parameter"):
        stats.exhaustive(4, "rth")
    with pytest.raises(ValueError, match="out of range"):
        stats.exhaustive(4, "rth", r=4)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        stats.exhaustive(0)
