"""The insertion-tree engine against the per-permutation word scans.

``stats.exhaustive`` never scans a permutation: it adds up increments along
the insertion tree.  The word scans of ``bruhat``, whose pair lists give the
degrees as their lengths, are the independent side here (the closed-form mean rests on the same increment lemma as the engine,
so it cannot vouch for it).
"""
import functools
import itertools
import math

import numpy as np
import pytest

from bruhat_degrees import stats
from bruhat_degrees.bruhat import _descent_pairs_word, _down_pairs_word, _up_pairs_word
from bruhat_degrees.extremal import extremal_down_permutations, max_down_degree
from bruhat_degrees.perm import ltr_maxima

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
    words = list(itertools.permutations(range(1, n + 1)))
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


@pytest.mark.parametrize("n", range(4, MAX_N + 1))
def test_job_counts_agree(n):
    for stat, r in _cases(n):
        assert stats.exhaustive(n, stat, r=r, jobs=2) == stats.exhaustive(n, stat, r=r, jobs=1)


def test_job_counts_agree_at_n_11():
    """S_11 is the first size split into blocks: the 24 subtrees below S_4,
    fanned out at jobs=2 and run in turn at jobs=1."""
    pooled = stats.distribution(11, "down", jobs=2, limit=11)
    serial = stats.exhaustive(11, "down", jobs=1, limit=11)
    assert pooled == serial.histogram
    assert serial.histogram.total() == math.factorial(11)
    assert serial.histogram.mean() == stats.expected_down_degree(11)
    assert serial.maximum == max_down_degree(11)
    assert serial.attaining == [p.values for p in extremal_down_permutations(11)]


@pytest.mark.parametrize("n", range(2, 8))
def test_increment_identities_on_all_of_s_n(n):
    """Insert n into the restriction of p below n: the down degree gains the
    left-to-right maxima of the suffix, the up degree the right-to-left
    maxima of the prefix, and the r-th down degree each later letter with
    fewer than r larger letters between the slot and it.  The kernel's gains
    for every slot of every word of S_{n-1} come from one call per r."""
    words = list(itertools.permutations(range(1, n)))
    W = np.array(words, dtype=np.int8)
    down_gain = stats._gains(W, 1)
    up_gain = stats._gains(W[:, ::-1], 1)[:, ::-1]
    assert (stats._level_gains(W, "total", 1) == down_gain + up_gain).all()
    rth_gain = {r: stats._gains(W, r) for r in range(1, n)}
    for i, w in enumerate(words):
        for j in range(n):
            p = w[:j] + (n,) + w[j:]
            assert up_gain[i, j] == up(p) - up(w)
            assert up_gain[i, j] == ltr_maxima(reversed(w[:j]))
            assert down_gain[i, j] == down(p) - down(w)
            for r in range(1, n):
                gain = rth_gain[r][i, j]
                assert gain == rth(p, r) - rth(w, r)
                assert gain == sum(1 for q in range(j, n - 1)
                                   if sum(1 for c in w[j:q] if c > w[q]) < r)


def _blocks_seen(monkeypatch):
    seen = []
    real = stats.map_blocks

    def counted(fn, blocks, jobs):
        seen.append(len(blocks))
        return real(fn, blocks, jobs)

    monkeypatch.setattr(stats, "map_blocks", counted)
    return seen


def test_one_block_up_to_n_10(monkeypatch):
    seen = _blocks_seen(monkeypatch)
    stats.exhaustive(9, "down", jobs=2)
    stats.exhaustive(10, "down", jobs=2, limit=10)
    assert seen == [1, 1]
    assert [stats._block_depth(n) for n in (1, 10, 11, 12)] == [0, 0, 4, 5]


@pytest.mark.parametrize("n", range(3, 8))
def test_blocks_at_any_depth_merge_to_the_one_piece_scan(n, monkeypatch):
    for stat, r in _cases(n):
        whole = stats.exhaustive(n, stat, r=r, jobs=1)
        for depth in range(2, n):
            seen = _blocks_seen(monkeypatch)
            monkeypatch.setattr(stats, "_block_depth", lambda n, depth=depth: depth)
            assert stats.exhaustive(n, stat, r=r, jobs=1) == whole, (stat, r, depth)
            assert seen == [math.factorial(depth)]
            monkeypatch.undo()


def test_validation_matches_distribution():
    with pytest.raises(ValueError, match="unknown statistic"):
        stats.exhaustive(4, "sideways")
    with pytest.raises(ValueError, match="needs the order parameter"):
        stats.exhaustive(4, "rth")
    with pytest.raises(ValueError, match="out of range"):
        stats.exhaustive(4, "rth", r=4)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        stats.exhaustive(0)
