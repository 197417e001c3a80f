"""Exact and sampled statistics of the degree distributions over S_n.

The expected down degree of a uniform element of S_n equals

    sum_{i=2}^{n} sum_{j=2}^{i} sum_{k=2}^{j} 1/(i*(k-1))
        = (n+1) * H_n - 2n,          H_n = 1 + 1/2 + ... + 1/n,

which grows as n ln n + O(n).  Everything exact here runs in
``fractions.Fraction`` arithmetic; floats appear only in Monte Carlo
estimates and asymptotics reporting (harmonic denominators overflow any
fixed-width type long before n = 50).

The expectation rests on an increment identity: appending the letter i to
the restriction of p below i raises the down degree by the number of
left-to-right maxima of the suffix following i, and the left-to-right
maxima statistic over S_t has generating polynomial (q)(q+1)...(q+t-1).
Both facts are re-checkable from this module (``check_increment_lemma``,
``ltrm_counts``).

The same identity drives ``exhaustive``, the one engine behind every exact
scan of S_n: ``distribution``, ``exhaustive_mean``,
``extremal.brute_force_max``, and verify, which reads its maxima, attaining
sets and exact means from one scan per (n, statistic).  It builds the
insertion tree level by level, inserting 1, 2, ..., n in turn, with all
words of one length in one numpy array, and carries the statistic down:
one gain kernel gives, for every slot of every word, the later letters with
fewer than r larger letters between the slot and them.  At r = 1 that is
the down gain; the up gain is the same kernel on the reversed word.  The
word scans of ``bruhat`` stay the independent oracle for the engine.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bruhat
from ._parallel import block_sizes, map_blocks
from .perm import Permutation, _value_tuples, ltr_maxima

MAX_EXHAUSTIVE_N = 9

_BLOCK_WORDS = math.factorial(9)  # words of the last level S_10 builds in one piece

_MC_BLOCK = 20_000


def harmonic(n: int) -> Fraction:
    """H_n = sum of 1/i for 1 <= i <= n, exactly; H_0 = 0.

    >>> harmonic(3)
    Fraction(11, 6)
    """
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    num, den = _harmonic_range(1, n + 1)
    return Fraction(num, den)


def _harmonic_range(lo: int, hi: int) -> tuple[int, int]:
    # balanced split keeps the big-integer sizes even, much faster than a
    # left fold for n in the thousands
    if hi - lo == 0:
        return 0, 1
    if hi - lo == 1:
        return 1, lo
    mid = (lo + hi) // 2
    n1, d1 = _harmonic_range(lo, mid)
    n2, d2 = _harmonic_range(mid, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def expected_down_degree(n: int) -> Fraction:
    """(n+1) * H_n - 2n: the mean down degree over S_n.

    >>> expected_down_degree(3)
    Fraction(4, 3)
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    return (n + 1) * harmonic(n) - 2 * n


def triple_sum_expectation(n: int) -> Fraction:
    """The triple sum form of the expectation, evaluated exactly.

    Accumulates sum_{k=2}^{j} 1/(k-1) and its partial sums over j, so the
    triple sum costs O(n) fraction operations instead of O(n^3) terms.
    ``_triple_sum_literal`` evaluates it term by term for cross-checking.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = Fraction(0)
    inner = Fraction(0)  # sum_{k=2}^{j} 1/(k-1) for the current j
    mid = Fraction(0)  # sum over j <= i of inner(j)
    for i in range(2, n + 1):
        inner += Fraction(1, i - 1)
        mid += inner
        total += mid / i
    return total


def _triple_sum_literal(n: int) -> Fraction:
    return sum(
        (Fraction(1, i * (k - 1))
         for i in range(2, n + 1)
         for j in range(2, i + 1)
         for k in range(2, j + 1)),
        Fraction(0),
    )


def expected_ltrm(t: int) -> Fraction:
    """Expected number of left-to-right maxima of a uniform word of length t."""
    return harmonic(t)


def ltrm_counts(t: int) -> list[int]:
    """counts[k] = number of permutations of S_t with exactly k left-to-right
    maxima; equals the coefficient of q^k in (q)(q+1)...(q+t-1)."""
    counts = [0] * (t + 1)
    for w in _value_tuples(t):
        counts[ltr_maxima(w)] += 1
    return counts


def rising_factorial_coefficients(t: int) -> list[int]:
    """Coefficients of (q)(q+1)...(q+t-1), index = power of q."""
    coeffs = [1]
    for k in range(1, t + 1):
        shifted = [0] + coeffs
        coeffs = [shifted[i] + (k - 1) * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(shifted))]
    return coeffs


def check_increment_lemma(p: Permutation) -> bool:
    """Verify, for each 2 <= i <= n, that extending the restriction of p
    below i by the letter i raises the down degree by the number of
    left-to-right maxima of the suffix following i.

    The restriction of p below i+1 is a permutation of {1..i}, so each
    restriction is scanned once and consecutive degrees are compared.
    """
    if p.n < 2:
        raise ValueError("increment check needs n >= 2")
    prev = 0  # the restriction below 2 is the word (1,), of down degree 0
    for i in range(2, p.n + 1):
        w = p.restrict_below(i + 1)
        degree = bruhat.down_degree(Permutation(w))
        if degree - prev != ltr_maxima(w[w.index(i) + 1:]):
            return False
        prev = degree
    return True


# ---------------------------------------------------------------------------
# exhaustive distributions

@dataclass(frozen=True)
class Histogram:
    """Exact counts of a statistic over all of S_n."""

    n: int
    stat: str
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> Fraction:
        return Fraction(sum(v * c for v, c in self.counts.items()), self.total())

    def to_json(self) -> str:
        ordered = {str(v): self.counts[v] for v in sorted(self.counts)}
        return json.dumps({"n": self.n, "stat": self.stat, "counts": ordered},
                          separators=(",", ":"))


class ExhaustiveScan(NamedTuple):
    """One pass over all of S_n: the histogram of a statistic, its maximum,
    and the words attaining the maximum in lexicographic order."""

    histogram: Histogram
    maximum: int
    attaining: list[tuple[int, ...]]


def _gains(W: np.ndarray, r: int) -> np.ndarray:
    """G[i, j] = the r-th down-degree gain of inserting the new maximum
    before slot j of the word W[i], for every slot 0 <= j <= m: the letters
    of W[i, j:] with fewer than r larger letters between the slot and them.
    At r = 1 these are the left-to-right maxima of the suffix."""
    N, m = W.shape
    columns = np.ascontiguousarray(W.T)  # one contiguous row per letter position
    G = np.zeros((m + 1, N), dtype=np.int8)
    larger = np.empty(N, dtype=np.int8)
    for q in range(m):
        # walk back from letter q, counting the larger letters in W[:, j:q]
        larger[:] = 0
        for j in range(q - 1, -1, -1):
            larger += columns[j] > columns[q]
            G[j] += larger < r
        G[q] += 1
    return G.T


def _level_gains(W: np.ndarray, stat: str, r: int) -> np.ndarray:
    """The statistic's gain for every (word, slot) of one tree level; the
    up gain is the down gain of the reversed word at the mirrored slot."""
    if stat == "total":
        return _gains(W, 1) + _gains(W[:, ::-1], 1)[:, ::-1]
    return _gains(W, r)


def _children(W: np.ndarray, V: np.ndarray, stat: str, r: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """The next tree level: each word with the new maximum inserted before
    each slot in turn, row by row, and the statistic of every child."""
    N, m = W.shape
    C = np.empty((N, m + 1, m + 1), dtype=np.int8)
    for j in range(m + 1):
        C[:, j, :j] = W[:, :j]
        C[:, j, j] = m + 1
        C[:, j, j + 1:] = W[:, j:]
    return C.reshape(N * (m + 1), m + 1), (V[:, None] + _level_gains(W, stat, r)).ravel()


def _exhaustive_block(args: tuple[int, str, int, list[int], int]
                      ) -> tuple[list[int], int, list[tuple[int, ...]]]:
    """Histogram, maximum and attaining words of the subtree below one node.

    The levels are built down to words of length n-1; the last level is
    counted from its gains, and only the leaves that reach the maximum are
    built."""
    n, stat, r, root, value = args
    # letters fit int8, and every statistic, at most C(n, 2), fits int16
    W, V = np.array([root], dtype=np.int8), np.array([value], dtype=np.int16)
    while W.shape[1] < n - 1:
        W, V = _children(W, V, stat, r)
    leaves = V[:, None] + _level_gains(W, stat, r)
    best = int(leaves.max())
    rows, slots = np.nonzero(leaves == best)
    hits = [tuple(w[:j] + [n] + w[j:]) for w, j in zip(W[rows].tolist(), slots.tolist())]
    # one slot at a time keeps bincount's cast to intp small
    counts = sum(np.bincount(slot, minlength=n * (n - 1) // 2 + 1) for slot in leaves.T)
    return counts.tolist(), best, hits


def _block_depth(n: int) -> int:
    """The depth of the tree nodes whose subtrees are the blocks of S_n: the
    smallest whose subtrees build at most the 9! words that S_10 builds in
    one piece, so n <= 10 is one block, n = 11 the 24 below S_4."""
    depth = 0
    while math.factorial(n - 1) > math.factorial(depth) * _BLOCK_WORDS:
        depth += 1
    return depth


def exhaustive(n: int, stat: str = "down", r: int | None = None,
               jobs: int | None = 1) -> ExhaustiveScan:
    """Histogram, maximum and attaining words of a statistic over all of S_n,
    built level by level from the empty word of the insertion tree.

    Inserting n into a word on {1..n-1} raises the down degree by the
    left-to-right maxima of the suffix after it and the up degree by the
    right-to-left maxima of the prefix before it; no existing cover changes.
    The gains of every slot of a level come from one vectorised kernel, so
    no leaf is scanned.  The blocks are the subtrees below the nodes at
    ``_block_depth(n)``, merged in node order; up to n = 10 that is the
    whole tree, so the pool only starts from n = 11.
    """
    label = _check_stat(n, stat, r)
    order = r if stat == "rth" else 1
    W, V = np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int16)
    for _ in range(_block_depth(n)):
        W, V = _children(W, V, stat, order)
    blocks = [(n, stat, order, w, value) for w, value in zip(W.tolist(), V.tolist())]
    parts = map_blocks(_exhaustive_block, blocks, jobs)
    counts = [sum(column) for column in zip(*(c for c, _, _ in parts))]
    best = max(b for _, b, _ in parts)
    attaining = sorted(w for _, b, hits in parts if b == best for w in hits)
    histogram = Histogram(n=n, stat=label, counts={v: c for v, c in enumerate(counts) if c})
    return ExhaustiveScan(histogram, best, attaining)


def distribution(
    n: int,
    stat: str = "down",
    r: int | None = None,
    jobs: int | None = 1,
    limit: int = MAX_EXHAUSTIVE_N,
) -> Histogram:
    """Exact distribution of a degree statistic over all n! permutations."""
    _check_stat(n, stat, r)
    _check_limit(n, limit)
    return exhaustive(n, stat, r=r, jobs=jobs).histogram


def exhaustive_mean(n: int, stat: str = "down", r: int | None = None,
                    jobs: int | None = 1, limit: int = MAX_EXHAUSTIVE_N) -> Fraction:
    """Exact mean of a statistic over S_n (rational, no rounding)."""
    return distribution(n, stat, r=r, jobs=jobs, limit=limit).mean()


def _check_stat(n: int, stat: str, r: int | None) -> str:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if stat not in ("down", "total", "rth"):
        raise ValueError(f"unknown statistic {stat!r}")
    if stat == "rth":
        if r is None:
            raise ValueError("statistic 'rth' needs the order parameter r")
        bruhat._check_order(n, r)
        return f"rth({r})"
    return stat


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the exhaustive limit {limit}; pass a larger limit to override")


# ---------------------------------------------------------------------------
# Monte Carlo

def random_permutation_matrix(n: int, count: int, seed_key: tuple[int, ...]) -> np.ndarray:
    """count uniform permutations of {1..n} as rows, from a PCG64 stream
    keyed by seed_key (deterministic across platforms and job counts)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return rng.permuted(np.tile(np.arange(1, n + 1), (count, 1)), axis=1)


def _permutations(W: np.ndarray) -> list[Permutation]:
    """The rows of W as permutations."""
    return [Permutation(tuple(row)) for row in W.tolist()]


def down_degrees_batch(W: np.ndarray) -> np.ndarray:
    """Down degree of every row of W (rows are one-line permutations), as
    ``int64``.

    The pair of positions i < k is a cover when W[k] < W[i] and no letter
    between them lies in (W[k], W[i]); walking k rightwards from i, that is
    when W[k] beats ``best``, the largest letter below W[i] seen so far.
    The walk is offset-major: W is transposed once into contiguous columns
    C of the smallest signed type that holds n (``int8`` up to n = 127,
    then ``int16``, then ``int32``), and round d = 1..n-1 tests C[i + d]
    against C[i] for every start i of every row at once, in place.  That
    is n - 1 rounds of numpy calls.  A round zeroes the letters that are
    not below their start; what is left beats ``best`` exactly at a cover,
    and ``best`` takes the maximum, so no masked copy is needed.  The
    covers of each start are counted in a slab of the letters' type (at
    most n - 1 of them) and summed per row at the end.
    """
    rows, n = W.shape
    dtype = np.int8 if n <= 127 else np.int16 if n <= 32767 else np.int32
    C = np.ascontiguousarray(W.T, dtype=dtype)
    best = np.zeros_like(C)  # best[i]: the largest letter below C[i] seen so far
    covers = np.zeros_like(C)  # covers[i]: the covers found from start i
    low = np.empty_like(C)
    hit = np.empty(C.shape, dtype=bool)
    for d in range(1, n):
        a, b, top, m, h = C[d:], C[:n - d], best[:n - d], low[:n - d], hit[:n - d]
        np.less(a, b, out=m)
        m *= a  # C[i + d] where it is below C[i], else 0
        np.greater(m, top, out=h)
        np.maximum(top, m, out=top)
        covers[:n - d] += h
    return covers.sum(axis=0, dtype=np.int64)


def _mc_block(args: tuple[int, str, int, int, int, int]) -> tuple[int, int, int]:
    n, stat, r, seed, index, count = args
    W = random_permutation_matrix(n, count, (seed, index))
    if stat == "down":
        vals = down_degrees_batch(W)
    elif stat == "total":
        # the up degree is the down degree of the complement n + 1 - p
        vals = down_degrees_batch(W) + down_degrees_batch(n + 1 - W)
    else:
        vals = np.array([bruhat.rth_down_degree(p, r) for p in _permutations(W)],
                        dtype=np.int64)
    # integer sums keep the reduction exact, hence independent of job count
    return count, int(vals.sum()), int((vals.astype(object) ** 2).sum())


def monte_carlo_mean(
    n: int,
    stat: str = "down",
    samples: int = 10_000,
    seed: int = 0,
    r: int | None = None,
    jobs: int | None = 1,
) -> tuple[float, float]:
    """Sample mean and standard error of a degree statistic over uniform
    permutations; byte-deterministic given (n, stat, samples, seed).

    Samples are drawn in fixed blocks with per-block derived seeds, so the
    result does not depend on the number of workers.
    """
    _check_stat(n, stat, r)
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    blocks = [(n, stat, r or 0, seed, index, take)
              for index, take in enumerate(block_sizes(samples, _MC_BLOCK))]
    parts = map_blocks(_mc_block, blocks, jobs)
    count = sum(c for c, _, _ in parts)
    s1 = sum(s for _, s, _ in parts)
    s2 = sum(q for _, _, q in parts)
    mean = s1 / count
    var = (s2 - count * mean * mean) / (count - 1)
    stderr = math.sqrt(max(var, 0.0) / count)
    return mean, stderr
