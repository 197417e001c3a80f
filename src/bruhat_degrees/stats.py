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
sets and exact means from one scan per (n, statistic).  It checks the
exhaustive limit itself (``MAX_EXHAUSTIVE_N`` unless a caller passes a
larger ``limit``), after the statistic and the order.  It builds the
insertion tree level by level, inserting 1, 2, ..., n in turn, with all
words of one length in one numpy array, and carries the statistic down:
one gain kernel gives, for every slot of every word, the later letters with
fewer than r larger letters between the slot and them.  At r = 1 that is
the down gain; the up gain is the same kernel on the reversed word.  The
word scans of ``bruhat`` stay the independent oracle for the engine.

Monte Carlo estimates score every statistic with one batched kernel,
``down_degrees_batch(W, r)``: the r-th down degree of every row of a
sample block at once, each start holding its r largest letters below it
seen so far.  The down degree is its r = 1 case and the up degree that
case on the complement n + 1 - p; the word scans are its oracle too.

numpy is imported inside the functions that use it, so the CLI commands
that import this module for its exact forms never load it.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import bruhat
from ._parallel import block_sizes, map_blocks
from .perm import Permutation, _check_degree_cap, ltr_maxima

MAX_EXHAUSTIVE_N = 9

_BLOCK_WORDS = math.factorial(9)  # words of the last level S_10 builds in one piece

_MC_BLOCK = 20_000
_MC_CELLS = 2**25  # cells of a Monte Carlo block's samples, and of its kernel slots, at most


def harmonic(n: int) -> Fraction:
    """H_n = sum of 1/i for 1 <= i <= n, exactly; H_0 = 0.  It is also the
    mean number of left-to-right maxima of a uniform permutation of S_n.

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
    _check_degree_cap(n)  # H_n is one exact fraction, superlinear in n
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


def ltrm_counts(t: int) -> list[int]:
    """counts[k] = number of permutations of S_t with exactly k left-to-right
    maxima; equals the coefficient of q^k in (q)(q+1)...(q+t-1)."""
    counts = [0] * (t + 1)
    for w in itertools.permutations(range(1, t + 1)):
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
               jobs: int | None = 1, limit: int = MAX_EXHAUSTIVE_N) -> ExhaustiveScan:
    """Histogram, maximum and attaining words of a statistic over all of S_n,
    built level by level from the empty word of the insertion tree.

    Inserting n into a word on {1..n-1} raises the down degree by the
    left-to-right maxima of the suffix after it and the up degree by the
    right-to-left maxima of the prefix before it; no existing cover changes.
    The gains of every slot of a level come from one vectorised kernel, so
    no leaf is scanned.  The blocks are the subtrees below the nodes at
    ``_block_depth(n)``, merged in node order; up to n = 10 that is the
    whole tree, so the pool only starts from n = 11.  Refuses n > limit;
    raise the limit explicitly if you accept the factorial cost.
    """
    import numpy as np

    label = _check_stat(n, stat, r)
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the exhaustive limit {limit}; pass a larger limit to override")
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
    return exhaustive(n, stat, r=r, jobs=jobs, limit=limit).histogram


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
    if r is not None:
        raise ValueError(f"statistic {stat!r} takes no order parameter r")
    return stat


# ---------------------------------------------------------------------------
# Monte Carlo

def random_permutation_matrix(n: int, count: int, seed_key: tuple[int, ...]) -> np.ndarray:
    """count uniform permutations of {1..n} as rows, from a PCG64 stream
    keyed by seed_key (deterministic across platforms and job counts)."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    W = np.tile(np.arange(1, n + 1), (count, 1))
    rng.permuted(W, axis=1, out=W)  # in place: one n x count matrix, not two
    return W


def down_degrees_batch(W: np.ndarray, r: int = 1) -> np.ndarray:
    """r-th down degree of every row of W (rows are one-line permutations),
    as ``int64``; at r = 1, the down degree.

    The pair of positions i < k is an r-th strong descent when W[k] < W[i]
    and fewer than r letters between them lie in (W[k], W[i]); walking k
    rightwards from i, that is when W[k] beats the least of the r largest
    letters below W[i] seen so far (0 while fewer are held).  The walk is
    offset-major: W is transposed once into contiguous columns C of the
    smallest unsigned type that holds n (``uint8`` up to n = 255, then
    ``uint16`` up to 65535, then ``uint32``), and round d = 1..n-1 tests
    C[i + d] against C[i] for every start i of every row at once, in place.
    A round zeroes the letters that are not below their start, giving m;
    m counts exactly where it beats the slot array T[0], and the slots
    T[0] <= ... <= T[r-1] take it in with T[j] = min(T[j+1], max(T[j], m))
    for j < r-1 (the old T[j+1]) and T[r-1] = max(T[r-1], m).  A zero m
    leaves them unchanged, so no mask is needed; at r = 1 the one slot is
    the largest letter below the start.  The counts of each start fit a
    slab of the letters' type (at most n - 1) and are summed per row at
    the end.

    The kernel holds r slot arrays the size of C, and a round makes 2r + 3
    numpy calls over every start still in reach, so it does O(r) work per
    pair where the scans of ``bruhat`` stop each walk early.  With very few
    rows and large r the scan is the faster one: a fresh ``sample 1000
    --stat rth --r 500 --samples 2`` process took 0.7 s with one scan per
    row and 1.8 s with this kernel (2 cores).  With more rows the kernel
    wins: ``sample 400 --stat rth --r 200 --samples 100`` took 2.4-3.0 s
    against 0.6 s, and ``sample 200 --stat rth --r 199 --samples 200``
    1.0-1.4 s against 0.4 s.
    """
    import numpy as np

    if r < 1:
        raise ValueError(f"order parameter r={r} must be >= 1")
    rows, n = W.shape
    dtype = np.uint8 if n <= 255 else np.uint16 if n <= 65535 else np.uint32
    C = np.ascontiguousarray(W.T, dtype=dtype)
    T = np.zeros((r, *C.shape), dtype=dtype)  # T[:, i]: the r largest letters below C[i] seen
    covers = np.zeros_like(C)  # covers[i]: the descents found from start i
    low = np.empty_like(C)
    hit = np.empty(C.shape, dtype=bool)
    for d in range(1, n):
        k = n - d
        a, b, m, h = C[d:], C[:k], low[:k], hit[:k]
        np.less(a, b, out=m)
        m *= a  # C[i + d] where it is below C[i], else 0
        np.greater(m, T[0, :k], out=h)
        covers[:k] += h
        for j in range(r - 1):
            t = T[j, :k]
            np.maximum(t, m, out=t)
            np.minimum(t, T[j + 1, :k], out=t)
        np.maximum(T[r - 1, :k], m, out=T[r - 1, :k])
    return covers.sum(axis=0, dtype=np.int64)


def _mc_block(args: tuple[int, str, int, int, int, int]) -> tuple[int, int, int]:
    n, stat, r, seed, index, count = args
    W = random_permutation_matrix(n, count, (seed, index))
    # chunks of rows keep the kernel's r slot arrays within _MC_CELLS cells
    chunk = max(1, _MC_CELLS // (r * n))
    s1 = s2 = 0
    for lo in range(0, count, chunk):
        rows = W[lo:lo + chunk]
        vals = down_degrees_batch(rows, r)
        if stat == "total":
            # the up degree is the down degree of the complement n + 1 - p
            vals += down_degrees_batch(n + 1 - rows)
        # integer sums keep the reduction exact, hence independent of job
        # count and chunking
        s1 += int(vals.sum())
        s2 += int((vals.astype(object) ** 2).sum())
    return count, s1, s2


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
    result does not depend on the number of workers.  A block holds at most
    ``_MC_BLOCK`` rows and ``_MC_CELLS`` cells, or one row where n is larger,
    and is scored in chunks of rows whose r slot arrays hold at most
    ``_MC_CELLS`` cells; the block sizes alone fix the sample streams.
    """
    _check_stat(n, stat, r)
    _check_degree_cap(n)
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    rows = min(_MC_BLOCK, max(1, _MC_CELLS // n))
    blocks = [(n, stat, r or 1, seed, index, take)
              for index, take in enumerate(block_sizes(samples, rows))]
    parts = map_blocks(_mc_block, blocks, jobs)
    count = sum(c for c, _, _ in parts)
    s1 = sum(s for _, s, _ in parts)
    s2 = sum(q for _, _, q in parts)
    mean = s1 / count
    var = (s2 - count * mean * mean) / (count - 1)
    stderr = math.sqrt(max(var, 0.0) / count)
    return mean, stderr
