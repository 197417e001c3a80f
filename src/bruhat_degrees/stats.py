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
sets and exact means from one scan per (n, statistic).  It walks the
insertion tree depth first, inserting 1, 2, ..., n in turn, and carries the
statistic down the path: the up degree grows by the right-to-left maxima of
the prefix before the new letter, and the r-th down degree by the later
letters with fewer than r larger values between the new letter and them.
The word scans of ``bruhat`` stay the independent oracle for the engine.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bruhat
from ._parallel import block_sizes, map_blocks
from .perm import Permutation, _value_tuples, ltr_maxima

MAX_EXHAUSTIVE_N = 9

_BLOCK_DEPTH = 4  # parallel exhaustive blocks: the 24 subtrees below S_4

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


def _down_increments(w: Sequence[int]) -> list[int]:
    """inc[j] = left-to-right maxima of w[j:], for every slot 0 <= j <= len(w):
    the down-degree gain when len(w)+1 is inserted before position j."""
    inc = [0]
    stack: list[int] = []  # the left-to-right maxima of the suffix, first on top
    for v in reversed(w):
        while stack and stack[-1] < v:
            stack.pop()
        stack.append(v)
        inc.append(len(stack))
    inc.reverse()
    return inc


def _total_increments(w: Sequence[int]) -> list[int]:
    """Down-degree gains plus up-degree gains, the right-to-left maxima of
    w[:j], for every slot j."""
    inc = _down_increments(w)
    stack: list[int] = []  # the right-to-left maxima of the prefix, last on top
    for j, v in enumerate(w, 1):
        while stack and stack[-1] < v:
            stack.pop()
        stack.append(v)
        inc[j] += len(stack)
    return inc


def _rth_increments(w: Sequence[int], r: int) -> list[int]:
    """The r-th degree gain for every slot: the inserted maximum b = len(w)+1
    gains t_{a,b} for each later a with fewer than r larger values between
    the slot and a, so a counts for the slots after its r-th nearest earlier
    larger value."""
    diff = [0] * (len(w) + 2)
    for q, a in enumerate(w):
        p = q - 1
        larger = 0
        while p >= 0:
            if w[p] > a:
                larger += 1
                if larger == r:
                    break
            p -= 1
        diff[p + 1] += 1
        diff[q + 1] -= 1
    return list(itertools.accumulate(diff[:-1]))


def _increment_fn(stat: str, r: int) -> Callable[[Sequence[int]], list[int]]:
    if stat == "down" or (stat == "rth" and r == 1):
        return _down_increments
    if stat == "total":
        return _total_increments
    return functools.partial(_rth_increments, r=r)


def _insertion_nodes(length: int, increments: Callable[[Sequence[int]], list[int]]
                     ) -> list[tuple[tuple[int, ...], int]]:
    """The insertion-tree nodes with words of the given length, in slot order,
    each with its statistic (0 on the root word (1,))."""
    nodes = [((1,), 0)]
    for m in range(2, length + 1):
        nodes = [(w[:j] + (m,) + w[j:], value + d)
                 for w, value in nodes for j, d in enumerate(increments(w))]
    return nodes


def _exhaustive_block(args: tuple[int, str, int, tuple[int, ...], int]
                      ) -> tuple[list[int], int, list[tuple[int, ...]]]:
    """Depth-first walk of the subtree below one node: inserting m before
    position j adds increments(w)[j] to the statistic of w, so leaves are
    counted without being built, except those that reach the running maximum."""
    n, stat, r, root, value = args
    increments = _increment_fn(stat, r)
    counts = [0] * (n * (n - 1) // 2 + 1)  # every statistic is at most C(n, 2)
    if len(root) == n:
        counts[value] += 1
        return counts, value, [root]
    w = list(root)
    best = -1
    hits: list[tuple[int, ...]] = []

    def walk(value: int) -> None:
        nonlocal best, hits
        inc = increments(w)
        m = len(w) + 1
        if m < n:
            for j, d in enumerate(inc):
                w.insert(j, m)
                walk(value + d)
                del w[j]
            return
        for d in inc:
            counts[value + d] += 1
        top = max(inc)
        if value + top >= best:
            if value + top > best:
                best, hits = value + top, []
            hits.extend(tuple(w[:j]) + (m,) + tuple(w[j:])
                        for j, d in enumerate(inc) if d == top)

    walk(value)
    return counts, best, hits


def exhaustive(n: int, stat: str = "down", r: int | None = None,
               jobs: int | None = 1) -> ExhaustiveScan:
    """Histogram, maximum and attaining words of a statistic over all of S_n,
    in one depth-first pass over the insertion tree.

    Inserting n into a word on {1..n-1} raises the down degree by the
    left-to-right maxima of the suffix after it and the up degree by the
    right-to-left maxima of the prefix before it; no existing cover changes.
    All increments of a node come from one stack pass, so no leaf is scanned.
    With jobs != 1 and n >= 9 the subtrees below the words of length 4 are
    the blocks; below n = 9 starting the pool costs more than it saves (at
    n = 8 on 2 cores the serial scan wins for every statistic).
    """
    label = _check_stat(n, stat, r)
    increments = _increment_fn(stat, r or 0)
    depth = 1 if (jobs == 1 or n < 9) else _BLOCK_DEPTH
    blocks = [(n, stat, r or 0, w, value) for w, value in _insertion_nodes(depth, increments)]
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
    """Down degree of every row of W (rows are one-line permutations)."""
    m, n = W.shape
    count = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        b = W[:, i]
        best = np.zeros(m, dtype=W.dtype)
        for k in range(i + 1, n):
            a = W[:, k]
            hit = (a < b) & (a > best)
            count += hit
            best = np.where(hit, a, best)
    return count


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
