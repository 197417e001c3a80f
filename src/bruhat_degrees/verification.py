"""Machine verification of the degree-statistic theorems.

Each check re-derives one fact two independent ways (typically a closed
form or structural claim against exhaustive enumeration for small n, plus
random sampling at larger n) and reports pass/fail.  The ``verify`` CLI
subcommand runs every check and prints one line per fact.

Checks deliberately route through the public production code paths
(``bruhat.strong_descent_set`` and friends) so that a defect injected
there is caught here; the opposing route is always something structurally
different (inversion-number deltas, breadth-first search, numpy prefix
sums, brute-force clique search, literal summation).

The sampled parts draw through ``_draw``, which keys each PCG64 stream by
(seed, tag, n, block) with one tag per consumer, so the samples at one size
do not depend on the other sizes a run asks for.  Exhaustive scans go
through ``stats.exhaustive``, which checks its own limit; ``VerifyOptions``
refuses a --max-n above it before any check runs.

The sampled structural sweep and the reconstruction samples are computed in
the blocks that ``_shared_blocks`` lists.  At jobs > 1, ``run_all`` opens one
process pool before the first check and submits them to it, the sweep first,
while the main process runs the checks in order; the checks that need the
blocks wait for their futures, so the timing column bills them the wait, not
the work.  It is the only pool a run opens: the exhaustive scans and the
Monte Carlo means, one block each at the sizes verify takes, run in the main
process.  At one job, and for calls outside ``run_all``, the blocks run when
first needed, through ``map_blocks``.  Either way the results merge in list
order, so the report does not depend on --jobs.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, TypeVar

from . import bruhat, extremal, graphs, stats
from ._parallel import block_sizes, map_blocks, process_pool, resolve_jobs
from .reconstruct import is_realizable, reconstruct
from .perm import (
    Permutation,
    _check_degree_cap,
    identity,
    iter_permutations,
    longest_decreasing_subsequence,
    longest_element,
)

T = TypeVar("T")

EXAMPLE_PERM = (7, 9, 5, 2, 3, 8, 4, 1, 6)
EXAMPLE_DESCENTS_R1 = (
    (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5),
    (4, 8), (5, 7), (5, 9), (6, 7), (6, 8), (8, 9),
)
# At order r=2 the example gains exactly these pairs.  t(4,9) is NOT among
# them even though it is sometimes quoted with this example: swapping 4 and 9
# drops the inversion count by 5 (values 5 and 8 both sit between them), which
# is outside the window (0, -4); check_worked_examples re-proves this.
EXAMPLE_DESCENTS_R2_EXTRA = (
    (1, 8), (2, 7), (2, 9), (3, 7), (3, 9), (4, 7), (6, 9),
)
S3_DEGREE_TABLE = {
    (1, 2, 3): (0, 2),
    (1, 3, 2): (1, 2),
    (2, 1, 3): (1, 2),
    (2, 3, 1): (2, 1),
    (3, 1, 2): (2, 1),
    (3, 2, 1): (2, 0),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class VerifyOptions:
    """What a verify run examines.  Options that would examine nothing, or
    that no check can serve, are refused here, so the CLI and library callers
    get the same one-line errors.  --samples also sizes the reconstruction
    samples, which run at any --sampled-n.  Frozen, so its memo never goes
    stale; the memo is no field, so asdict, == and replace ignore it."""
    max_n: int = 6
    sampled_n: tuple[int, ...] = (40,)
    samples: int = 1000
    seed: int = 0
    jobs: int | None = 1

    def __post_init__(self) -> None:
        if self.max_n < 2:
            raise ValueError(f"--max-n must be >= 2, got {self.max_n}")
        if self.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {self.samples}")
        if any(n < 3 for n in self.sampled_n):
            raise ValueError("--sampled-n sizes must be >= 3, got "
                             + ",".join(map(str, self.sampled_n)))
        if len(set(self.sampled_n)) < len(self.sampled_n):
            raise ValueError("--sampled-n sizes must be distinct, got "
                             + ",".join(map(str, self.sampled_n)))
        for n in self.sampled_n:
            _check_degree_cap(n)  # the sweep builds an n x (n + 1) table per sample
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.max_n > stats.MAX_EXHAUSTIVE_N:
            raise ValueError(f"--max-n {self.max_n} exceeds the exhaustive limit "
                             f"{stats.MAX_EXHAUSTIVE_N}")
        resolve_jobs(self.jobs)

    @functools.cached_property
    def _memo(self) -> dict:  # what the checks of one run share
        return {}


def _per_run(opts: VerifyOptions, key: object, compute: Callable[[], T]) -> T:
    """compute(), once per options object, hence once per verify run: the
    checks that need the same expensive value share it."""
    memo = opts._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _exhaustive(opts: VerifyOptions, n: int, stat: str) -> stats.ExhaustiveScan:
    """The engine's scan of S_n for one statistic, once per verify run: the
    maxima, classification and expectation checks all read it."""
    return _per_run(opts, ("scan", n, stat), lambda: stats.exhaustive(n, stat))


# the tags of _draw's streams, one per consumer
_INVERSE_TAG, _INCREMENT_TAG, _RECONSTRUCTION_TAG, _SWEEP_TAG = 101, 102, 103, 500
# the most samples per size of the two sampled lemma checks and of reconstruction
_LEMMA_SAMPLES, _RECONSTRUCTION_SAMPLES = 200, 10_000


def _draw(seed: int, tag: int, n: int, count: int, block: int = 0) -> list[Permutation]:
    """count uniform permutations of degree n from the PCG64 stream keyed by
    (seed, tag, n, block)."""
    W = stats.random_permutation_matrix(n, count, (seed, tag, n, block))
    return [Permutation(tuple(row)) for row in W.tolist()]


def _fail(detail: str) -> tuple[bool, str]:
    return False, detail


def _ok(detail: str = "") -> tuple[bool, str]:
    return True, detail


# ---------------------------------------------------------------------------
# individual checks (each returns (passed, detail))

def check_length_is_inversion_count(opts: VerifyOptions) -> tuple[bool, str]:
    """Breadth-first search over adjacent-transposition words gives the same
    length as the inversion count."""
    top = min(opts.max_n, 5)
    for n in range(1, top + 1):
        start = tuple(range(1, n + 1))
        dist = {start: 0}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for i in range(n - 1):
                nxt = list(w)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                nxt = tuple(nxt)
                if nxt not in dist:
                    dist[nxt] = dist[w] + 1
                    queue.append(nxt)
        for w, d in dist.items():
            if d != Permutation(w).inversion_number():
                return _fail(f"word length of {w} is {d}, inversions differ")
    return _ok(f"all of S_n for n<={top}")


def check_cover_criterion(opts: VerifyOptions) -> tuple[bool, str]:
    """covered_by/covers_of/is_cover against the inversion-delta oracle."""
    top = min(opts.max_n, 6)
    for n in range(1, top + 1):
        for p in iter_permutations(n):
            downs = set()
            ups = set()
            base = p.inversion_number()
            for a, b in itertools.combinations(range(1, n + 1), 2):
                q = p.swap_values(a, b)
                delta = q.inversion_number() - base
                if delta == -1:
                    downs.add(q.values)
                elif delta == 1:
                    ups.add(q.values)
                if bruhat.is_cover(p, q) != (delta == -1):
                    return _fail(f"is_cover({p}, {q}) disagrees with length drop {delta}")
            if {q.values for q in bruhat.covered_by(p)} != downs:
                return _fail(f"covered_by({p}) wrong")
            if {q.values for q in bruhat.covers_of(p)} != ups:
                return _fail(f"covers_of({p}) wrong")
            if bruhat.down_degree(p) != len(downs) or bruhat.up_degree(p) != len(ups):
                return _fail(f"degrees of {p} disagree with cover counts")
            if len(bruhat.strong_descent_set(p, 1)) != len(downs):
                return _fail(f"descent set size of {p} disagrees with cover count")
    return _ok(f"all of S_n for n<={top}")


def check_descent_window(opts: VerifyOptions) -> tuple[bool, str]:
    """Membership in the r-th strong descent set against the inversion
    window 0 > inv(t p) - inv(p) > -2r, all r."""
    top = min(opts.max_n, 7)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            sets = [set(bruhat.strong_descent_set(p, r).pairs()) for r in range(1, n)]
            base = p.inversion_number()
            for a, b in itertools.combinations(range(1, n + 1), 2):
                delta = p.swap_values(a, b).inversion_number() - base
                if delta % 2 == 0:
                    return _fail(f"length change {delta} of t({a},{b}) on {p} is even")
                for r in range(1, n):
                    window = 0 > delta > -2 * r
                    if ((a, b) in sets[r - 1]) != window:
                        return _fail(f"t({a},{b}) on {p} at r={r}: "
                                     f"membership disagrees with length window")
    return _ok(f"all of S_n for n<={top}, all r")


def check_inverse_symmetry(opts: VerifyOptions) -> tuple[bool, str]:
    """d^(r) of p equals d^(r) of p^-1, with the membership bijection
    t_{a,b} <-> t_{pos(a),pos(b)}.

    ``strong_descent_set(p)`` is the scan of p^-1 carried through the
    bijection, so the exhaustive part compares it with the position-order
    scan of p itself.  Comparing it with the scan of p^-1, mapped through
    the bijection once more, would give back that scan whatever it held.
    """
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            for r in range(1, n):
                via_inverse = bruhat.strong_descent_set(p, r).pairs()
                direct = sorted(bruhat._rth_pairs(p.values, r))
                if len(via_inverse) != len(direct):
                    return _fail(f"degree mismatch for {p} at r={r}")
                if via_inverse != direct:
                    return _fail(f"membership bijection fails for {p} at r={r}")
    for n in opts.sampled_n:
        for p in _draw(opts.seed, _INVERSE_TAG, n, min(opts.samples, _LEMMA_SAMPLES)):
            q = p.inverse()
            for r in (1, 2, n // 2, n - 1):
                if bruhat.rth_down_degree(p, r) != bruhat.rth_down_degree(q, r):
                    return _fail(f"degree mismatch for a sample at n={n}, r={r}")
    return _ok(f"exhaustive n<={top}, sampled at n in {list(opts.sampled_n)}")


def check_descent_monotonicity(opts: VerifyOptions) -> tuple[bool, str]:
    """The r-th strong descent sets grow with r."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            prev: set[tuple[int, int]] = set()
            for r in range(1, n):
                cur = set(bruhat.strong_descent_set(p, r).pairs())
                if not prev <= cur:
                    return _fail(f"descents of {p} shrink from r={r - 1} to r={r}")
                prev = cur
    return _ok(f"all of S_n for n<={top}")


def check_boundary_degrees(opts: VerifyOptions) -> tuple[bool, str]:
    """Identity has down 0 / up n-1; the reversal has up 0 / down n-1."""
    for n in range(1, opts.max_n + 1):
        e, w0 = identity(n), longest_element(n)
        got = (bruhat.down_degree(e), bruhat.up_degree(e),
               bruhat.down_degree(w0), bruhat.up_degree(w0))
        if got != (0, n - 1, n - 1, 0):
            return _fail(f"boundary degrees at n={n}: {got}")
    return _ok(f"n<={opts.max_n}")


def check_up_down_complement(opts: VerifyOptions) -> tuple[bool, str]:
    """up_degree(p) equals down_degree of p with values complemented
    (left multiplication by the reversal)."""
    top = min(opts.max_n, 6)
    for n in range(1, top + 1):
        for p in iter_permutations(n):
            comp = Permutation(tuple(n + 1 - v for v in p.values))
            if bruhat.up_degree(p) != bruhat.down_degree(comp):
                return _fail(f"complement symmetry fails for {p}")
    return _ok(f"all of S_n for n<={top}")


def check_triangle_free(opts: VerifyOptions) -> tuple[bool, str]:
    """Strong descent graphs contain no triangle."""
    top = min(opts.max_n, 7)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            if not graphs.strong_descent_graph(p, 1).is_triangle_free():
                return _fail(f"triangle in the descent graph of {p}")
    return _swept(opts, "triangle_free", top)


def check_clique_free(opts: VerifyOptions) -> tuple[bool, str]:
    """r-th strong descent graphs contain no complete subgraph on r+2
    vertices."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            for r in range(1, n):
                if graphs.strong_descent_graph(p, r).has_clique(r + 2):
                    return _fail(f"K_{r + 2} inside the r={r} descent graph of {p}")
    return _swept(opts, "clique_free", top, scope=" (all r)")


def check_turan_bound(opts: VerifyOptions) -> tuple[bool, str]:
    """d^(r) never exceeds the Turan number t_{r+1}(n), which never exceeds
    C(r+1,2) (n/(r+1))^2."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for r in range(1, n):
            t_num = graphs.turan_number(r + 1, n)
            if t_num != graphs.turan_graph(r + 1, n).edge_count:
                return _fail(f"Turan edge count mismatch at r={r}, n={n}")
            if t_num > math.comb(r + 1, 2) * Fraction(n, r + 1) ** 2:
                return _fail(f"Turan number above the quadratic bound at r={r}, n={n}")
        for p in iter_permutations(n):
            for r in range(1, n):
                if bruhat.rth_down_degree(p, r) > graphs.turan_number(r + 1, n):
                    return _fail(f"degree above the Turan bound for {p}, r={r}")
    return _swept(opts, "turan_bound", top)


def check_top_order_is_inversions(opts: VerifyOptions) -> tuple[bool, str]:
    """The (n-1)-th down degree is the inversion number."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            if bruhat.rth_down_degree(p, n - 1) != p.inversion_number():
                return _fail(f"top-order degree of {p} is not its inversion count")
    return _swept(opts, "top_order", top)


def check_max_down_degree(opts: VerifyOptions) -> tuple[bool, str]:
    """Brute-force maximum of the down degree equals floor(n^2/4)."""
    for n in range(2, opts.max_n + 1):
        best = _exhaustive(opts, n, "down").maximum
        if best != extremal.max_down_degree(n):
            return _fail(f"max down degree over S_{n} is {best}")
    return _ok(f"2<=n<={opts.max_n}")


def check_extremal_down_classification(opts: VerifyOptions) -> tuple[bool, str]:
    """The attaining set of the down-degree maximum is exactly the generated
    three-block family, with the predicted count and structure."""
    for n in range(2, opts.max_n + 1):
        family = extremal.extremal_down_permutations(n)
        if _exhaustive(opts, n, "down").attaining != [p.values for p in family]:
            return _fail(f"attaining set differs from the family at n={n}")
        expected = n if n % 2 else n // 2
        if len(family) != expected:
            return _fail(f"family size {len(family)} at n={n}, expected {expected}")
        for p in family:
            if longest_decreasing_subsequence(p) > 3:
                return _fail(f"extremal {p} has a decreasing run of length 4")
            if n >= 4:
                parts = graphs.strong_descent_graph(p, 1).complete_multipartite_parts()
                if parts is None or sorted(map(len, parts)) != [n // 2, (n + 1) // 2]:
                    return _fail(f"descent graph of extremal {p} is not balanced bipartite")
    return _ok(f"2<=n<={opts.max_n}")


def check_max_total_degree(opts: VerifyOptions) -> tuple[bool, str]:
    """Brute-force maximum of the total degree equals floor(n^2/4) + n - 2."""
    for n in range(2, opts.max_n + 1):
        best = _exhaustive(opts, n, "total").maximum
        if best != extremal.max_total_degree(n):
            return _fail(f"max total degree over S_{n} is {best}")
    return _ok(f"2<=n<={opts.max_n}")


def check_extremal_total_classification(opts: VerifyOptions) -> tuple[bool, str]:
    """The attaining set of the total-degree maximum is the closure of the
    two-block permutations under the three involutions, with counts
    2 / 4 / 8 / 16."""
    for n in range(2, opts.max_n + 1):
        family = extremal.extremal_total_permutations(n)
        if _exhaustive(opts, n, "total").attaining != [p.values for p in family]:
            return _fail(f"attaining set differs from the closure at n={n}")
        if n == 2:
            expected = 2
        elif n in (3, 4):
            expected = 4
        elif n % 2 == 0:
            expected = 8
        else:
            expected = 16
        if len(family) != expected:
            return _fail(f"closure size {len(family)} at n={n}, expected {expected}")
        if n == 5:
            vals = {p.values for p in family}
            if (3, 2, 5, 1, 4) not in vals or (4, 2, 5, 1, 3) not in vals:
                return _fail("expected S_5 witnesses missing from the closure")
    return _ok(f"2<=n<={opts.max_n}")


def check_min_degree_bound(opts: VerifyOptions) -> tuple[bool, str]:
    """The total-degree graph has a vertex of degree at most floor(n/2)+1."""
    top = min(opts.max_n, 7)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            if graphs.total_degree_graph(p).min_degree() > n // 2 + 1:
                return _fail(f"all vertices of the total graph of {p} have high degree")
    return _swept(opts, "min_degree", top)


def check_total_graph_union(opts: VerifyOptions) -> tuple[bool, str]:
    """The total-degree graph is the edge-disjoint union of the descent graph
    and the up-edge graph, each triangle-free, and its edge count is the
    total degree."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            down = set(graphs.strong_descent_graph(p, 1).edges())
            up_graph = graphs.up_edge_graph(p)
            up = set(up_graph.edges())
            tot = graphs.total_degree_graph(p)
            if down & up:
                return _fail(f"down and up edges overlap for {p}")
            if set(tot.edges()) != down | up:
                return _fail(f"total graph of {p} is not the union")
            if tot.edge_count != bruhat.total_degree(p).total:
                return _fail(f"edge count of the total graph of {p} is off")
            if not up_graph.is_triangle_free():
                return _fail(f"up-edge graph of {p} has a triangle")
    return _ok(f"all of S_n for n<={top}")


def check_expectation_identities(opts: VerifyOptions) -> tuple[bool, str]:
    """Triple sum form == closed form (n <= 200); closed form == exhaustive
    mean (small n); expected total degree is twice the expected down degree."""
    for n in range(1, 201):
        if stats.triple_sum_expectation(n) != stats.expected_down_degree(n):
            return _fail(f"triple sum differs from the closed form at n={n}")
    for n in range(1, opts.max_n + 1):
        if _exhaustive(opts, n, "down").histogram.mean() != stats.expected_down_degree(n):
            return _fail(f"exhaustive mean differs from the closed form at n={n}")
    for n in range(1, opts.max_n + 1):
        if _exhaustive(opts, n, "total").histogram.mean() != 2 * stats.expected_down_degree(n):
            return _fail(f"mean total degree is not twice the mean down degree at n={n}")
    return _ok(f"triple sum to n=200, exhaustive to n<={opts.max_n}")


def check_expectation_asymptotics(opts: VerifyOptions) -> tuple[bool, str]:
    """E[down]/n stays within 2 of ln n at n = 10^1..10^4."""
    for n in (10, 100, 1000, 10_000):
        gap = abs(float(stats.expected_down_degree(n)) / n - math.log(n))
        if gap > 2:
            return _fail(f"asymptotic gap {gap:.3f} at n={n}")
    return _ok("n in {10, 100, 1000, 10000}")


def check_monte_carlo(opts: VerifyOptions) -> tuple[bool, str]:
    """Sampled means sit within four standard errors of the exact value."""
    samples = max(opts.samples, 1000)
    for n in (10, 50):
        mean, se = stats.monte_carlo_mean(n, "down", samples=samples, seed=opts.seed)
        exact = float(stats.expected_down_degree(n))
        if abs(mean - exact) > 4 * se:
            return _fail(f"sample mean {mean:.4f} vs exact {exact:.4f} at n={n} "
                         f"(se {se:.4f})")
    return _ok(f"n in {{10, 50}}, {samples} samples")


def check_increment_lemma(opts: VerifyOptions) -> tuple[bool, str]:
    """Down-degree increments under letter insertion equal suffix
    left-to-right maxima."""
    top = min(opts.max_n, 6)
    for n in range(2, top + 1):
        for p in iter_permutations(n):
            if not stats.check_increment_lemma(p):
                return _fail(f"increment identity fails for {p}")
    if not stats.check_increment_lemma(Permutation(EXAMPLE_PERM)):
        return _fail("increment identity fails on the worked example")
    for n in opts.sampled_n:
        for p in _draw(opts.seed, _INCREMENT_TAG, n, min(opts.samples, _LEMMA_SAMPLES)):
            if not stats.check_increment_lemma(p):
                return _fail(f"increment identity fails for a sample at n={n}")
    return _ok(f"exhaustive n<={top}, sampled at n in {list(opts.sampled_n)}")


def check_ltrm_generating_function(opts: VerifyOptions) -> tuple[bool, str]:
    """Left-to-right maxima counts over S_t match the rising factorial
    coefficients, and their mean is the harmonic number."""
    for t in range(0, 8):
        counts = stats.ltrm_counts(t)
        if counts != stats.rising_factorial_coefficients(t):
            return _fail(f"generating function mismatch at t={t}")
        if t >= 1:
            total = sum(k * c for k, c in enumerate(counts))
            if Fraction(total, math.factorial(t)) != stats.expected_ltrm(t):
                return _fail(f"mean left-to-right maxima mismatch at t={t}")
    return _ok("t<=7")


def check_reconstruction(opts: VerifyOptions) -> tuple[bool, str]:
    """Round trip permutation -> descent set -> permutation, exhaustively for
    small n and on samples at the large sizes."""
    top = min(opts.max_n, 8)
    for n in range(1, top + 1):
        for p in iter_permutations(n):
            if reconstruct(n, bruhat.strong_descent_set(p, 1)) != p:
                return _fail(f"round trip fails for {p}")
    for ok, detail in _block_results(opts, _reconstruction_block):
        if not ok:
            return _fail(detail)
    sizes = sorted({n for fn, (n, *_) in _shared_blocks(opts) if fn is _reconstruction_block})
    return _ok(f"exhaustive n<={top}, {min(opts.samples, _RECONSTRUCTION_SAMPLES)} samples "
               f"at n in {sizes}")


def _reconstruction_block(args: tuple[int, int, int, int]) -> tuple[bool, str]:
    n, seed, index, count = args
    for p in _draw(seed, _RECONSTRUCTION_TAG, n, count, block=index):
        if reconstruct(n, bruhat.strong_descent_set(p, 1)) != p:
            return False, f"round trip fails for a sample at n={n}"
    return True, ""


def check_injectivity(opts: VerifyOptions) -> tuple[bool, str]:
    """No two permutations share a strong descent set."""
    top = min(opts.max_n, 7)
    for n in range(1, top + 1):
        seen: dict[tuple, tuple] = {}
        for p in iter_permutations(n):
            key = bruhat.strong_descent_set(p, 1).members
            if key in seen:
                return _fail(f"{Permutation(seen[key])} and {p} share a descent set")
            seen[key] = p.values
    return _ok(f"all of S_n for n<={top}")


def check_components_vs_global_descents(opts: VerifyOptions) -> tuple[bool, str]:
    """Components of the descent graph = global descents of the reversed
    word + 1.

    The offset of 1 was calibrated by exhaustive comparison on S_3..S_5
    (the identity in S_3 gives 3 components against 2 global descents).
    """
    top = min(opts.max_n, 7)
    for n in range(1, top + 1):
        for p in iter_permutations(n):
            comps = graphs.strong_descent_graph(p, 1).component_count()
            gd = graphs.global_descent_count(p.reverse_positions())
            if comps != gd + 1:
                return _fail(f"{p}: {comps} components vs {gd} global descents")
    return _ok(f"all of S_n for n<={top}")


def check_worked_examples(opts: VerifyOptions) -> tuple[bool, str]:
    """The reference examples: the S_3 degree table, the 9-element descent
    sets at r=1 and r=2, and their reconstruction."""
    for vals, (down, up) in S3_DEGREE_TABLE.items():
        p = Permutation(vals)
        profile = bruhat.total_degree(p)
        if (profile.down, profile.up) != (down, up):
            return _fail(f"degree table wrong at {p}")
    p = Permutation(EXAMPLE_PERM)
    got1 = tuple(bruhat.strong_descent_set(p, 1).pairs())
    if got1 != EXAMPLE_DESCENTS_R1:
        return _fail("r=1 descent set of the worked example is wrong")
    got2 = tuple(bruhat.strong_descent_set(p, 2).pairs())
    expected2 = tuple(sorted(EXAMPLE_DESCENTS_R1 + EXAMPLE_DESCENTS_R2_EXTRA))
    if got2 != expected2:
        return _fail("r=2 descent set of the worked example is wrong")
    delta = bruhat.length_change((4, 9), p)
    if delta != -5 or (4, 9) in got2:
        return _fail("t(4,9) must fall outside the r=2 window (length drop 5)")
    rebuilt = reconstruct(9, bruhat.strong_descent_set(p, 1))
    if rebuilt != p:
        return _fail("reconstruction of the worked example is wrong")
    if not is_realizable(9, EXAMPLE_DESCENTS_R1):
        return _fail("worked example reported unrealizable")
    if is_realizable(3, [(1, 2), (1, 3), (2, 3)]):
        return _fail("triangle reported realizable")
    return _ok("degree table, descent sets, reconstruction")


# ---------------------------------------------------------------------------
# sampled structural sweep (shared by several checks)

_SWEEP_KEYS = ("triangle_free", "clique_free", "turan_bound", "top_order", "min_degree")

_SPOT_CHECKS = 5  # samples of each size's first block checked against the descent sets


def _structural_block(args: tuple[int, int, int, int]) -> dict[str, tuple[bool, str]]:
    import numpy as np

    n, seed, index, count = args
    turan_caps = [graphs.turan_number(r + 1, n) for r in range(1, n)]
    results = {key: (True, "") for key in _SWEEP_KEYS}

    def record(key: str, detail: str) -> None:
        if results[key][0]:
            results[key] = (False, detail)

    values = np.arange(1, n + 1)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    for idx, p in enumerate(_draw(seed, _SWEEP_TAG, n, count, block=index)):
        counts, pos = bruhat.between_counts(p)
        inverted = pos[values][None, :] < pos[values][:, None]
        invpairs = upper & inverted
        between = counts[invpairs]
        inv_count = int(invpairs.sum())

        # triangle-freeness of the r=1 graph via boolean matrix product
        adj1 = invpairs & (counts == 0)
        adj1 = adj1 | adj1.T
        if np.any((adj1 @ adj1) & adj1):
            record("triangle_free", f"triangle at sample {idx} of n={n}")

        # degrees for every r at once
        degs = np.cumsum(np.bincount(between, minlength=n))  # degs[c] = #pairs with count <= c
        for r in range(1, n):
            if degs[r - 1] > turan_caps[r - 1]:
                record("turan_bound", f"degree above the Turan bound at sample {idx}, r={r}")
                break
        if int(degs[n - 2]) != inv_count or p.inversion_number() != inv_count:
            record("top_order", f"top-order degree mismatch at sample {idx}")

        # minimal vertex degree in the total-degree graph
        adj_total = (counts == 0) & (upper | upper.T)
        adj_total = adj_total | adj_total.T
        if int(adj_total.sum(axis=1).min()) > n // 2 + 1:
            record("min_degree", f"minimum degree too large at sample {idx}")

        # clique-freeness: search small r directly, cap the rest by the
        # longest decreasing subsequence via the full inversion graph
        lds = longest_decreasing_subsequence(p)
        for r in list(range(1, max(lds - 1, 1))) + [n - 1]:
            sel = invpairs & (counts < r)
            g = _graph_from_bool(n, sel | sel.T)
            k = (r + 2) if r < n - 1 else (lds + 1)
            if g.has_clique(k):
                record("clique_free", f"K_{k} found at sample {idx}, r={r}")
                break

        # spot-check the fast path against the production descent sets
        if index == 0 and idx < _SPOT_CHECKS:
            for r in (1, 2, n // 2, n - 1):
                sel = invpairs & (counts < r)
                fast = {(int(a) + 1, int(b) + 1) for a, b in np.argwhere(sel)}
                if fast != set(bruhat.strong_descent_set(p, r).pairs()):
                    for key in _SWEEP_KEYS:
                        record(key, f"fast path disagrees with descent sets at r={r}")
                    break
    return results


def _swept(opts: VerifyOptions, key: str, top: int, scope: str = "") -> tuple[bool, str]:
    """The verdict of a structural check whose exhaustive part passed up to
    n = top: the shared sweep's result for key."""
    ok, detail = _structural_samples(opts)[key]
    if not ok:
        return _fail(detail)
    return _ok(f"exhaustive n<={top}{scope}, sampled at n in {list(opts.sampled_n)}")


def _graph_from_bool(n: int, adj: np.ndarray) -> graphs.LabeledGraph:
    import numpy as np

    packed = np.packbits(adj, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    rows = tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))
    return graphs.LabeledGraph(n, rows)


def _structural_samples(opts: VerifyOptions) -> dict[str, tuple[bool, str]]:
    """The five structural lemma checks on the samples of every size in
    opts.sampled_n; several checks share them, so they run once per verify run."""
    return _per_run(opts, "sweep",
                    lambda: _merge_sweep(_block_results(opts, _structural_block)))


def _merge_sweep(parts: list[dict[str, tuple[bool, str]]]) -> dict[str, tuple[bool, str]]:
    """The structural checks over all blocks; each key keeps the first
    failure in block order, which is size order, then block order."""
    merged = {key: (True, "") for key in _SWEEP_KEYS}
    for part in parts:
        for key, (ok, detail) in part.items():
            if merged[key][0] and not ok:
                merged[key] = (False, detail)
    return merged


# ---------------------------------------------------------------------------
# the blocks shared through one process pool

def _shared_blocks(opts: VerifyOptions) -> list[tuple[Callable, tuple[int, int, int, int]]]:
    """Every sampled block of a run, as (fn, (n, seed, index, count)): the
    sweep at each --sampled-n size, then the reconstruction samples at those
    sizes and 20, 50, 100, each size split into blocks of at most 2000, in
    size order, then block order."""
    kinds = ((_structural_block, opts.sampled_n, opts.samples),
             (_reconstruction_block, sorted(set(opts.sampled_n) | {20, 50, 100}),
              min(opts.samples, _RECONSTRUCTION_SAMPLES)))
    return [(fn, (n, opts.seed, index, take)) for fn, sizes, samples in kinds
            for n in sizes for index, take in enumerate(block_sizes(samples, 2000))]


def _block_results(opts: VerifyOptions, fn: Callable) -> list:
    """fn over its shared blocks, in list order: the futures that run_all
    submitted for this run if any, else computed now through map_blocks."""
    blocks = [block for f, block in _shared_blocks(opts) if f is fn]
    futures = opts._memo.get("blocks")
    if futures is None:
        return map_blocks(fn, blocks, opts.jobs)
    return [futures[fn, block].result() for block in blocks]


@contextlib.contextmanager
def _blocks_in_flight(opts: VerifyOptions) -> Iterator[None]:
    """At jobs > 1, submit the shared blocks of this run to one pool, the
    sweep first, then each kind by decreasing n (costliest first at default
    flags), and leave their futures in the memo for the checks to read; the
    pool closes when the run ends, however it ends.  At one job nothing starts."""
    jobs = resolve_jobs(opts.jobs)
    if jobs == 1:
        yield
        return
    tasks = sorted(_shared_blocks(opts),
                   key=lambda task: (task[0] is not _structural_block, -task[1][0]))
    # numpy loads numpy.random on first use; loading it before the fork lets
    # the workers share the parent's copy instead of each importing its own
    importlib.import_module("numpy.random")
    with process_pool(min(jobs, len(tasks))) as pool:
        opts._memo["blocks"] = {task: pool.submit(*task) for task in tasks}
        yield


# ---------------------------------------------------------------------------
# runner

ALL_CHECKS: tuple[tuple[str, Callable[[VerifyOptions], tuple[bool, str]]], ...] = (
    ("length-equals-inversion-count", check_length_is_inversion_count),
    ("cover-criterion-vs-length-oracle", check_cover_criterion),
    ("descent-window-vs-length-oracle", check_descent_window),
    ("inverse-symmetry-of-descents", check_inverse_symmetry),
    ("descent-monotonicity-in-order", check_descent_monotonicity),
    ("boundary-degrees", check_boundary_degrees),
    ("up-down-complement-symmetry", check_up_down_complement),
    ("triangle-free-descent-graph", check_triangle_free),
    ("clique-free-rth-descent-graph", check_clique_free),
    ("turan-bound-on-rth-degree", check_turan_bound),
    ("top-order-descents-equal-inversions", check_top_order_is_inversions),
    ("max-down-degree-formula", check_max_down_degree),
    ("extremal-down-classification", check_extremal_down_classification),
    ("max-total-degree-formula", check_max_total_degree),
    ("extremal-total-classification", check_extremal_total_classification),
    ("min-degree-bound-total-graph", check_min_degree_bound),
    ("total-graph-edge-union", check_total_graph_union),
    ("expected-down-degree-identities", check_expectation_identities),
    ("expectation-asymptotics", check_expectation_asymptotics),
    ("monte-carlo-matches-expectation", check_monte_carlo),
    ("increment-equals-suffix-ltr-maxima", check_increment_lemma),
    ("ltr-maxima-generating-function", check_ltrm_generating_function),
    ("reconstruction-round-trip", check_reconstruction),
    ("descent-set-injectivity", check_injectivity),
    ("components-vs-global-descents", check_components_vs_global_descents),
    ("worked-examples", check_worked_examples),
)


def run_all(opts: VerifyOptions) -> list[CheckResult]:
    opts = replace(opts)  # a fresh memo, dropped with the run
    results = []
    with _blocks_in_flight(opts):
        for name, fn in ALL_CHECKS:
            start = time.perf_counter()
            try:
                passed, detail = fn(opts)
            except Exception as exc:  # a crash in a check is a failure, not an abort
                passed, detail = False, f"error: {exc!r}"
            results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:40} {res.seconds:8.2f}s  {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
