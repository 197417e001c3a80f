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

The per-permutation checks read one exhaustive pass over every S_n with n up
to min(--max-n, MAX_PASS_N), which computes each ingredient once per
permutation and makes all their comparisons on it.  Every sampled
per-permutation comparison is made likewise by one structural sweep at each
--sampled-n size, apart from reconstruction's own samples.  So a run draws
two streams, the sweep's and reconstruction's, both through ``_draw``, which
keys each PCG64 stream by (seed, tag, n, block), so the samples at one size
do not depend on the other sizes a run asks for.  The engine's scans go
through ``stats.exhaustive``, which checks its own limit; ``VerifyOptions``
refuses a --max-n above it before any check runs.

The pass, the sampled structural sweep and the reconstruction samples are
computed in the blocks that ``_shared_blocks`` lists.  At jobs > 1,
``run_all`` opens one process pool before the first check and submits them
to it in order of first need, while the main process runs the checks in
order; the checks that need the blocks wait for their futures, so the
timing column bills them the wait, not the work.  It is the only pool a run
opens: the engine's scans and the Monte Carlo means, one block each at the
sizes verify takes, run in the main process.  At one job, and for calls
outside ``run_all``, the blocks run when first needed, through
``map_blocks``.  Either way the results merge in list order, so the report
does not depend on --jobs.
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
from typing import Callable, Iterable, Iterator, TypeVar

from . import bruhat, extremal, graphs, stats
from ._parallel import block_sizes, map_blocks, process_pool, resolve_jobs
from .reconstruct import ValidationFailure, is_realizable, reconstruct
from .perm import (Permutation, identity, longest_decreasing_subsequence, longest_element,
                   ltr_maxima, unrank)

T = TypeVar("T")

# the largest n of the per-permutation checks, whatever --max-n says above it:
# verify --max-n 8 --jobs 2 took 22-25 s on 2 cores; S_9 has 9 times as many permutations
MAX_PASS_N = 8
# the most permutations in one shared block, exhaustive or sampled
_BLOCK = 2000

# the largest --sampled-n size: the sweep's tables per sample grow as n^2 (one
# sample took 5.2 s and 138 MB max RSS at n = 1000, 24 s and 451 MB at 2000)
MAX_SAMPLED_N = 2000

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
    """What a verify run examines.  max_n bounds the engine's scans, and the
    per-permutation checks at min(max_n, MAX_PASS_N).  Options that would
    examine nothing, or that no check can serve, are refused here, so the CLI
    and library callers get the same one-line errors.  --samples also sizes
    the reconstruction samples, which run at any --sampled-n.  Frozen, so its
    memo never goes stale; the memo is no field, so asdict, == and replace
    ignore it."""
    max_n: int = 6
    sampled_n: tuple[int, ...] = (40,)
    samples: int = 1000
    seed: int = 0
    jobs: int | None = 1

    def __post_init__(self) -> None:
        for flag, value in (("--max-n", self.max_n), ("--samples", self.samples),
                            ("--seed", self.seed)):
            if type(value) is not int:
                raise ValueError(f"{flag} must be an integer, got {value!r}")
        if type(self.sampled_n) is not tuple or any(type(n) is not int for n in self.sampled_n):
            raise ValueError(f"--sampled-n must be a tuple of integers, got {self.sampled_n!r}")
        if self.max_n < 2:
            raise ValueError(f"--max-n must be >= 2, got {self.max_n}")
        if self.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {self.samples}")
        sizes = ",".join(map(str, self.sampled_n))
        if any(n < 3 for n in self.sampled_n):
            raise ValueError(f"--sampled-n sizes must be >= 3, got {sizes}")
        if len(set(self.sampled_n)) < len(self.sampled_n):
            raise ValueError(f"--sampled-n sizes must be distinct, got {sizes}")
        if any(n > MAX_SAMPLED_N for n in self.sampled_n):
            raise ValueError(f"--sampled-n sizes must be <= {MAX_SAMPLED_N}, got {sizes}")
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


# the tags of _draw's two streams: the reconstruction samples and the sweep
_RECONSTRUCTION_TAG, _SWEEP_TAG = 103, 500
# the most samples per size of the sweep's inverse-symmetry and increment
# comparisons, all in its first block, and of reconstruction
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
# the exhaustive pass (shared by every per-permutation check)

def _top(opts: VerifyOptions) -> int:
    """The largest n of the per-permutation checks."""
    return min(opts.max_n, MAX_PASS_N)


def _exhaustive_block(args: tuple[int, int, int, int]) -> tuple[dict[str, str], list[int]]:
    """Every comparison of the per-permutation checks on count permutations
    of S_n, lexicographic ranks index * _BLOCK on: the first failure of each
    check key that fails, and each permutation's r = 1 descent set packed
    into an int, one bit per member, for the injectivity check.  Each
    ingredient is computed once per permutation, each r-th descent graph from
    its set; the union check compares it with the total and up-edge graphs,
    which stay production calls.  The checks that start at n = 2 skip S_1.
    A lone block checks only the top increment step, the insertion of n: the
    lower steps are the top steps of p's restrictions, checked at their sizes."""
    n, _, index, count = args
    failures: dict[str, str] = {}
    record = failures.setdefault  # the first failure of a key stays
    orders = range(1, max(n, 2))  # r = 1 exists in S_1 too
    turan_caps = [graphs.turan_number(r + 1, n) for r in range(1, n)]
    swaps = list(itertools.combinations(range(1, n + 1), 2))
    packed = []
    words = itertools.permutations(range(1, n + 1))  # only the block's become Permutations
    for p in map(Permutation, itertools.islice(words, index * _BLOCK, index * _BLOCK + count)):
        base = p.inversion_number()
        sets = [bruhat.strong_descent_set(p, r) for r in orders]
        members = [set(s.pairs()) for s in sets]
        descent_graphs = [graphs.LabeledGraph.from_edges(n, s.members) for s in sets]
        down, up = bruhat.down_degree(p), bruhat.up_degree(p)
        packed.append(sum(1 << (a * n + b) for a, b in sets[0].members))

        downs, ups = set(), set()
        for a, b in swaps:  # none in S_1, so the window's comparisons skip it too
            q = p.swap_values(a, b)
            delta = q.inversion_number() - base
            if delta == -1:
                downs.add(q.values)
            elif delta == 1:
                ups.add(q.values)
            if bruhat.is_cover(p, q) != (delta == -1):
                record("cover", f"is_cover({p}, {q}) disagrees with length drop {delta}")
            if delta % 2 == 0:
                record("window", f"length change {delta} of t({a},{b}) on {p} is even")
            for r in range(1, n):
                if ((a, b) in members[r - 1]) != (0 > delta > -2 * r):
                    record("window", f"t({a},{b}) on {p} at r={r}: "
                                     f"membership disagrees with length window")
        if {q.values for q in bruhat.covered_by(p)} != downs:
            record("cover", f"covered_by({p}) wrong")
        if {q.values for q in bruhat.covers_of(p)} != ups:
            record("cover", f"covers_of({p}) wrong")
        if down != len(downs) or up != len(ups):
            record("cover", f"degrees of {p} disagree with cover counts")
        if len(sets[0]) != len(downs):
            record("cover", f"descent set size of {p} disagrees with cover count")
        if up != bruhat.down_degree(Permutation(tuple(n + 1 - v for v in p.values))):
            record("complement", f"complement symmetry fails for {p}")
        try:
            if reconstruct(n, sets[0]) != p:
                record("reconstruction", f"round trip fails for {p}")
        except ValidationFailure:
            record("reconstruction", f"reconstruct refuses the descent set of {p}")
        comps = descent_graphs[0].component_count()
        gd = graphs.global_descent_count(p.reverse_positions())
        if comps != gd + 1:
            record("components", f"{p}: {comps} components vs {gd} global descents")
        if n == 1:
            continue

        for r in orders:
            via_inverse = sets[r - 1].pairs()
            direct = sorted(bruhat._rth_pairs(p.values, r))
            if len(via_inverse) != len(direct):
                record("inverse", f"degree mismatch for {p} at r={r}")
            if via_inverse != direct:
                record("inverse", f"membership bijection fails for {p} at r={r}")
            if r > 1 and not members[r - 2] <= members[r - 1]:
                record("monotonicity", f"descents of {p} shrink from r={r - 1} to r={r}")
            if descent_graphs[r - 1].has_clique(r + 2):
                record("clique_free", f"K_{r + 2} inside the r={r} descent graph of {p}")
                if r == 1:
                    record("triangle_free", f"triangle in the descent graph of {p}")
            degree = len(direct)
            if degree > turan_caps[r - 1]:
                record("turan_bound", f"degree above the Turan bound for {p}, r={r}")
        if degree != base:  # the degree at r = n - 1
            record("top_order", f"top-order degree of {p} is not its inversion count")
        total = graphs.total_degree_graph(p)
        if total.min_degree() > n // 2 + 1:
            record("min_degree", f"all vertices of the total graph of {p} have high degree")
        up_graph = graphs.up_edge_graph(p)
        down_edges, up_edges = set(descent_graphs[0].edges()), set(up_graph.edges())
        if down_edges & up_edges:
            record("union", f"down and up edges overlap for {p}")
        if set(total.edges()) != down_edges | up_edges:
            record("union", f"total graph of {p} is not the union")
        if total.edge_count != bruhat.total_degree(p).total:
            record("union", f"edge count of the total graph of {p} is off")
        if not up_graph.is_triangle_free():
            record("union", f"up-edge graph of {p} has a triangle")
        below = bruhat.down_degree(Permutation(p.restrict_below(n)))
        if down - below != ltr_maxima(p.values[p.values.index(n) + 1:]):
            record("increment", f"increment identity fails for {p}")
    return failures, packed


def _exhaustive_pass(opts: VerifyOptions) -> dict[str, str]:
    """The first failure of each per-permutation check that fails, over
    every S_n up to _top(opts), once per run: the blocks merge in list order,
    so a check reports the first failing permutation in lexicographic order,
    n by n."""
    def merge() -> dict[str, str]:
        blocks = [block for fn, block in _shared_blocks(opts) if fn is _exhaustive_block]
        parts = _block_results(opts, _exhaustive_block)
        merged = _first_failures(failures for failures, _ in parts)
        seen: dict[tuple[int, int], int] = {}  # (n, packed set) -> rank
        for (n, _, index, _), (_, packed) in zip(blocks, parts):
            for rank, key in enumerate(packed, index * _BLOCK):
                if (n, key) in seen:
                    merged["injectivity"] = (
                        f"{unrank(n, seen[n, key])} and {unrank(n, rank)} share a descent set")
                    return merged
                seen[n, key] = rank
        return merged

    return _per_run(opts, "pass", merge)


def _passed(opts: VerifyOptions, key: str, scope: str = "", swept: bool = False
            ) -> tuple[bool, str]:
    """The exhaustive pass's verdict for key, followed for a structural
    lemma (swept) by the shared sweep's when opts.sampled_n names sizes."""
    if key in _exhaustive_pass(opts):
        return _fail(_exhaustive_pass(opts)[key])
    if not (swept and opts.sampled_n):
        return _ok(f"all of S_n for n<={_top(opts)}{scope}")
    ok, detail = _structural_samples(opts)[key]
    if not ok:
        return _fail(detail)
    return _ok(f"exhaustive n<={_top(opts)}{scope}, sampled at n in {list(opts.sampled_n)}")


def _decided_by_pass(key: str, fact: str, scope: str = "", swept: bool = False
                     ) -> Callable[[VerifyOptions], tuple[bool, str]]:
    """The check of one per-permutation fact, whose verdict _passed gives."""
    check = functools.partial(_passed, key=key, scope=scope, swept=swept)
    check.__doc__ = fact
    return check


# ---------------------------------------------------------------------------
# individual checks (each returns (passed, detail))

# the checks that the pass decides, alone or with the sampled sweep (swept)
check_cover_criterion = _decided_by_pass(
    "cover", "covered_by/covers_of/is_cover against the inversion-delta oracle.")
check_descent_window = _decided_by_pass(
    "window", "Membership in the r-th strong descent set against the inversion window "
              "0 > inv(t p) - inv(p) > -2r, all r.", ", all r")
# strong_descent_set(p) is the scan of p^-1 carried through the bijection, so
# the pass compares it with the position-order scan of p itself; the scan of
# p^-1, mapped back once more, would give back that scan whatever it held
check_inverse_symmetry = _decided_by_pass(
    "inverse", "d^(r) of p equals d^(r) of p^-1, with the membership bijection "
               "t_{a,b} <-> t_{pos(a),pos(b)}.", swept=True)
check_descent_monotonicity = _decided_by_pass(
    "monotonicity", "The r-th strong descent sets grow with r.")
check_up_down_complement = _decided_by_pass(
    "complement", "up_degree(p) equals down_degree of p with values complemented "
                  "(left multiplication by the reversal).")
check_triangle_free = _decided_by_pass(
    "triangle_free", "Strong descent graphs contain no triangle.", swept=True)
check_clique_free = _decided_by_pass(
    "clique_free", "r-th strong descent graphs contain no complete subgraph on r+2 vertices.",
    " (all r)", swept=True)
check_top_order_is_inversions = _decided_by_pass(
    "top_order", "The (n-1)-th down degree is the inversion number.", swept=True)
check_min_degree_bound = _decided_by_pass(
    "min_degree", "The total-degree graph has a vertex of degree at most floor(n/2)+1.",
    swept=True)
check_total_graph_union = _decided_by_pass(
    "union", "The total-degree graph is the edge-disjoint union of the descent graph and "
             "the up-edge graph, each triangle-free, and its edge count is the total degree.")
check_injectivity = _decided_by_pass(
    "injectivity", "No two permutations share a strong descent set.")
# the offset of 1 was calibrated by exhaustive comparison on S_3..S_5 (the
# identity in S_3 gives 3 components against 2 global descents)
check_components_vs_global_descents = _decided_by_pass(
    "components", "Components of the descent graph = global descents of the reversed word + 1.")


def check_length_is_inversion_count(opts: VerifyOptions) -> tuple[bool, str]:
    """Breadth-first search over adjacent-transposition words gives the same
    length as the inversion count."""
    top = _top(opts)
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


def check_boundary_degrees(opts: VerifyOptions) -> tuple[bool, str]:
    """Identity has down 0 / up n-1; the reversal has up 0 / down n-1."""
    for n in range(1, opts.max_n + 1):
        e, w0 = identity(n), longest_element(n)
        got = (bruhat.down_degree(e), bruhat.up_degree(e),
               bruhat.down_degree(w0), bruhat.up_degree(w0))
        if got != (0, n - 1, n - 1, 0):
            return _fail(f"boundary degrees at n={n}: {got}")
    return _ok(f"n<={opts.max_n}")


def check_turan_bound(opts: VerifyOptions) -> tuple[bool, str]:
    """d^(r) never exceeds the Turan number t_{r+1}(n), which never exceeds
    C(r+1,2) (n/(r+1))^2."""
    for n in range(2, _top(opts) + 1):
        for r in range(1, n):
            t_num = graphs.turan_number(r + 1, n)
            if t_num != graphs.turan_graph(r + 1, n).edge_count:
                return _fail(f"Turan edge count mismatch at r={r}, n={n}")
            if t_num > math.comb(r + 1, 2) * Fraction(n, r + 1) ** 2:
                return _fail(f"Turan number above the quadratic bound at r={r}, n={n}")
    return _passed(opts, "turan_bound", swept=True)


def _maximum_matches(opts: VerifyOptions, stat: str) -> tuple[bool, str]:
    """The brute-force maximum of stat over S_n against extremal's formula."""
    for n in range(2, opts.max_n + 1):
        best = _exhaustive(opts, n, stat).maximum
        if best != getattr(extremal, f"max_{stat}_degree")(n):
            return _fail(f"max {stat} degree over S_{n} is {best}")
    return _ok(f"2<=n<={opts.max_n}")


check_max_down_degree = functools.partial(_maximum_matches, stat="down")
check_max_down_degree.__doc__ = "The brute-force maximum down degree is floor(n^2/4)."
check_max_total_degree = functools.partial(_maximum_matches, stat="total")
check_max_total_degree.__doc__ = "The brute-force maximum total degree is floor(n^2/4) + n - 2."


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


def check_extremal_total_classification(opts: VerifyOptions) -> tuple[bool, str]:
    """The attaining set of the total-degree maximum is the closure of the
    two-block permutations under the three involutions, with counts
    2 / 4 / 8 / 16."""
    for n in range(2, opts.max_n + 1):
        family = extremal.extremal_total_permutations(n)
        if _exhaustive(opts, n, "total").attaining != [p.values for p in family]:
            return _fail(f"attaining set differs from the closure at n={n}")
        expected = {2: 2, 3: 4, 4: 4}.get(n, 16 if n % 2 else 8)
        if len(family) != expected:
            return _fail(f"closure size {len(family)} at n={n}, expected {expected}")
        if n == 5:
            vals = {p.values for p in family}
            if (3, 2, 5, 1, 4) not in vals or (4, 2, 5, 1, 3) not in vals:
                return _fail("expected S_5 witnesses missing from the closure")
    return _ok(f"2<=n<={opts.max_n}")


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
    left-to-right maxima: on the pass, the worked example, then the sweep."""
    # a failure of the pass is reported before one of the worked example
    if "increment" not in _exhaustive_pass(opts) and not stats.check_increment_lemma(
            Permutation(EXAMPLE_PERM)):
        return _fail("increment identity fails on the worked example")
    return _passed(opts, "increment", swept=True)


def check_ltrm_generating_function(opts: VerifyOptions) -> tuple[bool, str]:
    """Left-to-right maxima counts over S_t match the rising factorial
    coefficients, and their mean is the harmonic number."""
    for t in range(0, 8):
        counts = stats.ltrm_counts(t)
        if counts != stats.rising_factorial_coefficients(t):
            return _fail(f"generating function mismatch at t={t}")
        if t >= 1:
            total = sum(k * c for k, c in enumerate(counts))
            if Fraction(total, math.factorial(t)) != stats.harmonic(t):
                return _fail(f"mean left-to-right maxima mismatch at t={t}")
    return _ok("t<=7")


def check_reconstruction(opts: VerifyOptions) -> tuple[bool, str]:
    """Round trip permutation -> descent set -> permutation, exhaustively for
    small n and on samples at the large sizes."""
    if "reconstruction" in _exhaustive_pass(opts):
        return _fail(_exhaustive_pass(opts)["reconstruction"])
    for ok, detail in _block_results(opts, _reconstruction_block):
        if not ok:
            return _fail(detail)
    sizes = sorted({n for fn, (n, *_) in _shared_blocks(opts) if fn is _reconstruction_block})
    return _ok(f"exhaustive n<={_top(opts)}, {min(opts.samples, _RECONSTRUCTION_SAMPLES)} "
               f"samples at n in {sizes}")


def _reconstruction_block(args: tuple[int, int, int, int]) -> tuple[bool, str]:
    n, seed, index, count = args
    for p in _draw(seed, _RECONSTRUCTION_TAG, n, count, block=index):
        try:
            if reconstruct(n, bruhat.strong_descent_set(p, 1)) != p:
                return False, f"round trip fails for a sample at n={n}"
        except ValidationFailure:
            return False, f"reconstruct refuses the descent set of a sample at n={n}"
    return True, ""


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


def _structural_block(args: tuple[int, int, int, int]) -> dict[str, str]:
    import numpy as np

    n, seed, index, count = args
    turan_caps = [graphs.turan_number(r + 1, n) for r in range(1, n)]
    failures: dict[str, str] = {}
    record = failures.setdefault  # the first failure of a key stays
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

        # the first samples: the table's d^(r)(p) against the scan of p^-1, and the increment lemma
        if index == 0 and idx < _LEMMA_SAMPLES:
            q = p.inverse()
            for r in (1, 2, n // 2, n - 1):
                if degs[r - 1] != bruhat.rth_down_degree(q, r):
                    record("inverse", f"degree mismatch for a sample at n={n}, r={r}")
                    break
            if not stats.check_increment_lemma(p):
                record("increment", f"increment identity fails for a sample at n={n}")
    return failures


def _graph_from_bool(n: int, adj: np.ndarray) -> graphs.LabeledGraph:
    import numpy as np

    packed = np.packbits(adj, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    rows = tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))
    return graphs.LabeledGraph(n, rows)


def _structural_samples(opts: VerifyOptions) -> dict[str, tuple[bool, str]]:
    """Seven checks on the samples of every size in opts.sampled_n, inverse
    symmetry and the increment lemma on the first _LEMMA_SAMPLES of each;
    several checks share them, so they run once per verify run."""
    failures = _per_run(opts, "sweep", lambda: _first_failures(
        _block_results(opts, _structural_block)))
    return {key: (key not in failures, failures.get(key, ""))
            for key in (*_SWEEP_KEYS, "inverse", "increment")}


def _first_failures(parts: Iterable[dict[str, str]]) -> dict[str, str]:
    """The first failure of each key that fails in any block, in block
    order, which is size order, then block order."""
    merged: dict[str, str] = {}
    for failures in parts:
        for key, detail in failures.items():
            merged.setdefault(key, detail)
    return merged


# ---------------------------------------------------------------------------
# the blocks shared through one process pool

def _shared_blocks(opts: VerifyOptions) -> list[tuple[Callable, tuple[int, int, int, int]]]:
    """Every block of a run's shared work, as (fn, (n, seed, index, count)),
    in order of first need: the exhaustive pass over S_n for n up to
    _top(opts), the sweep at each --sampled-n size, then the reconstruction
    samples at those sizes and 20, 50, 100.  Each size is split into blocks
    of at most _BLOCK permutations, listed in size order, then block order."""
    kinds = ((_exhaustive_block, range(1, _top(opts) + 1), math.factorial),
             (_structural_block, opts.sampled_n, lambda n: opts.samples),
             (_reconstruction_block, sorted(set(opts.sampled_n) | {20, 50, 100}),
              lambda n: min(opts.samples, _RECONSTRUCTION_SAMPLES)))
    return [(fn, (n, opts.seed, index, take)) for fn, sizes, count in kinds
            for n in sizes for index, take in enumerate(block_sizes(count(n), _BLOCK))]


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
    """At jobs > 1, submit the shared blocks of this run to one pool, kind
    by kind in list order, each kind by decreasing n (costliest first), and
    leave their futures in the memo for the checks to read; the pool closes
    when the run ends, however it ends.  At one job nothing starts."""
    jobs = resolve_jobs(opts.jobs)
    if jobs == 1:
        yield
        return
    tasks = [task for _, kind in itertools.groupby(_shared_blocks(opts), key=lambda task: task[0])
             for task in sorted(kind, key=lambda task: -task[1][0])]
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
