"""Maxima of the degree statistics: closed forms, explicit extremal
families, and an exhaustive-search oracle.

The maximal down degree on S_n is floor(n^2/4), attained exactly by the
three-block permutations [t+m+1..n, t+1..t+m, 1..t] with m a half of n and
1 <= t <= n-m; there are n of them for odd n and n/2 for even n.

The maximal total degree is floor(n^2/4) + n - 2 (n >= 2), attained by the
two-block permutations [m+1..n, 1..m] and their images under reversal,
first/last entry exchange, and exchange of the values 1 and n; the orbit
has size 2, 4, 8 or 16 depending on n.

``brute_force_max`` rederives both facts by scanning all of S_n with
``stats.exhaustive``, the level-by-level insertion-tree engine, whose blocks
are subtrees merged in a fixed order, so the result does not depend on the
number of workers.  It returns ``Permutation`` objects for library callers;
``verification`` reads the engine's scan directly, so one pass per
(n, statistic) serves its maxima, classification and mean checks.
"""
from __future__ import annotations

from . import stats
from .perm import Permutation, _check_degree_cap


def max_down_degree(n: int) -> int:
    """floor(n^2/4), the largest possible number of covered elements."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return n * n // 4


def max_total_degree(n: int) -> int:
    """floor(n^2/4) + n - 2, the largest Hasse-diagram valency; needs n >= 2."""
    if n < 2:
        raise ValueError("total-degree maximum needs n >= 2")
    return n * n // 4 + n - 2


def extremal_down_permutations(n: int) -> list[Permutation]:
    """All permutations attaining the maximal down degree, sorted.

    n of them when n is odd, n/2 when n is even (n >= 2).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    _check_degree_cap(n)
    found = {
        Permutation(tuple(range(t + m + 1, n + 1)) + tuple(range(t + 1, t + m + 1))
                    + tuple(range(1, t + 1)))
        for m in {n // 2, (n + 1) // 2}
        for t in range(1, n - m + 1)
    }
    return sorted(found, key=lambda p: p.values)


def _two_block(n: int, m: int) -> Permutation:
    return Permutation(tuple(range(m + 1, n + 1)) + tuple(range(1, m + 1)))


def extremal_total_permutations(n: int) -> list[Permutation]:
    """All permutations attaining the maximal total degree, sorted.

    Computed as the closure of the two-block permutations under the three
    involutions (reversal, end-position exchange, extreme-value exchange);
    the closure is a fixed point after at most a few rounds since the
    involutions generate a group of order 8.
    """
    if n < 2:
        raise ValueError("total-degree extremals need n >= 2")
    _check_degree_cap(n)
    closure = {_two_block(n, m) for m in {n // 2, (n + 1) // 2}}
    while True:
        grown = set(closure)
        for p in closure:
            grown.add(p.reverse_positions())
            grown.add(p.exchange_end_positions())
            grown.add(p.exchange_extreme_values())
        if grown == closure:
            return sorted(closure, key=lambda p: p.values)
        closure = grown


def brute_force_max(
    n: int,
    stat: str = "down",
    r: int | None = None,
    jobs: int | None = 1,
    limit: int = stats.MAX_EXHAUSTIVE_N,
) -> tuple[int, list[Permutation]]:
    """Exact maximum of a degree statistic over S_n with all attaining
    permutations, from one ``stats.exhaustive`` scan of the insertion tree
    (only the attaining leaves are ever built).

    stat is one of 'down', 'total', 'rth' (the last needs r).  Refuses
    n > limit; raise the limit explicitly if you accept the factorial cost.
    """
    scan = stats.exhaustive(n, stat, r=r, jobs=jobs, limit=limit)
    return scan.maximum, [Permutation(w) for w in scan.attaining]
