"""Independent routes that the benchmark checks the library's outputs against.

Nothing here imports ``bruhat_degrees``.  Each function re-derives its
quantity from the definition, by a route the library does not use, so a
defect in the library cannot cancel out of a check:

- descent pairs come from counting, for every inverted pair, the values that
  lie between it in both position and value (cubic, unlike the library's
  running-maximum and bisect scans);
- expectations come from summing, over value gaps, the probability that a
  pair is an r-th strong descent (the library sums harmonic numbers).
"""
from __future__ import annotations

import json
import random
from fractions import Fraction


def random_word(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform permutation of {1..n} in one-line notation, from a stdlib RNG."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def descent_pairs(w: tuple[int, ...], r: int) -> list[tuple[int, int]]:
    """Sorted pairs (a, b), a < b, with b before a and fewer than r values
    strictly between a and b positioned strictly between them."""
    n = len(w)
    out = []
    for i in range(n):
        b = w[i]
        for k in range(i + 1, n):
            a = w[k]
            if a < b and sum(1 for j in range(i + 1, k) if a < w[j] < b) < r:
                out.append((a, b))
    return sorted(out)


def up_pairs(w: tuple[int, ...]) -> list[tuple[int, int]]:
    """Sorted pairs (a, b), a < b, whose exchange adds exactly one inversion."""
    n = len(w)
    out = []
    for i in range(n):
        a = w[i]
        for k in range(i + 1, n):
            b = w[k]
            if a < b and not any(a < w[j] < b for j in range(i + 1, k)):
                out.append((a, b))
    return sorted(out)


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for k in range(i + 1, len(w)) if w[i] > w[k])


def swapped(w: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    return tuple(b if v == a else a if v == b else v for v in w)


def one_line(w: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, w)) + "]"


def expected_rth_degree(n: int, r: int) -> Fraction:
    """Mean size of the r-th strong descent set over S_n.

    A pair of values a < b with d = b - a - 1 values between them is an r-th
    strong descent when, in the relative order of the d + 2 values a..b, b
    comes first and the two sit at most r slots apart.  Of the (d+2)(d+1)
    placements of b and a, (d+2-k) have a gap of exactly k; there are
    n - 1 - d such pairs.  For r = 1 this is the expected down degree.
    """
    total = Fraction(0)
    for d in range(n - 1):
        hits = sum(d + 2 - k for k in range(1, min(r, d + 1) + 1))
        total += Fraction((n - 1 - d) * hits, (d + 2) * (d + 1))
    return total


def expected_stat(n: int, stat: str, r: int | None = None) -> Fraction:
    """Mean of 'down', 'total' (twice the down mean: up and down degrees are
    equidistributed) or 'rth' over S_n."""
    if stat == "rth":
        return expected_rth_degree(n, r)
    down = expected_rth_degree(n, 1)
    return 2 * down if stat == "total" else down


def max_down_degree(n: int) -> int:
    return n * n // 4


def max_total_degree(n: int) -> int:
    return n * n // 4 + n - 2


def perturb(n: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Add one edge that closes a triangle in the descent graph.

    Strong descent graphs (r = 1) are triangle-free, so the result is not the
    descent set of any permutation.  None when no vertex has two neighbours.
    """
    neighbours: dict[int, list[int]] = {}
    for a, b in pairs:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    for v in sorted(neighbours):
        if len(neighbours[v]) >= 2:
            u, w = sorted(neighbours[v])[:2]
            return sorted(set(pairs) | {(u, w)})
    return None


def set_json(n: int, r: int, pairs: list[tuple[int, int]]) -> str:
    """The library's descent-set interchange format."""
    return json.dumps({"n": n, "r": r, "members": [list(p) for p in pairs]},
                      separators=(",", ":"))
