"""Permutations of {1, ..., n} in one-line notation.

A permutation pi is stored as the tuple of its values [pi(1), ..., pi(n)].
All positions and values in public APIs are 1-based; ``Permutation.values``
is the raw tuple (index 0 holds pi(1)).

The module also handles "words": tuples of pairwise-distinct positive
integers that need not form an initial segment {1..k}.  Words arise as
restrictions of permutations (``restrict_below``) and are read by
``ltr_maxima`` and ``longest_decreasing_subsequence``.

Text format accepted everywhere: comma- or space-separated values with
optional surrounding brackets, e.g. ``[7,9,5,2,3,8,4,1,6]`` or
``7 9 5 2 3 8 4 1 6``.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence


# The largest n that a descent set or a graph may declare.  Reconstruction and
# graph rows allocate n-sized lists, so n is checked against this first.
MAX_DEGREE = 100_000


class InvalidPermutationError(ValueError):
    """The input sequence is not a rearrangement of {1..n}."""


def _check_degree_cap(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"degree n={n} exceeds the cap {MAX_DEGREE}")


def _parse_int(token: str) -> int:
    """An integer token of input text: ASCII digits with an optional sign.

    ``int`` alone also reads ``1_0`` and non-ASCII digits such as U+0662
    (Arabic-Indic two); a rejected token gets the message ``int`` gives.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _check_one_line(values: tuple[int, ...]) -> None:
    n = len(values)
    if n == 0:
        raise InvalidPermutationError("a permutation needs at least one value")
    seen = bytearray(n)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidPermutationError(f"value {v!r} is not an integer")
        if v < 1 or v > n:
            raise InvalidPermutationError(f"value {v} out of range 1..{n}")
        if seen[v - 1]:
            raise InvalidPermutationError(f"duplicate value {v}")
        seen[v - 1] = 1


@dataclass(frozen=True)
class Permutation:
    """An element of S_n, immutable and hashable."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        _check_one_line(self.values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __call__(self, i: int) -> int:
        """Value at 1-based position i.

        >>> Permutation((2, 3, 1))(1)
        2
        """
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.values)) + "]"

    def inverse(self) -> "Permutation":
        """The group inverse.

        >>> str(Permutation((2, 3, 1)).inverse())
        '[3,1,2]'
        """
        inv = [0] * len(self.values)
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def inversion_number(self) -> int:
        """Number of value pairs appearing in decreasing order.

        Equals the Coxeter length of the permutation with respect to the
        adjacent transpositions (verified against a breadth-first-search
        oracle in the tests).  Fenwick-tree count, O(n log n): reading from
        the right, a binary indexed tree over the values counts the smaller
        values already read; see ``_inversion_number_quadratic`` for the
        reference version.
        """
        n = len(self.values)
        tree = [0] * (n + 1)  # tree[i] counts the values read in (i - lowbit(i), i]
        inv = 0
        for v in reversed(self.values):
            i = v - 1
            while i:
                inv += tree[i]
                i &= i - 1
            i = v
            while i <= n:
                tree[i] += 1
                i += i & -i
        return inv

    def swap_values(self, a: int, b: int) -> "Permutation":
        """Exchange the values a and b in place (left multiplication by t_{a,b})."""
        pa = self.values.index(a)
        pb = self.values.index(b)
        vals = list(self.values)
        vals[pa], vals[pb] = vals[pb], vals[pa]
        return Permutation(tuple(vals))

    def swap_positions(self, i: int, j: int) -> "Permutation":
        """Exchange the entries at 1-based positions i and j (right multiplication)."""
        vals = list(self.values)
        vals[i - 1], vals[j - 1] = vals[j - 1], vals[i - 1]
        return Permutation(tuple(vals))

    def reverse_positions(self) -> "Permutation":
        """[pi(n), ..., pi(1)].

        >>> str(Permutation((3, 4, 1, 2)).reverse_positions())
        '[2,1,4,3]'
        """
        return Permutation(tuple(reversed(self.values)))

    def exchange_end_positions(self) -> "Permutation":
        """Swap the first and last entries; needs n >= 2."""
        if len(self.values) < 2:
            raise ValueError("exchange_end_positions needs n >= 2")
        return self.swap_positions(1, len(self.values))

    def exchange_extreme_values(self) -> "Permutation":
        """Swap the values 1 and n; needs n >= 2."""
        if len(self.values) < 2:
            raise ValueError("exchange_extreme_values needs n >= 2")
        return self.swap_values(1, len(self.values))

    def restrict_below(self, i: int) -> tuple[int, ...]:
        """Subsequence of values strictly less than i, in original order.

        Valid for 2 <= i <= n+1; the result is a word on {1..i-1}.

        >>> Permutation((6, 1, 4, 8, 3, 2, 5, 9, 7)).restrict_below(7)
        (6, 1, 4, 3, 2, 5)
        """
        if not 2 <= i <= len(self.values) + 1:
            raise ValueError(f"restriction bound {i} out of range 2..{len(self.values) + 1}")
        return tuple(v for v in self.values if v < i)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation [n, n-1, ..., 1]."""
    return Permutation(tuple(range(n, 0, -1)))


def apply_transposition_left(t: tuple[int, int], p: Permutation) -> Permutation:
    """t_{a,b} * p for a pair t = (a, b): p with values a and b exchanged."""
    a, b = t
    if not (1 <= a <= p.n and 1 <= b <= p.n):
        raise ValueError(f"transposition {t} does not fit in S_{p.n}")
    return p.swap_values(a, b)


def parse_permutation(text: str) -> Permutation:
    """Parse the text format (optional brackets, comma or space separated)."""
    stripped = text.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    tokens = stripped.replace(",", " ").split()
    if not tokens:
        raise InvalidPermutationError(f"no values found in {text!r}")
    values = []
    for tok in tokens:
        try:
            values.append(_parse_int(tok))
        except ValueError:
            raise InvalidPermutationError(f"invalid value {tok!r}") from None
    return Permutation(tuple(values))


# ---------------------------------------------------------------------------
# inversions

def _inversion_number_quadratic(vals: Sequence[int]) -> int:
    # reference implementation, kept as the oracle for the Fenwick-tree count
    n = len(vals)
    return sum(1 for i in range(n) for k in range(i + 1, n) if vals[i] > vals[k])


# ---------------------------------------------------------------------------
# words

def ltr_maxima(word: Sequence[int]) -> int:
    """Number of left-to-right maxima (positions whose value beats every earlier one)."""
    count = 0
    best = 0
    for v in word:
        if v > best:
            count += 1
            best = v
    return count


def longest_decreasing_subsequence(p: Permutation | Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence of values.

    Patience sorting, O(n log n): ``tails[k]`` is minus the largest value
    that ends a decreasing subsequence of length k + 1 so far, an increasing
    list that each value updates in one binary search.

    >>> longest_decreasing_subsequence(Permutation((3, 4, 1, 2)))
    2
    """
    vals = p.values if isinstance(p, Permutation) else p
    tails: list[int] = []
    for v in vals:
        k = bisect_left(tails, -v)
        if k == len(tails):
            tails.append(-v)
        else:
            tails[k] = -v
    return len(tails)


# ---------------------------------------------------------------------------
# enumeration and ranking

def iter_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic order of one-line notation."""
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def rank(p: Permutation) -> int:
    """Lexicographic rank of p among S_n, from 0 to n!-1 (Lehmer code)."""
    vals = p.values
    n = len(vals)
    r = 0
    fact = math.factorial(n - 1) if n else 1
    remaining = sorted(vals)
    for i, v in enumerate(vals):
        d = remaining.index(v)
        r += d * fact
        remaining.pop(d)
        if i < n - 1:
            fact //= n - 1 - i
    return r


def unrank(n: int, k: int) -> Permutation:
    """Inverse of ``rank``: the k-th permutation of S_n in lexicographic order.

    >>> str(unrank(3, 5))
    '[3,2,1]'
    """
    total = math.factorial(n)
    if not 0 <= k < total:
        raise ValueError(f"rank {k} out of range 0..{total - 1} for S_{n}")
    remaining = list(range(1, n + 1))
    vals = []
    fact = total // n if n else 1
    for i in range(n):
        d, k = divmod(k, fact)
        vals.append(remaining.pop(d))
        if i < n - 1:
            fact //= n - 1 - i
    return Permutation(tuple(vals))
