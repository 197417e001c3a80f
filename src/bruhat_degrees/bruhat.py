"""Cover relations and degree statistics of the strong Bruhat order on S_n.

A permutation p covers q exactly when q = t_{a,b} * p for some values a < b
such that b appears before a in p and no position between them holds a value
strictly between a and b.  Equivalently, left multiplication by t_{a,b}
drops the inversion number by exactly 1.

The r-th strong descent set generalizes this: t_{a,b} is an r-th strong
descent of p when b appears before a and fewer than r of the positions
strictly between them hold values strictly between a and b; equivalently
0 > inv(t_{a,b} p) - inv(p) > -2r.  The r = 1 case gives the covers, and
r = n-1 gives all inversions.

The covers and up-edges come from one right-to-left sweep,
``_cover_pairs_word`` (after Guting, Nurmi and Ottmann, J. Algorithms 10,
1989): n bisects and list inserts, then one step per pair, and a random word
has (n+1)H_n - 2n covers.  A one-sided call (``down_degree``) on a word with
about n^2/4 pairs on the other side pays for those too.  The r-th strong
descents come from one O(n^2) walk, ``_descent_pairs_word``: from each start
b it holds the r largest letters below b seen so far; a later letter a < b
counts exactly when fewer than r are held or a lies above the least of them,
and the walk stops once it holds b-r..b-1.  At r = 1 it is the sweep's test
oracle; ``length_change`` and the prefix-sum table ``between_counts`` are
independent oracles too.

``strong_descent_set`` runs the same routes on the inverse word instead.  A
pair (x, y) of p^-1 maps to the member (p(y), p(x)) of p, a plain pair, and
since both routes list their starts left to right and, from each start, the
other letter left to right, the members come out sorted by (a, b) with no
sort.  The degrees and ``covered_by`` read p itself, so the two routes check
each other.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heapreplace
from operator import lt
from typing import Iterable, Iterator, Sequence

from .perm import Permutation, _check_degree_cap, _parse_int, apply_transposition_left


@dataclass(frozen=True)
class DegreeProfile:
    """Down, up and total valency of a permutation in the Hasse diagram."""

    down: int
    up: int

    @property
    def total(self) -> int:
        return self.down + self.up


@dataclass(frozen=True)
class StrongDescentSet:
    """The r-th strong descent set of a permutation of degree n.

    ``members`` holds (a, b) int pairs, a < b, sorted and free of repeats,
    so that serialized output is deterministic.  ``strong_descent_set``
    builds it in that order; members given in any other order are sorted
    and deduplicated on entry.  This is the only check
    of a member: the parsers and ``is_realizable`` just orient their pairs.
    """

    n: int
    r: int
    members: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got n={self.n}")
        _check_degree_cap(self.n)
        _check_order(self.n, self.r)
        n = self.n
        members = tuple(self.members)
        for t in members:
            if not isinstance(t, tuple) or len(t) != 2:
                raise ValueError(f"member {t!r} is not an (a, b) pair")
            a, b = t
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"member {t!r} has an endpoint that is not an integer")
            if not 1 <= a < b <= n:
                raise ValueError(f"member {t} out of range for n={n}")
        # strictly increasing means sorted and free of repeats
        if not all(map(lt, members, members[1:])):
            members = tuple(sorted(set(members)))
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.members)

    def __contains__(self, t: object) -> bool:
        return t in self.members

    def pairs(self) -> list[tuple[int, int]]:
        return list(self.members)

    def to_text(self) -> str:
        return " ".join(f"t({a},{b})" for a, b in self.members)

    @classmethod
    def from_text(cls, n: int, r: int, text: str) -> "StrongDescentSet":
        members = []
        for token in text.split():
            # the wrong brackets, the wrong arity and a field that is no
            # integer all name the token
            try:
                if not (token.startswith("t(") and token.endswith(")")):
                    raise ValueError
                a, b = map(_parse_int, token[2:-1].split(","))
            except ValueError:
                raise ValueError(f"bad transposition token {token!r}") from None
            members.append((a, b))
        return cls(n, r, _oriented(members))

    def to_json(self) -> str:
        payload = {"n": self.n, "r": self.r, "members": [[a, b] for a, b in self.members]}
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "StrongDescentSet":
        (n, r), pairs = _json_fields(text, ("n", "r"), "members")
        return cls(n, r, _oriented(pairs))


def _oriented(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """User-given pairs as plain (min, max) tuples, for StrongDescentSet to check."""
    return tuple((a, b) if a < b else (b, a) for a, b in pairs)


def _json_fields(text: str, ints: tuple[str, ...], pairs: str
                 ) -> tuple[list[int], list[tuple[int, int]]]:
    """The integer fields and the list of integer pairs of a JSON object.

    Anything else (a missing key, a member that is not a pair, a float or a
    bool where an integer belongs) raises ValueError.
    """
    payload = json.loads(text)
    keys = (*ints, pairs)
    if not isinstance(payload, dict) or any(key not in payload for key in keys):
        raise ValueError(f"expected a JSON object with the keys {', '.join(keys)}")
    items = payload[pairs]
    if not isinstance(items, list) or not all(
            isinstance(item, list) and len(item) == 2 for item in items):
        raise ValueError(f"{pairs!r} must be a list of [a, b] pairs")
    for value in [payload[key] for key in ints] + [v for item in items for v in item]:
        if type(value) is not int:
            raise ValueError(f"expected an integer, got {value!r}")
    return [payload[key] for key in ints], [(a, b) for a, b in items]


# ---------------------------------------------------------------------------
# word-level routes (tuples of values, no wrapper objects): the cover sweep and the r-th walk

def _cover_pairs_word(w: Sequence[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The covers (a, b) of w and its up-edges (a, b), in walk order: by the
    position of b (resp. a), then by the position of the other letter.

    ``seen`` holds the letters read so far, sorted; of those, ``lo[v]`` is the
    largest below v and ``hi[v]`` the smallest above v that sit left of v.
    The covers of a new start b are its predecessor in ``seen``, that letter's
    ``lo``, and so on; its up-edges are its successor, that letter's ``hi``,
    and so on.  Each step points the other letter's opposite link at b.
    """
    n = len(w)
    seen: list[int] = []
    lo, hi = [0] * (n + 1), [0] * (n + 1)
    down, up = [], []
    for i in range(n - 1, -1, -1):
        b = w[i]
        j = bisect_left(seen, b)
        if j:
            e = seen[j - 1]
            while e:
                down.append((e, b))
                hi[e] = b
                e = lo[e]
        if j < len(seen):
            f = seen[j]
            while f:
                up.append((b, f))
                lo[f] = b
                f = hi[f]
        seen.insert(j, b)
    # the starts ran right to left, each chain against walk order
    down.reverse()
    up.reverse()
    return down, up


def _down_pairs_word(w: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (a, b) with t_{a,b} a strong descent (r = 1)."""
    return _cover_pairs_word(w)[0]


def _up_pairs_word(w: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, with inv(t_{a,b} w) = inv(w) + 1."""
    return _cover_pairs_word(w)[1]


def _descent_pairs_word(w: Sequence[int], r: int) -> list[tuple[int, int]]:
    """Pairs (a, b) in the r-th strong descent set, top-r scan.

    From each start b, ``top`` holds the at most r largest letters below b
    seen so far, a min-heap once it holds r.  A later letter a has fewer
    than r of them in (a, b) exactly when ``floor < a < b``, where ``floor``
    is 0 until r letters are held and ``top[0]`` after.  Only such a letter
    enters ``top``, and once ``floor`` reaches b - r, ``top`` is b-r..b-1
    and no later letter counts, so the walk stops.
    """
    n = len(w)
    out = []
    for i in range(n - 1):
        b = w[i]
        if b == 1:
            continue
        stop = b - r
        top: list[int] = []
        floor = 0
        for k in range(i + 1, n):
            a = w[k]
            if floor < a < b:
                out.append((a, b))
                if floor:
                    heapreplace(top, a)
                else:
                    top.append(a)
                    if len(top) < r:
                        continue
                    heapify(top)
                floor = top[0]
                if floor == stop:
                    break
    return out


# ---------------------------------------------------------------------------
# prefix-sum oracle

def between_counts(p: Permutation | Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """For every value pair, the number of strictly-between values positioned
    strictly between them.

    Returns ``(counts, pos)`` where ``counts[a-1, b-1]`` (valid for a < b,
    regardless of which appears first) is the between count and ``pos[v]``
    is the 0-based position of value v.  Built from a 2-D prefix-sum table,
    O(n^2) time and space.
    """
    import numpy as np

    vals = np.asarray(p.values if isinstance(p, Permutation) else p, dtype=np.int64)
    n = len(vals)
    pos = np.zeros(n + 1, dtype=np.int64)
    pos[vals] = np.arange(n)
    onehot = np.zeros((n, n + 1), dtype=np.int64)
    onehot[np.arange(n), vals] = 1
    prefix = onehot.cumsum(axis=0).cumsum(axis=1)
    prefix = np.vstack([np.zeros((1, n + 1), dtype=np.int64), prefix])
    values = np.arange(1, n + 1)
    pv = pos[values]
    lo = np.minimum(pv[:, None], pv[None, :])
    hi = np.maximum(pv[:, None], pv[None, :])
    upper = (values - 1)[None, :]  # values <= b-1
    lower = values[:, None]  # values <= a
    counts = (prefix[hi, upper] - prefix[lo + 1, upper]) - (prefix[hi, lower] - prefix[lo + 1, lower])
    return counts, pos

# ---------------------------------------------------------------------------
# public operations

def length_change(t: tuple[int, int], p: Permutation) -> int:
    """inv(t_{a,b} p) - inv(p) for the pair t = (a, b); always odd.

    Independent slow path used as the oracle for every descent-set
    membership criterion.
    """
    return apply_transposition_left(t, p).inversion_number() - p.inversion_number()


def is_cover(p: Permutation, q: Permutation) -> bool:
    """True iff p covers q in the strong Bruhat order."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    diff = [i for i, (x, y) in enumerate(zip(p.values, q.values)) if x != y]
    if len(diff) != 2:
        return False
    i, k = diff
    b, a = p.values[i], p.values[k]
    if b <= a or q.values[i] != a or q.values[k] != b:
        return False
    return all(not a < p.values[j] < b for j in range(i + 1, k))


def covered_by(p: Permutation) -> list[Permutation]:
    """All q covered by p (down neighbors), sorted."""
    out = [p.swap_values(a, b) for a, b in _down_pairs_word(p.values)]
    return sorted(out, key=lambda q: q.values)


def covers_of(p: Permutation) -> list[Permutation]:
    """All q covering p (up neighbors), sorted."""
    out = [p.swap_values(a, b) for a, b in _up_pairs_word(p.values)]
    return sorted(out, key=lambda q: q.values)


def down_degree(p: Permutation) -> int:
    return len(_down_pairs_word(p.values))


def up_degree(p: Permutation) -> int:
    return len(_up_pairs_word(p.values))


def total_degree(p: Permutation) -> DegreeProfile:
    down, up = _cover_pairs_word(p.values)
    return DegreeProfile(down=len(down), up=len(up))


def strong_descent_set(p: Permutation, r: int = 1) -> StrongDescentSet:
    """The r-th strong descent set of p, members sorted by (a, b).

    The positional criterion and the length-window criterion
    (0 > length_change > -2r) agree; tests check this exhaustively.
    """
    return StrongDescentSet(n=p.n, r=r, members=_sorted_members(p, r))


def rth_down_degree(p: Permutation, r: int) -> int:
    """Cardinality of the r-th strong descent set."""
    return len(_rth_pairs(p.values, r))


def _rth_pairs(w: Sequence[int], r: int) -> list[tuple[int, int]]:
    """The r-th strong descents of the word w, in position order."""
    # at r = 1 the cover sweep lists the same pairs in the same order, output-sensitively
    _check_order(len(w), r)
    return _down_pairs_word(w) if r == 1 else _descent_pairs_word(w, r)


def _sorted_members(p: Permutation, r: int) -> tuple[tuple[int, int], ...]:
    """The r-th strong descents of p in (a, b) order, from the scan of p^-1.

    The scan of p^-1 emits (x, y) with y at position a = p(y) and x at a
    later position b = p(x), starts in increasing a and, from each start,
    walks in increasing b; t_{x,y} is a descent of p^-1 exactly when
    t_{a,b} is one of p.
    """
    vals = p.values
    inv = [0] * len(vals)
    for i, v in enumerate(vals, 1):
        inv[v - 1] = i
    at = (0, *vals)  # at[x] = p(x)
    return tuple([(at[y], at[x]) for x, y in _rth_pairs(inv, r)])


def _check_order(n: int, r: int) -> None:
    if not 1 <= r < max(n, 2):
        raise ValueError(f"order parameter r={r} out of range 1..{max(n - 1, 1)}")
