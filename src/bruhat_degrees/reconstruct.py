"""Rebuild a permutation from its strong descent set.

The strong descent set determines the permutation uniquely.  The
construction inserts values 2, 3, ..., n one at a time: when value k is
added, the members t_{a,k} of the descent set say exactly where k lands.
If no member involves k, then k goes last; otherwise k sits immediately
before the smallest such a.  (Deleting the value k from a permutation
removes precisely the members t_{a,k} from its descent set, which is why
the insertion order works.)

Not every set of transpositions is a strong descent set, and no simple
characterization is used here; the result is always validated by
recomputing its descent set, and a mismatch raises ValidationFailure.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from . import bruhat
from .bruhat import StrongDescentSet
from .perm import Permutation


class ValidationFailure(ValueError):
    """The given set is not the strong descent set of any permutation."""


def reconstruct(n: int, descents: StrongDescentSet) -> Permutation:
    """The unique permutation in S_n whose strong descent set is ``descents``.

    Raises ValidationFailure if no permutation realizes the set, and
    ValueError for a set of another n or of r != 1; ``StrongDescentSet``
    has already kept every member in range for its own n.
    """
    if descents.n != n:
        raise ValueError(f"descent set carries n={descents.n}, expected {n}")
    if descents.r != 1:
        raise ValueError(f"reconstruction needs r=1, got r={descents.r}")
    members = descents.members
    p = _build(n, members)
    if bruhat._sorted_members(p, 1) != members:
        raise ValidationFailure(
            f"set of {len(descents)} transpositions is not realizable in S_{n}")
    return p


def is_realizable(n: int, members: Iterable[tuple[int, int]]) -> bool:
    """True iff some permutation in S_n has exactly this strong descent set;
    members are (a, b) pairs in either order, checked by StrongDescentSet.
    Anything that is no such pair makes the set unrealizable."""
    try:  # a member that is no pair, or whose endpoints do not compare, fails to orient
        descents = StrongDescentSet(n=n, r=1, members=bruhat._oriented(members))
    except (TypeError, ValueError):
        return False
    try:
        reconstruct(n, descents)
    except ValidationFailure:
        return False
    return True


def _build(n: int, pairs: Sequence[tuple[int, int]]) -> Permutation:
    # smallest partner below each value, if any
    anchor = [0] * (n + 1)
    for a, b in pairs:
        if anchor[b] == 0 or a < anchor[b]:
            anchor[b] = a
    word = [1]
    for k in range(2, n + 1):
        if anchor[k] == 0:
            word.append(k)
        else:
            word.insert(word.index(anchor[k]), k)
    return Permutation(tuple(word))
