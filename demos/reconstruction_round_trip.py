#!/usr/bin/env python3
# A permutation is pinned down by its strong descent set alone.  This demo
# rebuilds permutations from their descent sets and shows what goes wrong
# for sets no permutation realizes.

import random

from bruhat_degrees import (
    Permutation,
    is_realizable,
    reconstruct,
    strong_descent_set,
)
from bruhat_degrees.reconstruct import ValidationFailure

# Round trip on the 9-element example: descent set in, permutation out.
p = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])
descents = strong_descent_set(p, 1)
print("descent set:", descents.to_text())
print("rebuilt:", reconstruct(9, descents), "== original:", reconstruct(9, descents) == p)

# The rebuild inserts 2, 3, ..., n in turn: value k goes immediately before
# the smallest a with t(a,k) in the set, or last if no such member exists.
q = Permutation([3, 1, 4, 2])
d = strong_descent_set(q, 1)
print(f"\n{d.to_text()}  rebuilds to  {reconstruct(4, d)}")

# Not every transposition set is realizable.  Triangles never are (descent
# graphs are triangle-free), and the validation pass catches subtler cases:
# {t(1,3)} alone forces [3,1,2], but that permutation also descends by t(2,3).
print("\nrealizable {} ->", is_realizable(3, []))
print("realizable triangle ->", is_realizable(3, [(1, 2), (1, 3), (2, 3)]))
print("realizable {t(1,3)} ->", is_realizable(3, [(1, 3)]))
try:
    from bruhat_degrees.bruhat import StrongDescentSet

    reconstruct(3, StrongDescentSet(3, 1, ((1, 3),)))
except ValidationFailure as exc:
    print("validation failure, as expected:", exc)

# Random large round trips, seeded for reproducibility.
for n in (20, 100):
    perms = []
    for seed in range(5):
        vals = list(range(1, n + 1))
        random.Random(seed).shuffle(vals)
        perms.append(Permutation(vals))
    ok = all(reconstruct(n, strong_descent_set(p, 1)) == p for p in perms)
    print(f"n={n}: 5 random round trips ok: {ok}")
