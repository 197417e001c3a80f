#!/usr/bin/env python3
# Walk through the basic statistics: down/up/total degree in the Hasse
# diagram of the strong Bruhat order, and strong descent sets of every order.

from bruhat_degrees import (
    Permutation,
    covered_by,
    covers_of,
    iter_permutations,
    length_change,
    rth_down_degree,
    strong_descent_set,
    total_degree,
)

# Every permutation of S_3, with the elements it covers and is covered by.
# The down degree counts covered elements (transpositions that remove exactly
# one inversion), the up degree counts covering elements.
print("== S_3, all degrees ==")
for p in iter_permutations(3):
    profile = total_degree(p)
    below = " ".join(str(q) for q in covered_by(p)) or "-"
    above = " ".join(str(q) for q in covers_of(p)) or "-"
    print(f"{p}  down={profile.down} up={profile.up} total={profile.total}"
          f"   covered_by: {below}   covers_of: {above}")

# A 9-element example.  t(a,b) is a strong descent when b sits before a and
# no value between a and b separates them.
p = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])
print(f"\n== descent sets of {p} ==")
print("r=1:", strong_descent_set(p, 1).to_text())

# Raising the order r admits transpositions that remove up to r "blocking"
# values, i.e. drop the length by anything in (0, 2r).  At r = n-1 every
# inversion qualifies.
for r in (2, 3, 8):
    print(f"r={r}: {rth_down_degree(p, r)} members")
print("inversions:", p.inversion_number())

# The length window in action: t(2,9) removes one blocking value (5), so it
# enters at r=2; t(4,9) would have to jump two blocking values (5 and 8).
for a, b in ((2, 9), (4, 9)):
    print(f"length change of t({a},{b}):", length_change((a, b), p))
