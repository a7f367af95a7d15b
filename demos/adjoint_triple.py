#!/usr/bin/env python3
"""The reflection/coreflection sandwich around the regular presheaves.

For a regular carrier A, the inclusion i of the regular presheaves into
all presheaves has a left adjoint j (act with the hom matrix) which in
turn has a right adjoint k (lift against the hom matrix).  The three
hom equalities below are checked on every pair drawn from a small
instance, and the image of k is exactly the set of Yoneda presheaves.
"""

from qsemicat import (
    builtin_quantaloid,
    enumerate_presheaves,
    is_regular_presheaf,
    is_yoneda_presheaf,
    map_j,
    map_k,
    presheaf_hom_elem,
    validate_semicategory,
)

NAME = {0: "0", 1: "e", 2: "1"}

q3 = builtin_quantaloid("3")
A = validate_semicategory(q3, [("*", "*")], {("*", "*"): 1})

pool = enumerate_presheaves(A, "*")
regular = [p for p in pool if is_regular_presheaf(p)]

print("j reflects every presheaf onto a regular one:")
for p in pool:
    print(f"  j({NAME[p.values[0]]}) = {NAME[map_j(A, p).values[0]]}")

print("\nk coreflects the regular presheaves into the Yoneda ones:")
for t in regular:
    print(f"  k({NAME[t.values[0]]}) = {NAME[map_k(A, t).values[0]]}")

yoneda_set = {p for p in pool if is_yoneda_presheaf(p)}
image = {map_k(A, t) for t in regular}
print(f"\nimage of k = Yoneda presheaves: {image == yoneda_set}")

ok_ij = all(
    presheaf_hom_elem(phi, psi) == presheaf_hom_elem(phi, map_j(A, psi))
    for phi in regular
    for psi in pool
)
ok_jk = all(
    presheaf_hom_elem(map_j(A, psi), theta) == presheaf_hom_elem(psi, map_k(A, theta))
    for psi in pool
    for theta in regular
)
ok_ff = all(
    presheaf_hom_elem(t1, t2) == presheaf_hom_elem(map_k(A, t1), map_k(A, t2))
    for t1 in regular
    for t2 in regular
)
print(f"hom equality for i -| j: {ok_ij}")
print(f"hom equality for j -| k: {ok_jk}")
print(f"k is fully faithful:     {ok_ff}")
