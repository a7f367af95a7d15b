#!/usr/bin/env python3
"""A regular semicategory that is not Morita equivalent to any category.

Work over the three-element chain 0 < e < 1, seen as a one-object
quantaloid with composition = meet.  The semicategory A has one object
whose endo-hom is e; since e ∧ e = e it is regular, but e is not the
identity, so A is not a category.  The only one-object category C over
this base has endo-hom 1.

Counting presheaves separates them: A carries three presheaves but only
two regular ones, while every presheaf on C is regular and the three of
them are pairwise non-isomorphic.  No equivalence can match a
two-object category with a three-object one.
"""

from qsemicat import (
    build_PA,
    build_RA,
    builtin_quantaloid,
    enumerate_presheaves,
    is_regular_presheaf,
    is_yoneda_presheaf,
    morita_equivalent,
    skeleton,
    validate_semicategory,
)

NAME = {0: "0", 1: "e", 2: "1"}

q3 = builtin_quantaloid("3")
A = validate_semicategory(q3, [("*", "*")], {("*", "*"): 1})
C = validate_semicategory(q3, [("*", "*")], {("*", "*"): 2})

print("presheaves on A (one object, hom e):")
for p in enumerate_presheaves(A, "*"):
    marks = []
    if is_regular_presheaf(p):
        marks.append("regular")
    if is_yoneda_presheaf(p):
        marks.append("Yoneda")
    print(f"  value {NAME[p.values[0]]:>1}  {', '.join(marks) or '-'}")

ra = build_RA(A)
report, _ = skeleton(ra)
print(f"\nRA has {len(ra)} objects in {len(report.classes)} isomorphism classes")
print(f"  RA(e, 0) = {NAME[ra.hom[('*#1', '*#0')]]}")
print(f"  RA(0, e) = {NAME[ra.hom[('*#0', '*#1')]]}")

pc = build_PA(C)
report_c, _ = skeleton(pc)
print(f"\nPC has {len(pc)} objects in {len(report_c.classes)} isomorphism classes")

res = morita_equivalent(A, C)
print(f"\nMorita equivalent: {res.equivalent}")
print(f"  skeleton sizes {res.skeleton_sizes[0]} vs {res.skeleton_sizes[1]}")
print(f"  both decision routes agree: {res.routes_agree}")
print("\nA bigger category only has more presheaves, so no category can do it.")
