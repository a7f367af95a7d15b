#!/usr/bin/env python3
"""Splitting idempotents and the matrix description of the regular calculus.

The idempotent completion of a quantaloid keeps every idempotent
endo-arrow as an object; arrows are the base arrows fixed on both sides,
and each idempotent becomes its own identity.  Applied to matrices this
recipe is exactly the calculus of regular semicategories and regular
semidistributors, which verify_rsdist_is_idm_matr confirms on a finite
instance: the regular semidistributors coincide with the matrices fixed
by the idempotent hom matrices.
"""

from qsemicat import (
    QArrow,
    build_idm,
    builtin_quantaloid,
    idm_lifting,
    split_idempotent_in_idm,
    validate_semicategory,
    verify_rsdist_is_idm_matr,
)

NAME = {0: "0", 1: "e", 2: "1"}

q3 = builtin_quantaloid("3")
idm = build_idm(q3)

print("idempotents of the three-chain quantale (all of them, meet is idempotent):")
for e in idm.objects:
    print(f"  {NAME[e.elem]}")

print("\nfixed-arrow homs of the completion:")
for e in idm.objects:
    for f in idm.objects:
        elems = idm.hom_elements[(idm.tag(e), idm.tag(f))]
        print(f"  hom({NAME[e.elem]}, {NAME[f.elem]}) = {{{', '.join(NAME[b] for b in elems)}}}")

e = QArrow("*", "*", 1)
lat, fixed = q3.hom_lat("*", "*"), idm.hom_elements[(idm.tag(e), idm.tag(e))]


def lifting_at_e(b, c):
    """The closed form g∘[c,b]∘e at (e, e, e), checked against the largest
    arrow d: e -> e with c∘d <= b, found by exhaustion."""
    d = idm_lifting(q3, e, e, e, b, c)
    assert d == lat.join(x for x in fixed if lat.le(q3.compose_elems("*", "*", "*", c, x), b))
    return d


print("\nliftings computed by the closed form (checked against exhaustion):")
print(f"  [e, e] at (e, e, e) = {NAME[lifting_at_e(1, 1)]}")
print(f"  [e, 0] at (e, e, e) = {NAME[lifting_at_e(0, 1)]}")

obj, section, retraction = split_idempotent_in_idm(q3, e, 0)
print(f"\nthe idempotent 0 on e splits through the object {NAME[obj.elem]}")

A = validate_semicategory(q3, [("*", "*")], {("*", "*"): 1})
report = verify_rsdist_is_idm_matr(A, A)
print(
    f"\nregular semidistributors = idempotent-fixed matrices: {report.ok} "
    f"({report.regular_semidistributors} of them)"
)
