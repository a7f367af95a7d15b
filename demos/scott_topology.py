#!/usr/bin/env python3
"""Scott opens and closeds as presheaves on the way-below relation.

The way-below relation of a poset is transitive and interpolative, hence
a regular semicategory over the two-element quantaloid.  Its covariant
regular presheaves are the Scott-open subsets and its contravariant Yoneda
presheaves the Scott-closed ones.  On a finite poset every directed subset
holds its join, so way-below is the order itself, opens are the up-sets
and closeds the down-sets; interpolation in general is exactly regularity
of the relation.
"""

from qsemicat import (
    has_interpolation,
    is_regular_semicat,
    scott_closeds,
    scott_opens,
    strict_order_to_semicat,
    validate_poset,
    way_below,
)

P = validate_poset(
    ["bot", "left", "right", "top"],
    [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")],
)

wb = way_below(P)
print("way-below pairs on the diamond poset (= the order, being finite):")
for x, y in sorted(wb):
    print(f"  {x} << {y}")

print("\nScott-open subsets (covariant regular presheaves):")
for s in scott_opens(P):
    print(f"  {sorted(s) or '{}'}")

print("\nScott-closed subsets (contravariant Yoneda presheaves):")
for s in scott_closeds(P):
    print(f"  {sorted(s) or '{}'}")

print("\ninterpolation = regularity, on relations without loops:")
strict = [("x", "z")]
print(f"  x < z alone interpolates: {has_interpolation(['x', 'y', 'z'], strict)}")
dense = [("x", "y"), ("y", "z"), ("x", "z")]
A = strict_order_to_semicat(["x", "y", "z"], dense)
print(
    "  x < y < z gives x < z a midpoint, but x < y has none: "
    f"interpolates = {has_interpolation(['x', 'y', 'z'], dense)}, "
    f"regular = {is_regular_semicat(A)}"
)
loops = [("x", "x"), ("x", "z"), ("z", "z")]
B = strict_order_to_semicat(["x", "z"], loops)
print(
    "  with loops every pair interpolates through an endpoint: "
    f"regular = {is_regular_semicat(B)}"
)
