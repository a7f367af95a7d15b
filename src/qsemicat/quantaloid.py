"""Finite quantaloids.

A quantaloid here is a finite set of objects, a sup-lattice of arrows for
every ordered pair of objects, a composition table that preserves joins in
each argument, and identity arrows.  Lifting is computed by exhaustive
maximisation over the finite homs; those values are the reference point for
every lifting formula further up the library.  Extension is the lifting of
the dual quantaloid.
"""

from __future__ import annotations

from itertools import chain
from operator import eq, getitem
from typing import NamedTuple

from .errors import (
    AssocFailure,
    NotAFrame,
    NotSupPreserving,
    TypeMismatch,
    UnitFailure,
)
from .lattice import SupLattice, named_lattice


class QArrow(NamedTuple):
    """An arrow of a quantaloid: an element of the hom-lattice hom(dom, cod)."""

    dom: str
    cod: str
    elem: int


class Quantaloid:
    """A validated finite quantaloid.  Use :func:`validate_quantaloid` to build one."""

    __slots__ = (
        "objects",
        "hom",
        "compose_table",
        "identity",
        "_lift",
        "_op",
        "_compose_plans",
        "_lift_plans",
    )

    def __init__(self, objects, hom, compose_table, identity):
        self.objects = objects
        self.hom = hom
        self.compose_table = compose_table
        self.identity = identity
        self._lift = {}
        self._op = None
        # tables per (dom, cod, middle types), read by the matrix kernels
        self._compose_plans = {}
        self._lift_plans = {}

    def op(self) -> Quantaloid:
        """The dual quantaloid: hom^op(x, y) = hom(y, x), and g∘f there is f∘g here.

        Built once and cached; it shares the hom-lattices with this one, and
        its own dual is this quantaloid again.
        """
        if self._op is None:
            self._op = Quantaloid(
                self.objects,
                {(y, x): lat for (x, y), lat in self.hom.items()},
                {(z, y, x): tuple(zip(*t)) for (x, y, z), t in self.compose_table.items()},
                self.identity,
            )
            self._op._op = self
        return self._op

    # -- raw element-level operations ------------------------------------

    def hom_lat(self, x, y) -> SupLattice:
        try:
            return self.hom[(x, y)]
        except KeyError:
            raise TypeMismatch(f"no hom-lattice for ({x!r}, {y!r})", witness=(x, y)) from None

    def compose_elems(self, x, y, z, g: int, f: int) -> int:
        """Composite g∘f of f in hom(x,y) followed by g in hom(y,z)."""
        return self.compose_table[(x, y, z)][g][f]

    def lifting_elem(self, x, y, z, c: int, b: int) -> int:
        """Largest d in hom(x,y) with c∘d <= b, for c in hom(y,z), b in hom(x,z)."""
        return self._lift_table(x, y, z)[c][b]

    def extension_elem(self, x, y, z, c: int, b: int) -> int:
        """Largest d in hom(y,z) with d∘c <= b, for c in hom(x,y), b in hom(x,z).

        This is the lifting of the dual quantaloid.
        """
        return self.op()._lift_table(z, y, x)[c][b]

    def _lift_table(self, x, y, z):
        key = (x, y, z)
        table = self._lift.get(key)
        if table is None:
            lyz, lxz, lxy = self.hom[(y, z)], self.hom[(x, z)], self.hom[(x, y)]
            comp = self.compose_table[(x, y, z)]
            table = tuple(
                tuple(
                    lxy.join(d for d in range(lxy.size) if lxz.le(comp[c][d], b))
                    for b in range(lxz.size)
                )
                for c in range(lyz.size)
            )
            self._lift[key] = table
        return table

    # -- arrow-level interface --------------------------------------------

    def arrow(self, x, y, elem: int) -> QArrow:
        lat = self.hom_lat(x, y)
        if not 0 <= elem < lat.size:
            raise TypeMismatch(
                f"element {elem} out of range for hom({x!r}, {y!r})", witness=(x, y, elem)
            )
        return QArrow(x, y, elem)

    def arrows(self, x, y):
        return [QArrow(x, y, e) for e in range(self.hom_lat(x, y).size)]

    def id_arrow(self, x) -> QArrow:
        return QArrow(x, x, self.identity[x])

    def bottom_arrow(self, x, y) -> QArrow:
        return QArrow(x, y, self.hom_lat(x, y).bottom)

    def top_arrow(self, x, y) -> QArrow:
        return QArrow(x, y, self.hom_lat(x, y).top)

    def compose(self, g: QArrow, f: QArrow) -> QArrow:
        if g.dom != f.cod:
            raise TypeMismatch(f"cannot compose {g} after {f}", witness=(g, f))
        return QArrow(f.dom, g.cod, self.compose_elems(f.dom, f.cod, g.cod, g.elem, f.elem))

    def leq(self, a: QArrow, b: QArrow) -> bool:
        if (a.dom, a.cod) != (b.dom, b.cod):
            raise TypeMismatch(f"cannot compare {a} with {b}", witness=(a, b))
        return self.hom_lat(a.dom, a.cod).le(a.elem, b.elem)

    def join_arrows(self, arrows, dom=None, cod=None) -> QArrow:
        arrows = list(arrows)
        if not arrows:
            if dom is None or cod is None:
                raise TypeMismatch("empty join needs explicit dom and cod")
            return self.bottom_arrow(dom, cod)
        dom, cod = arrows[0].dom, arrows[0].cod
        if any((a.dom, a.cod) != (dom, cod) for a in arrows):
            raise TypeMismatch("join of arrows with different endpoints", witness=arrows)
        return QArrow(dom, cod, self.hom_lat(dom, cod).join(a.elem for a in arrows))

    def meet_arrows(self, arrows, dom=None, cod=None) -> QArrow:
        arrows = list(arrows)
        if not arrows:
            if dom is None or cod is None:
                raise TypeMismatch("empty meet needs explicit dom and cod")
            return self.top_arrow(dom, cod)
        dom, cod = arrows[0].dom, arrows[0].cod
        if any((a.dom, a.cod) != (dom, cod) for a in arrows):
            raise TypeMismatch("meet of arrows with different endpoints", witness=arrows)
        return QArrow(dom, cod, self.hom_lat(dom, cod).meet(a.elem for a in arrows))

    def lifting(self, c: QArrow, b: QArrow) -> QArrow:
        """Largest d with c∘d <= b.  Requires cod(c) = cod(b)."""
        if c.cod != b.cod:
            raise TypeMismatch(f"lifting needs a common codomain: {c}, {b}", witness=(c, b))
        return QArrow(b.dom, c.dom, self.lifting_elem(b.dom, c.dom, c.cod, c.elem, b.elem))

    def extension(self, c: QArrow, b: QArrow) -> QArrow:
        """Largest d with d∘c <= b.  Requires dom(c) = dom(b)."""
        if c.dom != b.dom:
            raise TypeMismatch(f"extension needs a common domain: {c}, {b}", witness=(c, b))
        return QArrow(c.cod, b.cod, self.extension_elem(c.dom, c.cod, b.cod, c.elem, b.elem))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Quantaloid):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.hom == other.hom
            and self.compose_table == other.compose_table
            and self.identity == other.identity
        )

    def __repr__(self):
        return f"Quantaloid(objects={list(self.objects)})"


def validate_quantaloid(objects, homs, compose, identities) -> Quantaloid:
    """Check the quantaloid axioms on explicit tables.

    ``objects`` is a sequence of names, ``homs`` maps object pairs to
    validated sup-lattices, ``compose`` maps object triples (x, y, z) to a
    table ``t[g][f]`` for f in hom(x,y) and g in hom(y,z), and ``identities``
    maps each object to an element of its endo-hom.

    The unit laws, preservation of bottom and binary joins in each argument,
    and associativity are all verified.  The unit laws are checked element
    by element.  The other axioms are decided by :func:`_axioms_hold`, and
    only when that fails do the exhaustive loops run, to raise the first
    failure in their order with its witness.
    """
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise TypeMismatch("duplicate object names", witness=objects)

    homs = dict(homs)
    for x in objects:
        for y in objects:
            if (x, y) not in homs:
                raise TypeMismatch(f"missing hom-lattice ({x!r}, {y!r})", witness=(x, y))

    tables = {}
    for x in objects:
        for y in objects:
            for z in objects:
                key = (x, y, z)
                if key not in compose:
                    raise TypeMismatch(f"missing composition table {key}", witness=key)
                nf, ng, nr = homs[(x, y)].size, homs[(y, z)].size, homs[(x, z)].size
                raw = compose[key]
                # whole rows at a time; every hom has at least its bottom, so no row is empty
                if len(raw) != ng or any(map(nf.__ne__, map(len, raw))):
                    raise TypeMismatch(f"composition table {key} has wrong shape", witness=key)
                if min(map(min, raw)) < 0 or max(map(max, raw)) >= nr:
                    raise TypeMismatch(f"composition table {key} has out-of-range entries", witness=key)
                tables[key] = tuple(map(tuple, raw))

    idents = {}
    for x in objects:
        if x not in identities:
            raise TypeMismatch(f"missing identity for {x!r}", witness=x)
        e = identities[x]
        if not 0 <= e < homs[(x, x)].size:
            raise TypeMismatch(f"identity for {x!r} out of range", witness=x)
        idents[x] = e

    q = Quantaloid(objects, homs, tables, idents)

    for x in objects:
        for y in objects:
            nf = homs[(x, y)].size
            for f in range(nf):
                if tables[(x, y, y)][idents[y]][f] != f:
                    raise UnitFailure(
                        f"id_{y!r} ∘ f != f for f={f} in hom({x!r},{y!r})",
                        witness=QArrow(x, y, f),
                    )
                if tables[(x, x, y)][f][idents[x]] != f:
                    raise UnitFailure(
                        f"f ∘ id_{x!r} != f for f={f} in hom({x!r},{y!r})",
                        witness=QArrow(x, y, f),
                    )

    if not _axioms_hold(objects, homs, tables):
        _check_axioms_exhaustively(objects, homs, tables)
    return q


def _join_plans(lat: SupLattice):
    """For each join-irreducible a of ``lat``: a, the elements b other than
    ⊥ and a, and the joins a∨b, in the same order."""
    plans = []
    for a in lat.join_irreducibles:
        bs = tuple(b for b in range(lat.size) if b != lat.bottom and b != a)
        plans.append((a, bs, tuple(map(lat._join2[a].__getitem__, bs))))
    return tuple(plans)


def _preserves_joins(table, lxy, lyz, lxz, plans_xy, plans_yz) -> bool:
    """True iff ``table[g][f]`` preserves bottom and binary joins in f and in g.

    ``plans_xy`` and ``plans_yz`` are the :func:`_join_plans` of ``lxy`` and
    ``lyz``.

    Each line, a row g∘- or a column -∘f, is checked only at join-irreducible
    arguments, and the columns all at once on whole rows of the table:

    * A line that sends ⊥ to ⊥ and satisfies line(a∨b) = line(a)∨line(b)
      for every join-irreducible a and every b preserves all binary joins.
      Write c = a₁∨…∨aₖ (k = 0 for c = ⊥); by induction on k,
      line(c∨b) = line(a₁)∨…∨line(aₖ)∨line(b), and the case b = ⊥ with
      line(⊥) = ⊥ gives line(c) = line(a₁)∨…∨line(aₖ).
    * The cases b = ⊥ and b = a hold for every line that sends ⊥ to ⊥:
      line(a∨⊥) = line(a) = line(a)∨⊥ and line(a∨a) = line(a)∨line(a).
      So only the pairs of :func:`_join_plans` are compared.
    * Every column sends ⊥ to ⊥ iff row ⊥ of the table is all bottom, and
      every column satisfies the law at (a, b) iff row a∨b is the entrywise
      join of rows a and b.
    * Once every column -∘f preserves ⊥ and binary joins, only the rows
      g∘- of join-irreducible g need checking.  Write g = ∨gᵢ over the
      join-irreducibles below it; column additivity gives g∘f = ∨(gᵢ∘f) for
      every f, so g∘- is the pointwise join of the gᵢ∘- (constantly ⊥ for
      g = ⊥) and inherits ⊥ and join preservation from them.

    So the answer is exactly that of checking every row, every column and
    every pair of elements.
    """
    bottom, join = lxz.bottom, lxz._join2
    if any(map(bottom.__ne__, table[lyz.bottom])):
        return False
    for a, bs, joins in plans_yz:
        join_a = list(map(join.__getitem__, table[a]))
        for b, ab in zip(bs, joins):
            # (a∨b)∘f == a∘f ∨ b∘f for every f
            if not all(map(eq, table[ab], map(getitem, join_a, table[b]))):
                return False
    f_bottom = lxy.bottom
    for g in lyz.join_irreducibles:
        line = table[g]
        if line[f_bottom] != bottom:
            return False
        at = line.__getitem__
        for a, bs, joins in plans_xy:
            # g∘(a∨b) == g∘a ∨ g∘b for every b
            if not all(map(eq, map(at, joins), map(join[line[a]].__getitem__, map(at, bs)))):
                return False
    return True


def _axioms_hold(objects, homs, tables) -> bool:
    """Decide sup-preservation and associativity without naming a witness.

    Composition is first checked to preserve bottom and binary joins in each
    argument (:func:`_preserves_joins`).  Then it preserves all finite
    joins, and since every element is the join of the join-irreducibles
    below it, h∘(g∘f) = (h∘g)∘f needs checking only for join-irreducible h,
    g and f: for h = ∨hᵢ and g = ∨gⱼ both sides are ∨ᵢⱼ of the composites
    of hᵢ and gⱼ with f, and both are ⊥ for an empty join.  For fixed h and
    g, both f ↦ h∘(g∘f) and f ↦ (h∘g)∘f are composites of rows, so they
    preserve ⊥ and binary joins, and two such maps agree everywhere iff
    they agree at the join-irreducible f.

    f runs over the join-irreducibles of every hom(x, y) at once.  For
    objects y, z and g in hom(y, z), the precomposition map f ↦ g∘f is a
    flat tuple over the disjoint union ⊔ₓ hom(x, y), hom(x, y) starting at
    offset (x, y), whose values are positions in ⊔ₓ hom(x, z).  Then
    h∘(g∘f) is the full flat map of h read at the values of g's map, and
    (h∘g)∘f the map of h∘g, both in ⊔ₓ hom(x, w); the maps of g and h∘g are
    kept at the join-irreducible f only.  The maps are built when first
    needed.  The answer is exactly that of :func:`_check_axioms_exhaustively`.
    """
    plans = {key: _join_plans(lat) for key, lat in homs.items()}
    for x in objects:
        for y in objects:
            lxy = homs[(x, y)]
            for z in objects:
                if not _preserves_joins(
                    tables[(x, y, z)], lxy, homs[(y, z)], homs[(x, z)], plans[(x, y)], plans[(y, z)]
                ):
                    return False

    offset = {}
    for y in objects:
        start = 0
        for x in objects:
            offset[(x, y)] = start
            start += homs[(x, y)].size
    irr = {key: lat.join_irreducibles for key, lat in homs.items()}
    flat = {}

    def after(y, z, g, at_irr):
        key = (y, z, g, at_irr)
        line = flat.get(key)
        if line is None:
            parts = []
            for x in objects:
                row = tables[(x, y, z)][g]
                if at_irr:
                    row = map(row.__getitem__, irr[(x, y)])
                parts.append(map(offset[(x, z)].__add__, row))
            line = flat[key] = tuple(chain.from_iterable(parts))
        return line

    for y in objects:
        if not any(irr[(x, y)] for x in objects):
            continue
        for z in objects:
            gs = irr[(y, z)]
            if not gs:
                continue
            for w in objects:
                tyzw = tables[(y, z, w)]
                for h in irr[(z, w)]:
                    h_after, h_row = after(z, w, h, False).__getitem__, tyzw[h]
                    for g in gs:
                        # h∘(g∘f) == (h∘g)∘f for every join-irreducible f into y
                        if not all(
                            map(eq, map(h_after, after(y, z, g, True)), after(y, w, h_row[g], True))
                        ):
                            return False
    return True


def _check_axioms_exhaustively(objects, homs, tables) -> None:
    """Walk every element triple and raise on the first axiom that fails.

    Associativity comes first, then bottom and binary joins in each
    argument.  This is the reference the fast path agrees with, and the
    source of the witness when it does not pass.
    """
    for x in objects:
        for y in objects:
            for z in objects:
                for w in objects:
                    txy, tyz, tzw = homs[(x, y)], homs[(y, z)], homs[(z, w)]
                    for f in range(txy.size):
                        for g in range(tyz.size):
                            gf = tables[(x, y, z)][g][f]
                            for h in range(tzw.size):
                                hg = tables[(y, z, w)][h][g]
                                if tables[(x, z, w)][h][gf] != tables[(x, y, w)][hg][f]:
                                    raise AssocFailure(
                                        "h∘(g∘f) != (h∘g)∘f",
                                        witness=(QArrow(z, w, h), QArrow(y, z, g), QArrow(x, y, f)),
                                    )

    for x in objects:
        for y in objects:
            for z in objects:
                lxy, lyz, lxz = homs[(x, y)], homs[(y, z)], homs[(x, z)]
                table = tables[(x, y, z)]
                for g in range(lyz.size):
                    if table[g][lxy.bottom] != lxz.bottom:
                        raise NotSupPreserving(
                            "g∘⊥ != ⊥", witness=(QArrow(y, z, g), "bottom-right")
                        )
                    for f1 in range(lxy.size):
                        for f2 in range(lxy.size):
                            if table[g][lxy.join2(f1, f2)] != lxz.join2(table[g][f1], table[g][f2]):
                                raise NotSupPreserving(
                                    "g∘(f1∨f2) != g∘f1 ∨ g∘f2",
                                    witness=(QArrow(y, z, g), QArrow(x, y, f1), QArrow(x, y, f2)),
                                )
                for f in range(lxy.size):
                    if table[lyz.bottom][f] != lxz.bottom:
                        raise NotSupPreserving(
                            "⊥∘f != ⊥", witness=(QArrow(x, y, f), "bottom-left")
                        )
                    for g1 in range(lyz.size):
                        for g2 in range(lyz.size):
                            if table[lyz.join2(g1, g2)][f] != lxz.join2(table[g1][f], table[g2][f]):
                                raise NotSupPreserving(
                                    "(g1∨g2)∘f != g1∘f ∨ g2∘f",
                                    witness=(QArrow(y, z, g1), QArrow(y, z, g2), QArrow(x, y, f)),
                                )


def from_quantale(lat: SupLattice, mult, unit: int, obj: str = "*") -> Quantaloid:
    """Wrap a quantale (a sup-lattice with a multiplication) as a one-object quantaloid.

    ``mult`` is either a callable on element indices or a full table.
    """
    if callable(mult):
        table = [[mult(g, f) for f in range(lat.size)] for g in range(lat.size)]
    else:
        table = [list(row) for row in mult]
    return validate_quantaloid(
        (obj,), {(obj, obj): lat}, {(obj, obj, obj): table}, {obj: unit}
    )


def from_frame(lat: SupLattice, obj: str = "*") -> Quantaloid:
    """Wrap a frame as a one-object quantaloid with composition = meet, identity = top.

    Distributivity of binary meets over binary joins is checked first; for a
    finite lattice that is all frame-ness amounts to.
    """
    for x in range(lat.size):
        for y in range(lat.size):
            for z in range(lat.size):
                lhs = lat.meet2(x, lat.join2(y, z))
                rhs = lat.join2(lat.meet2(x, y), lat.meet2(x, z))
                if lhs != rhs:
                    raise NotAFrame(
                        f"meet does not distribute over join at ({x}, {y}, {z})",
                        witness=(x, y, z),
                    )
    return from_quantale(lat, lat.meet2, lat.top, obj=obj)


def builtin_quantaloid(name: str) -> Quantaloid:
    """Resolve a built-in quantaloid name: "2", "3", or "frame:<lattice>"."""
    if name in ("2", "3"):
        return from_frame(named_lattice(name))
    if name.startswith("frame:"):
        return from_frame(named_lattice(name[len("frame:"):]))
    raise KeyError(f"unknown built-in quantaloid {name!r}")
