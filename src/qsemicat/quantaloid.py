"""Finite quantaloids.

A quantaloid here is a finite set of objects, a sup-lattice of arrows for
every ordered pair of objects, a composition table that preserves joins in
each argument, and identity arrows.  Lifting is computed by exhaustive
maximisation over the finite homs; those values are the reference point for
every lifting formula further up the library.  Extension is the lifting of
the dual quantaloid.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, filterfalse, product, repeat
from operator import itemgetter
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
    """An element of the hom-lattice hom(dom, cod), naming an idempotent or a witness."""

    dom: str
    cod: str
    elem: int


class Quantaloid:
    """A validated finite quantaloid, operated on by element index.

    Use :func:`validate_quantaloid` to build one.
    """

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

        Built once and cached; it shares the hom-lattices with this one, each
        table object is transposed once, and its own dual is this one again.
        """
        if self._op is None:
            distinct = {id(t): t for t in self.compose_table.values()}
            transposed = {key: tuple(zip(*t)) for key, t in distinct.items()}
            self._op = Quantaloid(
                self.objects,
                {(y, x): lat for (x, y), lat in self.hom.items()},
                {(z, y, x): transposed[id(t)] for (x, y, z), t in self.compose_table.items()},
                self.identity,
            )
            self._op._op = self
        return self._op

    # -- element-level operations ----------------------------------------

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
    maps each object to an element of its endo-hom.  An object name that is
    not hashable, and a hom that is not a :class:`SupLattice`, are refused
    with :class:`TypeMismatch`, the name or the key as witness.

    The unit laws, preservation of bottom and binary joins in each argument,
    and associativity are all verified.  Shape, range and interning are
    checked once per (table object, hom sizes), in first-key order, and the
    unit laws on whole rows.  The other axioms are decided by
    :func:`_axioms_hold`, and only when that fails do the exhaustive loops
    run, to raise the first failure in their order with its witness.  An
    entry or identity that is not an element (``e in lat``) is out of range.

    When every table is present, every identity is an element and some
    objects are interchangeable (:func:`_first_of_classes`), all of this
    runs on the first member of each class, and every key gets the
    interned table of the table it was given.
    """
    objects = tuple(objects)
    for x in objects:
        try:
            hash(x)
        except TypeError:
            raise TypeMismatch(f"object name {x!r} is not hashable", witness=x) from None
    if len(set(objects)) != len(objects):
        raise TypeMismatch("duplicate object names", witness=objects)

    homs = dict(homs)
    pairs, keys = list(product(objects, repeat=2)), list(product(objects, repeat=3))
    missing = next(filterfalse(homs.__contains__, pairs), None)
    if missing is not None:
        raise TypeMismatch(f"missing hom-lattice {missing!r}", witness=missing)
    for what, given, known in (
        ("hom-lattice", homs, set(pairs)),
        ("composition table", compose, set(keys)),
        ("identity for", identities, set(objects)),
    ):
        unknown = next(filterfalse(known.__contains__, given), None)
        if unknown is not None:
            raise TypeMismatch(f"{what} {unknown!r} names an unknown object", witness=unknown)
    odd = next((key for key in pairs if not isinstance(homs[key], SupLattice)), None)
    if odd is not None:
        raise TypeMismatch(f"hom-lattice {odd!r} is not a SupLattice", witness=odd)

    # the keys before the first missing table are checked first
    missing = next(filterfalse(compose.__contains__, keys), None)
    present = keys[: keys.index(missing)] if missing is not None else keys
    raws = list(map(compose.__getitem__, present))
    if missing is None and all(identities.get(x) in homs[(x, x)] for x in objects):
        firsts = _first_of_classes(objects, homs, identities, pairs, raws)
        if len(firsts) < len(objects):
            sub = validate_quantaloid(
                firsts,
                {key: homs[key] for key in product(firsts, repeat=2)},
                {key: compose[key] for key in product(firsts, repeat=3)},
                {x: identities[x] for x in firsts},
            )
            table_of = {id(compose[key]): table for key, table in sub.compose_table.items()}
            tables = dict(zip(keys, map(table_of.__getitem__, map(id, raws))))
            return Quantaloid(objects, homs, tables, {x: identities[x] for x in objects})
    sizes = [homs[key].size for key in pairs]
    instances = list(zip(map(id, raws), *at_triples(sizes, len(objects))))
    raw_of = dict(zip(map(id, raws), raws))
    interned, table_of = {}, {}  # content -> the one tuple equal tables become; instance -> it
    for instance in dict.fromkeys(instances):
        raw, (_, nf, ng, nr) = raw_of[instance[0]], instance
        if not _has_shape(raw, ng, nf):
            key = present[instances.index(instance)]
            raise TypeMismatch(f"composition table {key} has wrong shape", witness=key)
        table, flat = tuple(map(tuple, raw)), tuple(chain.from_iterable(raw))
        # before interning, which would merge True or 1.0 with an equal int
        if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= nr:
            key = present[instances.index(instance)]
            raise TypeMismatch(f"composition table {key} has out-of-range entries", witness=key)
        table_of[instance] = interned.setdefault(table, table)
    if missing is not None:
        raise TypeMismatch(f"missing composition table {missing}", witness=missing)
    tables = dict(zip(keys, map(table_of.__getitem__, instances)))

    for x in objects:
        if x not in identities:
            raise TypeMismatch(f"missing identity for {x!r}", witness=x)
        if identities[x] not in homs[(x, x)]:
            raise TypeMismatch(f"identity for {x!r} out of range", witness=x)
    idents = {x: identities[x] for x in objects}

    q = Quantaloid(objects, homs, tables, idents)

    ranges = {n: tuple(range(n)) for n in set(sizes)}
    for (x, y), n in zip(pairs, sizes):
        after_id, before_id = tables[(x, y, y)][idents[y]], tables[(x, x, y)]
        if after_id == ranges[n] == tuple(map(itemgetter(idents[x]), before_id)):
            continue
        for f in range(n):
            if after_id[f] != f:
                raise UnitFailure(
                    f"id_{y!r} ∘ f != f for f={f} in hom({x!r},{y!r})", witness=QArrow(x, y, f)
                )
            if before_id[f][idents[x]] != f:
                raise UnitFailure(
                    f"f ∘ id_{x!r} != f for f={f} in hom({x!r},{y!r})", witness=QArrow(x, y, f)
                )

    if not _axioms_hold(objects, homs, tables):
        _check_axioms_exhaustively(objects, homs, tables)
    return q


def _first_of_classes(objects, homs, identities, pairs, raws):
    """The first member, in object order, of each class of interchangeable objects.

    x and x′ are in one class when their identities are equal and their
    slices are the same objects in every slot: hom(x, −) and hom(−, x), and
    the tables as given at (x, −, −), (−, x, −) and (−, −, x).  Replacing
    one slot of a key by another member of its class then leaves the table
    and hom-lattices the key reads the same objects, so every check of
    :func:`validate_quantaloid` (shape, range and interning per table, the
    unit laws per pair, join preservation per triple, associativity per
    quadruple) gives the same result there.  Replacing every object of a key
    by its first member gives a key no later in product order with the same
    check, so the first failure in product order lies among the first
    members, with the same message and witness.
    """
    n = len(objects)
    lat_ids, table_ids = tuple(map(id, map(homs.__getitem__, pairs))), tuple(map(id, raws))
    firsts = {}
    for x, name in enumerate(objects):
        slices = (
            lat_ids[x * n : x * n + n],
            lat_ids[x::n],
            table_ids[x * n * n : x * n * n + n * n],
            tuple(table_ids[(a * n + x) * n : (a * n + x) * n + n] for a in range(n)),
            table_ids[x::n],
        )
        firsts.setdefault((identities[name], slices), name)
    return tuple(firsts.values())


def _has_shape(raw, ng, nf) -> bool:
    """True iff the composition table ``raw`` has ng rows of nf entries.

    Whole rows at a time; every hom has at least its bottom, so no row is
    empty.  A table or row without a length (``5``, ``None``) has no shape.
    """
    try:
        return len(raw) == ng and not any(map(nf.__ne__, map(len, raw)))
    except TypeError:
        return False


def at_triples(values, n):
    """Product-order layout: from values over the pairs (a, b) of n objects, those
    at (a, b), at (b, c) and at (a, c) of each triple (a, b, c), in product order."""
    return (
        chain.from_iterable(map(repeat, values, repeat(n))),
        chain.from_iterable(repeat(values, n)),
        chain.from_iterable(values[a * n : a * n + n] * n for a in range(n)),
    )


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
    arguments, and the columns together, entry by entry along rows of the
    table.  The loops are plain Python loops: a row holds a few entries, and
    setting up an ``all(map(...))`` chain per row costs more than comparing
    them.

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
        row_a = table[a]
        for b, ab in zip(bs, joins):
            # (a∨b)∘f == a∘f ∨ b∘f for every f
            row_b, row_ab = table[b], table[ab]
            for f, v in enumerate(row_ab):
                if v != join[row_a[f]][row_b[f]]:
                    return False
    f_bottom = lxy.bottom
    for g in lyz.join_irreducibles:
        line = table[g]
        if line[f_bottom] != bottom:
            return False
        for a, bs, joins in plans_xy:
            # g∘(a∨b) == g∘a ∨ g∘b for every b
            join_a = join[line[a]]
            for b, ab in zip(bs, joins):
                if line[ab] != join_a[line[b]]:
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
    they agree at the join-irreducible f.  The (h, g, h∘g) over
    join-irreducible h and g depend only on the right part of an instance,
    the table at (y, z, w), hom(y, z) and hom(z, w), so they are listed once
    per distinct right part.

    Each distinct instance is checked once, which is exact because each
    check is a pure function of its key.  The join check at (x, y, z) reads
    the table there and hom(x, y), hom(y, z) and hom(x, z); the
    associativity check at (x, y, z, w) reads the tables at (x, y, z),
    (y, z, w), (x, z, w) and (x, y, w) and the join-irreducibles of
    hom(x, y), hom(y, z) and hom(z, w).  A table is keyed by the object it
    is (:func:`validate_quantaloid` makes equal tables one object), a
    lattice by its size and order, which for a validated lattice fix its
    bottom, joins and join-irreducibles.  So the answer is exactly that of
    :func:`_check_axioms_exhaustively`.
    """
    n, pairs = len(objects), list(product(objects, repeat=2))
    lat_objs = list(map(homs.__getitem__, pairs))
    # lattice ids by object first, then by size and order once per object
    lattice_ids, distinct = {}, {id(lat): lat for lat in lat_objs}
    by_obj = {key: lattice_ids.setdefault(lat, len(lattice_ids)) for key, lat in distinct.items()}
    lat_id = list(map(by_obj.__getitem__, map(id, lat_objs)))  # per pair (x, y)
    lats = tuple(lattice_ids)
    plans, irr = tuple(map(_join_plans, lats)), tuple(lat.join_irreducibles for lat in lats)
    table_objs = list(map(tables.__getitem__, product(objects, repeat=3)))
    table_id = list(map(id, table_objs))  # per triple (x, y, z)
    by_id = dict(zip(table_id, table_objs))

    # ids of columns over x: hom(x, y) per y, and the tables at (x, y, z) per (y, z)
    columns = {}
    lat_col = [columns.setdefault(tuple(lat_id[y::n]), len(columns)) for y in range(n)]
    tab_col = [columns.setdefault(tuple(table_id[p :: n * n]), len(columns)) for p in range(n * n)]
    cols = tuple(columns)

    def per_x(keys, k):
        # the distinct keys at every x, from the distinct keys whose first k
        # entries are column ids and whose other entries do not depend on x
        at_x = (
            zip(*map(cols.__getitem__, c[:k]), *map(repeat, c[k:])) for c in dict.fromkeys(keys)
        )
        return dict.fromkeys(chain.from_iterable(at_x))

    # per (y, z): the tables at (x, y, z), hom(x, y), hom(x, z), and hom(y, z)
    at_y = chain.from_iterable(map(repeat, lat_col, repeat(n)))
    for t, lxy, lxz, lyz in per_x(zip(tab_col, at_y, lat_col * n, lat_id), 3):
        if not _preserves_joins(by_id[t], lats[lxy], lats[lyz], lats[lxz], plans[lxy], plans[lyz]):
            return False

    # per (y, z, w): the tables at (x, y, z), (x, z, w), (x, y, w), hom(x, y),
    # and the table at (y, z, w), hom(y, z) and hom(z, w)
    at_y = chain.from_iterable(map(repeat, lat_col, repeat(n * n)))
    quads = per_x(zip(*at_triples(tab_col, n), at_y, table_id, *at_triples(lat_id, n)[:2]), 4)
    # per right part (y, z, w): every (h, g, h∘g) over join-irreducible h and g
    right = {}
    for txyz, txzw, txyw, lxy, tyzw, lyz, lzw in quads:
        steps = right.get((tyzw, lyz, lzw))
        if steps is None:
            hg = by_id[tyzw]
            steps = right[(tyzw, lyz, lzw)] = [
                (h, g, hg[h][g]) for h in irr[lzw] for g in irr[lyz]
            ]
        fs, before, after, outer = irr[lxy], by_id[txyz], by_id[txzw], by_id[txyw]
        for h, g, hg in steps:
            # h∘(g∘f) == (h∘g)∘f for every join-irreducible f
            h_row, g_row, hg_row = after[h], before[g], outer[hg]
            for f in fs:
                if h_row[g_row[f]] != hg_row[f]:
                    return False
    return True


def _check_axioms_exhaustively(objects, homs, tables) -> None:
    """Walk every element triple and raise on the first axiom that fails.

    Associativity comes first, then bottom and binary joins in each
    argument.  This is the reference the fast path agrees with, and the
    source of the witness when it does not pass.
    """
    for x, y, z, w in product(objects, repeat=4):
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

    for x, y, z in product(objects, repeat=3):
        lxy, lyz, lxz = homs[(x, y)], homs[(y, z)], homs[(x, z)]
        table = tables[(x, y, z)]
        for g in range(lyz.size):
            if table[g][lxy.bottom] != lxz.bottom:
                raise NotSupPreserving("g∘⊥ != ⊥", witness=(QArrow(y, z, g), "bottom-right"))
            for f1 in range(lxy.size):
                for f2 in range(lxy.size):
                    if table[g][lxy.join2(f1, f2)] != lxz.join2(table[g][f1], table[g][f2]):
                        raise NotSupPreserving(
                            "g∘(f1∨f2) != g∘f1 ∨ g∘f2",
                            witness=(QArrow(y, z, g), QArrow(x, y, f1), QArrow(x, y, f2)),
                        )
        for f in range(lxy.size):
            if table[lyz.bottom][f] != lxz.bottom:
                raise NotSupPreserving("⊥∘f != ⊥", witness=(QArrow(x, y, f), "bottom-left"))
            for g1 in range(lyz.size):
                for g2 in range(lyz.size):
                    if table[lyz.join2(g1, g2)][f] != lxz.join2(table[g1][f], table[g2][f]):
                        raise NotSupPreserving(
                            "(g1∨g2)∘f != g1∘f ∨ g2∘f",
                            witness=(QArrow(y, z, g1), QArrow(y, z, g2), QArrow(x, y, f)),
                        )


def from_quantale(lat: SupLattice, mult, unit: int) -> Quantaloid:
    """Wrap a quantale (a sup-lattice with a multiplication) as a one-object
    quantaloid on the object ``"*"``.

    ``mult`` is a callable on element indices.
    """
    table = [[mult(g, f) for f in range(lat.size)] for g in range(lat.size)]
    return validate_quantaloid(("*",), {("*", "*"): lat}, {("*", "*", "*"): table}, {"*": unit})


def from_frame(lat: SupLattice) -> Quantaloid:
    """Wrap a frame as a one-object quantaloid with composition = meet, identity = top.

    A finite lattice is a frame iff x∧(y∨z) = (x∧y)∨(x∧z).  Meet is associative
    with top as unit, so that is the one axiom :func:`validate_quantaloid` can
    refuse, as g∘(f1∨f2) = g∘f1 ∨ g∘f2, and it names the first (x, y, z).
    """
    try:
        return from_quantale(lat, lat.meet2, lat.top)
    except NotSupPreserving as exc:
        xyz = tuple(arrow.elem for arrow in exc.witness)
        raise NotAFrame(f"meet does not distribute over join at {xyz}", witness=xyz) from None


@cache
def builtin_quantaloid(name: str) -> Quantaloid:
    """Resolve a built-in quantaloid name: "2", "3", or "frame:<lattice>".

    Each name is built and validated once; quantaloids are immutable after
    validation, so every caller shares the one instance and its caches.
    """
    if name in ("2", "3"):
        return from_frame(named_lattice(name))
    if name.startswith("frame:"):
        return from_frame(named_lattice(name[len("frame:"):]))
    raise KeyError(f"unknown built-in quantaloid {name!r}")
