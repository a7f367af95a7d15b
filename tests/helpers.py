"""Shared generators and independent oracles for the test-suite.

Oracles here recompute expected values by raw enumeration, without going
through the library's lifting/extension tables or regularity predicates, so
that every law is checked by two unrelated routes.
"""

import functools
import itertools
import json
import math
import random

from qsemicat import (
    ActionFailure,
    AssocFailure,
    CompositionFailure,
    MissingJoin,
    NotAFrame,
    NotAPartialOrder,
    NotSupPreserving,
    NotSymmetric,
    NotTransitive,
    NotTransitiveEq,
    QArrow,
    QsError,
    TypeMismatch,
    UnitFailure,
    build_RA,
    builtin_quantaloid,
    enumerate_regular_semidists,
    from_quantale,
    idempotents,
    is_regular_semicat,
    lifting_rsdist,
    validate_quantaloid,
    validate_semicategory,
    validate_sup_lattice,
    way_below,
)
from qsemicat.lattice import SupLattice, chain
from qsemicat.morita import _check_regular_pair
from qsemicat.presheaf import (
    CONTRA,
    DEFAULT_CAP,
    Presheaf,
    QCategoryView,
    _contra,
    presheaf_hom_elem,
)
from qsemicat.semicat import (
    SemiFunctor,
    _first_excess,
    _mat_compose,
    _mat_lift,
    _require_same_base,
)

NAMES = ("a", "b", "c", "d", "e")


def one_object_semicat(q, elem, name="*"):
    obj = q.objects[0]
    return validate_semicategory(q, [(name, obj)], {(name, name): elem})


def chain3_A():
    """The one-object semicategory with hom e over the three-chain."""
    return one_object_semicat(builtin_quantaloid("3"), 1)


def chain3_C():
    """The one-object category over the three-chain."""
    return one_object_semicat(builtin_quantaloid("3"), 2)


def min_table(k):
    return [[min(g, f) for f in range(k)] for g in range(k)]


def two_object_quantaloid():
    """A two-object quantaloid with all homs the two-chain and meet composition."""
    lat = chain(2)
    objs = ("X", "Y")
    homs = {(x, y): lat for x in objs for y in objs}
    compose = {(x, y, z): min_table(2) for x in objs for y in objs for z in objs}
    return validate_quantaloid(objs, homs, compose, {"X": 1, "Y": 1})


def endomap_quantaloid():
    """The quantale of join-preserving endomaps of the three-chain.

    Elements are the monotone maps fixing bottom, encoded as pairs
    (f(1), f(2)) with f(1) <= f(2); composition is function composition,
    which is noncommutative, so liftings and extensions genuinely differ.
    """
    maps = [(a, b) for a in range(3) for b in range(3) if a <= b]
    index = {m: i for i, m in enumerate(maps)}
    pairs = [
        (index[f], index[g])
        for f in maps
        for g in maps
        if f[0] <= g[0] and f[1] <= g[1]
    ]
    lat = validate_sup_lattice(len(maps), pairs)

    def apply(f, x):
        return 0 if x == 0 else f[x - 1]

    def mult(g, f):
        gf = (apply(maps[g], maps[f][0]), apply(maps[g], maps[f][1]))
        return index[gf]

    return from_quantale(lat, mult, index[(1, 2)])


def rel_quantaloid():
    """Sets of sizes one and two with relations as arrows.

    Hom-lattices are powerset lattices ordered by inclusion (encoded as
    bitmasks over the product of the two carriers), composition is
    relational composition, identities are the diagonals.  Homs of all
    four sizes 2, 4, 4, 16 appear, so typed machinery gets exercised on
    genuinely different lattices.
    """
    sizes = {"X": 1, "Y": 2}
    objs = ("X", "Y")

    def lattice(n_dom, n_cod):
        cells = n_dom * n_cod
        n = 1 << cells
        pairs = [(i, j) for i in range(n) for j in range(n) if i | j == j]
        return validate_sup_lattice(n, pairs)

    homs = {(x, y): lattice(sizes[x], sizes[y]) for x in objs for y in objs}

    def compose_table(x, y, z):
        nx, ny, nz = sizes[x], sizes[y], sizes[z]

        def comp(g, f):
            # f ⊆ x×y and g ⊆ y×z as bitmasks with cell (i, j) = bit i*n_cod + j
            out = 0
            for i in range(nx):
                for k in range(nz):
                    if any(
                        f >> (i * ny + j) & 1 and g >> (j * nz + k) & 1
                        for j in range(ny)
                    ):
                        out |= 1 << (i * nz + k)
            return out

        return [
            [comp(g, f) for f in range(1 << (nx * ny))] for g in range(1 << (ny * nz))
        ]

    compose = {(x, y, z): compose_table(x, y, z) for x in objs for y in objs for z in objs}
    identities = {
        x: sum(1 << (i * sizes[x] + i) for i in range(sizes[x])) for x in objs
    }
    return validate_quantaloid(objs, homs, compose, identities)


def relabelled_hom(q, key, perm):
    """An isomorphic copy of q in which element e of hom ``key`` is renamed perm[e].

    ``key`` joins two distinct objects, so no identity is renamed.  With a
    permutation that moves bottom, the copy has hom-lattices whose tables
    differ between the two directions even where q's coincide.
    """
    assert key[0] != key[1]
    lat = q.hom[key]
    old = sorted(range(lat.size), key=perm.__getitem__)  # old[perm[e]] == e
    homs = dict(q.hom)
    homs[key] = validate_sup_lattice(lat.size, [(perm[i], perm[j]) for i, j in order_pairs(lat)])
    compose = {}
    for (x, y, z), table in q.compose_table.items():
        rows = [list(row) for row in table]
        if (y, z) == key:
            rows = [rows[e] for e in old]
        if (x, y) == key:
            rows = [[row[e] for e in old] for row in rows]
        if (x, z) == key:
            rows = [[perm[v] for v in row] for row in rows]
        compose[(x, y, z)] = rows
    return validate_quantaloid(q.objects, homs, compose, q.identity)


def full_subquantaloid(q, objects):
    """The full sub-quantaloid of q on ``objects``: their homs, tables and identities."""
    objects = tuple(objects)
    return validate_quantaloid(
        objects,
        {(x, y): q.hom[(x, y)] for x in objects for y in objects},
        {key: q.compose_table[key] for key in itertools.product(objects, repeat=3)},
        {x: q.identity[x] for x in objects},
    )


def idempotent_matrices(k, n):
    """All n x n matrices over the k-chain quantale (meet) with A.A = A."""
    out = []
    for flat in itertools.product(range(k), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                best = 0
                for x in range(n):
                    v = min(rows[i][x], rows[x][j])
                    if v > best:
                        best = v
                if best != rows[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(rows)
    return out


def composition_ok_matrices(k, n):
    """All n x n matrices over the k-chain quantale with A.A <= A (semicategories)."""
    out = []
    for flat in itertools.product(range(k), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                for x in range(n):
                    if min(rows[i][x], rows[x][j]) > rows[i][j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(rows)
    return out


def semicat_from_rows(q, rows):
    n = len(rows)
    obj = q.objects[0]
    names = NAMES[:n]
    hom = {(names[i], names[j]): rows[i][j] for i in range(n) for j in range(n)}
    return validate_semicategory(q, [(nm, obj) for nm in names], hom)


def regular_semicats(qname, max_objects):
    """Every regular semicategory with up to max_objects objects over a chain quantaloid."""
    q = builtin_quantaloid(qname)
    k = q.hom_lat(q.objects[0], q.objects[0]).size
    out = []
    for n in range(1, max_objects + 1):
        for rows in idempotent_matrices(k, n):
            out.append(semicat_from_rows(q, rows))
    return out


def all_semicats(qname, max_objects):
    """Every semicategory with up to max_objects objects over a chain quantaloid."""
    q = builtin_quantaloid(qname)
    k = q.hom_lat(q.objects[0], q.objects[0]).size
    out = []
    for n in range(1, max_objects + 1):
        for rows in composition_ok_matrices(k, n):
            out.append(semicat_from_rows(q, rows))
    return out


def relations_family(q):
    """Every semicategory over the relation quantaloid ``q`` with one object of
    each type, as accepted by the exhaustive triple loop."""
    elements = [("u", "X"), ("v", "Y")]
    keys = [(a1, a0) for a1, _ in elements for a0, _ in elements]
    sizes = [q.hom[(t0, t1)].size for _, t1 in elements for _, t0 in elements]
    out = []
    for values in itertools.product(*map(range, sizes)):
        hom = dict(zip(keys, values))
        try:
            reference_semicategory_axioms(q, elements, hom)
        except CompositionFailure:
            continue
        out.append(validate_semicategory(q, elements, hom))
    return out


def regular_one_type_semicats(q, max_objects):
    """Every regular semicategory with up to max_objects objects, all of the
    first type of ``q``, in lexicographic order of the hom matrix."""
    x = q.objects[0]
    k = q.hom_lat(x, x).size
    out = []
    for n in range(1, max_objects + 1):
        elements = [(name, x) for name in NAMES[:n]]
        for flat in itertools.product(range(k), repeat=n * n):
            try:
                A = validate_semicategory(q, elements, flat)
            except CompositionFailure:
                continue
            if A.is_regular:
                out.append(A)
    return out


@functools.cache
def presheaf_families():
    """The carriers the presheaf routes are compared on: the acceptance
    families (every regular semicategory with at most three objects over
    ``2`` and ``3``), every semicategory with at most two objects over ``2``
    and ``3``, the relations family, whose pools mix types, and a fixed
    sample of 40 of the 307 regular semicategories with at most two objects
    over the endomap quantale, where composition does not commute, so a
    lifting taken with its arguments swapped gives a different answer.

    Built once per test run; the test modules that sweep it share one dict."""
    return {
        "acceptance-2": regular_semicats("2", 3),
        "acceptance-3": regular_semicats("3", 3),
        "all-2": all_semicats("2", 2),
        "all-3": all_semicats("3", 2),
        "relations": relations_family(rel_quantaloid()),
        "endomaps": random.Random(0).sample(
            regular_one_type_semicats(endomap_quantaloid(), 2), 40
        ),
    }


@functools.cache
def beyond_frame_pairs():
    """Pairs of regular semicategories over bases that are not frames, by family.

    On a frame composition is meet, so a swapped argument in a matrix kernel
    cannot show.  Fixed-seed samples of the pairs of the endomap family of
    ``presheaf_families``, where composition does not commute, and of the
    regular members of its relations family, which has two types.
    """
    families = presheaf_families()
    endomaps = families["endomaps"]
    relations = [A for A in families["relations"] if A.is_regular]
    return {
        "endomaps": random.Random(0).sample([(A, B) for A in endomaps for B in endomaps], 40),
        "relations": random.Random(0).sample([(A, B) for A in relations for B in relations], 60),
    }


def transitive_relations(n):
    """All transitive relations on n points, as tuples of row bitmasks.

    Depth-first over the cells in row-major order; local consistency checks
    on every decision make completed assignments exactly the transitive
    relations.
    """
    rows = [0] * n
    dec = [0] * n
    out = []
    cells = [(i, j) for i in range(n) for j in range(n)]

    def rec(t):
        if t == len(cells):
            out.append(tuple(rows))
            return
        i, j = cells[t]
        bit = 1 << j
        ok0 = True
        for k in range(n):
            if rows[i] >> k & 1 and dec[k] >> j & 1 and rows[k] >> j & 1:
                ok0 = False
                break
        if ok0:
            dec[i] |= bit
            rec(t + 1)
            dec[i] &= ~bit
        ok1 = True
        for k in range(n):
            if rows[j] >> k & 1 and dec[i] >> k & 1 and not rows[i] >> k & 1:
                ok1 = False
                break
            if rows[k] >> i & 1 and dec[k] >> j & 1 and not rows[k] >> j & 1:
                ok1 = False
                break
        if ok1:
            rows[i] |= bit
            dec[i] |= bit
            rec(t + 1)
            rows[i] &= ~bit
            dec[i] &= ~bit

    rec(0)
    return out


def rows_to_pairs(rows, names=NAMES):
    n = len(rows)
    return [(names[i], names[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1]


def boolean_square(rows):
    """Row bitmasks of the relational composite R;R."""
    n = len(rows)
    out = []
    for i in range(n):
        acc = 0
        for k in range(n):
            if rows[i] >> k & 1:
                acc |= rows[k]
        out.append(acc)
    return tuple(out)


# -- oracles ----------------------------------------------------------------


def outcome(run):
    """What ``run()`` returns, or the class, message and witness of the
    library error it raises, for comparing a route with its reference."""
    try:
        return run()
    except QsError as exc:
        return type(exc), str(exc), exc.witness


def oracle_lifting(q, x, y, z, c: int, b: int) -> int:
    """Brute-force largest d in hom(x,y) with c∘d <= b, for c in hom(y,z) and
    b in hom(x,z), independent of the cached tables.

    Scans every candidate, keeps the satisfying ones, and returns the one
    that dominates all others (asserting it exists rather than joining).
    """
    lat_d, lat_b = q.hom_lat(x, y), q.hom_lat(x, z)
    good = [d for d in range(lat_d.size) if lat_b.le(q.compose_table[(x, y, z)][c][d], b)]
    best = [d for d in good if all(lat_d.le(e, d) for e in good)]
    assert len(best) == 1, "lifting candidates have no unique maximum"
    return best[0]


def oracle_extension(q, x, y, z, c: int, b: int) -> int:
    """Brute-force largest d in hom(y,z) with d∘c <= b, for c in hom(x,y) and
    b in hom(x,z)."""
    lat_d, lat_b = q.hom_lat(y, z), q.hom_lat(x, z)
    good = [d for d in range(lat_d.size) if lat_b.le(q.compose_table[(x, y, z)][d][c], b)]
    best = [d for d in good if all(lat_d.le(e, d) for e in good)]
    assert len(best) == 1, "extension candidates have no unique maximum"
    return best[0]


def downsets(n, rows):
    """All subsets of 0..n-1 down-closed under the relation (i -> j iff rows[i]>>j&1).

    Down-closed means: j in S and i related-below j implies i in S, where
    i is below j when the relation holds as i ≺ j.
    """
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            for j in range(n):
                if rows[i] >> j & 1 and mask >> j & 1 and not mask >> i & 1:
                    ok = False
        if ok:
            out.append(mask)
    return out


def upsets_of_poset(elements, le):
    """All up-closed subsets of a poset given as a le(x, y) predicate."""
    out = []
    n = len(elements)
    for mask in range(1 << n):
        S = {elements[i] for i in range(n) if mask >> i & 1}
        if all(y in S for x in S for y in elements if le(x, y)):
            out.append(frozenset(S))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def downsets_of_poset(elements, le):
    """All down-closed subsets of a poset given as a le(x, y) predicate."""
    out = []
    n = len(elements)
    for mask in range(1 << n):
        S = {elements[i] for i in range(n) if mask >> i & 1}
        if all(x in S for y in S for x in elements if le(x, y)):
            out.append(frozenset(S))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def all_posets(n):
    """All labeled partial orders on n points, as row bitmasks including loops."""
    out = []
    for rows in transitive_relations(n):
        refl = all(rows[i] >> i & 1 for i in range(n))
        antisym = all(
            not (rows[i] >> j & 1 and rows[j] >> i & 1)
            for i in range(n)
            for j in range(n)
            if i != j
        )
        if refl and antisym:
            out.append(rows)
    return out


def reference_directed_subsets(P):
    """All nonempty directed subsets of a finite poset with their joins.

    Raises AssertionError when a directed subset has no least upper bound
    (impossible for finite posets, where directed sets have maxima, but
    checked rather than assumed).
    """
    n = len(P.elements)
    out = []
    for mask in range(1, 1 << n):
        subset = [P.elements[i] for i in range(n) if mask >> i & 1]
        if not all(
            any(P.le(x, u) and P.le(y, u) for u in subset) for x in subset for y in subset
        ):
            continue
        ubs = [u for u in P.elements if all(P.le(x, u) for x in subset)]
        join = next((u for u in ubs if all(P.le(u, v) for v in ubs)), None)
        if join is None:
            raise AssertionError(f"directed subset {subset} has no join")
        out.append((tuple(subset), join))
    return out


def reference_way_below(P):
    """The way-below relation by its definition, over all directed subsets.

    x is way below y iff every directed subset whose join dominates y
    already contains an element above x.
    """
    dirs = reference_directed_subsets(P)
    rel = set()
    for x in P.elements:
        for y in P.elements:
            if all(
                any(P.le(x, d) for d in subset)
                for subset, join in dirs
                if P.le(y, join)
            ):
                rel.add((x, y))
    return rel


def reference_quantaloid_axioms(objects, homs, tables, idents):
    """The exhaustive shape, range, unit, associativity and sup-preservation loops.

    Checks every table's shape and entries key by key, then walks every
    element triple in a fixed order, and raises the first failure with its
    witness, exactly as ``validate_quantaloid`` must.
    """
    for key in itertools.product(objects, repeat=3):
        x, y, z = key
        table = tables[key]
        if len(table) != homs[(y, z)].size or any(len(row) != homs[(x, y)].size for row in table):
            raise TypeMismatch(f"composition table {key} has wrong shape", witness=key)
        if any(not 0 <= v < homs[(x, z)].size for row in table for v in row):
            raise TypeMismatch(f"composition table {key} has out-of-range entries", witness=key)

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


def reference_preserves_joins(table, lxy, lyz, lxz):
    """True iff ``table[g][f]`` preserves bottom and binary joins in f and in g,
    checked on every row, every column and every pair of elements."""
    for g in range(lyz.size):
        if table[g][lxy.bottom] != lxz.bottom:
            return False
        for f1 in range(lxy.size):
            for f2 in range(lxy.size):
                if table[g][lxy.join2(f1, f2)] != lxz.join2(table[g][f1], table[g][f2]):
                    return False
    for f in range(lxy.size):
        if table[lyz.bottom][f] != lxz.bottom:
            return False
        for g1 in range(lyz.size):
            for g2 in range(lyz.size):
                if table[lyz.join2(g1, g2)][f] != lxz.join2(table[g1][f], table[g2][f]):
                    return False
    return True


def reference_semicategory_axioms(base, elements, hom):
    """The exhaustive composition-inequality loop over every object triple.

    ``elements`` are (name, type) pairs and ``hom`` a complete, in-range
    hom dict; raises the first failure with its witness, exactly as
    ``validate_semicategory`` must.
    """
    for a2, t2 in elements:
        for a1, t1 in elements:
            g = hom[(a2, a1)]
            for a0, t0 in elements:
                comp = base.compose_elems(t0, t1, t2, g, hom[(a1, a0)])
                if not base.hom[(t0, t2)].le(comp, hom[(a2, a0)]):
                    raise CompositionFailure(
                        f"A({a2!r},{a1!r})∘A({a1!r},{a0!r}) ≰ A({a2!r},{a0!r})",
                        witness=(a2, a1, a0),
                    )


def reference_semidistributor(dom, cod, mat):
    """The entrywise semidistributor validation: range checks, then the two
    action loops over every object triple.

    Raises the first failure with its witness, exactly as
    ``validate_semidistributor`` must, and returns the completed matrix.
    """
    q = dom.base
    full = {}
    for b in cod.names:
        for a in dom.names:
            lat = q.hom_lat(dom.type_of(a), cod.type_of(b))
            e = mat.get((b, a), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(f"entry ({b!r}, {a!r}) = {e} out of range", witness=(b, a))
            full[(b, a)] = e
    for key in mat:
        if key not in full:
            raise TypeMismatch(f"entry {key} names unknown objects", witness=key)

    for b in cod.names:
        tb = cod.type_of(b)
        for a1 in dom.names:
            for a0 in dom.names:
                t0, t1 = dom.type_of(a0), dom.type_of(a1)
                comp = q.compose_elems(t0, t1, tb, full[(b, a1)], dom.hom[(a1, a0)])
                if not q.hom_lat(t0, tb).le(comp, full[(b, a0)]):
                    raise ActionFailure(
                        f"Φ({b!r},{a1!r})∘A({a1!r},{a0!r}) ≰ Φ({b!r},{a0!r})",
                        witness=("dom", b, a1, a0),
                    )
    for b1 in cod.names:
        for b0 in cod.names:
            t1, t0 = cod.type_of(b1), cod.type_of(b0)
            for a in dom.names:
                ta = dom.type_of(a)
                comp = q.compose_elems(ta, t0, t1, cod.hom[(b1, b0)], full[(b0, a)])
                if not q.hom_lat(ta, t1).le(comp, full[(b1, a)]):
                    raise ActionFailure(
                        f"B({b1!r},{b0!r})∘Φ({b0!r},{a!r}) ≰ Φ({b1!r},{a!r})",
                        witness=("cod", b1, b0, a),
                    )
    return full


def reference_omega_set(frame, elements, eq):
    """The Omega-set validation with its entrywise triangle loop; returns the
    elements and the completed equality, or raises as ``validate_omega_set``
    must."""
    obj = frame.objects[0]
    lat = frame.hom_lat(obj, obj)
    elements = tuple(dict.fromkeys(elements))
    full = {}
    for x in elements:
        for y in elements:
            e = eq.get((x, y), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(f"[{x!r}={y!r}] = {e} out of range", witness=(x, y))
            full[(x, y)] = e
    for x in elements:
        for y in elements:
            if full[(x, y)] != full[(y, x)]:
                raise NotSymmetric(f"[{x!r}={y!r}] != [{y!r}={x!r}]", witness=(x, y))
    for x in elements:
        for y in elements:
            for z in elements:
                if not lat.le(lat.meet2(full[(x, y)], full[(y, z)]), full[(x, z)]):
                    raise NotTransitiveEq(
                        f"[{x!r}={y!r}] ∧ [{y!r}={z!r}] ≰ [{x!r}={z!r}]", witness=(x, y, z)
                    )
    return elements, full


def reference_poset(elements, pairs):
    """The poset validation by Warshall closure and a pairwise antisymmetry
    scan; returns the elements and the order, or raises as
    ``validate_poset`` must."""
    elements = tuple(dict.fromkeys(elements))
    index = {x: i for i, x in enumerate(elements)}
    for x, y in pairs:
        if x not in index or y not in index:
            raise TypeMismatch(f"pair ({x!r}, {y!r}) names unknown elements", witness=(x, y))
    lat_pairs = [(index[x], index[y]) for x, y in pairs]
    n = len(elements)
    leq_matrix = [[i == j for j in range(n)] for i in range(n)]
    for i, j in lat_pairs:
        leq_matrix[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq_matrix[i][k]:
                for j in range(n):
                    if leq_matrix[k][j]:
                        leq_matrix[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq_matrix[i][j] and leq_matrix[j][i]:
                raise NotAPartialOrder(
                    f"{elements[i]!r} and {elements[j]!r} are order-equivalent",
                    witness=(elements[i], elements[j]),
                )
    leq = {
        (elements[i], elements[j]): leq_matrix[i][j] for i in range(n) for j in range(n)
    }
    return elements, leq


def reference_transitive(pairs):
    """The transitivity check over every two pairs, in pair order; returns
    the relation as a set, or raises as the relation builders of
    ``qsemicat.instances`` must."""
    rel = set(pairs)
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y and (x, z) not in rel:
                raise NotTransitive(
                    f"({x!r}, {y!r}) and ({y!r}, {z!r}) without ({x!r}, {z!r})",
                    witness=(x, y, z),
                )
    return rel


def reference_interpolation(elements, pairs) -> bool:
    """Interpolation by successor sets: every related (x, z) has a y with
    x ~ y ~ z; ``pairs`` must relate ``elements`` only."""
    rel = reference_transitive(pairs)
    succ = {x: set() for x in elements}
    for x, y in rel:
        succ[x].add(y)
    return all(any(z in succ[y] for y in succ[x]) for x, z in rel)


def reference_colimit_compatibility(carrier, C, fmap):
    """The entrywise check that an object map C -> presheaves on ``carrier``
    is compatible with the homs of C, raising as ``weighted_colimit_RA`` must."""
    q = carrier.base
    for i, a in enumerate(carrier.names):
        ta = carrier.type_of(a)
        for c1 in C.names:
            for c0 in C.names:
                t1, t0 = C.type_of(c1), C.type_of(c0)
                comp = q.compose_elems(t0, t1, ta, fmap[c1].values[i], C.hom[(c1, c0)])
                if not q.hom_lat(t0, ta).le(comp, fmap[c0].values[i]):
                    raise ActionFailure(
                        "object map is not compatible with the homs of its domain",
                        witness=(a, c1, c0),
                    )


def reference_presheaf_ok(C, x, values) -> bool:
    """The action inequalities C(a0,a1)∘φ(a1) <= φ(a0) of a contravariant φ."""
    q = C.base
    n = len(values)
    for i1, t1 in enumerate(C.types):
        for i0, t0 in enumerate(C.types):
            comp = q.compose_elems(x, t1, t0, C.dense[i0 * n + i1], values[i1])
            if not q.hom_lat(x, t0).le(comp, values[i0]):
                return False
    return True


def reference_sup_lattice(size, pairs):
    """Sup-lattice validation on boolean matrices, by scanning upper bounds.

    Warshall closure, the first order-equivalent pair, the first bottom and
    the least upper bound of every pair by an all-pairs scan, with the same
    errors as ``validate_sup_lattice``; meets are joins of lower bounds.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"order pair ({i}, {j}) out of range for size {size}")
        leq[i][j] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(size):
        for j in range(i + 1, size):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"elements {i} and {j} are order-equivalent", witness=(i, j)
                )

    bottom = None
    for b in range(size):
        if all(leq[b][x] for x in range(size)):
            bottom = b
            break
    if bottom is None:
        raise MissingJoin("the empty subset has no join (no bottom element)", witness=())

    join2 = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            ubs = [u for u in range(size) if leq[i][u] and leq[j][u]]
            least = next((u for u in ubs if all(leq[u][v] for v in ubs)), None)
            if least is None:
                raise MissingJoin(f"elements {i} and {j} have no join", witness=(i, j))
            join2[i][j] = least

    meet2 = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = bottom
            for x in range(size):
                if leq[x][i] and leq[x][j]:
                    acc = join2[acc][x]
            meet2[i][j] = acc

    frozen_leq = tuple(tuple(row) for row in leq)
    frozen_join = tuple(tuple(row) for row in join2)
    frozen_meet = tuple(tuple(row) for row in meet2)
    return SupLattice(size, frozen_leq, bottom, frozen_join, frozen_meet)


def lattice_fields(lat):
    """Every field of a SupLattice, for comparing two constructions."""
    return (
        lat.size,
        lat.leq,
        lat.bottom,
        lat.top,
        lat.join_irreducibles,
        lat._join2,
        lat._meet2,
    )


def order_pairs(lat):
    """Every pair (i, j) with i <= j in a lattice, in lexicographic order."""
    return [(i, j) for i in range(lat.size) for j in range(lat.size) if lat.leq[i][j]]


def reference_idm_tables(q):
    """The idempotent completion's tables, built one entry at a time.

    Returns ``(hom_elements, compose, identities)`` keyed by idempotent tags,
    each composite found by one ``compose_elems`` call and one position
    lookup, as a reference for ``build_idm``.
    """
    objs = idempotents(q)
    tag = "{0.dom}|{0.elem}".format
    hom_elements, pos = {}, {}
    for e in objs:
        for f in objs:
            fixed = tuple(
                b
                for b in range(q.hom_lat(e.dom, f.dom).size)
                if q.compose_elems(e.dom, e.dom, f.dom, b, e.elem) == b
                and q.compose_elems(e.dom, f.dom, f.dom, f.elem, b) == b
            )
            hom_elements[(tag(e), tag(f))] = fixed
            pos[(tag(e), tag(f))] = {b: i for i, b in enumerate(fixed)}
    compose = {}
    for e in objs:
        for f in objs:
            for g in objs:
                te, tf, tg = tag(e), tag(f), tag(g)
                compose[(te, tf, tg)] = [
                    [
                        pos[(te, tg)][q.compose_elems(e.dom, f.dom, g.dom, cb, bb)]
                        for bb in hom_elements[(te, tf)]
                    ]
                    for cb in hom_elements[(tf, tg)]
                ]
    identities = {tag(e): pos[(tag(e), tag(e))][e.elem] for e in objs}
    return hom_elements, compose, identities


def reference_idm_lifting(q, e, f, g, b: int, c: int) -> int:
    """The lifting [c, b] in the idempotent completion by exhaustion, for b an
    arrow e -> f and c an arrow g -> f: the largest d in hom(e.dom, g.dom)
    fixed by e and g with c∘d <= b, asserted to be unique."""
    A, B, C = e.dom, f.dom, g.dom
    lat_ac, lat_ab = q.hom_lat(A, C), q.hom_lat(A, B)
    good = [
        d
        for d in range(lat_ac.size)
        if q.compose_table[(A, A, C)][d][e.elem] == d
        and q.compose_table[(A, C, C)][g.elem][d] == d
        and lat_ab.le(q.compose_table[(A, C, B)][c][d], b)
    ]
    best = [d for d in good if all(lat_ac.le(x, d) for x in good)]
    assert len(best) == 1, "completion lifting candidates have no unique maximum"
    return best[0]


def reference_rsdist_isomorphism_search(A, B, cap=DEFAULT_CAP):
    """The exhaustive certificate search: every regular Φ against every regular Ψ.

    Enumerates both A -/-> B and B -/-> A lexicographically and returns the
    first pair with Ψ⊗Φ = A and Φ⊗Ψ = B, or None.  As in the search, ``cap``
    bounds only A -/-> B; B -/-> A is enumerated whatever its size.
    """
    _check_regular_pair(A, B)
    phis = enumerate_regular_semidists(A, B, cap)
    psis = [(psi, psi.dense) for psi in enumerate_regular_semidists(B, A, math.inf)]
    q, ta, tb = A.base, A.types, B.types
    for phi in phis:
        fphi = phi.dense
        for psi, fpsi in psis:
            if (
                _mat_compose(q, ta, tb, ta, fpsi, fphi) == A.dense
                and _mat_compose(q, tb, ta, tb, fphi, fpsi) == B.dense
            ):
                return phi, psi
    return None


def reference_regular_via_liftings(phi, against):
    """The lifting route to regularity with a fresh residual of every ψ:
    the hom from ψ to φ, directly and through the representables."""
    C = _contra(phi.carrier, phi.variance)
    q, t, x = C.base, C.types, (phi.qtype,)
    for psi in against:
        y = (psi.qtype,)
        residual = _mat_lift(q, t, t, y, C.dense, psi.values)
        if _mat_lift(q, x, t, y, phi.values, psi.values) != _mat_lift(
            q, x, t, y, phi.values, residual
        ):
            return False
    return True


def build_RA_by_lifting(A, cap=DEFAULT_CAP):
    """The contravariant ``build_RA`` of a regular carrier with every hom
    recomputed as a lifting in the regular-semidistributor calculus: one
    ``lifting_rsdist`` call per ordered pair of regular presheaves, read as
    semidistributors, in place of the view's one block residual."""
    assert is_regular_semicat(A), "the lifting route needs a regular carrier"
    view = build_RA(A, CONTRA, cap)
    sds = [phi.as_semidistributor() for phi in view.payloads]
    homs = tuple(lifting_rsdist(psi, phi).dense[0] for psi in sds for phi in sds)
    return QCategoryView(view.base, zip(view.names, view.types, view.payloads), homs)


def reference_presheaves(A, x, variance):
    """Every presheaf of type x on A, in lexicographic value order: the
    whole product of hom-lattices, filtered by the action inequalities."""
    C = _contra(A, variance)
    sizes = [C.base.hom_lat(x, t).size for t in C.types]
    return [
        Presheaf(A, x, variance, combo)
        for combo in itertools.product(*map(range, sizes))
        if _first_excess(C.base, C.types, C.types, (x,), C.dense, combo, combo) is None
    ]


def reference_view(A, variance, keep):
    """The objects and hom dict of a presheaf view, one
    ``presheaf_hom_elem`` call per ordered pair of kept presheaves."""
    objects = []
    for x in A.base.objects:
        idx = 0
        for phi in reference_presheaves(A, x, variance):
            if keep(phi):
                objects.append((f"{x}#{idx}", x, phi))
                idx += 1
    hom = {}
    for tag1, _, psi in objects:
        for tag0, _, phi in objects:
            hom[(tag1, tag0)] = presheaf_hom_elem(psi, phi)
    return tuple(objects), hom


def reference_full_matrix(q, rows, cols, mat, what):
    """The former dict route of the validators: ``mat`` on rows × cols as a
    dict with bottom in every omitted entry.

    Each entry is range-checked in its hom-lattice and every key of ``mat``
    must name a row and a column; raises the first failure with its witness,
    exactly as ``semicat._dense_matrix`` must.
    """
    full = {}
    for r, tr in rows.elements:
        for c, tc in cols.elements:
            lat = q.hom_lat(tc, tr)
            e = mat.get((r, c), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(f"{what} ({r!r}, {c!r}) = {e} out of range", witness=(r, c))
            full[(r, c)] = e
    for key in mat:
        if key not in full:
            raise TypeMismatch(f"{what} {key} names unknown objects", witness=key)
    return full


def reference_dual_hom(A):
    """The former dual of a semicategory, built as a dict: A^op(a1, a0) = A(a0, a1)."""
    return {key: A.hom[key[::-1]] for key in A.hom}


def reference_skeleton_homs(view, reps):
    """The former hom dict of a skeleton: the view's dict restricted to the
    representatives, in the view's order."""
    keep = set(reps)
    return {(t1, t0): e for (t1, t0), e in view.hom.items() if t1 in keep and t0 in keep}


def reference_frame(lat):
    """The former ``from_frame``: distributivity of binary meets over binary
    joins checked by its own loop, then the frame wrapped as a one-object
    quantaloid with composition = meet, identity = top."""
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
    return from_quantale(lat, lat.meet2, lat.top)


def labelled_lattices(n):
    """Every lattice on the labelled elements 0..n-1, from the posets of
    :func:`all_posets` that have all joins."""
    out = []
    for rows in all_posets(n):
        pairs = [(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1]
        try:
            out.append(validate_sup_lattice(n, pairs))
        except MissingJoin:
            pass
    return out


def random_lattices(rng, sizes, draws):
    """Lattices drawn by ``rng``: for each of ``draws`` draws, a size from
    ``sizes``, a random order on the middle elements between a bottom and a
    top, and a random labelling; draws without all joins are skipped."""
    out = []
    for _ in range(draws):
        n = rng.choice(sizes)
        label = rng.sample(range(n), n)
        bottom, top, middle = label[0], label[-1], label[1:-1]
        pairs = [(bottom, x) for x in middle] + [(x, top) for x in middle]
        pairs += [
            (x, y) for i, x in enumerate(middle) for y in middle[i + 1 :] if rng.random() < 0.3
        ]
        try:
            out.append(validate_sup_lattice(n, pairs))
        except MissingJoin:
            pass
    return out


def reference_scott_continuous(f, P, Q) -> bool:
    """The former continuity test of ``scott_continuity_check``, by its
    definition: b << f(a) iff some x has b << f(x) and x << a, over all a
    in P and b in Q."""
    wb_p = way_below(P)
    wb_q = way_below(Q)
    return all(
        ((b, f[a]) in wb_q)
        == any((b, f[x]) in wb_q and (x, a) in wb_p for x in P.elements)
        for a in P.elements
        for b in Q.elements
    )


def reference_idempotents(q):
    """The former ``idempotents``: every endo-arrow e with e∘e = e, by its
    own scan, in object-then-element order."""
    out = []
    for x in q.objects:
        lat = q.hom_lat(x, x)
        for e in range(lat.size):
            if q.compose_elems(x, x, x, e, e) == e:
                out.append(QArrow(x, x, e))
    return out


def reference_semifunctor(dom, cod, mapping):
    """The former dict route of ``validate_semifunctor``: the type checks,
    then the action inequalities read from the hom dicts of both ends."""
    _require_same_base(dom, cod, "semifunctor endpoints")
    mapping = dict(mapping)
    if set(mapping) != set(dom.names):
        raise TypeMismatch("object map does not cover the domain", witness=sorted(mapping))
    for a, fa in mapping.items():
        if fa not in cod.objects:
            raise TypeMismatch(f"image {fa!r} is not an object of the codomain", witness=(a, fa))
        if dom.type_of(a) != cod.type_of(fa):
            raise TypeMismatch(f"t({fa!r}) != t({a!r})", witness=(a, fa))
    q = dom.base
    for a1 in dom.names:
        for a0 in dom.names:
            t0, t1 = dom.type_of(a0), dom.type_of(a1)
            if not q.hom_lat(t0, t1).le(
                dom.hom[(a1, a0)], cod.hom[(mapping[a1], mapping[a0])]
            ):
                raise ActionFailure(
                    f"A({a1!r},{a0!r}) ≰ B(F{a1!r},F{a0!r})", witness=(a1, a0)
                )
    return SemiFunctor(dom, cod, mapping)


def dumps_repeating_key(node, target, key, value):
    """``node`` as JSON text in which the object ``target`` (found by
    identity) lists ``key`` a second time, mapped to ``value``; ``json.dumps``
    cannot write a repeated key."""
    if isinstance(node, dict):
        items = list(node.items()) + ([(key, value)] if node is target else [])
        inner = (f"{json.dumps(k)}: {dumps_repeating_key(v, target, key, value)}" for k, v in items)
        return "{" + ", ".join(inner) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dumps_repeating_key(v, target, key, value) for v in node) + "]"
    return json.dumps(node)
