import itertools
import random
from functools import partial

import pytest

from qsemicat import (
    AssocFailure,
    NotAFrame,
    QArrow,
    QsError,
    TypeMismatch,
    UnitFailure,
    build_idm,
    builtin_quantaloid,
    chain,
    diamond_lattice,
    from_frame,
    from_quantale,
    named_lattice,
    validate_quantaloid,
    validate_sup_lattice,
)
import qsemicat.quantaloid as quantaloid_module
from qsemicat.quantaloid import (
    Quantaloid,
    _axioms_hold,
    _check_axioms_exhaustively,
    _first_of_classes,
    _join_plans,
    _preserves_joins,
)
from helpers import (
    endomap_quantaloid,
    full_subquantaloid,
    labelled_lattices,
    min_table,
    oracle_extension,
    oracle_lifting,
    outcome,
    random_lattices,
    reference_frame,
    reference_preserves_joins,
    reference_quantaloid_axioms,
    rel_quantaloid,
    relabelled_hom,
    two_object_quantaloid,
)


def test_three_chain_quantale():
    q = from_quantale(chain(3), min, 2)
    assert q.objects == ("*",)
    assert q.compose_elems("*", "*", "*", 1, 2) == 1


def test_unit_failure_middle_identity():
    with pytest.raises(UnitFailure):
        from_quantale(chain(3), min, 1)  # e∧1 = e != 1


def test_unit_failure_zero_multiplication():
    with pytest.raises(UnitFailure):
        from_quantale(chain(3), lambda g, f: 0, 2)


def test_boolean_algebra_quantaloid():
    q = builtin_quantaloid("2")
    assert q.hom_lat("*", "*").size == 2
    assert q.identity["*"] == 1


def test_assoc_failure_witnessed():
    # units hold (identity = top of the three-chain) but the table is not associative
    table = [[0, 1, 0], [0, 0, 1], [0, 1, 2]]
    with pytest.raises(AssocFailure) as exc:
        from_quantale(chain(3), lambda g, f: table[g][f], 2)
    assert len(exc.value.witness) == 3


def test_sup_preservation_failure_witnessed():
    # unit in the middle of the chain, everything else multiplies to
    # bottom: associative and unital but not monotone, e.g. 1·e = 1 > 0 = 1·1
    from qsemicat import NotSupPreserving

    table = [[0, 0, 0], [0, 1, 2], [0, 2, 0]]
    with pytest.raises(NotSupPreserving):
        from_quantale(chain(3), lambda g, f: table[g][f], 1)


def test_frame_from_chain_and_square():
    for name in ("3", "square"):
        q = from_frame(named_lattice(name))
        lat = q.hom_lat("*", "*")
        assert q.identity["*"] == lat.top


def test_diamond_is_not_a_frame():
    with pytest.raises(NotAFrame) as exc:
        from_frame(diamond_lattice())
    x, y, z = exc.value.witness
    lat = diamond_lattice()
    assert lat.meet2(x, lat.join2(y, z)) != lat.join2(lat.meet2(x, y), lat.meet2(x, z))


def test_diamond_refusal_names_the_first_triple():
    want = (NotAFrame, "meet does not distribute over join at (1, 2, 3)", (1, 2, 3))
    assert outcome(lambda: from_frame(diamond_lattice())) == want


def _frame_cases():
    """The named lattices, every lattice on at most four labelled elements,
    M3 and N5, and a seeded sample of lattices on five and six elements."""
    named = [named_lattice(name) for name in ("2", "3", "4", "square", "diamond")]
    small = [lat for n in range(1, 5) for lat in labelled_lattices(n)]
    n5 = validate_sup_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    return named + small + [diamond_lattice(), n5] + random_lattices(random.Random(0), (5, 6), 400)


def test_from_frame_matches_the_distributivity_loop():
    # frame-ness comes from validate_quantaloid; the former loop is the oracle
    seen = set()
    for lat in _frame_cases():
        want = outcome(lambda: reference_frame(lat))
        got = outcome(lambda: from_frame(lat))
        assert got == want, lat.leq
        seen.add((lat.size, isinstance(want, Quantaloid)))
    # 24 labelled 4-chains and 12 labelled squares, all frames; non-frames from 5 elements
    assert len(labelled_lattices(4)) == 36
    assert seen == {(n, True) for n in range(1, 7)} | {(5, False), (6, False)}


def test_builtin_names():
    assert builtin_quantaloid("3").hom_lat("*", "*").size == 3
    assert builtin_quantaloid("frame:square").hom_lat("*", "*").size == 4
    with pytest.raises(KeyError):
        builtin_quantaloid("frame:pentagon")


def test_hom_lat_refuses_a_missing_pair():
    with pytest.raises(TypeMismatch) as exc:
        builtin_quantaloid("3").hom_lat("*", "X")
    assert (str(exc.value), exc.value.witness) == ("no hom-lattice for ('*', 'X')", ("*", "X"))


def test_builtin_quantaloids_are_built_once():
    assert builtin_quantaloid("2") is builtin_quantaloid("2")
    assert builtin_quantaloid("frame:square") is builtin_quantaloid("frame:square")
    assert builtin_quantaloid("2") is not builtin_quantaloid("3")


@pytest.mark.parametrize(
    "q",
    [
        builtin_quantaloid("2"),
        builtin_quantaloid("3"),
        builtin_quantaloid("frame:square"),
        endomap_quantaloid(),
    ],
    ids=["2", "3", "square", "endomaps"],
)
def test_lifting_matches_bruteforce(q):
    x = q.objects[0]
    elems = range(q.hom_lat(x, x).size)
    for c, b in itertools.product(elems, repeat=2):
        assert q.lifting_elem(x, x, x, c, b) == oracle_lifting(q, x, x, x, c, b)
        assert q.extension_elem(x, x, x, c, b) == oracle_extension(q, x, x, x, c, b)


BUILTIN_NAMES = ["2", "3", "frame:2", "frame:3", "frame:4", "frame:square"]


@pytest.mark.parametrize(
    "q",
    [builtin_quantaloid(name) for name in BUILTIN_NAMES]
    + [rel_quantaloid(), two_object_quantaloid(), endomap_quantaloid()],
    ids=BUILTIN_NAMES + ["relations", "two_object", "endomaps"],
)
def test_dual_quantaloid_validates_and_is_involutive(q):
    d = q.op()
    assert validate_quantaloid(d.objects, d.hom, d.compose_table, d.identity) == d
    assert d.op() is q
    assert d.op() == q


@pytest.mark.parametrize(
    "q", [rel_quantaloid(), two_object_quantaloid()], ids=["relations", "two_object"]
)
def test_extension_matches_bruteforce_on_every_triple(q):
    # extension is the dual's lifting; distinct hom sizes catch any mix-up
    # of the reindexed object triples
    for x, y, z in itertools.product(q.objects, repeat=3):
        for c in range(q.hom_lat(x, y).size):
            for b in range(q.hom_lat(x, z).size):
                assert q.extension_elem(x, y, z, c, b) == oracle_extension(q, x, y, z, c, b)


def test_endomap_quantale_is_noncommutative():
    # liftings and extensions must genuinely differ on this base, so any
    # transposed residuation elsewhere has something to trip over
    q = endomap_quantaloid()
    x = q.objects[0]
    elems = range(q.hom_lat(x, x).size)
    assert any(
        q.lifting_elem(x, x, x, c, b) != q.extension_elem(x, x, x, c, b)
        for c in elems
        for b in elems
    )


def test_lifting_frozen_values_three_chain():
    q = builtin_quantaloid("3")
    lift, ext = (partial(op, "*", "*", "*") for op in (q.lifting_elem, q.extension_elem))
    assert lift(1, 0) == 0  # [e, 0] = 0
    assert lift(1, 1) == 2  # [e, e] = 1
    assert ext(1, 0) == 0
    assert ext(2, 2) == 2


def test_lifting_of_identity_is_unit_law():
    for qname in ("2", "3"):
        q = builtin_quantaloid(qname)
        x = q.objects[0]
        for b in range(q.hom_lat(x, x).size):
            assert q.lifting_elem(x, x, x, q.identity[x], b) == b
            assert q.extension_elem(x, x, x, q.identity[x], b) == b


def test_lifting_adjointness_exhaustive():
    # c∘d <= b  iff  d <= [c, b], over every triple of a two-object quantaloid
    q = two_object_quantaloid()
    for x, y, z in itertools.product(q.objects, repeat=3):
        lxy, lxz = q.hom_lat(x, y), q.hom_lat(x, z)
        for c in range(q.hom_lat(y, z).size):
            for b in range(lxz.size):
                lift = q.lifting_elem(x, y, z, c, b)
                for d in range(lxy.size):
                    assert lxz.le(q.compose_elems(x, y, z, c, d), b) == lxy.le(d, lift)


def test_extension_adjointness_exhaustive():
    q = two_object_quantaloid()
    for x, y, z in itertools.product(q.objects, repeat=3):
        lyz, lxz = q.hom_lat(y, z), q.hom_lat(x, z)
        for c in range(q.hom_lat(x, y).size):
            for b in range(lxz.size):
                ext = q.extension_elem(x, y, z, c, b)
                for d in range(lyz.size):
                    assert lxz.le(q.compose_elems(x, y, z, d, c), b) == lyz.le(d, ext)


def test_residuation_meet_join_laws():
    # [c, meet bi] = meet [c, bi]  and  [join ci, b] = meet [ci, b]
    q = builtin_quantaloid("3")
    x = q.objects[0]
    lat, lift = q.hom_lat(x, x), partial(q.lifting_elem, x, x, x)
    elems = range(lat.size)
    for c, b1, b2 in itertools.product(elems, repeat=3):
        assert lift(c, lat.meet([b1, b2])) == lat.meet([lift(c, b1), lift(c, b2)])
    for c1, c2, b in itertools.product(elems, repeat=3):
        assert lift(lat.join([c1, c2]), b) == lat.meet([lift(c1, b), lift(c2, b)])


def test_compose_preserves_arbitrary_joins():
    q = builtin_quantaloid("3")
    x = q.objects[0]
    lat, compose = q.hom_lat(x, x), partial(q.compose_elems, x, x, x)
    elems = range(lat.size)
    for f in elems:
        for r in range(lat.size + 1):
            for subset in itertools.combinations(elems, r):
                assert compose(lat.join(subset), f) == lat.join(compose(s, f) for s in subset)


def test_validate_rejects_missing_tables():
    lat = chain(2)
    with pytest.raises(TypeMismatch):
        validate_quantaloid(("X",), {("X", "X"): lat}, {}, {"X": 1})
    with pytest.raises(TypeMismatch):
        validate_quantaloid(("X",), {("X", "X"): lat}, {("X", "X", "X"): min_table(2)}, {})


@pytest.mark.parametrize("name", ["2", "3", "4", "square", "diamond"])
def test_join_irreducibles_match_definition(name):
    # x is join-irreducible iff x is not bottom and x = a ∨ b forces x in {a, b}
    lat = named_lattice(name)
    n = lat.size
    expected = tuple(
        x
        for x in range(n)
        if x != lat.bottom
        and all(x in (a, b) for a in range(n) for b in range(n) if lat.join2(a, b) == x)
    )
    assert lat.join_irreducibles == expected
    for x in range(n):
        assert lat.join(j for j in expected if lat.le(j, x)) == x


def _single_entry_mutations(q, limit):
    """Every (table key, g, f, new value) that changes one composition entry,
    or a fixed-seed sample of ``limit`` of them."""
    out = []
    for key, table in q.compose_table.items():
        size = q.hom[(key[0], key[2])].size
        for g, row in enumerate(table):
            for f, value in enumerate(row):
                out.extend((key, g, f, new) for new in range(size) if new != value)
    if limit is not None and len(out) > limit:
        out = random.Random(0).sample(out, limit)
    return out


def _relabelled_idm():
    return build_idm(relabelled_hom(rel_quantaloid(), ("X", "Y"), (3, 1, 2, 0))).quantaloid


def _outcome(run):
    try:
        run()
    except QsError as exc:
        return type(exc), str(exc), exc.witness
    return None


MUTATION_CASES = {
    "2": (lambda: builtin_quantaloid("2"), None),
    "3": (lambda: builtin_quantaloid("3"), None),
    "frame:4": (lambda: builtin_quantaloid("frame:4"), None),
    "frame:square": (lambda: builtin_quantaloid("frame:square"), None),
    "endomaps": (endomap_quantaloid, None),
    "two_object": (two_object_quantaloid, None),
    "relations": (rel_quantaloid, 300),
    "idm:3": (lambda: build_idm(builtin_quantaloid("3")).quantaloid, None),
    "idm:two_object": (lambda: build_idm(two_object_quantaloid()).quantaloid, None),
    "idm:frame:square": (lambda: build_idm(builtin_quantaloid("frame:square")).quantaloid, None),
    # every rejection here walks the 13-object completion exhaustively twice
    "idm:relations": (lambda: build_idm(rel_quantaloid()).quantaloid, 20),
    # moving bottom in hom(X, Y) gives content-equal tables over different
    # hom-lattices, so a dedupe key that drops a lattice would merge them
    "idm:relations-relabelled": (_relabelled_idm, 20),
    # four of its objects, few enough to transplant every table (see below)
    "idm:relations-relabelled:4": (
        lambda: full_subquantaloid(_relabelled_idm(), ("X|0", "X|1", "Y|3", "Y|9")),
        300,
    ),
}


@pytest.mark.parametrize("name", list(MUTATION_CASES))
def test_validate_agrees_with_exhaustive_reference_on_mutated_tables(name):
    build, limit = MUTATION_CASES[name]
    q = build()
    rejected = 0
    for key, g, f, new in _single_entry_mutations(q, limit):
        tables = dict(q.compose_table)
        rows = [list(row) for row in tables[key]]
        rows[g][f] = new
        tables[key] = rows
        got = _outcome(lambda: validate_quantaloid(q.objects, q.hom, tables, q.identity))
        want = _outcome(
            lambda: reference_quantaloid_axioms(q.objects, q.hom, tables, q.identity)
        )
        assert got == want, (key, g, f, new)
        rejected += want is not None
    assert rejected


@pytest.mark.parametrize("name", list(MUTATION_CASES))
def test_preserves_joins_agrees_with_all_pairs_reference_per_table(name):
    # the join-irreducible restriction must decide each table exactly as
    # checking every row, every column and every pair of elements does
    build, limit = MUTATION_CASES[name]
    q = build()

    def agree(key, table):
        x, y, z = key
        lattices = q.hom[(x, y)], q.hom[(y, z)], q.hom[(x, z)]
        got = _preserves_joins(table, *lattices, _join_plans(lattices[0]), _join_plans(lattices[1]))
        assert got == reference_preserves_joins(table, *lattices), key
        return got

    assert all(agree(key, table) for key, table in q.compose_table.items())
    rejected = 0
    for key, g, f, new in _single_entry_mutations(q, limit):
        rows = [list(row) for row in q.compose_table[key]]
        rows[g][f] = new
        rejected += not agree(key, tuple(map(tuple, rows)))
    assert rejected


@pytest.mark.parametrize("name", list(MUTATION_CASES))
def test_fast_path_decides_exactly_the_exhaustive_axioms(name):
    # a fast path that wrongly fails would only cost time in validate_quantaloid,
    # so its verdict is compared with the exhaustive loops directly
    build, limit = MUTATION_CASES[name]
    q = build()
    assert _axioms_hold(q.objects, q.hom, q.compose_table)
    rejected = 0
    for key, g, f, new in _single_entry_mutations(q, limit):
        tables = dict(q.compose_table)
        rows = [list(row) for row in tables[key]]
        rows[g][f] = new
        tables[key] = rows
        want = _outcome(lambda: _check_axioms_exhaustively(q.objects, q.hom, tables))
        assert _axioms_hold(q.objects, q.hom, tables) == (want is None), (key, g, f, new)
        rejected += want is not None
    assert rejected


def _transplants(q, limit):
    """Every (key, table) that puts another table of q at ``key``, where its
    shape and range fit, or a fixed-seed sample of ``limit`` of them.

    The table is the same object that q holds elsewhere, now over other
    hom-lattices, so a validator that checks each distinct instance once
    must still tell the two places apart."""
    distinct = list(dict.fromkeys(q.compose_table.values()))
    out = []
    for key, table in q.compose_table.items():
        size = q.hom[(key[0], key[2])].size
        out.extend(
            (key, other)
            for other in distinct
            if other != table
            and (len(other), len(other[0])) == (len(table), len(table[0]))
            and max(map(max, other)) < size
        )
    if limit is not None and len(out) > limit:
        out = random.Random(0).sample(out, limit)
    return out


@pytest.mark.parametrize(
    "name", ["relations", "idm:frame:square", "idm:relations", "idm:relations-relabelled:4"]
)
def test_validate_and_fast_path_agree_with_references_on_transplanted_tables(name):
    build, limit = MUTATION_CASES[name]
    q = build()
    rejected = 0
    for key, table in _transplants(q, limit):
        tables = dict(q.compose_table)
        tables[key] = table
        want = _outcome(lambda: _check_axioms_exhaustively(q.objects, q.hom, tables))
        assert _axioms_hold(q.objects, q.hom, tables) == (want is None), key
        got = _outcome(lambda: validate_quantaloid(q.objects, q.hom, tables, q.identity))
        want = _outcome(lambda: reference_quantaloid_axioms(q.objects, q.hom, tables, q.identity))
        assert got == want, key
        rejected += want is not None
    assert rejected


def test_one_list_shared_under_keys_of_different_sizes_is_checked_under_each():
    # the validator checks shape and range once per (table object, hom sizes),
    # so one list object under several keys must still be judged at each;
    # both object orders, so either key of a pair can come first
    q = rel_quantaloid()
    outcomes = set()
    for objects in (q.objects, q.objects[::-1]):
        keys = list(itertools.product(objects, repeat=3))
        for source, other in itertools.permutations(keys, 2):
            shared = [list(row) for row in q.compose_table[source]]
            tables = dict(q.compose_table)
            tables[source] = tables[other] = shared
            got = _outcome(lambda: validate_quantaloid(objects, q.hom, tables, q.identity))
            want = _outcome(lambda: reference_quantaloid_axioms(objects, q.hom, tables, q.identity))
            assert got == want, (objects, source, other)
            if want is not None and want[2] == other and keys.index(source) < keys.index(other):
                outcomes.add(want[1].split(" has ")[-1])
    # wrong shape and out of range at a key after one where the list passes
    assert outcomes == {"wrong shape", "out-of-range entries"}


def _per_key_copies(tables):
    """The same tables as a fresh list per key, so no two objects are
    interchangeable and the validator walks every object."""
    return {key: [list(row) for row in table] for key, table in tables.items()}


def test_validate_checks_one_object_per_class_of_interchangeable_objects(monkeypatch):
    # Idm(R)'s 13 objects share identities, hom-lattices and tables in 5 classes
    q = build_idm(rel_quantaloid()).quantaloid
    seen = []

    def spy(objects, homs, tables):
        seen.append(len(objects))
        return _axioms_hold(objects, homs, tables)

    monkeypatch.setattr(quantaloid_module, "_axioms_hold", spy)
    got = validate_quantaloid(q.objects, q.hom, q.compose_table, q.identity)
    assert seen == [5]
    assert got == validate_quantaloid(q.objects, q.hom, _per_key_copies(q.compose_table), q.identity)
    assert seen == [5, 13]
    interned = {}
    assert all(interned.setdefault(t, t) is t for t in got.compose_table.values())


def _shared_breakages(q, sample):
    """Broken copies of tables that q holds, each to be put at every key that
    holds the original: a wrong shape and an out-of-range entry for a few
    tables, then ``sample`` single entries changed to another entry of the
    same table, so still in range at every key (fixed seed)."""
    rng = random.Random(0)
    distinct = list({id(t): t for t in q.compose_table.values()}.values())
    out = []
    for victim in rng.sample(distinct, 4):
        out.append((victim, victim + victim[:1]))
        out.append((victim, ((-1,) + victim[0][1:],) + victim[1:]))
    while len(out) < 8 + sample:
        victim = rng.choice(distinct)
        g, f = rng.randrange(len(victim)), rng.randrange(len(victim[0]))
        others = sorted({v for row in victim for v in row} - {victim[g][f]})
        if others:
            rows = [list(row) for row in victim]
            rows[g][f] = rng.choice(others)
            out.append((victim, tuple(map(tuple, rows))))
    return out


def test_refusals_through_a_class_match_the_full_walk():
    # a broken table put at every key that holds the original keeps the
    # classes, so the validator checks the first members only; the same
    # tables copied per key take the full walk over all 13 objects
    q = build_idm(rel_quantaloid()).quantaloid
    pairs = list(itertools.product(q.objects, repeat=2))
    kinds = set()
    for victim, broken in _shared_breakages(q, 40):
        tables = {key: broken if t is victim else t for key, t in q.compose_table.items()}
        raws = list(tables.values())
        assert len(_first_of_classes(q.objects, q.hom, q.identity, pairs, raws)) == 5
        got = outcome(lambda: validate_quantaloid(q.objects, q.hom, tables, q.identity))
        copies = _per_key_copies(tables)
        want = outcome(lambda: validate_quantaloid(q.objects, q.hom, copies, q.identity))
        assert got == want, broken
        kinds.add((want[0], want[1].partition(" has ")[2]))
    assert kinds == {
        (TypeMismatch, "wrong shape"),
        (TypeMismatch, "out-of-range entries"),
        (UnitFailure, ""),
        (AssocFailure, ""),
    }


def test_quantaloid_without_objects_and_its_completion():
    q = validate_quantaloid((), {}, {}, {})
    assert (q.objects, q.hom, q.compose_table) == ((), {}, {})
    assert build_idm(q).objects == ()



def _with_element(q, slot, value):
    """q's identities and tables with ``value`` in place of one element
    that is 1, and the class, message and witness of the refusal.

    The identity is that of the last object whose identity is 1; in
    Idm(R) it shares its identity, homs and tables with others of its
    class.  The table is the first that holds a 1, changed at its first
    key only."""
    identities, tables = dict(q.identity), dict(q.compose_table)
    if slot == "identity":
        x = next(x for x in reversed(q.objects) if identities[x] == 1)
        identities[x] = value
        return identities, tables, (TypeMismatch, f"identity for {x!r} out of range", x)
    key = next(key for key, table in tables.items() if 1 in itertools.chain(*table))
    rows = [list(row) for row in tables[key]]
    g = next(g for g, row in enumerate(rows) if 1 in row)
    rows[g][rows[g].index(1)] = value
    tables[key] = rows
    want = (TypeMismatch, f"composition table {key} has out-of-range entries", key)
    return identities, tables, want


@pytest.mark.parametrize("value", [True, 1.0, "1", None, [1]], ids=repr)
@pytest.mark.parametrize("slot", ["identity", "table"])
@pytest.mark.parametrize("name", ["2", "idm:relations"])
def test_an_element_that_is_not_an_int_is_out_of_range(name, slot, value):
    # True and 1.0 equal the element 1; "1", None and [1] do not compare
    # with it, and [1] cannot be hashed
    q = builtin_quantaloid("2") if name == "2" else build_idm(rel_quantaloid()).quantaloid
    identities, tables, want = _with_element(q, slot, value)
    assert outcome(lambda: validate_quantaloid(q.objects, q.hom, tables, identities)) == want


@pytest.mark.parametrize("hom", [5, None, [[0]], chain(2).leq], ids=["int", "none", "list", "rows"])
def test_a_hom_that_is_not_a_sup_lattice_is_refused(hom):
    # a bare AttributeError or TypeError before the check
    got = outcome(
        lambda: validate_quantaloid(["X"], {("X", "X"): hom}, {("X", "X", "X"): [[0]]}, {"X": 0})
    )
    assert got == (TypeMismatch, "hom-lattice ('X', 'X') is not a SupLattice", ("X", "X"))


def test_the_first_hom_that_is_not_a_sup_lattice_is_named():
    q = two_object_quantaloid()
    homs = {**q.hom, ("Y", "X"): 2, ("Y", "Y"): "2"}
    got = outcome(lambda: validate_quantaloid(q.objects, homs, q.compose_table, q.identity))
    assert got == (TypeMismatch, "hom-lattice ('Y', 'X') is not a SupLattice", ("Y", "X"))


@pytest.mark.parametrize("name", [["X"], {"X"}, ("X", ["Y"])], ids=["list", "set", "tuple-of-list"])
def test_an_object_name_that_is_not_hashable_is_refused(name):
    # a bare TypeError ("unhashable type") before the check
    got = outcome(lambda: validate_quantaloid(["X", name], {}, {}, {}))
    assert got == (TypeMismatch, f"object name {name!r} is not hashable", name)


@pytest.mark.parametrize("table", [5, None, [5, 5], [[0, 0], 5], "ab"], ids=repr)
def test_a_table_that_is_not_a_sequence_of_sequences_has_wrong_shape(table):
    # all but "ab" raised a bare TypeError from len() before the check
    got = outcome(
        lambda: validate_quantaloid(
            ["X"], {("X", "X"): chain(2)}, {("X", "X", "X"): table}, {"X": 1}
        )
    )
    assert got == (TypeMismatch, "composition table ('X', 'X', 'X') has wrong shape", ("X", "X", "X"))


@pytest.mark.parametrize("table", [5, None, [[0], 5]], ids=repr)
def test_a_table_without_a_shape_is_named_by_its_key(table):
    q = two_object_quantaloid()
    key = ("X", "Y", "X")
    tables = {**q.compose_table, key: table}
    got = outcome(lambda: validate_quantaloid(q.objects, q.hom, tables, q.identity))
    assert got == (TypeMismatch, f"composition table {key} has wrong shape", key)
