import itertools
import random

import pytest

from qsemicat import (
    EnumerationCapExceeded,
    NotAPartialOrder,
    NotSymmetric,
    NotTransitive,
    NotTransitiveEq,
    TypeMismatch,
    bottom_semidist,
    build_idm,
    builtin_quantaloid,
    chain,
    from_frame,
    from_quantale,
    has_interpolation,
    identity_semidist,
    is_omega_morphism,
    is_regular_presheaf,
    is_regular_semicat,
    named_lattice,
    omega_subsets,
    scott_closeds,
    scott_continuity_check,
    scott_opens,
    strict_order_to_semicat,
    validate_omega_set,
    validate_poset,
    validate_semidistributor,
    validate_semifunctor,
    validate_sup_lattice,
    way_below,
    yoneda,
)
import qsemicat.instances
from qsemicat.completion import RsdistIdmReport
from qsemicat.instances import ScottContinuityReport
from qsemicat.semicat import TypedSet
from helpers import (
    all_posets,
    chain3_A,
    chain3_C,
    downsets_of_poset,
    endomap_quantaloid,
    outcome,
    reference_directed_subsets,
    reference_interpolation,
    reference_omega_set,
    reference_poset,
    reference_presheaves,
    reference_scott_continuous,
    reference_transitive,
    rows_to_pairs,
    two_object_quantaloid,
    upsets_of_poset,
)

RELATION_BUILDERS = [validate_poset, strict_order_to_semicat, has_interpolation]


def test_validate_poset():
    P = validate_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert P.le("x", "z") and not P.le("z", "x")
    with pytest.raises(NotAPartialOrder):
        validate_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_validate_poset_reads_a_one_shot_iterable():
    want = validate_poset(["a", "b"], [("a", "b")])
    got = validate_poset(["a", "b"], (p for p in [("a", "b")]))
    assert want.leq[("a", "b")] and not want.leq[("b", "a")]
    assert got.elements == want.elements and got.leq == want.leq


def test_strict_order_examples():
    A = strict_order_to_semicat(["a", "b"], [("a", "b")])
    assert not is_regular_semicat(A)

    empty = strict_order_to_semicat(["a", "b"], [])
    assert is_regular_semicat(empty)

    loop = strict_order_to_semicat(["a"], [("a", "a")])
    assert is_regular_semicat(loop)

    with pytest.raises(NotTransitive):
        strict_order_to_semicat(["a", "b", "c"], [("a", "b"), ("b", "c")])


def _assert_former_loops_agree(elements, pairs):
    # class, message and witness, or the result, of each relation builder
    # against the loops it replaced
    got = outcome(lambda: validate_poset(elements, pairs))
    if not isinstance(got, tuple):
        got = got.elements, got.leq
    assert got == outcome(lambda: reference_poset(elements, pairs)), pairs
    want = outcome(lambda: reference_transitive(pairs))
    got = outcome(lambda: strict_order_to_semicat(elements, pairs).hom)
    if isinstance(want, set):
        assert got == {(x, y): int((x, y) in want) for x in elements for y in elements}, pairs
        want = reference_interpolation(elements, pairs)
    else:
        assert got == want, pairs
    assert outcome(lambda: has_interpolation(elements, pairs)) == want, pairs


def test_relation_builders_match_former_loops_on_three_elements():
    elements = ("a", "b", "c")
    cells = list(itertools.product(elements, repeat=2))
    for mask in range(1 << len(cells)):
        pairs = [cell for k, cell in enumerate(cells) if mask >> k & 1]
        _assert_former_loops_agree(elements, pairs)
        _assert_former_loops_agree(elements, pairs[::-1])


@pytest.mark.parametrize("n", [4, 5])
def test_relation_builders_match_former_loops_on_a_seeded_sample(n):
    rng = random.Random(n)
    elements = tuple("abcde"[:n])
    for trial in range(400):
        rel = {cell for cell in itertools.product(elements, repeat=2) if rng.random() < 0.3}
        if trial % 2:
            # its transitive closure, so that the valid branches run too
            for y in elements:
                rel |= {(x, z) for x, y1 in rel if y1 == y for y2, z in rel if y2 == y}
        pairs = sorted(rel)
        rng.shuffle(pairs)
        _assert_former_loops_agree(elements, pairs)


def test_has_interpolation_examples():
    # dense fragment with loops interpolates
    assert has_interpolation(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])
    assert not has_interpolation(["a", "b"], [("a", "b")])
    # preorders interpolate through reflexivity
    assert has_interpolation(
        ["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")]
    )
    with pytest.raises(NotTransitive):
        has_interpolation(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_interpolation_is_regularity():
    rels = [
        [],
        [("a", "b")],
        [("a", "a")],
        [("a", "a"), ("a", "b"), ("b", "b")],
        [("a", "b"), ("a", "c"), ("b", "c")],
    ]
    for pairs in rels:
        names = sorted({x for p in pairs for x in p} | {"a"})
        assert has_interpolation(names, pairs) == is_regular_semicat(
            strict_order_to_semicat(names, pairs)
        )


def test_way_below_on_finite_posets_is_leq():
    chain2 = validate_poset(["0", "1"], [("0", "1")])
    assert way_below(chain2) == {(x, y) for x in "01" for y in "01" if x <= y}

    diamond = validate_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    wb = way_below(diamond)
    assert wb == {(x, y) for x in diamond.elements for y in diamond.elements if diamond.le(x, y)}


def test_directed_subsets_have_maxima():
    P = validate_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    for subset, join in reference_directed_subsets(P):
        assert join in subset  # finite directed sets peak


def test_way_below_and_scott_opens_past_twelve_elements():
    names = [f"{i:02}" for i in range(13)]
    chain13 = validate_poset(names, list(zip(names, names[1:])))
    assert len(way_below(chain13)) == 91
    assert scott_opens(chain13) == [frozenset(names[k:]) for k in range(13, -1, -1)]
    # the presheaf cap still bounds the Scott material: 2**20 candidate opens
    antichain = validate_poset([str(i) for i in range(20)], [])
    with pytest.raises(EnumerationCapExceeded):
        scott_opens(antichain)


def test_scott_opens_and_closeds_of_a_sixteen_chain():
    # 2**16 candidates of each variance, 17 opens and 17 closeds
    names = [f"{i:02}" for i in range(16)]
    chain16 = validate_poset(names, list(zip(names, names[1:])))
    assert scott_opens(chain16) == [frozenset(names[k:]) for k in range(16, -1, -1)]
    assert scott_closeds(chain16) == [frozenset(names[:k]) for k in range(17)]


def test_scott_opens_and_closeds_two_chain():
    P = validate_poset(["0", "1"], [("0", "1")])
    assert scott_opens(P) == [frozenset(), frozenset({"1"}), frozenset({"0", "1"})]
    assert scott_closeds(P) == [frozenset(), frozenset({"0"}), frozenset({"0", "1"})]


def test_scott_discrete_poset():
    P = validate_poset(["x", "y"], [])
    assert len(scott_opens(P)) == 4  # every subset is an up-set


def test_scott_matches_upset_downset_oracles():
    P = validate_poset(
        ["a", "b", "c"], [("a", "b"), ("a", "c")]
    )
    assert scott_opens(P) == upsets_of_poset(P.elements, P.le)
    assert scott_closeds(P) == downsets_of_poset(P.elements, P.le)


def test_omega_set_three_chain():
    frame = from_frame(chain(3))
    E = validate_omega_set(frame, ["*"], {("*", "*"): 1})
    assert is_regular_semicat(E.as_semicategory())
    assert [p.values for p in omega_subsets(E)] == [(0,), (1,)]


def test_omega_subsets_count_is_principal_downset_size():
    # over the square frame, the subobjects of ({*}, u) are the elements below u
    frame = from_frame(named_lattice("square"))
    lat = frame.hom_lat("*", "*")
    for u in range(lat.size):
        E = validate_omega_set(frame, ["*"], {("*", "*"): u})
        below = [v for v in range(lat.size) if lat.le(v, u)]
        assert [p.values[0] for p in omega_subsets(E)] == below


def test_omega_subsets_match_the_product_filter():
    # over the square frame (0 < 1, 2 < 3), with extents below the top, so
    # some presheaves on the equality are not regular
    frame = from_frame(named_lattice("square"))
    extent = {"p": 3, "q": 1, "r": 2, "s": 3}
    eq = {(x, y): extent[x] if x == y else 0 for x in extent for y in extent}
    eq |= {("p", "q"): 1, ("q", "p"): 1, ("p", "r"): 2, ("r", "p"): 2}
    eq |= {("p", "s"): 1, ("s", "p"): 1, ("q", "s"): 1, ("s", "q"): 1}
    E = validate_omega_set(frame, list(extent), eq)
    every = reference_presheaves(E.as_semicategory(), "*", "contra")
    want = [phi for phi in every if is_regular_presheaf(phi)]
    assert 1 < len(want) < len(every)
    assert omega_subsets(E) == want


def test_omega_set_rejections():
    frame = from_frame(chain(3))
    with pytest.raises(NotSymmetric):
        validate_omega_set(frame, ["a", "b"], {("a", "b"): 1, ("b", "a"): 2})
    # [a=b] above the self-similarity of a breaks the triangle law
    with pytest.raises(NotTransitiveEq):
        validate_omega_set(
            frame, ["a", "b"], {("a", "a"): 0, ("b", "b"): 2, ("a", "b"): 2, ("b", "a"): 2}
        )


def test_every_omega_set_is_regular():
    frame = from_frame(chain(3))
    count = 0
    for vals in itertools.product(range(3), repeat=3):
        eq = {
            ("p", "p"): vals[0],
            ("p", "q"): vals[1],
            ("q", "p"): vals[1],
            ("q", "q"): vals[2],
        }
        try:
            E = validate_omega_set(frame, ["p", "q"], eq)
        except NotTransitiveEq:
            continue
        count += 1
        assert is_regular_semicat(E.as_semicategory())
    assert count > 1


def _equality_mutants(frame, elements):
    """Every valid symmetric equality on ``elements`` over a one-object frame,
    and every mutation of one entry: alone, and with its mirror entry."""
    k = frame.hom_lat("*", "*").size
    keys = list(itertools.combinations_with_replacement(elements, 2))
    for vals in itertools.product(range(k), repeat=len(keys)):
        eq = {}
        for (x, y), v in zip(keys, vals):
            eq[(x, y)] = eq[(y, x)] = v
        try:
            reference_omega_set(frame, elements, eq)
        except NotTransitiveEq:
            continue
        yield eq
        for (x, y), v in eq.items():
            for new in range(k):
                if new != v:
                    yield {**eq, (x, y): new}
                    if x < y:
                        yield {**eq, (x, y): new, (y, x): new}


@pytest.mark.parametrize("name", ["3", "frame:4", "frame:square"])
def test_validate_omega_set_agrees_with_triangle_loop(name):
    frame = builtin_quantaloid(name)
    elements = ("p", "q", "r")
    seen = set()
    for eq in _equality_mutants(frame, elements):
        got = outcome(lambda: validate_omega_set(frame, elements, eq))
        if not isinstance(got, tuple):
            got = got.elements, got.eq
        want = outcome(lambda: reference_omega_set(frame, elements, eq))
        assert got == want, eq
        seen.add(want[0] if isinstance(want[0], type) else None)
    assert seen == {None, NotSymmetric, NotTransitiveEq}


def test_omega_set_on_elements_that_are_not_strings():
    # the semicategory names its objects str(x); the Ω-set keeps the given x
    frame = builtin_quantaloid("frame:square")
    E = validate_omega_set(frame, [0, 1], {(0, 0): 3, (1, 1): 3, (0, 1): 1, (1, 0): 1})
    named = {("0", "0"): 3, ("1", "1"): 3, ("0", "1"): 1, ("1", "0"): 1}
    S = validate_omega_set(frame, ["0", "1"], named)
    assert E.elements == (0, 1) and E.as_semicategory() == S.as_semicategory()
    seen = set()
    for eq in _equality_mutants(frame, (0, 1)):
        got = outcome(lambda: validate_omega_set(frame, (0, 1), eq))
        if not isinstance(got, tuple):
            named = {(str(x), str(y)): e for (x, y), e in eq.items()}
            strings = validate_omega_set(frame, ("0", "1"), named).as_semicategory()
            assert got.as_semicategory() == strings, eq
            got = got.elements, got.eq
        # a refusal names the given elements, as the reference does
        assert got == outcome(lambda: reference_omega_set(frame, (0, 1), eq)), eq
        seen.add(got[0] if isinstance(got[0], type) else None)
    assert seen == {None, NotSymmetric, NotTransitiveEq}
    with pytest.raises(TypeMismatch, match="duplicate element name '0'"):
        validate_omega_set(frame, [0, "0"], {})


def test_omega_set_is_validated_once(monkeypatch):
    calls = []
    real = qsemicat.instances.validate_semicategory
    monkeypatch.setattr(
        qsemicat.instances,
        "validate_semicategory",
        lambda *args: calls.append(args) or real(*args),
    )
    eq = {("p", "p"): 2, ("q", "q"): 1, ("p", "q"): 1, ("q", "p"): 1}
    E = validate_omega_set(builtin_quantaloid("3"), ["p", "q"], eq)
    A = E.as_semicategory()
    assert E.as_semicategory() is A and E.as_semicategory() is A
    assert A.hom == E.eq
    assert len(calls) == 1


def test_omega_morphism_examples():
    frame = from_frame(chain(3))
    E = validate_omega_set(frame, ["p"], {("p", "p"): 1})
    F = validate_omega_set(frame, ["q"], {("q", "q"): 1})
    A, B = E.as_semicategory(), F.as_semicategory()

    from qsemicat import identity_semidist

    assert is_omega_morphism(identity_semidist(A))
    # the graph of the evident isomorphism
    iso = validate_semidistributor(A, B, {("q", "p"): 1})
    assert is_omega_morphism(iso)
    # the empty semidistributor has no adjoint when self-similarity is not bottom
    assert not is_omega_morphism(bottom_semidist(A, B))


def test_scott_continuity_check():
    P = validate_poset(["0", "1"], [("0", "1")])
    ident = scott_continuity_check({"0": "0", "1": "1"}, P, P)
    assert ident.continuous and ident.graph_regular

    monotone = scott_continuity_check({"0": "0", "1": "0"}, P, P)
    assert monotone.continuous

    flipped = scott_continuity_check({"0": "1", "1": "0"}, P, P)
    assert not flipped.continuous


def test_scott_continuity_between_different_posets():
    P = validate_poset(["0", "1"], [("0", "1")])
    D = validate_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    up = scott_continuity_check({"0": "bot", "1": "top"}, P, D)
    assert up.continuous and up.graph_regular
    crossing = scott_continuity_check({"0": "l", "1": "r"}, P, D)
    assert not crossing.continuous  # l and r are incomparable


@pytest.mark.parametrize(
    "elements, pairs",
    [
        ([0, 1], [(0, 1)]),
        ([0, 1, 2], [(0, 1), (1, 2)]),
        ([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ([0, 1, 2], [(0, 2)]),
    ],
)
def test_scott_on_integer_elements_matches_a_string_copy(elements, pairs):
    P = validate_poset(elements, pairs)
    S = validate_poset([str(x) for x in elements], [(str(x), str(y)) for x, y in pairs])
    wb = sorted(way_below(P))
    W = strict_order_to_semicat(S.elements, [(str(x), str(y)) for x, y in wb])
    assert strict_order_to_semicat(elements, wb) == W
    for found, want in ((scott_opens(P), scott_opens(S)), (scott_closeds(P), scott_closeds(S))):
        # the subsets hold the poset's own elements
        assert all(isinstance(x, int) for subset in found for x in subset)
        assert [frozenset(map(str, subset)) for subset in found] == want
    for img in itertools.product(elements, repeat=len(elements)):
        f = dict(zip(elements, img))
        g = {str(x): str(y) for x, y in f.items()}
        assert scott_continuity_check(f, P, P) == scott_continuity_check(g, S, S), f


def test_scott_on_mixed_type_elements():
    P = validate_poset([0, "a"], [(0, "a")])
    assert scott_opens(P) == [frozenset(), frozenset({"a"}), frozenset({0, "a"})]
    assert scott_closeds(P) == [frozenset(), frozenset({0}), frozenset({0, "a"})]
    S = validate_poset(["0", "a"], [("0", "a")])
    for img in itertools.product(P.elements, repeat=2):
        f = dict(zip(P.elements, img))
        g = {str(x): str(y) for x, y in f.items()}
        assert scott_continuity_check(f, P, P) == scott_continuity_check(g, S, S), f


def test_poset_elements_with_colliding_names_are_refused():
    with pytest.raises(TypeMismatch) as exc:
        validate_poset([1, "1"], [])
    assert exc.value.witness == "1"


@pytest.mark.parametrize("build", RELATION_BUILDERS)
def test_relation_builders_refuse_a_pair_naming_an_unlisted_element(build):
    # no builder drops the pair ("a", "b") or adds "b" to the elements
    with pytest.raises(TypeMismatch) as exc:
        build(["a"], [("a", "a"), ("a", "b")])
    assert str(exc.value) == "pair ('a', 'b') names unknown elements"
    assert exc.value.witness == ("a", "b")


ELEMENT_BUILDERS = RELATION_BUILDERS + [
    lambda elements, pairs: validate_omega_set(builtin_quantaloid("3"), elements, {})
]


@pytest.mark.parametrize("build", ELEMENT_BUILDERS)
@pytest.mark.parametrize(
    "elements, witness",
    [([1, True], (1, True)), ([1.0, "a", 1], (1.0, 1)), ([True, 1.0, True], (True, 1.0))],
)
def test_builders_refuse_equal_elements_named_differently(build, elements, witness):
    # 1 == True == 1.0, but the object names "1", "True" and "1.0" differ
    with pytest.raises(TypeMismatch) as exc:
        build(elements, [(elements[-1], elements[0])])
    message = f"{witness[0]!r} and {witness[1]!r} are equal but named differently"
    assert (str(exc.value), exc.value.witness) == (message, witness)


def test_equal_elements_named_differently_are_not_merged():
    want = (TypeMismatch, "1 and True are equal but named differently", (1, True))
    assert outcome(lambda: validate_poset([1, True], [(True, 1)])) == want
    assert outcome(lambda: has_interpolation([1, True], [(1, True)])) == want
    frame = builtin_quantaloid("frame:3")
    eq = {(1, 1): 2, (True, True): 1}  # one key: Python keeps the first key, the last value
    assert outcome(lambda: validate_omega_set(frame, [1, True], eq)) == want


@pytest.mark.parametrize("build", RELATION_BUILDERS)
def test_relation_builders_read_pair_components_by_name(build):
    # True == 1, but it names no listed element of [1, 2]
    with pytest.raises(TypeMismatch) as exc:
        build([1, 2], [(True, 2)])
    want = ("pair (True, 2) names unknown elements", (True, 2))
    assert (str(exc.value), exc.value.witness) == want


# (reader, its two valid elements, the class it refuses a value that is not a pair with)
PAIR_READERS = [
    pytest.param(lambda pairs: validate_sup_lattice(2, pairs), (0, 1), ValueError, id="lattice"),
    *(pytest.param(lambda pairs, b=b: b(["a", "b"], pairs), ("a", "b"), TypeMismatch, id=b.__name__)
      for b in RELATION_BUILDERS),
]
# values that are not pairs, each built from the two elements; unpacking misreads or crashes on each
NOT_PAIRS = {
    "int": lambda x, y: 5,
    "str": lambda x, y: f"{x}{y}",
    "triple": lambda x, y: (x, y, x),
    "iterator": lambda x, y: iter((x, y)),
    "dict": lambda x, y: {x: 1, y: 1},
    "set": lambda x, y: {x, y},
}


@pytest.mark.parametrize("shape", NOT_PAIRS)
@pytest.mark.parametrize("read, elements, refusal", PAIR_READERS)
def test_a_value_that_is_not_a_pair_is_refused(read, elements, refusal, shape):
    # no bare TypeError or ValueError, and no reading of "ab" as ("a", "b")
    bad = NOT_PAIRS[shape](*elements)
    with pytest.raises(Exception) as exc:
        read([elements, bad])
    assert type(exc.value) is refusal and repr(bad) in str(exc.value)
    if refusal is TypeMismatch:
        assert (str(exc.value), exc.value.witness) == (f"{bad!r} is not a pair", bad)


@pytest.mark.parametrize("build", RELATION_BUILDERS)
def test_relation_builders_refuse_the_first_bad_pair_in_pair_order(build):
    unknown = (TypeMismatch, "pair ('a', 'c') names unknown elements", ("a", "c"))
    assert outcome(lambda: build(["a", "b"], [("a", "c"), "ab"])) == unknown
    assert outcome(lambda: build(["a", "b"], ["ab", ("a", "c")])) == (
        TypeMismatch, "'ab' is not a pair", "ab"
    )
    build(["a", "b"], [["a", "b"]])  # a list of two is a pair


def test_a_pair_naming_listed_elements_still_builds():
    P = validate_poset([1, 2], [(1, 2)])
    assert P.le(1, 2) and not P.le(2, 1)


def test_omega_set_reads_equality_keys_by_name():
    want = (TypeMismatch, "equality (True, True) names unknown elements", (True, True))
    frame = builtin_quantaloid("3")
    assert outcome(lambda: validate_omega_set(frame, [1], {(True, True): 1})) == want
    # the key is refused before its value is read, in range or not
    assert outcome(lambda: validate_omega_set(frame, [1], {(True, True): 9})) == want
    assert validate_omega_set(frame, [1], {(1, 1): 1}).eq == {(1, 1): 1}


def test_builders_drop_a_repeated_element():
    assert validate_poset([1, 2, 1], [(1, 2)]).elements == (1, 2)
    assert strict_order_to_semicat(["a", "b", "a"], [("a", "b")]).names == ("a", "b")
    assert has_interpolation([True, True], [(True, True)])
    E = validate_omega_set(builtin_quantaloid("3"), [0, 0], {(0, 0): 2})
    assert (E.elements, E.eq) == ((0,), {(0, 0): 2})


def test_omega_set_refuses_a_name_collision_before_range_and_symmetry():
    frame = builtin_quantaloid("3")
    for eq in ({(0, 0): 9}, {(0, "0"): 1, ("0", 0): 2}):
        with pytest.raises(TypeMismatch) as exc:
            validate_omega_set(frame, [0, "0"], eq)
        assert (str(exc.value), exc.value.witness) == ("duplicate element name '0'", "0")


@pytest.mark.parametrize("build", ELEMENT_BUILDERS)
def test_relation_builders_refuse_elements_with_one_name(build):
    with pytest.raises(TypeMismatch) as exc:
        build([1, "1", 1], [(1, 1)])
    assert (str(exc.value), exc.value.witness) == ("duplicate element name '1'", "1")


def test_interpolation_and_regularity_agree_on_an_unlisted_middle():
    pairs = [("a", "c"), ("c", "b"), ("a", "b"), ("c", "c")]
    want = (TypeMismatch, "pair ('a', 'c') names unknown elements", ("a", "c"))
    assert outcome(lambda: has_interpolation(["a", "b"], pairs)) == want
    assert outcome(lambda: is_regular_semicat(strict_order_to_semicat(["a", "b"], pairs))) == want
    # with the middle listed, both routes interpolate through it
    assert has_interpolation(["a", "b", "c"], pairs)
    assert is_regular_semicat(strict_order_to_semicat(["a", "b", "c"], pairs))


def test_scott_continuity_check_refuses_a_map_off_its_posets():
    P = validate_poset(["0", "1"], [("0", "1")])
    for f, message, witness in (
        ({"1": "0"}, "map does not cover its domain", "0"),
        ({"0": "0"}, "map does not cover its domain", "1"),
        ({"0": "0", "1": "1", "2": "0", "3": "0"}, "map does not cover its domain", "2"),
        ({"1": "2", "0": "3"}, "map leaves its codomain", ("0", "3")),
        ({"0": "0", "1": "2"}, "map leaves its codomain", ("1", "2")),
    ):
        with pytest.raises(TypeMismatch) as exc:
            scott_continuity_check(f, P, P)
        assert (str(exc.value), exc.value.witness) == (message, witness)


def test_scott_continuity_is_the_definition_on_every_small_map():
    # every map between labelled posets of one to three elements: 10,838
    names = "abc"
    posets = [
        validate_poset(names[:n], rows_to_pairs(rows, names))
        for n in range(1, 4)
        for rows in all_posets(n)
    ]
    seen = []
    for P, Q in itertools.product(posets, repeat=2):
        for img in itertools.product(Q.elements, repeat=len(P.elements)):
            f = dict(zip(P.elements, img))
            report = scott_continuity_check(f, P, Q)
            assert report.continuous == reference_scott_continuous(f, P, Q), (P.leq, Q.leq, f)
            if report.continuous:
                assert report.graph_is_semidistributor and report.graph_regular
            seen.append(report.continuous)
    assert (len(seen), sum(seen)) == (10838, 4818)


def _eq_falls_back(value):
    """``__eq__`` of ``value`` leaves a foreign operand to Python."""
    other = object()
    return value.__eq__(other) is NotImplemented and value != other


@pytest.mark.parametrize(
    "run, want",
    [
        (
            lambda: is_omega_morphism(
                identity_semidist(strict_order_to_semicat(["a", "b"], [("a", "b")]))
            ),
            False,
        ),
        (lambda: [bool(RsdistIdmReport(ok, 1, 1)) for ok in (True, False)], [True, False]),
        (
            lambda: [bool(ScottContinuityReport(c, True, True)) for c in (True, False)],
            [True, False],
        ),
        (lambda: _eq_falls_back(chain(2)), True),
        (lambda: _eq_falls_back(builtin_quantaloid("3")), True),
        (lambda: _eq_falls_back(TypedSet([("a", "*")])), True),
        (lambda: _eq_falls_back(chain3_A()), True),
        (lambda: _eq_falls_back(identity_semidist(chain3_A())), True),
        (lambda: _eq_falls_back(yoneda(chain3_A(), "*")), True),
        (lambda: _eq_falls_back(validate_semifunctor(chain3_A(), chain3_A(), {"*": "*"})), True),
    ],
    ids=[
        "omega-morphism-non-regular",
        "rsdist-idm-report-bool",
        "scott-continuity-report-bool",
        "sup-lattice-eq",
        "quantaloid-eq",
        "typed-set-eq",
        "semicategory-eq",
        "semidistributor-eq",
        "presheaf-eq",
        "semifunctor-eq",
    ],
)
def test_fallback_branches(run, want):
    assert run() == want


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: build_idm(builtin_quantaloid("3")), "<idempotent completion on 3 objects>"),
        (lambda: validate_poset(["x", "y"], [("x", "y")]), "FinitePoset(['x', 'y'])"),
        (
            lambda: validate_omega_set(builtin_quantaloid("3"), ["p"], {("p", "p"): 2}),
            "OmegaSet(['p'])",
        ),
        (lambda: chain(3), "SupLattice(size=3)"),
        (lambda: yoneda(chain3_A(), "*"), "Presheaf(contra *: *=1)"),
        (lambda: builtin_quantaloid("3"), "Quantaloid(objects=['*'])"),
        (lambda: TypedSet([("a", "*")]), "TypedSet([('a', '*')])"),
        (chain3_A, "<semicategory on ['*']>"),
        (chain3_C, "<category on ['*']>"),
        (lambda: identity_semidist(chain3_A()), "<semidistributor ['*'] -/-> ['*']>"),
        (
            lambda: validate_semifunctor(chain3_A(), chain3_A(), {"*": "*"}),
            "<semifunctor {'*': '*'}>",
        ),
    ],
)
def test_reprs(make, text):
    assert repr(make()) == text


def test_equal_typed_sets_hash_alike():
    first, second = TypedSet([("a", "*"), (1, "*")]), TypedSet([("a", "*"), ("1", "*")])
    assert first == second and hash(first) == hash(second)
    assert len({first, second, TypedSet([("a", "*")])}) == 2


def test_continuity_implies_regular_graph():
    chain3_poset = validate_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    maps = itertools.product(["0", "1", "2"], repeat=3)
    for img in maps:
        f = dict(zip(["0", "1", "2"], img))
        report = scott_continuity_check(f, chain3_poset, chain3_poset)
        if report.continuous:
            assert report.graph_is_semidistributor and report.graph_regular


def test_omega_set_equality_naming_an_unknown_element_is_rejected():
    frame = builtin_quantaloid("3")
    eq = {("a", "a"): 2, ("b", "b"): 2, ("a", "zz"): 1}
    with pytest.raises(TypeMismatch) as exc:
        validate_omega_set(frame, ["a", "b"], eq)
    assert exc.value.witness == ("a", "zz") and "unknown element" in str(exc.value)


def test_omega_set_refuses_a_base_that_is_not_a_one_object_frame():
    not_a_frame = "the base quantaloid is not a frame with meet composition"
    # truncated addition on the three-chain: identity top, but 1∘1 = 0 ≠ 1∧1
    lukasiewicz = from_quantale(chain(3), lambda g, f: max(0, g + f - 2), 2)
    # on the three-chain, 0 absorbs and otherwise g∘f = g∨f: identity 1, not top
    middle_unit = from_quantale(chain(3), lambda g, f: g and f and max(g, f), 1)
    for base, message, witness in (
        (two_object_quantaloid(), "an Omega-set needs a one-object base", ("X", "Y")),
        # the endomaps (f(1), f(2)) of the three-chain: the identity (1, 2) is element 4
        (endomap_quantaloid(), not_a_frame, 4),
        (lukasiewicz, not_a_frame, (1, 1)),
        (middle_unit, not_a_frame, 1),
    ):
        with pytest.raises(TypeMismatch) as exc:
            validate_omega_set(base, ["a"], {})
        assert (str(exc.value), exc.value.witness) == (message, witness)


def test_omega_set_refuses_an_equality_out_of_range():
    frame = from_frame(chain(3))
    with pytest.raises(TypeMismatch) as exc:
        validate_omega_set(frame, ["a", "b"], {("a", "a"): 2, ("a", "b"): 3})
    assert (str(exc.value), exc.value.witness) == ("['a'='b'] = 3 out of range", ("a", "b"))
    # an equality whose type is not int is out of range, as in the validators
    for e in (True, 1.0, "1", None):
        with pytest.raises(TypeMismatch) as exc:
            validate_omega_set(frame, ["a"], {("a", "a"): e})
        assert (str(exc.value), exc.value.witness) == (f"['a'='a'] = {e} out of range", ("a", "a"))
