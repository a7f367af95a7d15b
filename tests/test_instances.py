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
    builtin_quantaloid,
    chain,
    from_frame,
    has_interpolation,
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
    way_below,
)
import qsemicat.instances
from helpers import (
    downsets_of_poset,
    outcome,
    reference_directed_subsets,
    reference_interpolation,
    reference_omega_set,
    reference_poset,
    reference_presheaves,
    reference_transitive,
    upsets_of_poset,
)


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
