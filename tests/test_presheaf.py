import itertools
import random

import pytest

from qsemicat import (
    CO,
    CONTRA,
    EnumerationCapExceeded,
    ActionFailure,
    NotACategory,
    NotRegular,
    Presheaf,
    QCategoryView,
    TypeMismatch,
    build_PA,
    build_RA,
    build_YA,
    builtin_quantaloid,
    enumerate_presheaves,
    free_category,
    identity_semidist,
    is_category,
    is_colimit,
    is_regular_presheaf,
    is_regular_semicat,
    is_regular_semidist,
    is_regular_via_liftings,
    is_yoneda_presheaf,
    map_j,
    map_k,
    presheaf_hom_elem,
    unit_category,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
    weighted_colimit_RA,
    yoneda,
    yoneda_covariant,
)
from helpers import (
    all_semicats,
    build_RA_by_lifting,
    chain3_A,
    chain3_C,
    downsets,
    nine_object_carrier,
    outcome,
    presheaf_families,
    reference_colimit_compatibility,
    reference_presheaf_ok,
    reference_RA_block_residual,
    reference_presheaves,
    reference_regular_via_liftings,
    reference_view,
    rel_quantaloid,
    relations_family,
    two_object_quantaloid,
)
from qsemicat.presheaf import (
    DEFAULT_CAP,
    _build_view,
    _contra,
    _regular_closure,
    _regular_presheaves,
    _yoneda_presheaves,
)

Q3 = builtin_quantaloid("3")
Q2 = builtin_quantaloid("2")


def strict_rows_semicat(rows, names):
    hom = {}
    n = len(rows)
    for i in range(n):
        for j in range(n):
            hom[(names[i], names[j])] = rows[i] >> j & 1
    return validate_semicategory(Q2, [(nm, "*") for nm in names], hom)


def test_unit_category():
    u = unit_category(Q3, "*")
    assert u.is_category
    assert u.hom[("*", "*")] == 2
    assert is_regular_semicat(u)
    assert free_category(u) == u


def test_enumerate_three_chain():
    A = chain3_A()
    ps = enumerate_presheaves(A, "*")
    assert [p.values for p in ps] == [(0,), (1,), (2,)]
    # presheaves on A are the presheaves on the free category
    assert [p.values for p in enumerate_presheaves(free_category(A), "*")] == [
        (0,),
        (1,),
        (2,),
    ]


def test_enumerate_strict_order_gives_downsets():
    # a ≺ b: rows a -> {b}
    rows = (0b10, 0b00)
    A = strict_rows_semicat(rows, ["a", "b"])
    got = {
        frozenset(a for a, v in zip(A.names, p.values) if v) for p in enumerate_presheaves(A, "*")
    }
    expect = {
        frozenset(nm for i, nm in enumerate(["a", "b"]) if mask >> i & 1)
        for mask in downsets(2, rows)
    }
    assert got == expect


def test_enumerate_empty_carrier():
    A = validate_semicategory(Q3, [], {})
    ps = enumerate_presheaves(A, "*")
    assert len(ps) == 1 and ps[0].values == ()


def test_enumeration_cap():
    A = chain3_C()
    with pytest.raises(EnumerationCapExceeded):
        enumerate_presheaves(A, "*", CONTRA, cap=2)


def test_yoneda_values():
    A = chain3_A()
    assert yoneda(A, "*").values == (1,)
    C = chain3_C()
    lat = Q3.hom_lat("*", "*")
    assert lat.le(Q3.identity["*"], yoneda(C, "*").values[0])


def test_yoneda_strict_principal_downset():
    rows = (0b110, 0b100, 0b000)  # a ≺ b, a ≺ c, b ≺ c
    A = strict_rows_semicat(rows, ["a", "b", "c"])
    y_c = yoneda(A, "c")
    assert {a for a, v in zip(A.names, y_c.values) if v} == {"a", "b"}
    y_a = yoneda(A, "a")
    assert {a for a, v in zip(A.names, y_a.values) if v} == set()


def test_yoneda_presheaves_three_chain():
    A = chain3_A()
    flags = [is_yoneda_presheaf(p) for p in enumerate_presheaves(A, "*")]
    assert flags == [True, False, True]  # {0, 1}


def test_yoneda_condition_on_downsets():
    # D is Yoneda iff for all a: a ∈ D ⟺ strict-downset(a) ⊆ D
    rows = (0b10, 0b00)
    A = strict_rows_semicat(rows, ["a", "b"])
    for p in enumerate_presheaves(A, "*"):
        D = {a for a, v in zip(A.names, p.values) if v}
        below = {"a": set(), "b": {"a"}}
        expect = all((a in D) == (below[a] <= D) for a in A.names)
        assert is_yoneda_presheaf(p) == expect


def test_representables_yoneda_on_categories():
    for C in (chain3_C(), free_category(chain3_A())):
        for a in C.names:
            assert is_yoneda_presheaf(yoneda(C, a))
            assert is_yoneda_presheaf(yoneda_covariant(C, a))


def test_regular_presheaves_three_chain():
    A = chain3_A()
    flags = [is_regular_presheaf(p) for p in enumerate_presheaves(A, "*")]
    assert flags == [True, True, False]  # {0, e}


def test_regular_condition_on_downsets():
    # regular downsets: every d ∈ D has d' ∈ D with d ≺ d'
    rows = (0b11, 0b10)  # a ≺ a, a ≺ b, b ≺ b: a dense fragment with loops
    A = strict_rows_semicat(rows, ["a", "b"])
    for p in enumerate_presheaves(A, "*"):
        D = {a for a, v in zip(A.names, p.values) if v}
        above = {"a": {"a", "b"}, "b": {"b"}}
        expect = all(above[d] & D for d in D)
        assert is_regular_presheaf(p) == expect


def test_representables_regular_iff_regular_carrier():
    A = chain3_A()
    assert all(is_regular_presheaf(yoneda(A, a)) for a in A.names)
    B = strict_rows_semicat((0b10, 0b00), ["a", "b"])
    assert not all(is_regular_presheaf(yoneda(B, a)) for a in B.names)


def test_regular_presheaf_agrees_with_semidistributor_route():
    A = chain3_A()
    for variance in (CONTRA, CO):
        for p in enumerate_presheaves(A, "*", variance):
            assert is_regular_presheaf(p) == is_regular_semidist(p.as_semidistributor())


def test_regular_via_liftings():
    A = chain3_A()
    ps = enumerate_presheaves(A, "*")
    assert is_regular_via_liftings(ps[1], ps)  # φ = e
    assert not is_regular_via_liftings(ps[2], ps)  # φ = 1, witnessed by ψ = e
    for C in (chain3_C(),):
        pool = enumerate_presheaves(C, "*")
        for p in pool:
            assert is_regular_via_liftings(p, pool)


def test_build_views_three_chain():
    A = chain3_A()
    pa = build_PA(A)
    ra = build_RA(A)
    ya = build_YA(A)
    assert len(pa) == 3 and len(ra) == 2 and len(ya) == 2
    assert ra.hom[("*#1", "*#0")] == 0  # RA(e, 0) = 0
    assert ra.hom[("*#0", "*#1")] == 2  # RA(0, e) = 1
    for view in (pa, ra, ya):
        assert view.check()


def test_build_RA_lifting_route_agrees():
    A = chain3_A()
    assert build_RA(A).hom == build_RA_by_lifting(A).hom
    C = chain3_C()
    assert build_RA(C).hom == build_RA_by_lifting(C).hom


def test_PA_equals_PA_of_free_category():
    A = chain3_A()
    pa = build_PA(A)
    pa_free = build_PA(free_category(A))
    assert [p.values for p in pa.payloads] == [p.values for p in pa_free.payloads]
    assert pa.hom == pa_free.hom


def test_view_as_semicategory_roundtrip():
    ra = build_RA(chain3_A())
    # read before any check(): is_regular comes from one product on first read
    assert ra.is_regular and ra.is_category
    sc = validate_semicategory(ra.base, ra.objects, ra.hom)
    assert sc.is_category and sc.is_regular and sc == ra
    assert sc.hom[("*#1", "*#0")] == ra.hom[("*#1", "*#0")]


def test_map_j_examples():
    A = chain3_A()
    ps = enumerate_presheaves(A, "*")
    assert map_j(A, ps[2]).values == (1,)  # j(1) = e
    assert map_j(A, ps[0]).values == (0,)
    # j is idempotent and fixes regular presheaves
    for p in ps:
        jp = map_j(A, p)
        assert is_regular_presheaf(jp)
        assert map_j(A, jp) == jp
    # j ∘ yoneda = yoneda on a regular carrier
    assert map_j(A, yoneda(A, "*")) == yoneda(A, "*")


def test_map_k_examples():
    A = chain3_A()
    ps = enumerate_presheaves(A, "*")
    assert map_k(A, ps[1]).values == (2,)  # k(e) = 1
    assert map_k(A, ps[0]).values == (0,)
    image = {map_k(A, p) for p in ps if is_regular_presheaf(p)}
    assert image == {p for p in ps if is_yoneda_presheaf(p)}
    with pytest.raises(NotRegular):
        map_k(A, ps[2])


def test_maps_require_regular_carrier():
    B = strict_rows_semicat((0b10, 0b00), ["a", "b"])
    p = enumerate_presheaves(B, "*")[0]
    with pytest.raises(NotRegular):
        map_j(B, p)


def test_adjunctions_on_three_chain():
    A = chain3_A()
    pool = enumerate_presheaves(A, "*")
    regular = [p for p in pool if is_regular_presheaf(p)]
    for phi in regular:
        for psi in pool:
            assert presheaf_hom_elem(phi, psi) == presheaf_hom_elem(phi, map_j(A, psi))
    for psi in pool:
        for theta in regular:
            left = presheaf_hom_elem(map_j(A, psi), theta)
            assert left == presheaf_hom_elem(psi, map_k(A, theta))
    for t1 in regular:
        for t2 in regular:
            assert presheaf_hom_elem(t1, t2) == presheaf_hom_elem(map_k(A, t1), map_k(A, t2))


def test_adjoint_triple_orientation_noncommutative_base():
    # over a noncommutative base the two variances genuinely differ: the
    # contravariant triple has the inclusion on the left, the covariant
    # one has it on the right
    from helpers import endomap_quantaloid

    q = endomap_quantaloid()
    A = validate_semicategory(q, [("*", "*")], {("*", "*"): 2})
    assert is_regular_semicat(A) and not is_category(A)

    for variance, contra_shape in ((CONTRA, True), (CO, False)):
        pool = enumerate_presheaves(A, "*", variance)
        reg = [p for p in pool if is_regular_presheaf(p)]
        j = {p: map_j(A, p) for p in pool}
        k = {t: map_k(A, t) for t in reg}
        left_shape = all(
            presheaf_hom_elem(phi, psi) == presheaf_hom_elem(phi, j[psi])
            for phi in reg
            for psi in pool
        ) and all(
            presheaf_hom_elem(j[psi], th) == presheaf_hom_elem(psi, k[th])
            for psi in pool
            for th in reg
        )
        right_shape = all(
            presheaf_hom_elem(psi, phi) == presheaf_hom_elem(j[psi], phi)
            for phi in reg
            for psi in pool
        ) and all(
            presheaf_hom_elem(th, j[psi]) == presheaf_hom_elem(k[th], psi)
            for psi in pool
            for th in reg
        )
        assert left_shape == contra_shape
        assert right_shape == (not contra_shape)
        # fully faithfulness of k and its image do not depend on variance
        assert all(
            presheaf_hom_elem(t1, t2) == presheaf_hom_elem(k[t1], k[t2])
            for t1 in reg
            for t2 in reg
        )
        assert {k[t] for t in reg} == {p for p in pool if is_yoneda_presheaf(p)}
        for p in pool:
            assert is_regular_presheaf(p) == is_regular_via_liftings(p, against=pool)


def test_covariant_presheaves_are_upsets():
    rows = (0b10, 0b00)  # a ≺ b
    A = strict_rows_semicat(rows, ["a", "b"])
    got = {
        frozenset(a for a, v in zip(A.names, p.values) if v)
        for p in enumerate_presheaves(A, "*", CO)
    }
    assert got == {frozenset(), frozenset({"b"}), frozenset({"a", "b"})}


def test_covariant_regularity_characterization():
    # the carrier is regular iff all covariant representables are regular
    A = chain3_A()
    assert all(is_regular_presheaf(yoneda_covariant(A, a)) for a in A.names)
    B = strict_rows_semicat((0b10, 0b00), ["a", "b"])
    assert not all(is_regular_presheaf(yoneda_covariant(B, a)) for a in B.names)


def test_presheaf_types_grouped_over_two_objects():
    q = two_object_quantaloid()
    A = validate_semicategory(
        q, [("u", "X"), ("v", "Y")], {("u", "u"): 1, ("v", "v"): 1}
    )
    pa = build_PA(A)
    types = list(pa.types)
    assert types == sorted(types, key=lambda t: q.objects.index(t))
    assert pa.check()


def test_weighted_colimit_identity_weight():
    C = chain3_C()
    ra_objects = [p for p in enumerate_presheaves(C, "*") if is_regular_presheaf(p)]
    for target in ra_objects:
        out = weighted_colimit_RA(identity_semidist(C), {"*": target})
        assert out["*"] == target


def test_weighted_colimit_of_yoneda_is_the_weight():
    A = chain3_A()
    for phi in enumerate_presheaves(A, "*"):
        if not is_regular_presheaf(phi):
            continue
        weight = phi.as_semidistributor()
        out = weighted_colimit_RA(weight, {"*": yoneda(A, "*")})
        assert out["*"].values == phi.values


def test_weighted_colimit_three_chain_value():
    A = chain3_A()
    weight = validate_semidistributor(unit_category(Q3, "*"), A, {("*", "*"): 1})
    out = weighted_colimit_RA(weight, {"*": yoneda(A, "*")})
    assert out["*"].values == (1,)  # e ∧ e = e


def test_weighted_colimit_requires_regular():
    B = strict_rows_semicat((0b10, 0b00), ["a", "b"])
    weight = identity_semidist(B)
    fmap = {a: yoneda(B, a) for a in B.names}
    with pytest.raises(NotRegular):
        weighted_colimit_RA(weight, fmap)


def _carrier_families():
    return {
        "2": all_semicats("2", 2),
        "3": all_semicats("3", 2),
        "relations": relations_family(rel_quantaloid()),
    }


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_presheaf_filter_agrees_with_action_loop_on_every_candidate(variance):
    for name, family in _carrier_families().items():
        kept = 0
        for A in family:
            C = _contra(A, variance)
            for x in A.base.objects:
                sizes = [C.base.hom_lat(x, t).size for t in C.types]
                want = [
                    values
                    for values in itertools.product(*map(range, sizes))
                    if reference_presheaf_ok(C, x, values)
                ]
                got = [phi.values for phi in enumerate_presheaves(A, x, variance)]
                assert got == want, (name, A.hom, x)
                kept += len(got)
        assert 0 < kept, name


def _regular_images(A):
    return {
        x: [phi for phi in enumerate_presheaves(A, x) if is_regular_presheaf(phi)]
        for x in A.base.objects
    }


@pytest.mark.parametrize("name", ["3", "relations"])
def test_colimit_compatibility_agrees_with_action_loop(name):
    # every object map from a weight's codomain C into RA of a regular
    # carrier A, with the identity weight on C
    rng = random.Random(11)
    family = _carrier_families()[name]
    carriers = rng.sample([A for A in family if is_regular_semicat(A)], 8)
    domains = rng.sample(family, 8)
    outcomes = set()
    for A in carriers:
        images = _regular_images(A)
        for C in domains:
            weight = identity_semidist(C)
            for choice in itertools.product(*(images[C.type_of(c)] for c in C.names)):
                fmap = dict(zip(C.names, choice))
                want = outcome(lambda: reference_colimit_compatibility(A, C, fmap))
                got = outcome(lambda: weighted_colimit_RA(weight, fmap))
                if want is None:
                    got = None if isinstance(got, dict) else got
                assert got == want, (A.hom, C.hom, fmap)
                outcomes.add(want and want[0])
    assert outcomes == {None, ActionFailure}


def test_is_colimit_identity_case():
    C = chain3_C()
    f = validate_semifunctor(C, C, {"*": "*"})
    assert is_colimit(f, identity_semidist(C), f)


def test_is_colimit_crosschecks_weighted_colimit():
    A = chain3_A()
    ra = build_RA(A)
    unit = unit_category(Q3, "*")
    weight = validate_semidistributor(unit, A, {("*", "*"): 1})
    out = weighted_colimit_RA(weight, {"*": yoneda(A, "*")})

    fmap = validate_semifunctor(A, ra, {"*": ra.names[ra.payloads.index(yoneda(A, "*"))]})
    g = validate_semifunctor(unit, ra, {"*": ra.names[ra.payloads.index(out["*"])]})
    assert is_colimit(g, weight, fmap)
    # shifting the candidate off the colimit breaks the formula
    other = [tag for tag, p in zip(ra.names, ra.payloads) if p != out["*"]]
    g_bad = validate_semifunctor(unit, ra, {"*": other[0]})
    assert not is_colimit(g_bad, weight, fmap)


def test_is_colimit_needs_category():
    A = chain3_A()
    f = validate_semifunctor(A, A, {"*": "*"})
    with pytest.raises(NotACategory):
        is_colimit(f, identity_semidist(A), f)


FAMILIES = presheaf_families()
SWEEPS = [(name, v) for name in FAMILIES for v in (CONTRA, CO)]


@pytest.mark.parametrize("name", FAMILIES)
def test_build_RA_agrees_with_the_lifting_route_on_sampled_families(name):
    # every 10th regular carrier: the homs of RA as block residuals and as
    # liftings of regular semidistributors
    carriers = [A for A in FAMILIES[name] if A.is_regular][::10]
    assert carriers
    for A in carriers:
        assert build_RA(A).dense == build_RA_by_lifting(A).dense, A.hom


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_via_liftings_sweep_matches_fresh_residual_reference(name, variance):
    for A in FAMILIES[name]:
        pool = [p for x in A.base.objects for p in enumerate_presheaves(A, x, variance)]
        want = [reference_regular_via_liftings(p, pool) for p in pool]
        assert [is_regular_via_liftings(p, against=pool) for p in pool] == want, A.hom


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_generators_match_the_product_filter(name, variance):
    # the same presheaves in the same order, for every type; the closure
    # route must also drop the members that a non-regular carrier moves
    non_regular = 0
    for A in FAMILIES[name]:
        non_regular += not A.is_regular
        for x in A.base.objects:
            want = reference_presheaves(A, x, variance)
            assert enumerate_presheaves(A, x, variance) == want, (A.hom, x)
            regular = [p for p in want if is_regular_presheaf(p)]
            assert _regular_presheaves(A, x, variance) == regular, (A.hom, x)
    assert (non_regular > 0) == (name in ("all-2", "all-3", "relations")), non_regular


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_closure_forms_an_action_only_on_a_non_regular_carrier(monkeypatch, variance):
    import qsemicat.semicat as semicat

    regular = _all_ones_two_objects()
    strict = strict_rows_semicat([0b10, 0b00], ["a", "b"])
    assert regular.is_regular and not strict.is_regular
    actions = []
    real = semicat._product_entries

    def counting(q, tr, tm, tc, L, R):
        actions.append(R)
        return real(q, tr, tm, tc, L, R)

    monkeypatch.setattr(semicat, "_product_entries", counting)
    view = build_RA(regular, variance)
    assert len(view) > 1 and actions == []
    assert all(is_regular_presheaf(phi) for phi in view.payloads) and actions == []
    kept = _regular_presheaves(strict, "*", variance)
    assert actions and len(kept) < len(actions)
    assert all(is_regular_presheaf(phi) for phi in kept)


def _counting_presheaves(monkeypatch):
    built = []
    real = Presheaf.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Presheaf, "__init__", counting)
    return built


@pytest.mark.parametrize("variance", [CONTRA, CO])
@pytest.mark.parametrize("route", [enumerate_presheaves, _regular_presheaves])
def test_cap_bounds_the_candidate_space_of_both_generators(monkeypatch, route, variance):
    # three objects over 3: 27 candidates, of which far fewer are presheaves
    hom = {("a", "a"): 2, ("b", "b"): 2, ("c", "c"): 2, ("a", "b"): 1}
    A = validate_semicategory(Q3, [(a, "*") for a in "abc"], hom)
    N = 27
    assert len(route(A, "*", variance, N)) < N
    built = _counting_presheaves(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as exc:
        route(A, "*", variance, N - 1)
    assert exc.value.witness == N and built == []
    assert str(exc.value) == f"presheaf space of size {N} exceeds cap {N - 1}"


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_cap_bounds_build_RA_before_any_presheaf(monkeypatch, variance):
    A = _all_ones_two_objects()
    N = 9
    assert len(build_RA(A, variance, N)) == len(
        [p for p in reference_presheaves(A, "*", variance) if is_regular_presheaf(p)]
    )
    built = _counting_presheaves(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as exc:
        build_RA(A, variance, N - 1)
    assert exc.value.witness == N and built == []


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_views_match_pairwise_hom_reference(name, variance):
    keeps = {build_PA: lambda p: True, build_RA: is_regular_presheaf, build_YA: is_yoneda_presheaf}
    for A in FAMILIES[name]:
        for build, keep in keeps.items():
            view = build(A, variance)
            objects, hom = reference_view(A, variance, keep)
            assert tuple(zip(view.names, view.types, view.payloads)) == objects, (
                A.hom,
                build.__name__,
            )
            assert list(view.hom.items()) == list(hom.items()), (
                A.hom,
                build.__name__,
            )


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_build_RA_matches_the_block_residual(name, variance):
    # rows made as meets along the join-closure against every hom lifted;
    # all-2, all-3 and relations hold carriers that are not regular
    for A in FAMILIES[name]:
        view, want = build_RA(A, variance), reference_RA_block_residual(A, variance)
        assert view.names == want.names and view.payloads == want.payloads, A.hom
        assert view.dense == want.dense, A.hom


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_build_RA_matches_the_block_residual_on_nine_objects(variance):
    A = nine_object_carrier()
    assert A.is_regular and not A.is_category
    view, want = build_RA(A, variance), reference_RA_block_residual(A, variance)
    assert len(view) == {CONTRA: 440, CO: 415}[variance]
    assert view.names == want.names and view.payloads == want.payloads
    assert view.dense == want.dense


def _generators(A, x, variance):
    """The bottom presheaf of type x and every C(-, a)∘f, f in hom(x, t(a))."""
    C = _contra(A, variance)
    q, t, n = C.base, C.types, len(C.types)
    out = {tuple(q.hom[(x, b)].bottom for b in t)}
    for a in range(n):
        for f in range(q.hom[(x, t[a])].size):
            out.add(
                tuple(q.compose_table[(x, t[a], t[b])][C.dense[b * n + a]][f] for b in range(n))
            )
    return out


@pytest.mark.parametrize("variance", [CONTRA, CO])
@pytest.mark.parametrize("carrier", ["nine-objects", "relations"])
def test_build_RA_lifts_only_the_closure_members_without_a_parent(monkeypatch, variance, carrier):
    import qsemicat.presheaf as presheaf

    if carrier == "nine-objects":
        A = nine_object_carrier()
    else:  # two types, not regular: some closure members are not kept
        A = next(A for A in FAMILIES["relations"] if not A.is_regular and len(A) > 1)
    C = _contra(A, variance)
    lifted = []
    real = presheaf._mat_lift

    def spy(q, tr, tm, tc, L, R):
        lifted.extend(L[i :: len(tr)] for i in range(len(tr)))
        return real(q, tr, tm, tc, L, R)

    monkeypatch.setattr(presheaf, "_mat_lift", spy)
    view = build_RA(A, variance)
    monkeypatch.undo()
    roots = []
    for x in A.base.objects:
        closure = _regular_closure(A, x, variance, DEFAULT_CAP)[1]
        joins = [C.base.hom_lat(x, t)._join2 for t in C.types]
        order = {m: i for i, m in enumerate(closure)}
        generators = _generators(A, x, variance)
        for m, parent in closure.items():
            if parent is None:
                roots.append(m)
                assert m in generators
            else:
                # m = s ∨ gen, gen has no parent, and both come before m
                s, gen = parent
                assert m == tuple(join[a][b] for join, a, b in zip(joins, s, gen))
                assert closure[gen] is None and order[s] < order[m] and order[gen] < order[m]
    assert lifted == roots
    if carrier == "nine-objects":
        # a bottom and 16 or 15 generators, of 440 or 415 rows
        want = {CONTRA: (17, 440), CO: (16, 415)}[variance]
        assert (len(lifted), len(view)) == want


def _count_validations(monkeypatch):
    """The list that gets the arguments of every later call of
    ``validate_semicategory`` that the presheaf module makes."""
    import qsemicat.presheaf as presheaf

    calls = []
    real = presheaf.validate_semicategory

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presheaf, "validate_semicategory", counting)
    return calls


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_check_by_derivation_agrees_with_full_validation(monkeypatch, name, variance):
    # RA is a category, so its check multiplies the root rows and validates nothing
    views = [build_RA(A, variance) for A in FAMILIES[name]]
    calls = _count_validations(monkeypatch)
    for view in views:
        assert view.check() and view.check()
        full = validate_semicategory(view.base, view.objects, view.dense)
        assert view.is_regular == full.is_regular, view.payloads[0].carrier.hom
    assert calls == []


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_check_by_derivation_agrees_with_full_validation_on_nine_objects(monkeypatch, variance):
    view = build_RA(nine_object_carrier(), variance)
    calls = _count_validations(monkeypatch)
    assert view.check()
    assert calls == []
    _, roots, derived = view._derived_rows()
    # the bottom and 16 or 15 generators are the roots of 440 or 415 rows
    assert (len(roots), len(roots) + len(derived)) == {CONTRA: (17, 440), CO: (16, 415)}[variance]
    assert view.is_regular == validate_semicategory(view.base, view.objects, view.dense).is_regular


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_a_parent_outside_the_view_makes_a_root(monkeypatch, variance):
    # RA without one parent s: the row of its child m is still the meet
    # along the closure, but s has no row in the view, so m's is checked
    # by the product; on a carrier that is not regular s would be filtered
    A = nine_object_carrier()
    x = A.base.objects[0]
    pool, closure = _regular_closure(A, x, variance, DEFAULT_CAP)
    m, (s, _) = next((m, parent) for m, parent in closure.items() if parent)
    pool = [phi for phi in pool if phi.values != s]
    view = _build_view(A, variance, {x: pool}, {x: closure})
    _, roots, derived = view._derived_rows()
    assert [view.payloads[r].values for r in roots].count(m) == 1
    assert len(roots) + len(derived) == len(view) == len(closure) - 1
    calls = _count_validations(monkeypatch)
    assert view.check()
    assert calls == []


def _verdict(view):
    """What ``check()`` and then ``is_regular`` give on ``view``, with the
    view itself, as the witness of a refusal, written ``"view"``."""
    got = outcome(lambda: (view.check(), view.is_regular))
    if len(got) == 3 and got[2] is view:
        return got[:2] + ("view",)
    return got


def _mutants(seed, count):
    """``count`` single-entry mutants of RA views of the test families,
    drawn with ``seed``: (mutant, plain, derived), where ``mutant`` keeps the
    view's derivation, ``plain`` is the same matrix without one, and
    ``derived`` tells whether the changed entry lies on a derived row of the
    derivation's matrix (a column of a covariant view)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        name, variance = rng.choice(SWEEPS)
        view = build_RA(rng.choice(FAMILIES[name]), variance)
        n = len(view)
        i, j = rng.randrange(n), rng.randrange(n)
        lat = view.base.hom[(view.types[j], view.types[i])]
        if lat.size < 2:
            continue
        homs = list(view.dense)
        homs[i * n + j] = rng.choice([e for e in range(lat.size) if e != homs[i * n + j]])
        objects = list(zip(view.names, view.types, view.payloads))
        mutant, plain = QCategoryView(view.base, objects, homs), QCategoryView(view.base, objects, homs)
        mutant._derivation = view._derivation
        _, _, derived = view._derived_rows()
        out.append((mutant, plain, (i if variance == CONTRA else j) in {m for m, _, _ in derived}))
    return out


def test_check_by_derivation_on_single_entry_mutants(monkeypatch):
    mutants = _mutants(32, 1500)
    calls = _count_validations(monkeypatch)
    fast = full = refused = 0
    for mutant, plain, derived in mutants:
        calls.clear()
        got = _verdict(mutant)
        validations = len(calls)
        # a fast accept is a full accept, and a refusal keeps class, message and witness
        assert got == _verdict(plain), plain.dense
        assert validations == 1 if derived else validations <= 1
        fast += validations == 0
        full += validations == 1 and got[0] is True
        refused += got[0] is not True
    # the sample holds accepts on both routes and refusals
    assert fast and full and refused


@pytest.mark.parametrize("name, variance", SWEEPS)
def test_via_liftings_lifts_nothing_against_yoneda_presheaves(monkeypatch, name, variance):
    # a Yoneda ψ has its values as residual, so the two liftings are one
    import qsemicat.presheaf as presheaf

    calls = []
    real = presheaf._lift_entry

    def spy(*args):
        calls.append(args)
        return real(*args)

    non_yoneda = 0
    for A in FAMILIES[name]:
        pool = [p for x in A.base.objects for p in enumerate_presheaves(A, x, variance)]
        yon = [p for x in A.base.objects for p in _yoneda_presheaves(A, x, variance)]
        monkeypatch.setattr(presheaf, "_lift_entry", spy)
        assert all(is_regular_via_liftings(p, against=yon) for p in pool), A.hom
        assert calls == [], A.hom
        # the spy sees the liftings against a pool that is not all Yoneda
        for p in pool:
            is_regular_via_liftings(p, against=pool)
        non_yoneda += len(pool) > len(yon)
        assert bool(calls) == (len(pool) > len(yon)), A.hom
        monkeypatch.undo()
        calls.clear()
        assert all(reference_regular_via_liftings(p, yon) for p in pool), A.hom
    assert non_yoneda > 0


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_via_liftings_sweep_computes_each_residual_once(monkeypatch, variance):
    import qsemicat.presheaf as presheaf

    A = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    )
    C = _contra(A, variance)
    residuals = []
    real = presheaf._mat_lift

    def counting(q, tr, tm, tc, L, R):
        if L is C.dense:
            residuals.append(R)
        return real(q, tr, tm, tc, L, R)

    monkeypatch.setattr(presheaf, "_mat_lift", counting)
    pool = enumerate_presheaves(A, "*", variance)
    assert len(pool) > 2
    yon = [is_yoneda_presheaf(p) for p in pool]
    via = [is_regular_via_liftings(p, against=pool) for p in pool]
    ks = [map_k(A, p) for p in pool if is_regular_presheaf(p)]
    assert sorted(residuals) == sorted(p.values for p in pool)
    assert via == [is_regular_presheaf(p) for p in pool]
    assert set(ks) == {p for p, y in zip(pool, yon) if y}


def test_presheaf_equality_ignores_the_kept_residual():
    A = chain3_A()
    fresh, used = enumerate_presheaves(A, "*"), enumerate_presheaves(A, "*")
    for p in used:
        is_yoneda_presheaf(p)
    for p, q in zip(fresh, used):
        assert p == q and hash(p) == hash(q)
        assert p in {q} and q in {p}


def test_presheaf_equality_ignores_the_kept_action():
    A = chain3_A()
    fresh, used = enumerate_presheaves(A, "*"), enumerate_presheaves(A, "*")
    for p in used:
        is_regular_presheaf(p)
    for p, q in zip(fresh, used):
        assert p == q and hash(p) == hash(q)
        assert p in {q} and q in {p}


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_sweep_forms_each_action_once(monkeypatch, variance):
    import qsemicat.semicat as semicat

    A = _all_ones_two_objects()
    C = _contra(A, variance)
    actions = []
    real = semicat._product_entries

    def counting(q, tr, tm, tc, L, R):
        if L is C.dense:
            actions.append(R)
        return real(q, tr, tm, tc, L, R)

    monkeypatch.setattr(semicat, "_product_entries", counting)
    pool = enumerate_presheaves(A, "*", variance)
    reg = [is_regular_presheaf(p) for p in pool]
    js = [map_j(A, p) for p in pool]
    ks = [map_k(A, p) for p, r in zip(pool, reg) if r]
    assert sorted(actions) == sorted(p.values for p in pool)
    assert 0 < sum(reg) < len(pool)
    assert all(is_regular_presheaf(j) for j in js)
    assert ks and all(is_yoneda_presheaf(k) for k in ks)


def _copies_of_one_carrier():
    """The same semicategory validated twice: equal, but distinct objects."""
    elements = [("a", "*"), ("b", "*")]
    hom = {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    return validate_semicategory(Q3, elements, hom), validate_semicategory(Q3, elements, hom)


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_carrier_checks_accept_an_equal_copy(variance):
    A, copy = _copies_of_one_carrier()
    assert A == copy and A is not copy
    ps, qs = enumerate_presheaves(A, "*", variance), enumerate_presheaves(copy, "*", variance)
    assert ps == qs
    assert [[presheaf_hom_elem(q, p) for p in ps] for q in qs] == [
        [presheaf_hom_elem(q, p) for p in ps] for q in ps
    ]
    assert [is_regular_via_liftings(p, against=qs) for p in ps] == [
        is_regular_via_liftings(p, against=ps) for p in ps
    ]
    assert [map_j(A, q) for q in qs] == [map_j(A, p) for p in ps]
    regular = [(p, q) for p, q in zip(ps, qs) if is_regular_presheaf(p)]
    assert regular
    assert [map_k(A, q) for _, q in regular] == [map_k(A, p) for p, _ in regular]


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_carrier_checks_refuse_a_different_carrier(variance):
    A, _ = _copies_of_one_carrier()
    other = _all_ones_two_objects()
    p, q = enumerate_presheaves(A, "*", variance)[0], enumerate_presheaves(other, "*", variance)[0]
    with pytest.raises(TypeMismatch, match="different presheaf categories"):
        presheaf_hom_elem(q, p)
    with pytest.raises(TypeMismatch, match="different presheaf categories"):
        presheaf_hom_elem(p, q)
    for f in (map_j, map_k):
        with pytest.raises(TypeMismatch, match="given carrier"):
            f(A, q)


def test_via_liftings_reads_a_one_shot_iterable():
    A = chain3_A()
    ps = enumerate_presheaves(A, "*", CONTRA)
    want = [is_regular_via_liftings(p, against=ps) for p in ps]
    assert want == [True, True, False]
    assert [is_regular_via_liftings(p, against=iter(ps)) for p in ps] == want


def _all_ones_two_objects():
    return validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {(x, y): 1 for x in "ab" for y in "ab"}
    )


def test_presheaf_with_too_few_values_is_refused_at_construction():
    with pytest.raises(TypeMismatch) as exc:
        Presheaf(_all_ones_two_objects(), "*", CONTRA, (1,))
    assert exc.value.witness == 1


def test_via_liftings_rejects_a_pool_on_another_carrier():
    A = _all_ones_two_objects()
    discrete = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("a", "b"): 0, ("b", "a"): 0, ("b", "b"): 2}
    )
    ps = enumerate_presheaves(A, "*")
    assert [is_regular_presheaf(p) for p in ps] == [True, True, False, False, False]
    pool = enumerate_presheaves(discrete, "*")
    for p in ps:
        with pytest.raises(TypeMismatch, match="different presheaf categories"):
            is_regular_via_liftings(p, against=pool)


def test_via_liftings_rejects_a_pool_of_the_other_variance():
    A = _all_ones_two_objects()
    pool = enumerate_presheaves(A, "*", CO)
    for p in enumerate_presheaves(A, "*"):
        with pytest.raises(TypeMismatch, match="different presheaf categories"):
            is_regular_via_liftings(p, against=pool)


def _input_refusals():
    """Name -> (a call the library must refuse, the class, message and
    witness it raises with)."""
    A = chain3_A()  # regular, hom e
    B = strict_rows_semicat((0b10, 0b00), ["a", "b"])  # a ≺ b only: not regular
    U = unit_category(Q3, "*")
    E = validate_semicategory(Q3, [], ())
    q = two_object_quantaloid()
    X = validate_semicategory(q, [("u", "X")], {("u", "u"): 1})
    UB = unit_category(Q2, "*")
    C, D = chain3_C(), validate_semicategory(Q3, [("x", "*")], {("x", "x"): 2})
    to_c = validate_semifunctor(C, C, {"*": "*"})
    return {
        "presheaf-variance": (
            lambda: Presheaf(A, "*", "sideways", (0,)),
            (TypeMismatch, "unknown variance 'sideways'", None),
        ),
        "enumerate-variance": (
            lambda: enumerate_presheaves(A, "*", "sideways"),
            (TypeMismatch, "unknown variance 'sideways'", None),
        ),
        "enumerate-type": (
            lambda: enumerate_presheaves(A, "nope"),
            (TypeMismatch, "'nope' is not an object of the base", "nope"),
        ),
        "map-k-carrier": (
            lambda: map_k(B, enumerate_presheaves(B, "*")[0]),
            (NotRegular, "k needs a regular carrier", B),
        ),
        "colimit-cover": (
            lambda: weighted_colimit_RA(identity_semidist(A), {}),
            (TypeMismatch, "object map does not cover the weight's codomain", ("*",)),
        ),
        "colimit-cover-extra": (
            lambda: weighted_colimit_RA(identity_semidist(A), {"*": None, "z": None, "y": None}),
            (TypeMismatch, "object map does not cover the weight's codomain", ("y", "z")),
        ),
        "colimit-empty": (
            lambda: weighted_colimit_RA(validate_semidistributor(A, E, ()), {}),
            (TypeMismatch, "empty diagram has no carrier to land in", None),
        ),
        "colimit-bases": (
            # a weight over 2 read in a carrier over 3 took 2's top 1 for 3's middle
            lambda: weighted_colimit_RA(
                identity_semidist(UB), {"*": Presheaf(D, "*", CONTRA, (2,))}
            ),
            (TypeMismatch, "weight and carrier live over different base quantaloids", None),
        ),
        "colimit-carrier": (
            lambda: weighted_colimit_RA(
                identity_semidist(UB), {"*": enumerate_presheaves(B, "*")[0]}
            ),
            (NotRegular, "colimits are computed in RA of a regular carrier", B),
        ),
        "colimit-variance": (
            lambda: weighted_colimit_RA(identity_semidist(U), {"*": yoneda_covariant(A, "*")}),
            (TypeMismatch, "image of '*' lives in a different category", "*"),
        ),
        "colimit-type": (
            lambda: weighted_colimit_RA(
                identity_semidist(unit_category(q, "X")), {"*": enumerate_presheaves(X, "Y")[0]}
            ),
            (TypeMismatch, "image of '*' has type 'Y' != t('*')", "*"),
        ),
        "colimit-regular": (
            lambda: weighted_colimit_RA(identity_semidist(U), {"*": Presheaf(A, "*", CONTRA, [2])}),
            (NotRegular, "image of '*' is not a regular presheaf", "*"),
        ),
        "is-colimit-codomain": (
            lambda: is_colimit(to_c, identity_semidist(C), validate_semifunctor(C, D, {"*": "x"})),
            (TypeMismatch, "colimit candidates must share their codomain", None),
        ),
        "is-colimit-weight": (
            lambda: is_colimit(to_c, identity_semidist(A), to_c),
            (TypeMismatch, "weight endpoints do not match the functors", None),
        ),
    }


@pytest.mark.parametrize("name", list(_input_refusals()))
def test_input_refusals_name_their_witness(name):
    run, want = _input_refusals()[name]
    assert outcome(run) == want
