import itertools
import random

import pytest

from qsemicat import (
    ActionFailure,
    CompositionFailure,
    InducedFunctor,
    NotCocontinuous,
    NotRegular,
    Presheaf,
    SearchCapExceeded,
    TypeMismatch,
    bottom_semidist,
    build_PA,
    build_RA,
    builtin_quantaloid,
    categories_isomorphic,
    chain,
    distributor_from_cocont,
    enumerate_presheaves,
    enumerate_regular_semidists,
    graph_semidists,
    identity_semidist,
    is_regular_presheaf,
    is_regular_semidist,
    leq_semidist,
    lifting_rsdist,
    matrix_space,
    morita_equivalent,
    presheaf_hom_elem,
    rsdist_isomorphism_search,
    skeleton,
    validate_quantaloid,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
)
from qsemicat.presheaf import CO, CONTRA, _regular_presheaves
from qsemicat.semicat import SemiDistributor
from helpers import (
    beyond_frame_pairs,
    chain3_A,
    chain3_C,
    outcome,
    presheaf_families,
    reference_rsdist_isomorphism_search,
    regular_semicats,
    rel_quantaloid,
    relations_family,
    semicat_from_rows,
)

Q3 = builtin_quantaloid("3")


def indiscrete_two_objects():
    return validate_semicategory(
        Q3,
        [("u", "*"), ("v", "*")],
        {("u", "u"): 2, ("u", "v"): 2, ("v", "u"): 2, ("v", "v"): 2},
    )


def test_isomorphic_objects():
    # 0 and e are not isomorphic in RA
    ra = build_RA(chain3_A())
    assert skeleton(ra)[0].classes == (("*#0",), ("*#1",))

    pa = build_PA(chain3_C())
    assert len(pa) == 3
    assert skeleton(pa)[0].classes == tuple((tag,) for tag in pa.names)


def test_skeleton_of_skeletal_input():
    ra = build_RA(chain3_A())
    report, sk = skeleton(ra)
    assert report.representatives == ra.names
    assert len(report.classes) == 2


def test_skeleton_merges_duplicates():
    from qsemicat import QCategoryView

    D = indiscrete_two_objects()
    view = QCategoryView(Q3, [(a, "*", None) for a in D.names], D.dense)
    report, sk = skeleton(view)
    assert report.classes == (("u", "v"),)
    assert sk.names == ("u",)
    # no two skeleton objects isomorphic
    assert skeleton(sk)[0].classes == (("u",),)


def test_categories_isomorphic_examples():
    _, ska = skeleton(build_RA(chain3_A()))
    _, skc = skeleton(build_PA(chain3_C()))
    assert categories_isomorphic(ska, ska)
    assert not categories_isomorphic(ska, skc)  # 2 vs 3 objects


def test_categories_isomorphic_relabelled():
    C = chain3_C()
    D = validate_semicategory(Q3, [("pt", "*")], {("pt", "pt"): 2})
    assert categories_isomorphic(build_PA(C), build_PA(D))


def test_categories_isomorphic_against_permutation_oracle():
    # backtracking agrees with trying every type-preserving bijection
    import itertools

    from qsemicat import QCategoryView
    from helpers import regular_semicats

    views = []
    for A in regular_semicats("3", 2):
        if A.is_category:
            views.append(
                QCategoryView(A.base, [(a, "*", None) for a in A.names], A.dense)
            )

    def oracle(c, d):
        if len(c) != len(d):
            return False
        for perm in itertools.permutations(d.names):
            bij = dict(zip(c.names, perm))
            if all(
                c.hom[(x, y)] == d.hom[(bij[x], bij[y])]
                for x in c.names
                for y in c.names
            ):
                return True
        return False

    for c in views:
        for d in views:
            assert categories_isomorphic(c, d) == oracle(c, d)


def test_morita_three_chain_counterexample():
    res = morita_equivalent(chain3_A(), chain3_C())
    assert not res.equivalent
    assert res.skeleton_sizes == (2, 3)
    assert res.routes_agree
    assert res.certificate is None


def test_morita_self_equivalence():
    A = chain3_A()
    res = morita_equivalent(A, A)
    assert res.equivalent and res.routes_agree
    phi, psi = res.certificate
    from qsemicat import compose_semidist

    assert compose_semidist(psi, phi) == identity_semidist(A)
    assert compose_semidist(phi, psi) == identity_semidist(A)


def test_morita_with_duplicated_object():
    C = chain3_C()
    D = indiscrete_two_objects()
    res = morita_equivalent(C, D)
    assert res.equivalent and res.routes_agree
    assert res.certificate is not None


def test_morita_requires_regular():
    from qsemicat import builtin_quantaloid as bq

    Q2 = bq("2")
    strict = validate_semicategory(Q2, [("a", "*"), ("b", "*")], {("a", "b"): 1})
    with pytest.raises(NotRegular):
        morita_equivalent(strict, strict)


def test_morita_agrees_with_covariant_route():
    pairs = [
        (chain3_A(), chain3_C()),
        (chain3_A(), chain3_A()),
        (chain3_C(), indiscrete_two_objects()),
    ]
    for A, B in pairs:
        res = morita_equivalent(A, B)
        _, ska = skeleton(build_RA(A, CO))
        _, skb = skeleton(build_RA(B, CO))
        assert categories_isomorphic(ska, skb) == res.equivalent


def test_morita_on_categories_is_presheaf_equivalence():
    # for categories every presheaf is regular, so RA is PA
    C, D = chain3_C(), indiscrete_two_objects()
    for X in (C, D):
        pa, ra = build_PA(X), build_RA(X)
        assert pa.hom == ra.hom and len(pa) == len(ra)


def test_rsdist_search_examples():
    A = chain3_A()
    found = rsdist_isomorphism_search(A, A)
    assert found is not None
    assert rsdist_isomorphism_search(A, chain3_C()) is None


def test_rsdist_search_between_isomorphic_omega_sets():
    # a bijective morphism of one-element Omega-sets and its right adjoint
    from qsemicat import from_frame, chain, right_adjoint, validate_omega_set

    frame = from_frame(chain(3))
    E = validate_omega_set(frame, ["p"], {("p", "p"): 1}).as_semicategory()
    F = validate_omega_set(frame, ["q"], {("q", "q"): 1}).as_semicategory()
    found = rsdist_isomorphism_search(E, F)
    assert found is not None
    phi, psi = found
    assert right_adjoint(phi) == psi


def test_rsdist_search_cap():
    from qsemicat import SearchCapExceeded

    A = chain3_A()
    with pytest.raises(SearchCapExceeded):
        rsdist_isomorphism_search(A, A, cap=1)


def hom_sizes_differ_by_direction():
    """One-object categories A of type Y and B of type X over a base with
    hom(X, Y) the two-chain and hom(Y, X) = {⊥}, so |A -/-> B| = 1 and
    |B -/-> A| = 2; a composite is the meet where its hom is the two-chain."""
    homs = {("X", "X"): chain(2), ("Y", "Y"): chain(2), ("X", "Y"): chain(2), ("Y", "X"): chain(1)}
    size = {xy: lat.size for xy, lat in homs.items()}
    compose = {
        (x, y, z): [
            [min(g, f) if size[x, z] == 2 else 0 for f in range(size[x, y])]
            for g in range(size[y, z])
        ]
        for x, y, z in itertools.product("XY", repeat=3)
    }
    q = validate_quantaloid(("X", "Y"), homs, compose, {"X": 1, "Y": 1})
    A = validate_semicategory(q, [("a", "Y")], {("a", "a"): 1})
    B = validate_semicategory(q, [("b", "X")], {("b", "b"): 1})
    return A, B


def test_rsdist_search_caps_only_the_space_it_scans():
    # the search never forms B -/-> A, so its size does not count against the cap
    A, B = hom_sizes_differ_by_direction()
    assert (matrix_space(A, B)[0], matrix_space(B, A)[0]) == (1, 2)
    assert rsdist_isomorphism_search(A, B, cap=1) is None
    assert reference_rsdist_isomorphism_search(A, B, cap=1) is None
    want = (SearchCapExceeded, "matrix space of size 2 exceeds cap 1", 2)
    assert outcome(lambda: rsdist_isomorphism_search(B, A, cap=1)) == want
    assert outcome(lambda: reference_rsdist_isomorphism_search(B, A, cap=1)) == want
    for cap in (2, 3, 10):
        assert morita_equivalent(A, B, cap).cross_check == "agreed"


# Hom rows of three-object regular semicategories over 3 whose certificate
# search tries few pairs (|Φ|·|Ψ| from 9 to 400); the last two are isomorphic.
THREE_OBJECT_PAIRS = (
    (((0, 0, 0), (0, 1, 0), (1, 1, 1)), ((2, 1, 1), (0, 0, 0), (1, 2, 2))),
    (((2, 0, 2), (0, 1, 0), (2, 0, 2)), ((0, 0, 0), (1, 2, 0), (1, 1, 0))),
    (((1, 1, 1), (1, 1, 1), (2, 2, 2)), ((2, 0, 0), (2, 2, 0), (2, 1, 2))),
    (((2, 0, 0), (2, 0, 0), (2, 1, 2)), ((2, 1, 2), (0, 0, 0), (0, 0, 2))),
    (((1, 2, 0), (1, 2, 0), (1, 2, 2)), ((1, 1, 1), (0, 2, 0), (2, 2, 2))),
)


@pytest.fixture(scope="module")
def certificate_families():
    """Pairs of regular semicategories, by family.

    Every pair with at most two objects over 2 (169), a fixed-seed sample of
    300 of the 2,401 such pairs over 3, and the three-object pairs above.
    """
    two = regular_semicats("2", 2)
    three = regular_semicats("3", 2)
    return {
        "2": [(A, B) for A in two for B in two],
        "3": random.Random(4).sample([(A, B) for A in three for B in three], 300),
        "3obj": [
            (semicat_from_rows(Q3, a), semicat_from_rows(Q3, b)) for a, b in THREE_OBJECT_PAIRS
        ],
    }


@pytest.fixture(scope="module")
def beyond_frame_families():
    """The pairs over bases that are not frames (see ``helpers.beyond_frame_pairs``)."""
    return beyond_frame_pairs()


def test_rsdist_search_matches_exhaustive_reference(certificate_families, beyond_frame_families):
    # the adjoint route must return the very pair the Φ×Ψ double loop finds first
    isomorphisms = {}
    for family, pairs in {**certificate_families, **beyond_frame_families}.items():
        isomorphisms[family] = 0
        for A, B in pairs:
            found = rsdist_isomorphism_search(A, B)
            assert found == reference_rsdist_isomorphism_search(A, B), (family, A.hom, B.hom)
            isomorphisms[family] += found is not None
        assert 0 < isomorphisms[family] < len(pairs), family
    assert isomorphisms["3obj"] == 2


def test_ra_isomorphism_agrees_with_certificate_search_beyond_frames(beyond_frame_families):
    # the verdict of RA ≅ RB against the certificate search, which ran in full
    for family, pairs in beyond_frame_families.items():
        for A, B in pairs:
            res = morita_equivalent(A, B, cap=10**5)
            assert res.cross_check == "agreed", (family, A.hom, B.hom)


def test_enumerate_regular_semidists_matches_matrix_space_filter(certificate_families):
    # both directions of every two-object pair; A -/-> B only for the
    # three-object pairs, whose spaces of 19,683 matrices each take 0.5 s
    for family, pairs in certificate_families.items():
        for A, B in pairs:
            for dom, cod in ((A, B),) if family == "3obj" else ((A, B), (B, A)):
                _, space = matrix_space(dom, cod)
                expected = [
                    SemiDistributor(dom, cod, flat)
                    for flat in space
                    if is_regular_semidist(SemiDistributor(dom, cod, flat))
                ]
                assert enumerate_regular_semidists(dom, cod, cap=10**5) == expected


def test_morita_survives_capped_certificate_search():
    # a cap that lets the skeleton route finish but not the matrix search:
    # the verdict stands, the certificate is simply absent
    D = indiscrete_two_objects()
    res = morita_equivalent(D, D, cap=50)  # presheaf space 9, matrix space 81
    assert res.equivalent
    assert res.certificate is None
    assert res.routes_agree


def test_categories_isomorphic_cap():
    from qsemicat import SearchCapExceeded

    pa = build_PA(chain3_C())
    with pytest.raises(SearchCapExceeded):
        categories_isomorphic(pa, pa, cap=1)


def test_view_check_and_iso_need_category():
    from qsemicat import NotACategory, QCategoryView

    A = chain3_A()
    bad = QCategoryView(Q3, [(a, "*", None) for a in A.names], A.dense)
    with pytest.raises(NotACategory):
        bad.check()
    with pytest.raises(NotACategory):
        skeleton(bad)


def test_induced_functor_identity():
    A = chain3_A()
    f = InducedFunctor(identity_semidist(A))
    for p in enumerate_presheaves(A, "*"):
        if is_regular_presheaf(p):
            assert f(p) == p


def test_induced_functor_three_chain_values():
    A = chain3_A()
    f = InducedFunctor(identity_semidist(A))  # Φ = (e)
    pool = enumerate_presheaves(A, "*")
    assert f(pool[1]).values == (1,)
    assert f(pool[0]).values == (0,)


def test_induced_functor_right_adjoint_hom_equalities():
    A = chain3_A()
    phi = identity_semidist(A)
    f = InducedFunctor(phi)
    reg = [p for p in enumerate_presheaves(A, "*") if is_regular_presheaf(p)]
    for theta in reg:
        for psi in reg:
            assert presheaf_hom_elem(f(theta), psi) == presheaf_hom_elem(theta, f.right(psi))
    # the right adjoint agrees with the lifting in the regular calculus
    for psi in reg:
        lifted = lifting_rsdist(phi, psi.as_semidistributor())
        assert f.right(psi).values == tuple(lifted.mat[(a, "*")] for a in A.names)


def test_induced_functor_accepts_presheaves_on_an_equal_copy():
    A, copy, other = chain3_A(), chain3_A(), chain3_C()
    assert A == copy and A is not copy
    f = InducedFunctor(identity_semidist(A))
    ps, qs = enumerate_presheaves(A, "*"), enumerate_presheaves(copy, "*")
    assert [f(q) for q in qs] == [f(p) for p in ps]
    assert [f.right(q) for q in qs] == [f.right(p) for p in ps]

    def on_copy(theta):
        return Presheaf(copy, "*", CONTRA, f(theta).values)

    assert distributor_from_cocont(on_copy, A, A) == identity_semidist(A)
    q = enumerate_presheaves(other, "*")[0]
    for g in (f, f.right):
        with pytest.raises(TypeMismatch, match="does not live on the"):
            g(q)


def test_induced_functors_of_graphs_are_adjoint():
    A = chain3_A()
    F = validate_semifunctor(A, A, {"*": "*"})
    fwd, bwd = graph_semidists(F)
    lf, rg = InducedFunctor(fwd), InducedFunctor(bwd)
    reg = [p for p in enumerate_presheaves(A, "*") if is_regular_presheaf(p)]
    for theta in reg:
        for psi in reg:
            assert presheaf_hom_elem(lf(theta), psi) == presheaf_hom_elem(theta, rg(psi))


def test_distributor_from_cocont_round_trip():
    A = chain3_A()
    for v in range(3):
        cand = {("*", "*"): v}
        try:
            phi = validate_semidistributor(A, A, cand)
        except Exception:
            continue
        from qsemicat import is_regular_semidist

        if not is_regular_semidist(phi):
            continue
        assert distributor_from_cocont(InducedFunctor(phi), A, A) == phi


def test_distributor_from_cocont_identity_and_bottom():
    A = chain3_A()
    assert distributor_from_cocont(lambda t: t, A, A) == identity_semidist(A)
    zero = bottom_semidist(A, A)
    collapse = InducedFunctor(zero)
    assert distributor_from_cocont(collapse, A, A) == zero


def test_distributor_from_cocont_rejects_non_cocontinuous():
    A = chain3_A()
    pool = enumerate_presheaves(A, "*")
    reg = [p for p in pool if is_regular_presheaf(p)]
    top_regular = max(reg, key=lambda p: p.values)

    def constant(theta):
        return top_regular

    with pytest.raises(NotCocontinuous):
        distributor_from_cocont(constant, A, A)


@pytest.mark.parametrize("values", [(7,), (-1,), (True,), (1.0,), (None,)])
def test_distributor_from_cocont_refuses_values_outside_the_hom(values):
    # Presheaf() takes its values unchecked, so the map's image is range-checked;
    # a value whose type is not int is out of range
    A = chain3_A()
    with pytest.raises(TypeMismatch) as exc:
        distributor_from_cocont(lambda theta: Presheaf(A, "*", CONTRA, values), A, A)
    assert str(exc.value) == (
        "image of the representable at '*' is not a contravariant presheaf "
        "of type t('*') on the codomain"
    )
    assert exc.value.witness == "*"


def test_distributor_from_cocont_checks_each_value_in_its_own_hom():
    # u: X and v: Y over the relations quantaloid, where |hom(X, X)| = 2 and
    # |hom(X, Y)| = 4: the value 3 is out of range at u and in range at v
    R = rel_quantaloid()
    assert (R.hom_lat("X", "X").size, R.hom_lat("X", "Y").size) == (2, 4)
    A = validate_semicategory(R, [("a", "X")], (R.identity["X"],))
    B = validate_semicategory(
        R, [("u", "X"), ("v", "Y")], {("u", "u"): R.identity["X"], ("v", "v"): R.identity["Y"]}
    )
    phi = validate_semidistributor(A, B, (0, 3))
    assert distributor_from_cocont(InducedFunctor(phi), A, B) == phi
    with pytest.raises(TypeMismatch) as exc:
        distributor_from_cocont(lambda theta: Presheaf(B, "X", CONTRA, (3, 0)), A, B)
    assert exc.value.witness == "a"


def test_order_reflection():
    A = chain3_A()
    lat = Q3.hom_lat("*", "*")
    below = lambda v, w: all(lat.le(x, y) for x, y in zip(v, w))
    reg_dists = [
        validate_semidistributor(A, A, {("*", "*"): v}) for v in range(2)
    ]  # (0) and (e) are the regular endo-semidistributors
    reg_presheaves = [p for p in enumerate_presheaves(A, "*") if is_regular_presheaf(p)]
    for phi in reg_dists:
        for psi in reg_dists:
            pointwise = all(
                below(InducedFunctor(phi)(t).values, InducedFunctor(psi)(t).values)
                for t in reg_presheaves
            )
            assert pointwise == leq_semidist(phi, psi)


def test_view_is_validated_once(monkeypatch):
    import qsemicat.presheaf as presheaf

    view = build_PA(chain3_C())
    assert len(view) > 1
    calls = []
    real = presheaf.validate_semicategory

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(presheaf, "validate_semicategory", counting)
    for _ in range(3):
        assert view.check()
        assert skeleton(view)[0].classes == tuple((a,) for a in view.names)
    assert len(calls) == 1


FAMILIES = presheaf_families()


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_regular_presheaf_category_is_a_skeletal_category(name, variance):
    for A in FAMILIES[name]:
        ra = build_RA(A, variance)
        assert ra.check()
        report, _ = skeleton(ra)
        assert report.classes == tuple((tag,) for tag in ra.names), A.hom


def _relabelled(A, rng):
    """A copy of A with its objects renamed and listed in a shuffled order."""
    order = list(A.names)
    rng.shuffle(order)
    objects = [(f"r{a}", A.type_of(a)) for a in order]
    hom = {(f"r{a1}", f"r{a0}"): A.hom[(a1, a0)] for a1 in order for a0 in order}
    return validate_semicategory(A.base, objects, hom)


def _one_entry_changed(A):
    """The first semicategory that differs from A in exactly one hom entry,
    in row-major entry and increasing value order, or None."""
    q, n = A.base, len(A)
    for k, e in enumerate(A.dense):
        for v in range(q.hom_lat(A.types[k % n], A.types[k // n]).size):
            if v != e:
                try:
                    return validate_semicategory(q, A.objects, A.dense[:k] + (v,) + A.dense[k + 1 :])
                except CompositionFailure:
                    pass
    return None


@pytest.mark.parametrize("name", FAMILIES)
def test_categories_isomorphic_on_semicategories_and_relabelled_copies(name):
    # an isomorphism permutes the hom entries, so one changed entry breaks it
    rng = random.Random(0)
    changed = 0
    for A in FAMILIES[name]:
        B = _relabelled(A, rng)
        assert categories_isomorphic(A, B) and categories_isomorphic(B, A), A.hom
        D = _one_entry_changed(A)
        if D is not None:
            changed += 1
            assert not categories_isomorphic(D, B) and not categories_isomorphic(B, D), A.hom
    assert changed > 0


def test_distributor_from_cocont_refuses_images_of_the_wrong_type_or_variance():
    # F sends each representable to a regular contravariant presheaf of the
    # other type, or to a regular covariant one of its own type
    other = {"X": "Y", "Y": "X"}
    family = [A for A in relations_family(rel_quantaloid()) if A.is_regular][:40]
    assert len(family) == 40
    for A in family:
        for variance, image_type in ((CONTRA, other.get), (CO, lambda x: x)):
            images = {x: _regular_presheaves(A, image_type(x), variance)[-1] for x in other}
            with pytest.raises(TypeMismatch) as exc:
                distributor_from_cocont(lambda theta: images[theta.qtype], A, A)
            assert exc.value.witness == A.names[0], (A.hom, variance)


def _input_refusals():
    """Name -> (a call the library must refuse, the class, message and
    witness it raises with)."""
    A = chain3_A()  # regular, hom e; its regular endo-semidistributors are (0) and (e)
    B = semicat_from_rows(builtin_quantaloid("2"), [[0, 1], [0, 0]])  # a ≺ b only: not regular
    top = validate_semidistributor(A, A, (2,))  # a semidistributor, not regular
    # regular, with a ≺ b over the three-chain; ψ = (0, 2) breaks B⊗ψ ≤ ψ at (a, b)
    C = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 2}
    )
    return {
        "induced-endpoints": (
            lambda: InducedFunctor(identity_semidist(B)),
            (NotRegular, "induced functors need regular endpoints", identity_semidist(B)),
        ),
        "induced-regular": (
            lambda: InducedFunctor(top),
            (NotRegular, "inducing semidistributor is not regular", top),
        ),
        "induced-right": (
            lambda: InducedFunctor(identity_semidist(C)).right(Presheaf(C, "*", CONTRA, (0, 2))),
            (ActionFailure, "B('a','b')∘Φ('b','*') ≰ Φ('a','*')", ("cod", "a", "b", "*")),
        ),
        "cocont-candidate": (
            lambda: distributor_from_cocont(lambda t: Presheaf(A, "*", CONTRA, (2,)), A, A),
            (
                NotCocontinuous,
                "map of representables does not give a regular semidistributor",
                top,
            ),
        ),
        "isomorphic-bases": (
            lambda: categories_isomorphic(A, B),
            (TypeMismatch, "semicategories live over different base quantaloids", None),
        ),
        "skeleton-view": (
            lambda: skeleton(C),
            (TypeMismatch, "skeleton needs a QCategoryView", C),
        ),
    }


@pytest.mark.parametrize("name", list(_input_refusals()))
def test_input_refusals_name_their_witness(name):
    run, want = _input_refusals()[name]
    assert outcome(run) == want
