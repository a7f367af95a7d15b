"""Hom matrices stored dense: the flat row-major tuple is the only stored
form of a semicategory's, a semidistributor's or a view's matrix, the dict
forms are built on demand, and single presheaf homs go through the
residuation kernel's entry loop.  Each is compared with the former dict
route kept in ``helpers``.
"""

import itertools

import pytest

from qsemicat import (
    CO,
    CONTRA,
    ActionFailure,
    CompositionFailure,
    NotAFrame,
    ParseError,
    SemiDistributor,
    TypeMismatch,
    build_PA,
    build_RA,
    builtin_quantaloid,
    categories_isomorphic,
    compose_semidist,
    enumerate_presheaves,
    enumerate_regular_semidists,
    is_regular_via_liftings,
    leq_semidist,
    lifting_dist,
    lifting_rsdist,
    presheaf_hom_elem,
    right_adjoint,
    rsdist_isomorphism_search,
    skeleton,
    sup_semidist,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
    verify_rsdist_is_idm_matr,
)
from qsemicat.lattice import named_lattice
from qsemicat.presheaf import QCategoryView, _contra
from qsemicat.semicat import _lift_entry, _lift_plan, _mat_lift, validate_typed_set
from qsemicat.workspace import load_workspace, parse_lattice, validate_report
from helpers import (
    all_semicats,
    outcome,
    presheaf_families,
    reference_dual_hom,
    reference_frame,
    reference_full_matrix,
    reference_semicategory_axioms,
    reference_semidistributor,
    reference_semifunctor,
    reference_skeleton_homs,
    rel_quantaloid,
    relations_family,
)

FAMILIES = presheaf_families()
Q3 = builtin_quantaloid("3")


def _pool(A, variance):
    return [p for x in A.base.objects for p in enumerate_presheaves(A, x, variance)]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_lift_entry_is_one_entry_of_the_block_kernel(name):
    for A in FAMILIES[name]:
        for variance in (CONTRA, CO):
            C = _contra(A, variance)
            q, t = C.base, C.types
            pool = _pool(A, variance)
            plans = {(x, y): _lift_plan(q, y, x, t) for x in q.objects for y in q.objects}
            for psi in pool:
                for phi in pool:
                    x, y = psi.qtype, phi.qtype
                    want = _mat_lift(q, (x,), t, (y,), psi.values, phi.values)[0]
                    assert _lift_entry(q, x, t, y, psi.values, phi.values) == want
                    assert _lift_entry(q, x, t, y, psi.values, phi.values, plans[x, y]) == want


def _former_route(q, elements, hom):
    """validate_semicategory as it was: the dict filled by the former range
    check, then the triple loop; returns the hom dict and the dense tuple."""
    ts = validate_typed_set(elements, q)
    full = reference_full_matrix(q, ts, ts, hom, "hom entry")
    reference_semicategory_axioms(q, elements, full)
    return list(full.items()), tuple(full[(a1, a0)] for a1 in ts.names for a0 in ts.names)


def _new_route(q, elements, hom):
    A = validate_semicategory(q, elements, hom)
    return list(A.hom.items()), A.dense


def _homs(A):
    """The full hom of A, the same with every bottom entry omitted, and the
    same in reversed key order."""
    q = A.base
    full = dict(A.hom)
    sparse = {
        (a1, a0): e
        for (a1, a0), e in full.items()
        if e != q.hom_lat(A.type_of(a0), A.type_of(a1)).bottom
    }
    return [full, sparse, dict(reversed(full.items()))]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_validate_semicategory_matches_the_former_dict_route(name):
    for A in FAMILIES[name]:
        q, elements = A.base, A.objects.elements
        for hom in _homs(A):
            assert _new_route(q, elements, hom) == _former_route(q, elements, hom), hom
        # the flat tuple is accepted as it is stored
        assert validate_semicategory(q, elements, A.dense) == A


def _malformed(A):
    """Hom dicts of A's shape that fail the range or key checks."""
    q = A.base
    full = dict(A.hom)
    names = A.names
    (a1, a0), *_ = full
    size = q.hom_lat(A.type_of(a0), A.type_of(a1)).size
    yield {**full, (a1, a0): size}
    yield {**full, (a1, a0): -1}
    yield {**full, (names[-1], names[0]): size + 3, (a1, "zz"): 0}
    yield {**full, (a1, "zz"): 0}
    yield {("zz", a0): 0, **full}
    yield {**full, "ab": 0}
    yield {**full, (a1,): 0}
    yield {**full, (a1, a0, a0): 0}
    yield {(a1, "zz"): 0, (a1, a0, a0): 0}
    yield {}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_malformed_homs_fail_as_in_the_former_route(name):
    failures = 0
    for A in FAMILIES[name][:40]:
        q, elements = A.base, A.objects.elements
        for hom in _malformed(A):
            want = outcome(lambda: _former_route(q, elements, hom))
            assert outcome(lambda: _new_route(q, elements, hom)) == want, hom
            failures += want[0] in (TypeMismatch, CompositionFailure)
    assert failures


def test_malformed_semidistributor_entries_fail_as_in_the_former_route():
    A, B = all_semicats("3", 2)[-1], all_semicats("3", 1)[0]
    mats = [
        {("a", "a"): 3},
        {("a", "b"): 0, ("b", "a"): 0},
        {("a", "a"): 0, "aa": 0},
        {("a", "a"): 0, ("a", "a", "a"): 0},
        {},
    ]
    for mat in mats:
        want = outcome(lambda: reference_semidistributor(A, B, mat))
        got = outcome(lambda: validate_semidistributor(A, B, mat).mat)
        assert got == want, mat


def test_flat_hom_of_the_wrong_length_is_refused():
    A = all_semicats("3", 2)[-1]
    with pytest.raises(TypeMismatch) as exc:
        validate_semicategory(A.base, A.objects, A.dense[:-1])
    assert exc.value.witness == 3


@pytest.mark.parametrize("name", list(FAMILIES))
def test_dual_matches_the_former_dict_built_dual(name):
    for A in FAMILIES[name]:
        D = A.op()
        want = reference_dual_hom(A)
        assert list(D.hom.items()) == list(want.items())
        assert D.dense == tuple(want[(a1, a0)] for a1 in A.names for a0 in A.names)
        assert D.base == A.base.op() and D.objects == A.objects
        assert (D.is_category, D.is_regular) == (A.is_category, A.is_regular)
        assert D == validate_semicategory(D.base, D.objects, want)


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_view_dicts_match_the_former_dicts(variance):
    for A in FAMILIES["acceptance-3"][::7] + FAMILIES["relations"]:
        view = build_PA(A, variance)
        # the former tags x#i in type order, their index and the dict
        tags = tuple(f"{x}#{i}" for x in A.base.objects for i in range(view.types.count(x)))
        keys = [(t1, t0) for t1 in tags for t0 in tags]
        assert view.names == tags
        assert [view.objects.index_of(tag) for tag in tags] == list(range(len(view)))
        with pytest.raises(TypeMismatch):
            view.objects.index_of("no such tag")
        assert list(view.hom.items()) == list(zip(keys, view.dense))
        assert validate_semicategory(view.base, view.objects, view.hom).dense == view.dense
        ra = build_RA(A, variance)
        report, sk = skeleton(ra)
        want = reference_skeleton_homs(ra, report.representatives)
        assert list(sk.hom.items()) == list(want.items())
        assert sk.names == report.representatives


@pytest.mark.parametrize("homs", [(2, 2, 2, 2), ()])
@pytest.mark.parametrize("types", [("*", "*"), ("*", "X")])
def test_view_refuses_duplicate_tags_and_unknown_types_at_construction(types, homs):
    # a duplicate tag when the types agree, an unknown type otherwise
    tags = ("a", "a") if types[1] == "*" else ("a", "b")
    with pytest.raises(TypeMismatch):
        QCategoryView(Q3, [(tag, t, None) for tag, t in zip(tags, types)], homs)


def test_view_refuses_a_short_hom_tuple_at_construction():
    with pytest.raises(TypeMismatch) as exc:
        QCategoryView(Q3, [("a", "*", None), ("b", "*", None)], (2,))
    assert exc.value.witness == 1


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_sweep_forms_no_hom_dict(monkeypatch, variance):
    import qsemicat.presheaf as presheaf
    import qsemicat.semicat as semicat

    A = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    )
    D = A.op()
    formed = []
    real = semicat._sparse

    def counting(cod, dom, flat):
        formed.append((cod, dom))
        return real(cod, dom, flat)

    monkeypatch.setattr(semicat, "_sparse", counting)
    pool = _pool(A, variance)
    assert len(pool) > 2
    homs = [[presheaf_hom_elem(p1, p0) for p0 in pool] for p1 in pool]
    via = [is_regular_via_liftings(p, against=pool) for p in pool]
    ra = build_RA(A, variance)
    report, sk = skeleton(ra)
    assert categories_isomorphic(ra, sk)
    assert len(report.classes) == sum(via) and len(homs) == len(pool)
    assert formed == []
    # read on demand, and then kept
    assert ra.hom is ra.hom
    assert [(cod.names, dom.names) for cod, dom in formed] == [(ra.names, ra.names)]
    assert A.hom == {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    assert D.hom == {("a", "a"): 2, ("a", "b"): 0, ("b", "a"): 1, ("b", "b"): 2}
    assert A.hom is A.hom
    assert formed[1:] == [(A, A), (D, D)]


def test_named_lattices_and_frames_are_built_once():
    assert named_lattice("square") is named_lattice("square")
    doc = {"omega_sets": {"E": {"frame": "square", "elements": ["p"], "eq": [["p", "p", 3]]}}}
    first, second = load_workspace(doc), load_workspace(doc)
    frame = builtin_quantaloid("frame:square")
    assert first.omega_sets["E"].frame is frame and second.omega_sets["E"].frame is frame


@pytest.mark.parametrize("name, error", [("nope", ParseError), ("diamond", NotAFrame)])
def test_named_frame_errors_match_the_former_route(name, error):
    doc = {"omega_sets": {"E": {"frame": name, "elements": ["p"], "eq": [["p", "p", 0]]}}}
    want = outcome(lambda: reference_frame(parse_lattice(name, "omega_sets.E.frame")))
    assert want[0] is error
    assert outcome(lambda: load_workspace(doc)) == want
    _, (verdict,) = validate_report(doc)
    assert verdict["error"] == f"{error.__name__}: {want[1]}"
    assert verdict["witness"] == repr(want[2])


def test_semidistributor_calculus_forms_no_dict(monkeypatch):
    import qsemicat.semicat as semicat

    A = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    )
    formed = []
    real = semicat._sparse

    def counting(cod, dom, flat):
        formed.append((cod, dom))
        return real(cod, dom, flat)

    monkeypatch.setattr(semicat, "_sparse", counting)
    phis = enumerate_regular_semidists(A, A, 10**4)
    assert len(phis) > 2
    for psi in phis:
        for phi in phis:
            compose_semidist(psi, phi)
            lifting_dist(psi, phi)
            lifting_rsdist(psi, phi)
            leq_semidist(psi, phi)
        right_adjoint(psi)
    sup_semidist(phis)
    assert rsdist_isomorphism_search(A, A) is not None
    assert verify_rsdist_is_idm_matr(A, A).ok
    assert formed == []
    # read on demand, and then kept
    phi = phis[-1]
    assert phi.mat == dict(zip(itertools.product(A.names, A.names), phi.dense))
    assert phi.mat is phi.mat
    assert formed == [(A, A)]
    assert SemiDistributor(A, A, phi.mat) == SemiDistributor(A, A, phi.dense) == phi


def _object_maps(dom, cod):
    """Every map from the objects of dom to those of cod or an unknown name,
    and the maps that leave out one object."""
    images = cod.names + ("zz",)
    for values in itertools.product(images, repeat=len(dom.names)):
        yield dict(zip(dom.names, values))
    for a in dom.names:
        yield {x: cod.names[0] for x in dom.names if x != a}


def test_semifunctor_validation_matches_the_former_dict_route():
    q = rel_quantaloid()
    U = validate_semicategory(q, [("w", "Y")], {})
    families = [all_semicats("3", 2), relations_family(q)[::10] + [U]]
    verdicts = set()
    for family in families:
        for dom, cod in itertools.product(family, repeat=2):
            for mapping in _object_maps(dom, cod):
                want = outcome(lambda: reference_semifunctor(dom, cod, mapping))
                assert outcome(lambda: validate_semifunctor(dom, cod, mapping)) == want
                verdicts.add(want[0] if isinstance(want, tuple) else "valid")
    assert verdicts == {"valid", ActionFailure, TypeMismatch}
