"""Hom matrices stored dense: the flat row-major tuple is the only stored
form of a semicategory's or a view's homs, the dict forms are built on
demand, and single presheaf homs go through the residuation kernel's entry
loop.  Each is compared with the former dict route kept in ``helpers``.
"""

import pytest

from qsemicat import (
    CO,
    CONTRA,
    CompositionFailure,
    NotAFrame,
    ParseError,
    TypeMismatch,
    build_PA,
    build_RA,
    builtin_quantaloid,
    enumerate_presheaves,
    is_regular_via_liftings,
    presheaf_hom_elem,
    skeleton,
    validate_semicategory,
    validate_semidistributor,
)
from qsemicat.lattice import named_lattice
from qsemicat.presheaf import QCategoryView, _contra
from qsemicat.semicat import _lift_entry, _mat_lift, validate_typed_set
from qsemicat.workspace import load_workspace, validate_report
from helpers import (
    all_semicats,
    outcome,
    presheaf_families,
    reference_dual_hom,
    reference_frame,
    reference_full_matrix,
    reference_semicategory_axioms,
    reference_semidistributor,
    reference_skeleton_homs,
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
            for psi in pool:
                for phi in pool:
                    x, y = psi.qtype, phi.qtype
                    want = _mat_lift(q, (x,), t, (y,), psi.values, phi.values)[0]
                    assert _lift_entry(q, x, t, y, psi.values, phi.values) == want


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
        tags = view.tags
        keys = [(t1, t0) for t1 in tags for t0 in tags]
        assert list(view.hom_elems.items()) == list(zip(keys, view.dense))
        assert view.as_semicategory().dense == view.dense
        # a view given its homs as a dict holds the same matrix
        again = QCategoryView(view.base, view.objects, dict(reversed(view.hom_elems.items())))
        assert again.dense == view.dense
        ra = build_RA(A, variance)
        report, sk = skeleton(ra)
        want = reference_skeleton_homs(ra, report.representatives)
        assert list(sk.hom_elems.items()) == list(want.items())
        assert sk.tags == report.representatives


@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_sweep_forms_no_hom_dict(monkeypatch, variance):
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
    report, _ = skeleton(build_RA(A, variance))
    assert len(report.classes) == sum(via) and len(homs) == len(pool)
    assert not [pair for pair in formed if pair[0] in (A, D) or pair[1] in (A, D)]
    # read on demand, and then kept
    assert A.hom == {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2}
    assert D.hom == {("a", "a"): 2, ("a", "b"): 0, ("b", "a"): 1, ("b", "b"): 2}
    assert A.hom is A.hom
    assert formed == [(A, A), (D, D)]


def test_named_lattices_and_frames_are_built_once():
    assert named_lattice("square") is named_lattice("square")
    doc = {"omega_sets": {"E": {"frame": "square", "elements": ["p"], "eq": [["p", "p", 3]]}}}
    first, second = load_workspace(doc), load_workspace(doc)
    frame = builtin_quantaloid("frame:square")
    assert first.omega_sets["E"].frame is frame and second.omega_sets["E"].frame is frame


@pytest.mark.parametrize("name, error", [("nope", ParseError), ("diamond", NotAFrame)])
def test_named_frame_errors_match_the_former_route(name, error):
    doc = {"omega_sets": {"E": {"frame": name, "elements": ["p"], "eq": [["p", "p", 0]]}}}
    want = outcome(lambda: reference_frame(name, "omega_sets.E.frame"))
    assert want[0] is error
    assert outcome(lambda: load_workspace(doc)) == want
    _, (verdict,) = validate_report(doc)
    assert verdict["error"] == f"{error.__name__}: {want[1]}"
    assert verdict["witness"] == repr(want[2])
