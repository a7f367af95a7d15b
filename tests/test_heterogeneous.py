"""End-to-end checks over a quantaloid with genuinely different hom-lattices.

The relation quantaloid on sets of sizes one and two has hom-lattices of
sizes 2, 4, 4 and 16, so presheaves of different types, mixed-type hom
arrows and the whole regular calculus run through code paths that the
one-object chain bases cannot reach.
"""

import itertools

import pytest

from qsemicat import (
    CO,
    CONTRA,
    build_PA,
    build_RA,
    build_YA,
    compose_semidist,
    enumerate_presheaves,
    enumerate_regular_semidists,
    identity_semidist,
    is_category,
    is_regular_presheaf,
    is_regular_semicat,
    is_regular_via_liftings,
    is_yoneda_presheaf,
    map_j,
    map_k,
    morita_equivalent,
    presheaf_hom_elem,
    rsdist_isomorphism_search,
    validate_semicategory,
)
from helpers import build_RA_by_lifting, oracle_extension, oracle_lifting, rel_quantaloid

Q = rel_quantaloid()


@pytest.fixture(scope="module")
def carrier():
    # one object of each type; the homs below are idempotent under
    # relational composition, giving a regular non-category
    hom = {
        ("u", "u"): 0,          # empty relation on the point
        ("v", "v"): 0b1001,     # the diagonal on the pair
        ("u", "v"): 0,
        ("v", "u"): 0,
    }
    A = validate_semicategory(Q, [("u", "X"), ("v", "Y")], hom)
    assert is_regular_semicat(A) and not is_category(A)
    return A


def test_residuation_against_oracles():
    for x, y, z in itertools.product(Q.objects, repeat=3):
        for c in range(Q.hom_lat(y, z).size):
            for b in range(Q.hom_lat(x, z).size):
                assert Q.lifting_elem(x, y, z, c, b) == oracle_lifting(Q, x, y, z, c, b)
        for c in range(Q.hom_lat(x, y).size):
            for b in range(Q.hom_lat(x, z).size):
                assert Q.extension_elem(x, y, z, c, b) == oracle_extension(Q, x, y, z, c, b)


def test_mixed_type_presheaf_categories(carrier):
    A = carrier
    pa = build_PA(A)
    types = set(pa.types)
    assert types == {"X", "Y"}
    assert pa.check()
    ra = build_RA(A)
    ya = build_YA(A)
    assert ra.check() and ya.check()
    assert build_RA_by_lifting(A).hom == ra.hom


def test_adjoint_triple_mixed_types(carrier):
    A = carrier
    pool = [p for x in Q.objects for p in enumerate_presheaves(A, x)]
    regular = [p for p in pool if is_regular_presheaf(p)]
    yoneda_set = {p for p in pool if is_yoneda_presheaf(p)}
    j = {p: map_j(A, p) for p in pool}
    k = {t: map_k(A, t) for t in regular}
    # j and k keep the type, so each pair of homs below has one domain and codomain
    assert all(j[p].qtype == p.qtype for p in pool)
    assert all(k[t].qtype == t.qtype for t in regular)
    for phi in regular:
        for psi in pool:
            assert presheaf_hom_elem(phi, psi) == presheaf_hom_elem(phi, j[psi])
    for psi in pool:
        for theta in regular:
            assert presheaf_hom_elem(j[psi], theta) == presheaf_hom_elem(psi, k[theta])
    for t1 in regular:
        for t2 in regular:
            assert presheaf_hom_elem(t1, t2) == presheaf_hom_elem(k[t1], k[t2])
    assert {k[t] for t in regular} == yoneda_set
    for p in pool:
        assert is_regular_presheaf(p) == is_regular_via_liftings(p, against=pool)


def test_covariant_classification_mixed_types(carrier):
    A = carrier
    for x in Q.objects:
        pool = enumerate_presheaves(A, x, CO)
        assert pool
        for p in pool:
            assert is_regular_presheaf(p) == is_regular_via_liftings(p, against=pool)


def test_regular_calculus_mixed_types(carrier):
    A = carrier
    ida = identity_semidist(A)
    for phi in enumerate_regular_semidists(A, A, cap=10**5):
        assert compose_semidist(phi, ida) == phi
        assert compose_semidist(ida, phi) == phi


def test_morita_self_equivalence_mixed_types(carrier):
    A = carrier
    res = morita_equivalent(A, A, cap=10**5)
    assert res.equivalent and res.routes_agree
    assert res.certificate is not None
    phi, psi = res.certificate
    assert compose_semidist(psi, phi) == identity_semidist(A)


def test_morita_distinguishes_types(carrier):
    # collapsing the two-point object to the one-point one changes RA
    A = carrier
    B = validate_semicategory(Q, [("u", "X")], {("u", "u"): 0})
    res = morita_equivalent(A, B, cap=10**5)
    assert not res.equivalent and res.routes_agree
