"""The covariant dual of the adjoint-triple suite, over the full family.

Covariant presheaf homs reverse under dualisation, so the triple sits the
other way around: the projection j has the inclusion as right adjoint and
k on the left.  Everything else transfers: k stays fully faithful with the
Yoneda presheaves as image, the two regularity routes agree, and the
representable characterisations of categories and regular carriers hold.
"""

import pytest

from qsemicat import (
    CO,
    enumerate_presheaves,
    is_category,
    is_regular_presheaf,
    is_regular_semicat,
    is_regular_via_liftings,
    is_yoneda_presheaf,
    map_j,
    map_k,
    presheaf_hom_elem,
    validate_semicategory,
    yoneda_covariant,
)
from helpers import all_semicats, regular_semicats


@pytest.fixture(scope="module")
def family():
    return [A for qname in ("2", "3") for A in regular_semicats(qname, 3)]


def test_covariant_adjoint_triple_full_family(family):
    for A in family:
        pool = [p for x in A.base.objects for p in enumerate_presheaves(A, x, CO)]
        idx = {p: i for i, p in enumerate(pool)}
        hom = [[presheaf_hom_elem(p1, p0) for p0 in pool] for p1 in pool]
        regular = [p for p in pool if is_regular_presheaf(p)]
        yoneda_set = {p for p in pool if is_yoneda_presheaf(p)}
        j = {p: map_j(A, p) for p in pool}
        k = {t: map_k(A, t) for t in regular}

        # mirrored hom equalities: the inclusion is right adjoint to j,
        # and j is right adjoint to k
        for phi in regular:
            fi = idx[phi]
            for psi in pool:
                assert hom[idx[psi]][fi] == hom[idx[j[psi]]][fi]
        for psi in pool:
            ji = idx[j[psi]]
            for theta in regular:
                assert hom[idx[theta]][ji] == hom[idx[k[theta]]][idx[psi]]
        for t1 in regular:
            for t2 in regular:
                assert hom[idx[t1]][idx[t2]] == hom[idx[k[t1]]][idx[k[t2]]]
        assert {k[t] for t in regular} == yoneda_set


def test_covariant_regularity_routes_full_family(family):
    for A in family:
        for x in A.base.objects:
            pool = enumerate_presheaves(A, x, CO)
            for p in pool:
                assert is_regular_presheaf(p) == is_regular_via_liftings(p, against=pool)


def test_dual_semicategories(family):
    # the regular family plus every two-object semicategory over the
    # three-chain, so that non-regular carriers are dualised too
    for A in family + all_semicats("3", 2):
        D = A.op()
        assert validate_semicategory(D.base, D.objects, D.hom) == D
        assert D.op() is A
        assert is_regular_semicat(D) == is_regular_semicat(A)
        assert is_category(D) == is_category(A)


def test_covariant_representable_characterisations(family):
    for A in family:
        reps = [yoneda_covariant(A, a) for a in A.names]
        assert all(is_regular_presheaf(r) for r in reps) == is_regular_semicat(A)
        assert all(is_yoneda_presheaf(r) for r in reps) == is_category(A)


def test_all_morita_routes_agree():
    # the five faces of Morita equivalence give one verdict: isomorphism in
    # the regular calculus (the certificate route inside morita_equivalent),
    # equivalence of the regular-presheaf categories in both variances, and
    # equivalence of the Yoneda-presheaf categories in both variances
    import itertools

    from qsemicat import (
        CONTRA,
        build_RA,
        build_YA,
        categories_isomorphic,
        morita_equivalent,
        skeleton,
    )

    def routes(A, B):
        res = morita_equivalent(A, B, cap=10**4)
        assert res.routes_agree
        verdicts = [res.equivalent]
        for build in (build_RA, build_YA):
            for variance in (CONTRA, CO):
                _, ska = skeleton(build(A, variance))
                _, skb = skeleton(build(B, variance))
                verdicts.append(categories_isomorphic(ska, skb))
        return verdicts

    small2 = regular_semicats("2", 2)
    for A, B in itertools.product(small2, repeat=2):
        assert len(set(routes(A, B))) == 1

    fam3 = regular_semicats("3", 2)
    ones = [A for A in fam3 if len(A.names) == 1]
    twos = [A for A in fam3 if len(A.names) == 2]
    for A in ones:
        for B in twos:
            assert len(set(routes(A, B))) == 1
    for A, B in zip(twos, twos[5:] + twos[:5]):
        assert len(set(routes(A, B))) == 1
