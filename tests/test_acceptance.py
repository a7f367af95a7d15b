"""Acceptance criteria, one test per criterion.

Each test prints through the terminal-summary hook in conftest.py; every
equality here is exact (integer lattice elements), there are no numeric
tolerances anywhere in the calculus.
"""

import itertools
import json
import time

import pytest

from qsemicat import (
    CO,
    InducedFunctor,
    builtin_quantaloid,
    build_PA,
    build_RA,
    build_idm,
    compose_semidist,
    distributor_from_cocont,
    enumerate_presheaves,
    enumerate_regular_semidists,
    free_category,
    from_frame,
    graph_semidists,
    has_interpolation,
    identity_semidist,
    idm_lifting,
    is_adjoint_pair,
    is_category,
    is_regular_presheaf,
    is_regular_semicat,
    is_regular_semidist,
    is_regular_semifunctor,
    is_regular_via_liftings,
    is_yoneda_presheaf,
    leq_semidist,
    lifting_dist,
    lifting_rsdist,
    map_j,
    map_k,
    morita_equivalent,
    presheaf_hom_elem,
    scott_closeds,
    scott_opens,
    skeleton,
    strict_order_to_semicat,
    validate_omega_set,
    validate_poset,
    validate_semidistributor,
    validate_semifunctor,
    way_below,
    yoneda,
    yoneda_covariant,
)
from qsemicat.cli import main as cli_main
from qsemicat.errors import ActionFailure, TypeMismatch
from qsemicat.lattice import chain
from helpers import (
    NAMES,
    all_posets,
    all_semicats,
    boolean_square,
    chain3_A,
    chain3_C,
    downsets_of_poset,
    reference_idm_lifting,
    reference_way_below,
    regular_semicats,
    rows_to_pairs,
    transitive_relations,
    upsets_of_poset,
)


@pytest.fixture(scope="session")
def regular_family():
    """All regular semicategories with <= 3 objects over the 2- and 3-chain."""
    return {qname: regular_semicats(qname, 3) for qname in ("2", "3")}


@pytest.fixture(scope="session")
def small_regular_family(regular_family):
    """The <= 2-object slice, used for the pairwise criteria."""
    return {
        qname: [A for A in fam if len(A.names) <= 2]
        for qname, fam in regular_family.items()
    }


@pytest.fixture(scope="session")
def adjoint_sweep(regular_family):
    """One pass over every generated instance, feeding criteria 2 and 3."""
    failures = {"adjunction_ij": [], "adjunction_jk": [], "k_ff": [], "k_image": [], "via_liftings": []}
    instances = 0
    for fam in regular_family.values():
        for A in fam:
            instances += 1
            pool = [
                p
                for x in A.base.objects
                for p in enumerate_presheaves(A, x)
            ]
            idx = {p: i for i, p in enumerate(pool)}
            hom = [[presheaf_hom_elem(p1, p0) for p0 in pool] for p1 in pool]
            regular = [p for p in pool if is_regular_presheaf(p)]
            yoneda_set = {p for p in pool if is_yoneda_presheaf(p)}
            j = {p: map_j(A, p) for p in pool}
            k = {t: map_k(A, t) for t in regular}

            for phi in regular:
                fi = idx[phi]
                for psi in pool:
                    if hom[fi][idx[psi]] != hom[fi][idx[j[psi]]]:
                        failures["adjunction_ij"].append((A.hom, phi.values, psi.values))
            for psi in pool:
                ji = idx[j[psi]]
                for theta in regular:
                    if hom[ji][idx[theta]] != hom[idx[psi]][idx[k[theta]]]:
                        failures["adjunction_jk"].append((A.hom, psi.values, theta.values))
            for t1 in regular:
                for t2 in regular:
                    if hom[idx[t1]][idx[t2]] != hom[idx[k[t1]]][idx[k[t2]]]:
                        failures["k_ff"].append((A.hom, t1.values, t2.values))
            if {k[t] for t in regular} != yoneda_set:
                failures["k_image"].append(A.hom)
            for p in pool:
                if is_regular_presheaf(p) != is_regular_via_liftings(p, against=pool):
                    failures["via_liftings"].append((A.hom, p.values))
    assert instances == 2 + 11 + 123 + 3 + 46 + 1929
    return failures


def test_criterion_01_three_chain_counterexample(tmp_path):
    started = time.perf_counter()
    A, C = chain3_A(), chain3_C()

    pool = enumerate_presheaves(A, "*")
    assert len(pool) == 3
    assert len(enumerate_presheaves(free_category(A), "*")) == 3

    report, _ = skeleton(build_RA(A))
    assert len(report.classes) == 2

    pc = build_PA(C)
    assert len(pc) == 3
    # pairwise non-isomorphic: every skeleton class is a singleton
    assert skeleton(pc)[0].classes == tuple((tag,) for tag in pc.names)

    res = morita_equivalent(A, C)
    assert not res.equivalent and res.routes_agree

    ws = {
        "quantaloids": {"Q": "3"},
        "semicategories": {
            "A": {"base": "Q", "objects": [{"name": "*", "type": "*"}], "hom": [["*", "*", 1]]},
            "C": {"base": "Q", "objects": [{"name": "*", "type": "*"}], "hom": [["*", "*", 2]]},
        },
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    assert cli_main(["morita", str(path), "A", "C"]) == 1

    assert time.perf_counter() - started < 1.0


def test_criterion_02_adjoint_triple(adjoint_sweep):
    assert adjoint_sweep["adjunction_ij"] == []
    assert adjoint_sweep["adjunction_jk"] == []
    assert adjoint_sweep["k_ff"] == []
    assert adjoint_sweep["k_image"] == []


def test_criterion_03_regularity_equivalence(adjoint_sweep):
    assert adjoint_sweep["via_liftings"] == []


def test_criterion_04_category_criterion(regular_family):
    instances = [A for fam in regular_family.values() for A in fam if len(A.names) <= 2]
    for qname in ("2", "3"):
        instances.extend(all_semicats(qname, 2))
    assert any(not is_regular_semicat(A) for A in instances)
    assert any(not is_category(A) and is_regular_semicat(A) for A in instances)
    for A in instances:
        contra = all(is_yoneda_presheaf(yoneda(A, a)) for a in A.names)
        co = all(is_yoneda_presheaf(yoneda_covariant(A, a)) for a in A.names)
        assert contra == is_category(A)
        assert co == is_category(A)


def test_criterion_05_rsdist_laws(small_regular_family):
    # identity laws for every regular semidistributor between family members
    for qname, fam in small_regular_family.items():
        pairs = itertools.product(fam, repeat=2)
        for A, B in pairs:
            for phi in enumerate_regular_semidists(A, B, cap=10**4):
                assert compose_semidist(phi, identity_semidist(A)) == phi
                assert compose_semidist(identity_semidist(B), phi) == phi

    # associativity over one-object triples, exhaustively
    for qname in ("2", "3"):
        fam1 = [A for A in small_regular_family[qname] if len(A.names) == 1]
        for A, B, C, D in itertools.product(fam1, repeat=4):
            for phi in enumerate_regular_semidists(A, B, cap=10**4):
                for psi in enumerate_regular_semidists(B, C, cap=10**4):
                    for xi in enumerate_regular_semidists(C, D, cap=10**4):
                        assert compose_semidist(xi, compose_semidist(psi, phi)) == compose_semidist(
                            compose_semidist(xi, psi), phi
                        )

    # between categories the calculus is the ordinary distributor calculus
    for qname, fam in small_regular_family.items():
        cats = [A for A in fam if is_category(A)]
        for A, B in itertools.product(cats[:8], repeat=2):
            from qsemicat import matrix_space

            _, space = matrix_space(A, B)
            for flat in space:
                try:
                    phi = validate_semidistributor(A, B, flat)
                except ActionFailure:
                    continue
                assert is_regular_semidist(phi)
                free_phi = validate_semidistributor(
                    free_category(A), free_category(B), phi.mat
                )
                assert compose_semidist(identity_semidist(B), phi).mat == compose_semidist(
                    identity_semidist(free_category(B)), free_phi
                ).mat


def test_criterion_06_lifting_coherence(small_regular_family):
    # the regular-calculus lifting collapses to the plain one over categories
    checked = 0
    for qname, fam in small_regular_family.items():
        cats = [A for A in fam if is_category(A)]
        regs = [B for B in fam if len(B.names) == 1]
        for A in cats[:6]:
            for C in cats[:6]:
                for B in regs:
                    for phi in enumerate_regular_semidists(A, B, cap=10**4):
                        for psi in enumerate_regular_semidists(C, B, cap=10**4):
                            assert lifting_rsdist(psi, phi).mat == lifting_dist(psi, phi).mat
                            checked += 1
    assert checked > 100

    # the idempotent-completion lifting formula matches exhaustive maximisation
    for qname in ("2", "3"):
        q = builtin_quantaloid(qname)
        idm = build_idm(q)
        for e in idm.objects:
            for f in idm.objects:
                for g in idm.objects:
                    for b in idm.hom_elements[(idm.tag(e), idm.tag(f))]:
                        for c in idm.hom_elements[(idm.tag(g), idm.tag(f))]:
                            d = idm_lifting(q, e, f, g, b, c)
                            assert d in idm.hom_elements[(idm.tag(e), idm.tag(g))]
                            assert d == reference_idm_lifting(q, e, f, g, b, c)


def test_criterion_07_interpolation_is_regularity():
    names = list(NAMES)
    for n in range(1, 5):
        for rows in transitive_relations(n):
            pairs = rows_to_pairs(rows)
            interp = has_interpolation(names[:n], pairs)
            assert interp == (boolean_square(rows) == rows)
            assert interp == is_regular_semicat(strict_order_to_semicat(names[:n], pairs))
    # five points: interpolation against matrix idempotence on every relation,
    # the generic semicategory route on a deterministic stratified sample
    rels5 = transitive_relations(5)
    assert len(rels5) == 154303
    for i, rows in enumerate(rels5):
        pairs = rows_to_pairs(rows)
        interp = has_interpolation(names, pairs)
        assert interp == (boolean_square(rows) == rows)
        if i % 10 == 0:
            assert interp == is_regular_semicat(strict_order_to_semicat(names, pairs))


def test_criterion_08_omega_set_identification():
    frame = from_frame(chain(3))
    lat = frame.hom_lat("*", "*")
    for u in range(3):
        E = validate_omega_set(frame, ["*"], {("*", "*"): u})
        A = E.as_semicategory()
        assert is_regular_semicat(A)
        pool = enumerate_presheaves(A, "*")
        regular = [p for p in pool if is_regular_presheaf(p)]
        assert [p.values[0] for p in regular] == [v for v in range(3) if lat.le(v, u)]
        if u == 1:
            top = [p for p in pool if p.values == (2,)]
            assert len(top) == 1 and not is_regular_presheaf(top[0])

    # every validated two-element Omega-set is a regular semicategory
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
        except Exception:
            continue
        count += 1
        assert is_regular_semicat(E.as_semicategory())
    assert count >= 3


def test_criterion_09_regular_semifunctor_adjunction(small_regular_family):
    checked = 0
    for qname, fam in small_regular_family.items():
        for A, B in itertools.product(fam, repeat=2):
            for img in itertools.product(B.names, repeat=len(A.names)):
                mapping = dict(zip(A.names, img))
                try:
                    F = validate_semifunctor(A, B, mapping)
                except (ActionFailure, TypeMismatch):
                    continue
                if not is_regular_semifunctor(F):
                    continue
                fwd, bwd = graph_semidists(F)
                assert is_adjoint_pair(fwd, bwd)
                checked += 1
    assert checked > 100

    # functoriality of the graph assignment on composable regular pairs
    fam1 = [A for A in small_regular_family["3"] if len(A.names) == 1]
    for A, B, C in itertools.product(fam1, repeat=3):
        for fa in B.names:
            for gb in C.names:
                try:
                    F = validate_semifunctor(A, B, {A.names[0]: fa})
                    G = validate_semifunctor(B, C, {fa: gb})
                except ActionFailure:
                    continue
                if not (is_regular_semifunctor(F) and is_regular_semifunctor(G)):
                    continue
                GF = validate_semifunctor(A, C, {A.names[0]: gb})
                fwd_f, bwd_f = graph_semidists(F)
                fwd_g, bwd_g = graph_semidists(G)
                fwd_gf, bwd_gf = graph_semidists(GF)
                assert compose_semidist(fwd_g, fwd_f) == fwd_gf
                assert compose_semidist(bwd_f, bwd_g) == bwd_gf

    # the Yoneda semifunctor of the three-chain example is not regular
    A = chain3_A()
    ra = build_RA(A)
    y = validate_semifunctor(A, ra, {"*": ra.names[ra.payloads.index(yoneda(A, "*"))]})
    assert not is_regular_semifunctor(y)
    inc = validate_semifunctor(A, free_category(A), {"*": "*"})
    assert not is_regular_semifunctor(inc)


def test_criterion_10_scott_identification():
    for n in range(1, 5):
        for rows in all_posets(n):
            elements = list(NAMES[:n])
            pairs = [
                (elements[i], elements[j])
                for i in range(n)
                for j in range(n)
                if rows[i] >> j & 1
            ]
            P = validate_poset(elements, pairs)
            wb = way_below(P)
            assert wb == reference_way_below(P)
            assert wb == {
                (x, y) for x in elements for y in elements if P.le(x, y)
            }
            assert scott_opens(P) == upsets_of_poset(P.elements, P.le)
            assert scott_closeds(P) == downsets_of_poset(P.elements, P.le)


def test_criterion_11_round_trip(small_regular_family):
    trips = 0
    for qname, fam in small_regular_family.items():
        for A, B in itertools.product(fam, repeat=2):
            for phi in enumerate_regular_semidists(A, B, cap=10**4):
                functor = InducedFunctor(phi)
                assert distributor_from_cocont(functor, A, B) == phi
                trips += 1
    assert trips > 1000

    # order reflection over the two-chain pairs and the one-object
    # three-chain pairs
    def reflection_pairs():
        yield from itertools.product(small_regular_family["2"], repeat=2)
        ones = [A for A in small_regular_family["3"] if len(A.names) == 1]
        yield from itertools.product(ones, repeat=2)

    for A, B in reflection_pairs():
        lat = A.base.hom_lat(A.base.objects[0], A.base.objects[0])
        below = lambda v, w: all(lat.le(x, y) for x, y in zip(v, w))
        dists = enumerate_regular_semidists(A, B, cap=10**4)
        pool = [
            p
            for p in enumerate_presheaves(A, A.base.objects[0])
            if is_regular_presheaf(p)
        ]
        for phi in dists:
            f_phi = InducedFunctor(phi)
            images_phi = [f_phi(t).values for t in pool]
            for psi in dists:
                f_psi = InducedFunctor(psi)
                pointwise = all(
                    below(img, f_psi(t).values) for img, t in zip(images_phi, pool)
                )
                assert pointwise == leq_semidist(phi, psi)
