import itertools
import json
import random

import pytest

from qsemicat import (
    NotIdempotent,
    NotRegular,
    QArrow,
    TypeMismatch,
    build_idm,
    builtin_quantaloid,
    chain,
    from_quantale,
    idempotents,
    idm_lifting,
    split_idempotent_in_idm,
    validate_semicategory,
    validate_sup_lattice,
    verify_rsdist_is_idm_matr,
)
from qsemicat.cli import main
from qsemicat.lattice import join_closed_sublattice
from helpers import (
    chain3_A,
    chain3_C,
    endomap_quantaloid,
    lattice_fields,
    order_pairs,
    outcome,
    reference_idempotents,
    reference_idm_lifting,
    reference_idm_tables,
    reference_sup_lattice,
    rel_quantaloid,
    two_object_quantaloid,
)

Q3 = builtin_quantaloid("3")
Q2 = builtin_quantaloid("2")


def lukasiewicz3():
    # truncated addition on the three-chain; 1 is not idempotent there
    return from_quantale(chain(3), lambda g, f: max(0, g + f - 2), 2)


def test_idempotents_of_meet_quantales():
    assert [e.elem for e in idempotents(Q3)] == [0, 1, 2]
    assert [e.elem for e in idempotents(Q2)] == [0, 1]


def test_idempotents_by_table_scan():
    q = lukasiewicz3()
    assert [e.elem for e in idempotents(q)] == [0, 2]


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: builtin_quantaloid("2"), 2),
        (lambda: builtin_quantaloid("3"), 3),
        (lambda: builtin_quantaloid("frame:4"), 4),
        (lambda: builtin_quantaloid("frame:square"), 4),
        (lukasiewicz3, 2),
        (rel_quantaloid, 13),
        (endomap_quantaloid, 5),
        (lambda: build_idm(rel_quantaloid()).quantaloid, 39),
        (lambda: build_idm(endomap_quantaloid()).quantaloid, 12),
    ],
    ids=["2", "3", "frame:4", "square", "lukasiewicz", "relations", "endomaps", "idm-R", "idm-E"],
)
def test_idempotents_match_the_former_scan(make, count):
    q = make()
    got = idempotents(q)
    assert got == reference_idempotents(q)
    assert len(got) == count


def test_build_idm_three_chain():
    idm = build_idm(Q3)
    assert len(idm.objects) == 3
    assert idm.hom_elements[("*|1", "*|1")] == (0, 1)
    assert idm.hom_elements[("*|2", "*|2")] == (0, 1, 2)
    assert idm.hom_elements[("*|0", "*|0")] == (0,)
    # the reindexed structure passes the full quantaloid validation
    assert idm.quantaloid.identity["*|1"] == 1


IDM_BASES = {
    "2": lambda: builtin_quantaloid("2"),
    "3": lambda: builtin_quantaloid("3"),
    "frame:4": lambda: builtin_quantaloid("frame:4"),
    "frame:square": lambda: builtin_quantaloid("frame:square"),
    "endomaps": endomap_quantaloid,
    "two_object": two_object_quantaloid,
    "relations": rel_quantaloid,
}


@pytest.mark.parametrize("name", list(IDM_BASES))
def test_build_idm_tables_match_entrywise_reference(name):
    q = IDM_BASES[name]()
    idm = build_idm(q)
    hom_elements, compose, identities = reference_idm_tables(q)
    assert idm.hom_elements == hom_elements
    assert {key: [list(row) for row in t] for key, t in idm.quantaloid.compose_table.items()} == compose
    assert idm.quantaloid.identity == identities


@pytest.mark.parametrize("name", list(IDM_BASES))
def test_build_idm_shares_homs_and_tables(name):
    # one hom-lattice object per (base pair, fixed set), and equal tables
    # are one object, so the validator sees each distinct instance once
    q = IDM_BASES[name]()
    idm = build_idm(q)
    dom = {idm.tag(e): e.dom for e in idm.objects}
    lattices = {}
    for (te, tf), lat in idm.quantaloid.hom.items():
        lattices.setdefault((dom[te], dom[tf], idm.hom_elements[(te, tf)]), set()).add(id(lat))
    assert all(len(ids) == 1 for ids in lattices.values())
    # equal hom-lattices are one object, whatever fixed sets they restrict
    homs = idm.quantaloid.hom.values()
    assert len({id(lat) for lat in homs}) == len(set(homs))
    tables = idm.quantaloid.compose_table.values()
    assert len({id(t) for t in tables}) == len(set(tables))
    # the dual transposes each table object once and shares the transposes alike
    dual = idm.quantaloid.op().compose_table.values()
    assert len({id(t) for t in dual}) == len({id(t) for t in tables})
    if name == "relations":
        assert (len(idm.quantaloid.hom), len(lattices), len(set(homs))) == (169, 53, 9)


def test_cli_idm_of_the_relations_quantaloid_matches_the_reference(tmp_path, capsys):
    q = rel_quantaloid()
    spec = {
        "objects": list(q.objects),
        "homs": {
            f"{x}>{y}": {"size": lat.size, "leq": order_pairs(lat)} for (x, y), lat in q.hom.items()
        },
        "compose": {">".join(key): [list(row) for row in t] for key, t in q.compose_table.items()},
        "id": dict(q.identity),
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"quantaloids": {"R": spec}}))
    assert main(["--json", "completion", "idm", "R", "--workspace", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    hom_elements, _, identities = reference_idm_tables(q)
    tags = list(dict.fromkeys(te for te, _ in hom_elements))
    assert len(tags) == 13
    assert report["objects"] == [
        {"tag": t, "object": t.split("|")[0], "elem": int(t.split("|")[1])} for t in tags
    ]
    assert report["homs"] == {f"{te}>{tf}": list(fixed) for (te, tf), fixed in hom_elements.items()}
    assert report["identities"] == identities


@pytest.mark.parametrize("name", list(IDM_BASES))
def test_idm_homs_match_validated_lattices(name):
    # each hom is restricted from the base lattice; it must equal what
    # validating the base order on the fixed set from scratch, by either
    # route, gives
    q = IDM_BASES[name]()
    idm = build_idm(q)
    dom = {idm.tag(e): e.dom for e in idm.objects}
    for (te, tf), fixed in idm.hom_elements.items():
        base = q.hom_lat(dom[te], dom[tf])
        pairs = [(i, j) for i, a in enumerate(fixed) for j, b in enumerate(fixed) if base.le(a, b)]
        want = lattice_fields(reference_sup_lattice(len(fixed), pairs))
        assert lattice_fields(idm.quantaloid.hom[(te, tf)]) == want, (te, tf)
        assert lattice_fields(validate_sup_lattice(len(fixed), pairs)) == want, (te, tf)


def test_join_closed_sublattice():
    # subsets of {0, 1, 2} as bitmasks
    cube = validate_sup_lattice(8, [(i, j) for i in range(8) for j in range(8) if i | j == j])
    with pytest.raises(ValueError, match="bottom"):
        join_closed_sublattice(cube, (1, 3, 7), {})
    with pytest.raises(ValueError, match="joins"):
        join_closed_sublattice(cube, (0, 1, 2), {})  # 1 ∨ 2 = 3 missing
    # join-closed but not meet-closed: {0,1} ∧ {1,2} = {1} is outside, so the meet is ∅
    elements = (0, 3, 6, 7)
    sub = join_closed_sublattice(cube, elements, {})
    assert sub.meet2(1, 2) == 0
    pairs = [(i, j) for i, a in enumerate(elements) for j, b in enumerate(elements) if a | b == b]
    assert lattice_fields(sub) == lattice_fields(validate_sup_lattice(4, pairs))
    # a shared order returns the lattice built first, after the join-closure check
    shared = {}
    square = join_closed_sublattice(cube, (0, 1, 2, 3), shared)
    assert join_closed_sublattice(cube, (0, 2, 4, 6), shared) is square
    with pytest.raises(ValueError, match="joins"):
        join_closed_sublattice(cube, (0, 1, 2, 7), shared)  # the square's order, but 1 ∨ 2 = 3


def test_idm_embedding_is_full():
    for q in (Q2, Q3, lukasiewicz3()):
        idm = build_idm(q)
        for x in q.objects:
            tag = f"{x}|{q.identity[x]}"
            assert idm.hom_elements[(tag, tag)] == tuple(range(q.hom_lat(x, x).size))


def test_idm_lifting_base_identities_reduce_to_base_lifting():
    for q in (Q2, Q3):
        x = q.objects[0]
        e = QArrow(x, x, q.identity[x])
        for b in range(q.hom_lat(x, x).size):
            for c in range(q.hom_lat(x, x).size):
                expected = q.lifting_elem(x, x, x, c, b)
                assert idm_lifting(q, e, e, e, b, c) == expected


def test_idm_lifting_three_chain_value():
    e = QArrow("*", "*", 1)
    assert idm_lifting(Q3, e, e, e, 1, 1) == 1  # e ∧ [e,e] ∧ e = e


def test_idm_lifting_bottom():
    e = QArrow("*", "*", 1)
    assert idm_lifting(Q3, e, e, e, 0, 1) == 0


def test_idm_lifting_rejects_untyped_arrows():
    e = QArrow("*", "*", 1)
    with pytest.raises(TypeMismatch):
        idm_lifting(Q3, e, e, e, 2, 1)  # 1 is not fixed by e
    with pytest.raises(NotIdempotent):
        idm_lifting(lukasiewicz3(), QArrow("*", "*", 1), e, e, 0, 0)


def test_idm_lifting_refuses_an_element_out_of_range():
    e = QArrow("*", "*", 1)
    with pytest.raises(TypeMismatch) as exc:
        idm_lifting(Q3, e, e, e, 3, 1)
    assert (str(exc.value), exc.value.witness) == ("element 3 out of range", 3)


def _idm_lifting_cases(q):
    """Every idempotent triple (e, f, g) with every arrow b: e -> f and c: g -> f."""
    idm = build_idm(q)
    hom = lambda s, t: idm.hom_elements[(idm.tag(s), idm.tag(t))]
    return [
        (e, f, g, b, c)
        for e, f, g in itertools.product(idm.objects, repeat=3)
        for b in hom(e, f)
        for c in hom(g, f)
    ]


@pytest.mark.parametrize("qname", ["3", "frame:square"])
def test_idm_lifting_closed_form_matches_exhaustive_maximum(qname):
    q = builtin_quantaloid(qname)
    for case in _idm_lifting_cases(q):
        assert idm_lifting(q, *case) == reference_idm_lifting(q, *case)


def test_idm_lifting_closed_form_matches_exhaustive_maximum_on_relations():
    # a seeded sample of the 15,652 cases, over both object types
    q = rel_quantaloid()
    for case in random.Random(0).sample(_idm_lifting_cases(q), 2000):
        assert idm_lifting(q, *case) == reference_idm_lifting(q, *case)


GOOD = QArrow("*", "*", 1)
NOT_IDEMPOTENT = [
    (Q3, GOOD, QArrow("X", "X", 0)),  # no object X
    (Q3, GOOD, QArrow("*", "*", 7)),  # beyond the three-chain
    (Q3, GOOD, QArrow("*", "*", -1)),  # negative: no wrap-around to the top
    (two_object_quantaloid(), QArrow("X", "X", 1), QArrow("X", "Y", 1)),  # not an endo-arrow
    (lukasiewicz3(), QArrow("*", "*", 2), QArrow("*", "*", 1)),  # 1∘1 = 0
]
NOT_IDEMPOTENT_IDS = ["unknown-object", "elem-7", "elem-minus-1", "not-endo", "not-idempotent"]


@pytest.mark.parametrize("position", ["e", "f", "g"])
@pytest.mark.parametrize("q, good, bad", NOT_IDEMPOTENT, ids=NOT_IDEMPOTENT_IDS)
def test_idm_lifting_refuses_an_arrow_that_is_not_idempotent(q, good, bad, position):
    idems = {"e": good, "f": good, "g": good, position: bad}
    want = (NotIdempotent, f"{bad} is not an idempotent endo-arrow", bad)
    # the bottom 0 is an arrow between any two idempotents
    assert outcome(lambda: idm_lifting(q, idems["e"], idems["f"], idems["g"], 0, 0)) == want


@pytest.mark.parametrize("q, good, bad", NOT_IDEMPOTENT, ids=NOT_IDEMPOTENT_IDS)
def test_split_refuses_an_object_that_is_not_idempotent(q, good, bad):
    want = (NotIdempotent, f"{bad} is not an idempotent endo-arrow", bad)
    assert outcome(lambda: split_idempotent_in_idm(q, bad, 0)) == want
    assert split_idempotent_in_idm(q, good, 0)[0] == QArrow(good.dom, good.dom, 0)


def test_split_refuses_an_arrow_that_is_not_an_idempotent_on_e():
    top = QArrow("*", "*", 2)
    for q, t, want in (
        (Q3, 7, (TypeMismatch, "element 7 out of range", 7)),
        (Q3, -1, (TypeMismatch, "element -1 out of range", -1)),
        (lukasiewicz3(), 1, (NotIdempotent, f"1 is not idempotent on {top}", 1)),
    ):
        assert outcome(lambda: split_idempotent_in_idm(q, top, t)) == want


def test_split_idempotent_examples():
    e = QArrow("*", "*", 1)
    obj, section, retraction = split_idempotent_in_idm(Q3, e, 1)
    assert obj == e and section[2] == 1 and retraction[2] == 1

    obj, _, _ = split_idempotent_in_idm(Q3, e, 0)
    assert obj.elem == 0

    top = QArrow("*", "*", 2)
    obj, _, _ = split_idempotent_in_idm(Q3, top, 2)
    assert obj == top


def test_split_rejects_non_idempotent():
    q = lukasiewicz3()
    top = QArrow("*", "*", 2)
    # the middle element is fixed by the identity but squares to bottom
    with pytest.raises(NotIdempotent):
        split_idempotent_in_idm(q, top, 1)


def test_all_idempotents_of_idm_split():
    # "taking idempotents is idempotent"
    for q in (Q2, Q3):
        idm = build_idm(q)
        for e in idm.objects:
            for t in idm.hom_elements[(idm.tag(e), idm.tag(e))]:
                if q.compose_elems(e.dom, e.dom, e.dom, t, t) == t:
                    obj, section, retraction = split_idempotent_in_idm(q, e, t)
                    assert obj.elem == t


def test_idm_homs_are_join_closed_sublattices():
    for q in (Q2, Q3, lukasiewicz3()):
        idm = build_idm(q)
        for e in idm.objects:
            for f in idm.objects:
                fixed = idm.hom_elements[(idm.tag(e), idm.tag(f))]
                base = q.hom_lat(e.dom, f.dom)
                assert base.bottom in fixed
                for b1 in fixed:
                    for b2 in fixed:
                        assert base.join2(b1, b2) in fixed
                # the reindexed lattice computes the same joins as the base
                sub = idm.quantaloid.hom_lat(idm.tag(e), idm.tag(f))
                pos = {b: i for i, b in enumerate(fixed)}
                for b1 in fixed:
                    for b2 in fixed:
                        assert sub.join2(pos[b1], pos[b2]) == pos[base.join2(b1, b2)]


def test_build_idm_multi_object_base():
    from helpers import rel_quantaloid

    q = rel_quantaloid()
    idm = build_idm(q)
    # idempotents appear on both objects and the completion validates
    assert {e.dom for e in idm.objects} == {"X", "Y"}
    assert len(idm.objects) > 4
    # the embedding stays full on both identity objects
    for x in q.objects:
        tag = f"{x}|{q.identity[x]}"
        assert idm.hom_elements[(tag, tag)] == tuple(range(q.hom_lat(x, x).size))
    # liftings match their exhaustive characterisation across object types
    for e in idm.objects[:4]:
        for f in idm.objects[:4]:
            for g in idm.objects[:4]:
                for b in idm.hom_elements[(idm.tag(e), idm.tag(f))][:3]:
                    for c in idm.hom_elements[(idm.tag(g), idm.tag(f))][:3]:
                        d = idm_lifting(q, e, f, g, b, c)
                        assert d in idm.hom_elements[(idm.tag(e), idm.tag(g))]
                        assert d == reference_idm_lifting(q, e, f, g, b, c)


def test_verify_rsdist_mixed_types():
    from helpers import rel_quantaloid

    q = rel_quantaloid()
    A = validate_semicategory(
        q,
        [("u", "X"), ("v", "Y")],
        {("u", "u"): 0, ("v", "v"): 0b1001, ("u", "v"): 0, ("v", "u"): 0},
    )
    report = verify_rsdist_is_idm_matr(A, A, cap=10**4)
    assert report.ok


def test_verify_rsdist_is_idm_matr_three_chain():
    A = chain3_A()
    report = verify_rsdist_is_idm_matr(A, A)
    assert report.ok
    assert report.regular_semidistributors == 2  # {0, e}


def test_verify_rsdist_on_categories():
    report = verify_rsdist_is_idm_matr(chain3_C(), chain3_C())
    assert report.ok
    assert report.regular_semidistributors == 3  # every distributor


def test_verify_rsdist_requires_regular():
    strict = validate_semicategory(
        Q2, [("a", "*"), ("b", "*")], {("a", "b"): 1}
    )
    with pytest.raises(NotRegular):
        verify_rsdist_is_idm_matr(strict, strict)


def test_verify_rsdist_reports_differing_routes(monkeypatch):
    # the "regular" route fed a broken regularity test must disagree with
    # the identity-fixed route instead of agreeing with itself
    import qsemicat.completion as completion

    monkeypatch.setattr(completion, "is_regular_semidist", lambda phi: True)
    report = verify_rsdist_is_idm_matr(chain3_A(), chain3_A())
    assert not report.ok
    assert report.detail == "hom sets differ"
    assert (report.regular_semidistributors, report.compatible_matrices) == (3, 2)


def test_verify_rsdist_catches_a_kernel_that_fixes_everything(monkeypatch):
    # a product kernel that treats the hom matrix as a unit makes every
    # matrix read as regular and as fixed; only the entrywise action
    # inequalities of the "regular" route can notice
    import qsemicat.semicat as semicat

    A = validate_semicategory(
        Q3, [("a", "*"), ("b", "*")], {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 2}
    )
    assert verify_rsdist_is_idm_matr(A, A).ok
    monkeypatch.setattr(
        semicat, "_product_entries", lambda q, tr, tm, tc, L, R: iter(L if R == A.dense else R)
    )
    report = verify_rsdist_is_idm_matr(A, A)
    assert not report.ok
    assert report.detail == "hom sets differ"
    assert report.compatible_matrices == 3 ** 4


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_rsdist_refuses_a_composite_that_leaves_the_hom(monkeypatch, capsys, as_json):
    # a faulty composite Ψ⊗Φ: A -/-> A that is not regular must turn the
    # verdict, and the CLI must report it with its detail and exit code 1
    from pathlib import Path

    import qsemicat.completion as completion
    from qsemicat.semicat import _is_regular_flat, matrix_space

    real = completion._product

    def faulty(psi, phi):
        # only the composites have cod(Ψ) = dom(Φ) when A and B differ
        if psi.cod is not phi.dom:
            return real(psi, phi)
        A = phi.dom
        return iter(next(f for f in matrix_space(A, A)[1] if not _is_regular_flat(A, A, f)))

    monkeypatch.setattr(completion, "_product", faulty)
    report = verify_rsdist_is_idm_matr(chain3_A(), chain3_C())
    assert (report.ok, report.detail) == (False, "composite leaves the hom")
    assert (report.regular_semidistributors, report.compatible_matrices) == (2, 2)
    path = str(Path(__file__).parent.parent / "demos" / "workspace.json")
    argv = ["completion", "verify", path, "A", "C"]
    assert main(["--json", *argv] if as_json else argv) == 1
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out) == {
            "schema": 1,
            "verdict": False,
            "regular_semidistributors": 2,
            "compatible_matrices": 2,
            "detail": "composite leaves the hom",
        }
    else:
        assert out.splitlines() == [
            "verdict: False",
            "regular semidistributors: 2, idempotent-fixed matrices: 2",
            "detail: composite leaves the hom",
        ]


@pytest.mark.parametrize("pair, products", [(("A", "A"), 9), (("A", "C"), 9), (("C", "C"), 15)])
def test_verify_rsdist_scans_each_matrix_space_once(monkeypatch, pair, products):
    # one pass over A -/-> B decides both routes; B -/-> A keeps only the
    # regular matrices, and each composite is decided without a semidistributor
    from collections import Counter
    from pathlib import Path

    import qsemicat.completion as completion
    from qsemicat.workspace import load_path, load_workspace

    ws = load_workspace(load_path(Path(__file__).parent.parent / "demos" / "workspace.json"))
    A, B = map(ws.semicategory, pair)
    calls = Counter()
    for name in ("_product", "matrix_space"):

        def counted(*args, name=name, real=getattr(completion, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(completion, name, counted)
    assert verify_rsdist_is_idm_matr(A, B).ok
    assert calls == {"_product": products, "matrix_space": 2}
