import itertools
import random

import pytest

from qsemicat import (
    ActionFailure,
    CompositionFailure,
    NotRegular,
    SearchCapExceeded,
    TypeMismatch,
    bottom_semidist,
    builtin_quantaloid,
    compose_semidist,
    free_category,
    graph_semidists,
    identity_semidist,
    is_adjoint_pair,
    is_category,
    is_regular_semicat,
    is_regular_semidist,
    is_regular_semifunctor,
    leq_semidist,
    lifting_dist,
    lifting_rsdist,
    matrix_space,
    right_adjoint,
    sup_semidist,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
)
from qsemicat.semicat import _mat_compose
from helpers import (
    all_semicats,
    chain3_A,
    chain3_C,
    composition_ok_matrices,
    one_object_semicat,
    outcome,
    reference_semicategory_axioms,
    reference_semidistributor,
    rel_quantaloid,
    relations_family,
    relabelled_hom,
    semicat_from_rows,
    two_object_quantaloid,
)

Q3 = builtin_quantaloid("3")
Q2 = builtin_quantaloid("2")


def strict_two_points(q=Q2):
    # a ≺ b, nothing else: hom entry (a, b) is top under the a ≺ b convention
    return validate_semicategory(q, [("a", "*"), ("b", "*")], {("a", "b"): 1})


def test_validate_semicategory_examples():
    A = chain3_A()
    assert not A.is_category
    B = strict_two_points()
    assert not B.is_category
    C = chain3_C()
    assert C.is_category and is_category(C)


def test_composition_failure_witnessed():
    # a ≺ b ≺ c without a ≺ c is not transitive, hence not a semicategory
    with pytest.raises(CompositionFailure) as exc:
        validate_semicategory(
            Q2,
            [("a", "*"), ("b", "*"), ("c", "*")],
            {("a", "b"): 1, ("b", "c"): 1},
        )
    assert len(exc.value.witness) == 3


def _three_object_sample():
    rows = random.Random(3).sample(composition_ok_matrices(3, 3), 40)
    return [semicat_from_rows(Q3, r) for r in rows]


SEMICAT_FAMILIES = {
    "2": lambda: all_semicats("2", 2),
    "3": lambda: all_semicats("3", 2),
    "3:three_objects": _three_object_sample,
    "relations": lambda: relations_family(rel_quantaloid()),
    # hom(X, Y) relabelled so that its join table differs from hom(Y, X)'s
    "relations:relabelled": lambda: relations_family(
        relabelled_hom(rel_quantaloid(), ("X", "Y"), (3, 1, 2, 0))
    ),
    "empty": lambda: [validate_semicategory(Q3, [], {})],
}


def _hom_mutants(A):
    """The hom of A itself, then every hom that differs from it in one entry."""
    yield dict(A.hom)
    for (a1, a0), value in A.hom.items():
        size = A.base.hom_lat(A.type_of(a0), A.type_of(a1)).size
        for new in range(size):
            if new != value:
                yield {**A.hom, (a1, a0): new}


@pytest.mark.parametrize("name", list(SEMICAT_FAMILIES))
def test_validate_semicategory_agrees_with_triple_loop_on_mutants(name):
    rejected = 0
    for A in SEMICAT_FAMILIES[name]():
        q, elements = A.base, A.objects.elements
        for hom in _hom_mutants(A):
            got = outcome(lambda: validate_semicategory(q, elements, hom).hom)
            want = outcome(lambda: reference_semicategory_axioms(q, elements, hom))
            assert got == (hom if want is None else want), hom
            rejected += want is not None
    assert rejected or name == "empty"


def _two_object_sample(qname):
    # every pair with a one-object side, and a seeded sample of the rest
    family = all_semicats(qname, 2)
    small = [(A, B) for A in family for B in family if min(len(A.names), len(B.names)) == 1]
    big = [(A, B) for A in family for B in family if min(len(A.names), len(B.names)) == 2]
    return small + random.Random(7).sample(big, min(len(big), 100))


def _relations_pairs(q):
    family = relations_family(q)
    return random.Random(5).sample([(A, B) for A in family for B in family], 4)


SEMIDIST_FAMILIES = {
    "2": lambda: [(A, B) for A in all_semicats("2", 2) for B in all_semicats("2", 2)],
    "3": lambda: _two_object_sample("3"),
    "relations": lambda: _relations_pairs(rel_quantaloid()),
    "relations:relabelled": lambda: _relations_pairs(
        relabelled_hom(rel_quantaloid(), ("X", "Y"), (3, 1, 2, 0))
    ),
}


def _matrix_mutants(A, B):
    """Every matrix A -/-> B as a dict keyed (b, a), so that the keyed input
    path runs on each; the space holds every single-entry mutation of every
    semidistributor.  Then an entry out of range and a key naming no objects."""
    _, space = matrix_space(A, B)
    keys = [(b, a) for b in B.names for a in A.names]
    for flat in space:
        yield dict(zip(keys, flat))
    b, a = B.names[-1], A.names[0]
    yield {(b, a): A.base.hom_lat(A.type_of(a), B.type_of(b)).size}
    yield {(b, a): -1}
    yield {(b, "nowhere"): 0}


@pytest.mark.parametrize("name", list(SEMIDIST_FAMILIES))
def test_validate_semidistributor_agrees_with_action_loops(name):
    accepted, sides = 0, set()
    for A, B in SEMIDIST_FAMILIES[name]():
        for mat in _matrix_mutants(A, B):
            got = outcome(lambda: validate_semidistributor(A, B, mat).mat)
            want = outcome(lambda: reference_semidistributor(A, B, mat))
            assert got == want, (A.hom, B.hom, mat)
            if isinstance(want, dict):
                accepted += 1
            elif want[0] is ActionFailure:
                sides.add(want[2][0])
    assert accepted and sides == {"dom", "cod"}


def test_is_category_reflexive_preorder():
    A = validate_semicategory(
        Q2, [("a", "*"), ("b", "*")], {("a", "a"): 1, ("b", "b"): 1}
    )
    assert A.is_category


def test_free_category():
    A = chain3_A()
    Abar = free_category(A)
    assert Abar.hom[("*", "*")] == 2  # e ∨ 1 = 1
    assert Abar.is_category

    B = strict_two_points()
    Bbar = free_category(B)
    assert Bbar.hom[("a", "a")] == 1 and Bbar.hom[("b", "b")] == 1
    assert Bbar.hom[("a", "b")] == 1 and Bbar.hom[("b", "a")] == 0

    C = chain3_C()
    assert free_category(C) == C


def test_identity_semidist_is_valid():
    for A in (chain3_A(), strict_two_points(), chain3_C()):
        phi = identity_semidist(A)
        assert validate_semidistributor(A, A, phi.mat) == phi


def test_semidistributor_up_down_closure():
    A = strict_two_points()
    B = validate_semicategory(Q2, [("x", "*"), ("y", "*")], {("x", "y"): 1})
    # {(x, b)} is up-closed in A and down-closed in B
    validate_semidistributor(A, B, {("x", "b"): 1})
    # {(y, b)} misses the down-closure (x ≺ y)
    with pytest.raises(ActionFailure):
        validate_semidistributor(A, B, {("y", "b"): 1})


def test_all_bottom_is_valid_and_regular():
    A, B = chain3_A(), chain3_C()
    phi = bottom_semidist(A, B)
    assert validate_semidistributor(A, B, phi.mat) == phi
    assert is_regular_semidist(phi)


def test_compose_examples():
    A = chain3_A()
    e = identity_semidist(A)
    assert compose_semidist(e, e) == e  # e ∧ e = e

    bot = bottom_semidist(A, A)
    assert compose_semidist(bot, e) == bot


def test_compose_is_boolean_matrix_product():
    # relation composition of Boolean matrices is the matrix product oracle
    q = Q2
    names = [("a", "*"), ("b", "*"), ("c", "*")]
    empty = validate_semicategory(q, names, {})
    keys = [(r, c) for r, _ in names for c, _ in names]
    space = list(itertools.product((0, 1), repeat=9))
    for trial, (m1, m2) in enumerate(zip(space[::7], space[1::11])):
        phi = validate_semidistributor(empty, empty, dict(zip(keys, m1)))
        psi = validate_semidistributor(empty, empty, dict(zip(keys, m2)))
        comp = compose_semidist(psi, phi)
        for r, _ in names:
            for c, _ in names:
                expect = int(
                    any(
                        psi.mat[(r, b)] and phi.mat[(b, c)]
                        for b, _ in names
                    )
                )
                assert comp.mat[(r, c)] == expect


def test_sup_semidist():
    A = chain3_A()
    e = identity_semidist(A)
    zero = bottom_semidist(A, A)
    assert sup_semidist([e]) == e
    assert sup_semidist([], dom=A, cod=A) == zero
    assert sup_semidist([zero, e]) == e
    with pytest.raises(TypeMismatch):
        sup_semidist([])


def test_lifting_dist_single_entry():
    A = chain3_A()
    e = identity_semidist(A)
    zero = bottom_semidist(A, A)
    assert lifting_dist(e, zero).mat == {("*", "*"): 0}  # [e, 0] = 0
    assert lifting_dist(e, e).mat == {("*", "*"): 2}  # [e, e] = 1


def test_lifting_dist_reflexive_on_categories():
    C = chain3_C()
    psi = identity_semidist(C)
    assert leq_semidist(identity_semidist(C), lifting_dist(psi, psi))


def test_lifting_dist_is_relational_division():
    # over 2 the lifting is ¬(Ψᵀ ∘ ¬Φ), checked entry by entry
    names = [("a", "*"), ("b", "*")]
    empty = validate_semicategory(Q2, names, {})
    keys = [(r, c) for r, _ in names for c, _ in names]
    for m1 in itertools.product((0, 1), repeat=4):
        psi = validate_semidistributor(empty, empty, dict(zip(keys, m1)))
        for m2 in itertools.product((0, 1), repeat=4):
            phi = validate_semidistributor(empty, empty, dict(zip(keys, m2)))
            lift = lifting_dist(psi, phi)
            for c, _ in names:
                for a, _ in names:
                    # ∀b: Ψ(b,c) ⟹ Φ(b,a)
                    expect = int(
                        all(
                            not psi.mat[(b, c)] or phi.mat[(b, a)]
                            for b, _ in names
                        )
                    )
                    assert lift.mat[(c, a)] == expect


def test_lifting_dist_adjointness_exhaustive():
    # Ψ⊗Ξ <= Φ  iff  Ξ <= [Ψ,Φ], with Ξ ranging over distributors
    # between the free categories
    A = one_object_semicat(Q3, 1)
    B = one_object_semicat(Q3, 0)
    C = one_object_semicat(Q3, 2)
    Af, Bf, Cf = free_category(A), free_category(B), free_category(C)

    def all_dists(dom, cod):
        _, space = matrix_space(dom, cod)
        out = []
        for flat in space:
            try:
                out.append(validate_semidistributor(dom, cod, flat))
            except ActionFailure:
                pass
        return out

    for psi in all_dists(Cf, Bf):
        for phi in all_dists(Af, Bf):
            lift = lifting_dist(psi, phi)
            for xi in all_dists(Af, Cf):
                assert leq_semidist(compose_semidist(psi, xi), phi) == leq_semidist(
                    xi, lift
                )


def test_lifting_rsdist_reduces_on_categories():
    C = chain3_C()
    psi = identity_semidist(C)
    assert lifting_rsdist(psi, psi).mat == lifting_dist(psi, psi).mat


def test_lifting_rsdist_three_chain():
    A = chain3_A()
    e = identity_semidist(A)
    zero = bottom_semidist(A, A)
    # counit of the residuation: Ψ ⊗ [Ψ, Φ] <= Φ
    lifted = lifting_rsdist(e, zero)
    assert leq_semidist(compose_semidist(e, lifted), zero)
    assert lifting_rsdist(e, e).mat == {("*", "*"): 1}


def test_lifting_rsdist_requires_regular():
    B = strict_two_points()  # not regular
    with pytest.raises(NotRegular):
        lifting_rsdist(identity_semidist(B), identity_semidist(B))


def test_lifting_rsdist_is_largest_regular_solution():
    # over one-object regular carriers, compare against the full enumeration
    from qsemicat import enumerate_regular_semidists

    carriers = [one_object_semicat(Q3, v) for v in (0, 1, 2)]
    for A in carriers:
        for B in carriers:
            for C in carriers:
                for psi in enumerate_regular_semidists(C, B, cap=100):
                    for phi in enumerate_regular_semidists(A, B, cap=100):
                        lift = lifting_rsdist(psi, phi)
                        assert is_regular_semidist(lift)
                        assert leq_semidist(compose_semidist(psi, lift), phi)
                        for xi in enumerate_regular_semidists(A, C, cap=100):
                            assert leq_semidist(
                                compose_semidist(psi, xi), phi
                            ) == leq_semidist(xi, lift)


def test_regular_semicat_examples():
    assert is_regular_semicat(chain3_A())
    assert not is_regular_semicat(strict_two_points())
    assert is_regular_semicat(chain3_C())
    assert is_regular_semicat(free_category(strict_two_points()))


@pytest.mark.parametrize("qname", ["2", "3"])
def test_regularity_is_recorded_at_validation(qname):
    for A in all_semicats(qname, 2):
        t = A.types
        want = _mat_compose(A.base, t, t, t, A.dense, A.dense) == A.dense
        D = A.op()
        dual = _mat_compose(D.base, t, t, t, D.dense, D.dense) == D.dense
        assert A.is_regular == D.is_regular == dual == want


def test_is_regular_semicat_forms_no_product(monkeypatch):
    import qsemicat.semicat as semicat

    family = [chain3_A(), chain3_C(), strict_two_points()]
    calls = []
    real = semicat._product_entries
    monkeypatch.setattr(
        semicat, "_product_entries", lambda *args: calls.append(args) or real(*args)
    )
    assert [is_regular_semicat(A) for A in family] == [True, True, False]
    assert [is_regular_semicat(A.op()) for A in family] == [True, True, False]
    assert calls == []


def test_regular_semidist_examples():
    A = chain3_A()
    assert is_regular_semidist(identity_semidist(A))
    one = validate_semidistributor(A, A, {("*", "*"): 2})
    assert not is_regular_semidist(one)  # e ∧ 1 = e != 1
    assert is_regular_semidist(bottom_semidist(A, A))


def test_semifunctor_validation():
    A = strict_two_points()
    C = free_category(A)
    inc = validate_semifunctor(A, C, {"a": "a", "b": "b"})
    assert inc.map == {"a": "a", "b": "b"}
    # collapsing a ≺ b onto one point needs a loop there
    with pytest.raises(ActionFailure):
        validate_semifunctor(A, A, {"a": "a", "b": "a"})
    with pytest.raises(TypeMismatch):
        validate_semifunctor(A, C, {"a": "a"})


def test_graph_semidists_of_identity():
    C = chain3_C()
    f = validate_semifunctor(C, C, {"*": "*"})
    fwd, bwd = graph_semidists(f)
    assert fwd == identity_semidist(C)
    assert bwd == identity_semidist(C)


def test_graph_semidists_order_embedding():
    # embedding a ≺ b into x ≺ m ≺ y (with x ≺ y) reads the graphs off the homs
    B = validate_semicategory(
        Q2,
        [("x", "*"), ("m", "*"), ("y", "*")],
        {("x", "m"): 1, ("m", "y"): 1, ("x", "y"): 1},
    )
    A = strict_two_points()
    f = validate_semifunctor(A, B, {"a": "x", "b": "y"})
    fwd, bwd = graph_semidists(f)
    for b in ("x", "m", "y"):
        for a, img in (("a", "x"), ("b", "y")):
            assert fwd.mat[(b, a)] == B.hom[(b, img)]
            assert bwd.mat[(a, b)] == B.hom[(img, b)]


def test_identity_semifunctor_regular_iff_regular():
    A = chain3_A()
    assert is_regular_semifunctor(validate_semifunctor(A, A, {"*": "*"}))
    B = strict_two_points()
    assert not is_regular_semifunctor(validate_semifunctor(B, B, {"a": "a", "b": "b"}))


def test_free_category_inclusion_not_regular():
    A = chain3_A()
    Abar = free_category(A)
    inc = validate_semifunctor(A, Abar, {"*": "*"})
    fwd, bwd = graph_semidists(inc)
    assert not is_regular_semidist(fwd)
    assert not is_regular_semidist(bwd)
    assert not is_regular_semifunctor(inc)


def test_adjoint_pair_examples():
    A = chain3_A()
    e = identity_semidist(A)
    assert is_adjoint_pair(e, e)
    zero = bottom_semidist(A, A)
    assert not is_adjoint_pair(zero, zero)  # 0 is not above e


def test_right_adjoint_examples():
    A = chain3_A()
    e = identity_semidist(A)
    assert right_adjoint(e) == e
    assert right_adjoint(bottom_semidist(A, A)) is None

    C = chain3_C()
    assert right_adjoint(identity_semidist(C)) == identity_semidist(C)


def test_right_adjoint_exists_iff_some_adjoint_exists():
    # the maximal candidate decides existence: compare with a full search
    from qsemicat import enumerate_regular_semidists

    carriers = [one_object_semicat(Q3, v) for v in (0, 1, 2)]
    for A in carriers:
        for B in carriers:
            for phi in enumerate_regular_semidists(A, B, cap=100):
                found = any(
                    is_adjoint_pair(phi, psi)
                    for psi in enumerate_regular_semidists(B, A, cap=100)
                )
                assert (right_adjoint(phi) is not None) == found


def test_adjoint_pair_requires_regular():
    B = strict_two_points()
    with pytest.raises(NotRegular):
        is_adjoint_pair(identity_semidist(B), identity_semidist(B))


def test_compose_associativity_and_distributivity():
    A = one_object_semicat(Q3, 1)
    # every element gives a valid semidistributor over (e): meet action
    dists = [validate_semidistributor(A, A, {("*", "*"): v}) for v in range(3)]
    for p1 in dists:
        for p2 in dists:
            for p3 in dists:
                lhs = compose_semidist(p1, compose_semidist(p2, p3))
                rhs = compose_semidist(compose_semidist(p1, p2), p3)
                assert lhs == rhs
            joined = compose_semidist(p1, sup_semidist([p2, p3]))
            assert joined == sup_semidist(
                [compose_semidist(p1, p2), compose_semidist(p1, p3)]
            )


def test_compose_matches_free_category_composite():
    A, B, C = chain3_A(), one_object_semicat(Q3, 0), chain3_C()
    phi = validate_semidistributor(A, B, {("*", "*"): 0})
    psi = validate_semidistributor(B, C, {("*", "*"): 1})
    free_phi = validate_semidistributor(free_category(A), free_category(B), phi.mat)
    free_psi = validate_semidistributor(free_category(B), free_category(C), psi.mat)
    assert compose_semidist(psi, phi).mat == compose_semidist(free_psi, free_phi).mat


def test_constant_semifunctor_graphs():
    A = chain3_C()
    B = chain3_C()
    f = validate_semifunctor(A, B, {"*": "*"})
    fwd, bwd = graph_semidists(f)
    assert len(set(fwd.mat.values())) == 1
    assert len(set(bwd.mat.values())) == 1


def test_semidistributor_iff_free_category_distributor():
    # the same matrix validates between the semicategories and their free
    # categories, or between neither
    import itertools as it

    A = strict_two_points()
    B = one_object_semicat(Q2, 0)
    Af, Bf = free_category(A), free_category(B)
    for m in it.product((0, 1), repeat=2):
        mat = {("*", "a"): m[0], ("*", "b"): m[1]}
        ok = ok_free = True
        try:
            validate_semidistributor(A, B, mat)
        except ActionFailure:
            ok = False
        try:
            validate_semidistributor(Af, Bf, mat)
        except ActionFailure:
            ok_free = False
        assert ok == ok_free


def test_enumerate_regular_semidists_cap():
    from qsemicat import SearchCapExceeded, enumerate_regular_semidists

    A = chain3_A()
    with pytest.raises(SearchCapExceeded):
        enumerate_regular_semidists(A, A, cap=2)


def test_matrix_space_refuses_a_space_over_its_cap(monkeypatch):
    # chain3_C -/-> chain3_C holds 3 matrices; the refusal comes before the
    # generator of the space is made
    import types

    import qsemicat.semicat as semicat

    made = []
    real = itertools.product
    monkeypatch.setattr(
        semicat, "itertools", types.SimpleNamespace(product=lambda *a: made.append(a) or real(*a))
    )
    C = chain3_C()
    assert outcome(lambda: matrix_space(C, C, cap=2)) == (
        SearchCapExceeded,
        "matrix space of size 3 exceeds cap 2",
        3,
    )
    assert made == []
    size, space = matrix_space(C, C, cap=3)
    assert (size, list(space)) == (3, [(0,), (1,), (2,)])
    assert len(made) == 1


def test_typed_sets_over_two_objects():
    q = two_object_quantaloid()
    A = validate_semicategory(q, [("u", "X"), ("v", "Y")], {("u", "u"): 1, ("v", "v"): 1})
    assert A.is_category
    with pytest.raises(TypeMismatch):
        validate_semicategory(q, [("u", "Z")], {})


def _input_refusals():
    """Name -> (a call the library must refuse, the class, message and
    witness it raises with)."""
    A, C = chain3_A(), chain3_C()  # both regular, over the three-chain
    ida, idc = identity_semidist(A), identity_semidist(C)
    top = validate_semidistributor(A, A, (2,))  # a semidistributor, not regular
    other = one_object_semicat(Q2, 1)
    return {
        "bases": (
            lambda: validate_semidistributor(A, other, (0,)),
            (TypeMismatch, "semidistributor endpoints live over different base quantaloids", None),
        ),
        "compose": (
            lambda: compose_semidist(idc, ida),
            (TypeMismatch, "composition needs cod(Φ) = dom(Ψ)", None),
        ),
        "sup": (
            lambda: sup_semidist([ida, idc]),
            (TypeMismatch, "supremum of semidistributors with different endpoints", None),
        ),
        "leq": (
            lambda: leq_semidist(ida, idc),
            (TypeMismatch, "cannot compare semidistributors with different endpoints", None),
        ),
        "lifting": (
            lambda: lifting_dist(ida, idc),
            (TypeMismatch, "lifting needs a common codomain", None),
        ),
        "lifting-rsdist-regular": (
            lambda: lifting_rsdist(ida, top),
            (NotRegular, "<semidistributor ['*'] -/-> ['*']> is not regular", top),
        ),
        "lifting-rsdist": (
            lambda: lifting_rsdist(ida, idc),
            (TypeMismatch, "lifting needs a common codomain", None),
        ),
        "adjoint-pair": (
            lambda: is_adjoint_pair(ida, idc),
            (TypeMismatch, "adjoint candidates must be antiparallel", None),
        ),
    }


@pytest.mark.parametrize("name", list(_input_refusals()))
def test_input_refusals_name_their_witness(name):
    run, want = _input_refusals()[name]
    assert outcome(run) == want



NOT_INTEGERS = [True, 1.0, "1", None]
# each reader of matrix entries: a call on one entry, the entry's name and witness
ENTRY_READERS = {
    "semicategory": (
        lambda v: validate_semicategory(Q3, [("a", "*")], {("a", "a"): v}),
        "hom entry ('a', 'a')",
        ("a", "a"),
    ),
    "semidistributor": (
        lambda v: validate_semidistributor(chain3_A(), chain3_A(), (v,)),
        "entry ('*', '*')",
        ("*", "*"),
    ),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("reader", list(ENTRY_READERS))
def test_an_entry_that_is_not_an_int_is_out_of_range(reader, value):
    # True and 1.0 equal the element 1, and "1" and None do not compare with it
    run, what, witness = ENTRY_READERS[reader]
    assert outcome(lambda: run(value)) == (TypeMismatch, f"{what} = {value} out of range", witness)
