"""Law tests over randomly drawn finite structures."""

import random
from functools import partial

from hypothesis import given, strategies as st

from qsemicat import (
    TypeMismatch,
    builtin_quantaloid,
    compose_semidist,
    free_category,
    has_interpolation,
    identity_semidist,
    is_category,
    is_regular_presheaf,
    is_regular_semicat,
    is_regular_semidist,
    is_yoneda_presheaf,
    leq_semidist,
    lifting_dist,
    map_j,
    enumerate_presheaves,
    strict_order_to_semicat,
    validate_poset,
    validate_semicategory,
    sup_semidist,
    validate_semidistributor,
    yoneda,
    yoneda_covariant,
)
from qsemicat.presheaf import _regular_presheaves
from qsemicat.semicat import SemiDistributor, _mat_compose, _product_is, matrix_space
from helpers import (
    NAMES,
    all_semicats,
    beyond_frame_pairs,
    endomap_quantaloid,
    outcome,
    reference_interpolation,
    reference_presheaves,
    regular_semicats,
    rel_quantaloid,
    two_object_quantaloid,
)

QUANTALOIDS = [
    builtin_quantaloid("2"),
    builtin_quantaloid("3"),
    builtin_quantaloid("frame:square"),
    two_object_quantaloid(),
    endomap_quantaloid(),
]


@st.composite
def quantaloid_and_arrows(draw, count):
    q = draw(st.sampled_from(QUANTALOIDS))
    objs = [draw(st.sampled_from(q.objects)) for _ in range(count + 1)]
    # a chain of composable endpoints keeps lifting shapes simple
    return q, objs


def _by_size(family):
    return [[A for A in family if len(A.names) == n] for n in (1, 2)]


# every semicategory and every regular one with one or two objects over the
# two- and three-chains, grouped by object count, so no draw is rejected
SEMICATS = {qname: _by_size(all_semicats(qname, 2)) for qname in ("2", "3")}
REGULAR = {qname: _by_size(regular_semicats(qname, 2)) for qname in ("2", "3")}


@st.composite
def semicat(draw, require_regular=False, qname=None):
    if qname is None:
        qname = draw(st.sampled_from(sorted(SEMICATS)))
    family = (REGULAR if require_regular else SEMICATS)[qname]
    return draw(st.sampled_from(draw(st.sampled_from(family))))


@st.composite
def matrix(draw, rows, cols):
    """Arbitrary elements indexed (row, col) over a one-object base."""
    q = rows.base
    obj = q.objects[0]
    size = q.hom_lat(obj, obj).size
    return {(r, c): draw(st.integers(0, size - 1)) for r in rows.names for c in cols.names}


@st.composite
def parallel_semidists(draw, count=1):
    """Semidistributors A -/-> B built as B⁺⊗X⊗A⁺ over the free categories.

    B⁺⊗X⊗A⁺ is always a semidistributor, and it is X itself when X is
    one, so every semidistributor can be drawn and none is rejected.
    """
    qname = draw(st.sampled_from(sorted(SEMICATS)))
    A = draw(semicat(qname=qname))
    B = draw(semicat(qname=qname))
    return [
        validate_semidistributor(
            A, B, sandwich(free_category(B), draw(matrix(B, A)), free_category(A))
        )
        for _ in range(count)
    ]


@given(quantaloid_and_arrows(3))
def test_residuation_adjointness(data):
    q, (x, y, z, _) = data
    lxy, lxz = q.hom_lat(x, y), q.hom_lat(x, z)
    for c in range(q.hom_lat(y, z).size):
        for b in range(lxz.size):
            lift = q.lifting_elem(x, y, z, c, b)
            for d in range(lxy.size):
                assert lxz.le(q.compose_elems(x, y, z, c, d), b) == lxy.le(d, lift)


@given(quantaloid_and_arrows(2))
def test_lifting_preserves_meets_in_target(data):
    q, (x, y, z) = data
    lxy, lxz = q.hom_lat(x, y), q.hom_lat(x, z)
    for c in range(q.hom_lat(y, z).size):
        lift = partial(q.lifting_elem, x, y, z, c)
        bs = range(lxz.size)
        for b1 in bs:
            for b2 in bs:
                assert lift(lxz.meet([b1, b2])) == lxy.meet([lift(b1), lift(b2)])


@given(quantaloid_and_arrows(2))
def test_lifting_turns_joins_into_meets(data):
    q, (x, y, z) = data
    lxy, lyz = q.hom_lat(x, y), q.hom_lat(y, z)
    lift = partial(q.lifting_elem, x, y, z)
    for b in range(q.hom_lat(x, z).size):
        cs = range(lyz.size)
        for c1 in cs:
            for c2 in cs:
                assert lift(lyz.join([c1, c2]), b) == lxy.meet([lift(c1, b), lift(c2, b)])


@given(quantaloid_and_arrows(1), st.data())
def test_compose_preserves_random_joins(data, rand):
    q, (x, y) = data
    lxx, lyx = q.hom_lat(x, x), q.hom_lat(y, x)
    subset = rand.draw(st.lists(st.sampled_from(range(lxx.size)), max_size=4))
    f = rand.draw(st.sampled_from(range(lyx.size)))
    compose = partial(q.compose_elems, y, x, x)
    assert compose(lxx.join(subset), f) == lyx.join(compose(s, f) for s in subset)


def sandwich(A, raw, B):
    """A⊗X⊗B for a raw matrix X: B -/-> A, computed entrywise over a one-object base.

    The result is always a semidistributor B -/-> A, because A⊗A <= A and
    B⊗B <= B, so no draw has to be rejected.
    """
    q = A.base
    obj = q.objects[0]
    lat = q.hom_lat(obj, obj)

    def comp(g, f):
        return q.compose_elems(obj, obj, obj, g, f)

    return {
        (c, b): lat.join(
            comp(comp(A.hom[(c, a)], raw[(a, b1)]), B.hom[(b1, b)])
            for a in A.names
            for b1 in B.names
        )
        for c in A.names
        for b in B.names
    }


@given(parallel_semidists(count=2), st.data())
def test_tensor_distributes_over_sup(dists, rand):
    phi1, phi2 = dists
    A, B = phi1.dom, phi1.cod
    psi = validate_semidistributor(B, A, sandwich(A, rand.draw(matrix(A, B)), B))
    lhs = compose_semidist(psi, sup_semidist([phi1, phi2]))
    rhs = sup_semidist([compose_semidist(psi, phi1), compose_semidist(psi, phi2)])
    assert lhs == rhs


@given(semicat(require_regular=True), st.data())
def test_identities_act_as_units_on_regular(A, rand):
    # A⊗X⊗A is regular because A is idempotent
    phi = validate_semidistributor(A, A, sandwich(A, rand.draw(matrix(A, A)), A))
    assert is_regular_semidist(phi)
    ida = identity_semidist(A)
    assert compose_semidist(ida, phi) == phi
    assert compose_semidist(phi, ida) == phi


@given(parallel_semidists(count=2))
def test_lifting_dist_adjointness(dists):
    psi, phi = dists
    # lifting with common codomain: [psi, phi] is the largest xi with psi⊗xi <= phi
    A, B = phi.dom, phi.cod
    lift = lifting_dist(psi, phi)
    assert leq_semidist(compose_semidist(psi, lift), phi)


@given(semicat())
def test_compose_agrees_with_free_categories(A):
    phi = identity_semidist(A)
    free_phi = validate_semidistributor(free_category(A), free_category(A), phi.mat)
    lhs = compose_semidist(phi, phi)
    rhs = compose_semidist(free_phi, free_phi)
    assert lhs.mat == rhs.mat


@given(semicat())
def test_category_iff_representables_yoneda(A):
    contra = all(is_yoneda_presheaf(yoneda(A, a)) for a in A.names)
    co = all(is_yoneda_presheaf(yoneda_covariant(A, a)) for a in A.names)
    assert contra == is_category(A)
    assert co == is_category(A)


@given(semicat())
def test_regular_iff_representables_regular_both_variances(A):
    contra = all(is_regular_presheaf(yoneda(A, a)) for a in A.names)
    co = all(is_regular_presheaf(yoneda_covariant(A, a)) for a in A.names)
    assert contra == is_regular_semicat(A)
    assert co == is_regular_semicat(A)


@given(semicat(require_regular=True))
def test_j_is_idempotent(A):
    obj = A.base.objects[0]
    for p in enumerate_presheaves(A, obj):
        jp = map_j(A, p)
        assert map_j(A, jp) == jp
        assert is_regular_presheaf(jp)


@given(semicat())
def test_presheaves_coincide_with_free_category(A):
    obj = A.base.objects[0]
    free = free_category(A)
    for variance in ("contra", "co"):
        ours = [p.values for p in enumerate_presheaves(A, obj, variance)]
        theirs = [p.values for p in enumerate_presheaves(free, obj, variance)]
        assert ours == theirs


@st.composite
def closed_semicat(draw):
    """A semicategory with one to four objects over ``2`` or ``3``: a random
    matrix closed under max-min paths, so A⊗A ≤ A; many draws are not regular."""
    q = builtin_quantaloid(draw(st.sampled_from(["2", "3"])))
    obj = q.objects[0]
    top = q.hom_lat(obj, obj).size - 1
    n = draw(st.integers(1, 4))
    m = [[draw(st.integers(0, top)) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = max(m[i][j], min(m[i][k], m[k][j]))
    names = NAMES[:n]
    return validate_semicategory(q, [(a, obj) for a in names], [e for row in m for e in row])


@given(closed_semicat())
def test_presheaf_generators_match_the_product_filter(A):
    obj = A.base.objects[0]
    for variance in ("contra", "co"):
        want = reference_presheaves(A, obj, variance)
        assert enumerate_presheaves(A, obj, variance) == want
        regular = [p for p in want if is_regular_presheaf(p)]
        assert _regular_presheaves(A, obj, variance) == regular


KERNEL_BASES = QUANTALOIDS + [rel_quantaloid()]


@st.composite
def product_against(draw):
    """A product L⊗R over one of ``KERNEL_BASES``, with one to three rows,
    middles and columns of drawn types, and a matrix V of its shape: the
    product itself, or the product with one entry changed, the first, a
    middle or the last.  Returns the kernel's arguments, V and the index
    of the changed entry (None when V is the product)."""
    q = draw(st.sampled_from(KERNEL_BASES))
    tr, tm, tc = (
        tuple(draw(st.lists(st.sampled_from(q.objects), min_size=1, max_size=3)))
        for _ in range(3)
    )

    def block(rows, cols):
        return tuple(
            draw(st.integers(0, q.hom_lat(c, r).size - 1)) for r in rows for c in cols
        )

    L, R = block(tr, tm), block(tm, tc)
    V = list(_mat_compose(q, tr, tm, tc, L, R))
    where = draw(st.sampled_from(["equal", "first", "middle", "last"]))
    d = {"equal": None, "first": 0, "middle": len(V) // 2, "last": len(V) - 1}[where]
    if d is not None:
        size = q.hom_lat(tc[d % len(tc)], tr[d // len(tc)]).size
        V[d] = (V[d] + draw(st.integers(1, size - 1))) % size
    return (q, tr, tm, tc, L, R), tuple(V), d


@given(product_against())
def test_lazy_product_test_agrees_with_the_full_product(case):
    args, V, d = case
    read = []

    def entries():
        for e in V:
            read.append(e)
            yield e

    assert _product_is(*args, entries()) == (_mat_compose(*args) == V) == (d is None)
    # the test reads V up to its first entry that differs, and no further
    assert len(read) == (len(V) if d is None else d + 1)


def _small_acceptance_pairs():
    """Every pair of regular semicategories with at most two objects over
    ``2`` and a fixed-seed sample of 300 such pairs over ``3``."""
    two, three = regular_semicats("2", 2), regular_semicats("3", 2)
    return [(A, B) for A in two for B in two] + random.Random(4).sample(
        [(A, B) for A in three for B in three], 300
    )


def test_regular_semidist_agrees_with_the_full_products():
    # every matrix A -/-> B of each pair: about 107,000, 3,363 of them regular
    families = {"acceptance": _small_acceptance_pairs(), **beyond_frame_pairs()}
    for family, pairs in families.items():
        scanned = kept = 0
        for A, B in pairs:
            q, ta, tb = A.base, A.types, B.types
            for flat in matrix_space(A, B)[1]:
                want = (
                    _mat_compose(q, tb, ta, ta, flat, A.dense) == flat
                    and _mat_compose(q, tb, tb, ta, B.dense, flat) == flat
                )
                assert is_regular_semidist(SemiDistributor(A, B, flat)) == want, (family, flat)
                scanned += 1
                kept += want
        assert 0 < kept < scanned, family


@st.composite
def relations(draw):
    """(elements, pairs) over names that repeat, collide as str(x) (1 and
    "1"), are equal under different names (1, True and 1.0) or go unlisted
    ("z"); half the draws close the pairs transitively, so that the
    builders also answer."""
    elements = draw(
        st.lists(st.sampled_from(["a", "b", "c", 1, "1", True, 1.0]), max_size=4)
    )
    names = elements + ["z"] if draw(st.booleans()) else elements
    if not names:
        return elements, []
    pairs = set(draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)))))
    if draw(st.booleans()):
        for _ in names:
            pairs |= {(x, z) for x, y in pairs for y2, z in pairs if y == y2}
    return elements, draw(st.permutations(sorted(pairs, key=repr)))


@given(relations())
def test_relation_builders_agree_or_refuse_alike(case):
    elements, pairs = case
    got = outcome(lambda: has_interpolation(elements, pairs))
    assert outcome(lambda: is_regular_semicat(strict_order_to_semicat(elements, pairs))) == got
    if isinstance(got, bool):
        assert reference_interpolation(elements, pairs) == got
    elif got[0] is TypeMismatch:
        # the shared check on names refuses before any builder reads the order
        assert outcome(lambda: validate_poset(elements, pairs)) == got
    else:
        assert outcome(lambda: reference_interpolation(elements, pairs)) == got
