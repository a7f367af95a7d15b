"""Law tests over randomly drawn finite structures."""

from hypothesis import given, strategies as st

from qsemicat import (
    builtin_quantaloid,
    compose_semidist,
    free_category,
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
    validate_semicategory,
    sup_semidist,
    validate_semidistributor,
    yoneda,
    yoneda_covariant,
)
from qsemicat.presheaf import _regular_presheaves
from helpers import (
    NAMES,
    all_semicats,
    endomap_quantaloid,
    reference_presheaves,
    regular_semicats,
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
    for c in q.arrows(y, z):
        for b in q.arrows(x, z):
            lift = q.lifting(c, b)
            for d in q.arrows(x, y):
                assert q.leq(q.compose(c, d), b) == q.leq(d, lift)


@given(quantaloid_and_arrows(2))
def test_lifting_preserves_meets_in_target(data):
    q, (x, y, z) = data
    for c in q.arrows(y, z):
        bs = q.arrows(x, z)
        for b1 in bs:
            for b2 in bs:
                lhs = q.lifting(c, q.meet_arrows([b1, b2]))
                rhs = q.meet_arrows([q.lifting(c, b1), q.lifting(c, b2)])
                assert lhs == rhs


@given(quantaloid_and_arrows(2))
def test_lifting_turns_joins_into_meets(data):
    q, (x, y, z) = data
    for b in q.arrows(x, z):
        cs = q.arrows(y, z)
        for c1 in cs:
            for c2 in cs:
                lhs = q.lifting(q.join_arrows([c1, c2]), b)
                rhs = q.meet_arrows([q.lifting(c1, b), q.lifting(c2, b)])
                assert lhs == rhs


@given(quantaloid_and_arrows(1), st.data())
def test_compose_preserves_random_joins(data, rand):
    q, (x, y) = data
    arrows = q.arrows(x, x)
    subset = rand.draw(st.lists(st.sampled_from(arrows), max_size=4))
    f = rand.draw(st.sampled_from(q.arrows(y, x)))
    joined = q.join_arrows(subset, dom=x, cod=x)
    lhs = q.compose(joined, f)
    rhs = q.join_arrows([q.compose(s, f) for s in subset], dom=y, cod=x)
    assert lhs == rhs


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
