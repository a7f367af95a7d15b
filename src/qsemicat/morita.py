"""Equivalence of finite Q-categories and Morita equivalence of regular semicategories.

Two regular semicategories are Morita equivalent when their categories of
regular presheaves are equivalent; between finite skeletal Q-categories an
equivalence is a type- and hom-preserving bijection, so the decision
reduces to skeleton isomorphism.  An independent route searches for an
isomorphism pair in the quantaloid of regular semidistributors; both
verdicts must agree wherever both complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotACategory, NotCocontinuous, NotRegular, SearchCapExceeded, TypeMismatch
from .presheaf import (
    CONTRA,
    DEFAULT_CAP,
    Presheaf,
    QCategoryView,
    build_RA,
    enumerate_presheaves,
    is_regular_presheaf,
    map_j,
    yoneda,
)
from .semicat import (
    SemiCategory,
    SemiDistributor,
    _dense,
    _mat_compose,
    _mat_lift,
    _regular_flats,
    _sparse,
    # unused here since the search scans lazily; kept because bench/ wraps it
    # as a module-boundary name of this module
    enumerate_regular_semidists,  # noqa: F401
    is_regular_semicat,
    is_regular_semidist,
    lifting_dist,
    matrix_space,
    validate_semidistributor,
)


@dataclass(frozen=True)
class SkeletonReport:
    """Partition of a view's objects into isomorphism classes."""

    classes: tuple
    representatives: tuple


def are_isomorphic_objects(view: QCategoryView, a, b) -> bool:
    """Two objects of a Q-category are isomorphic iff the identities factor both ways."""
    sc = view.as_semicategory()
    if not sc.is_category:
        raise NotACategory("object isomorphism lives in a category", witness=view)
    if view.type_of(a) != view.type_of(b):
        return False
    t = view.type_of(a)
    q = view.base
    lat = q.hom_lat(t, t)
    one = q.identity[t]
    return lat.le(one, view.hom_elems[(b, a)]) and lat.le(one, view.hom_elems[(a, b)])


def skeleton(view: QCategoryView):
    """Pick the lowest-index representative of every isomorphism class.

    Returns the report and the full subcategory on the representatives.
    """
    sc = view.as_semicategory()
    if not sc.is_category:
        raise NotACategory("skeletons live in a category", witness=view)
    q = view.base
    tags = view.tags
    classes = []
    for tag in tags:
        t = view.type_of(tag)
        one = q.identity[t]
        lat = q.hom_lat(t, t)
        home = None
        for cls in classes:
            rep = cls[0]
            if view.type_of(rep) != t:
                continue
            if lat.le(one, view.hom_elems[(tag, rep)]) and lat.le(
                one, view.hom_elems[(rep, tag)]
            ):
                home = cls
                break
        if home is None:
            classes.append([tag])
        else:
            home.append(tag)
    reps = tuple(cls[0] for cls in classes)
    report = SkeletonReport(tuple(tuple(cls) for cls in classes), reps)
    keep = set(reps)
    objects = [(tag, t, p) for tag, t, p in view.objects if tag in keep]
    hom_elems = {
        (t1, t0): e for (t1, t0), e in view.hom_elems.items() if t1 in keep and t0 in keep
    }
    return report, QCategoryView(q, objects, hom_elems)


def categories_isomorphic(c: QCategoryView, d: QCategoryView, cap: int = DEFAULT_CAP) -> bool:
    """Search for a type-preserving object bijection with equal homs.

    Backtracking over objects, pruning on every partial hom mismatch; the
    node count is bounded by ``cap``.
    """
    if c.base != d.base:
        raise TypeMismatch("views live over different base quantaloids")
    by_type_c = {}
    by_type_d = {}
    for tag in c.tags:
        by_type_c.setdefault(c.type_of(tag), []).append(tag)
    for tag in d.tags:
        by_type_d.setdefault(d.type_of(tag), []).append(tag)
    if {t: len(v) for t, v in by_type_c.items()} != {t: len(v) for t, v in by_type_d.items()}:
        return False

    order = list(c.tags)
    nodes = 0

    def extend(i, assignment, used):
        nonlocal nodes
        if i == len(order):
            return True
        a = order[i]
        for b in by_type_d.get(c.type_of(a), []):
            if b in used:
                continue
            nodes += 1
            if nodes > cap:
                raise SearchCapExceeded(
                    f"isomorphism search exceeded {cap} nodes", witness=nodes
                )
            ok = True
            for a0, b0 in assignment.items():
                if (
                    c.hom_elems[(a, a0)] != d.hom_elems[(b, b0)]
                    or c.hom_elems[(a0, a)] != d.hom_elems[(b0, b)]
                ):
                    ok = False
                    break
            if ok and c.hom_elems[(a, a)] == d.hom_elems[(b, b)]:
                assignment[a] = b
                used.add(b)
                if extend(i + 1, assignment, used):
                    return True
                del assignment[a]
                used.discard(b)
        return False

    return extend(0, {}, set())


def rsdist_isomorphism_search(A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP):
    """Look for regular (Φ, Ψ) with Ψ⊗Φ = A and Φ⊗Ψ = B.

    Scans the regular Φ: A -/-> B lazily, in lexicographic entry order.  An
    isomorphism of the regular calculus has exactly one inverse, its regular
    right adjoint A⊗[Φ,B]⊗B, so each Φ is tested against that one Ψ and
    nothing is enumerated over B -/-> A.  The first witness pair is returned
    (the same pair an exhaustive search over both matrix spaces finds first),
    or None when the finite space holds none.  ``cap`` bounds the sizes of
    both matrix spaces before the scan starts.
    """
    _check_regular_pair(A, B)
    n_ab, _ = matrix_space(A, B)
    n_ba, _ = matrix_space(B, A)
    if n_ab > cap or n_ba > cap:
        raise SearchCapExceeded(
            f"matrix spaces of sizes {n_ab} and {n_ba} exceed cap {cap}",
            witness=(n_ab, n_ba),
        )
    q, ta, tb = A.base, A.types, B.types
    for phi in _regular_flats(A, B):
        # the one candidate inverse: the regular right adjoint A⊗[Φ,B]⊗B
        core = _mat_compose(q, ta, tb, tb, _mat_lift(q, ta, tb, tb, phi, B.dense), B.dense)
        psi = _mat_compose(q, ta, ta, tb, A.dense, core)
        if (
            _mat_compose(q, ta, tb, ta, psi, phi) == A.dense
            and _mat_compose(q, tb, ta, tb, phi, psi) == B.dense
        ):
            return (
                validate_semidistributor(A, B, _sparse(B, A, phi)),
                validate_semidistributor(B, A, _sparse(A, B, psi)),
            )
    return None


@dataclass
class MoritaResult:
    equivalent: bool
    skeleton_sizes: tuple
    certificate: object
    routes_agree: bool

    def as_json(self):
        cert = None
        if self.certificate is not None:
            phi, psi = self.certificate
            cert = {
                "phi": sorted([b, a, e] for (b, a), e in phi.mat.items()),
                "psi": sorted([a, b, e] for (a, b), e in psi.mat.items()),
            }
        return {
            "schema": 1,
            "morita": self.equivalent,
            "skeleton_sizes": list(self.skeleton_sizes),
            "certificate": cert,
            "routes_agree": self.routes_agree,
        }


def _check_regular_pair(A, B):
    if not is_regular_semicat(A):
        raise NotRegular("first semicategory is not regular", witness=A)
    if not is_regular_semicat(B):
        raise NotRegular("second semicategory is not regular", witness=B)


def morita_equivalent(A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP) -> MoritaResult:
    """Decide Morita equivalence of two regular semicategories.

    The primary route compares skeletons of the regular-presheaf
    categories; the certificate route searches for an isomorphism pair of
    regular semidistributors.  When both complete their verdicts must
    agree, and ``routes_agree`` records that they did.
    """
    _check_regular_pair(A, B)
    _, ska = skeleton(build_RA(A, CONTRA, cap))
    _, skb = skeleton(build_RA(B, CONTRA, cap))
    equivalent = categories_isomorphic(ska, skb, cap)

    certificate = None
    routes_agree = True
    try:
        pair = rsdist_isomorphism_search(A, B, cap)
    except SearchCapExceeded:
        pair = "capped"
    if pair != "capped":
        routes_agree = (pair is not None) == equivalent
        certificate = pair
    return MoritaResult(equivalent, (len(ska), len(skb)), certificate, routes_agree)


# -- regular semidistributors versus cocontinuous maps ------------------------


class InducedFunctor:
    """The cocontinuous map RA -> RB induced by a regular semidistributor.

    Callable on regular presheaves; ``right`` is its right adjoint.
    """

    def __init__(self, phi: SemiDistributor):
        if not is_regular_semicat(phi.dom) or not is_regular_semicat(phi.cod):
            raise NotRegular("induced functors need regular endpoints", witness=phi)
        if not is_regular_semidist(phi):
            raise NotRegular("inducing semidistributor is not regular", witness=phi)
        self.phi = phi

    def __call__(self, theta: Presheaf) -> Presheaf:
        A, B = self.phi.dom, self.phi.cod
        if theta.carrier != A or theta.variance != CONTRA:
            raise TypeMismatch("presheaf does not live on the domain carrier")
        x = theta.qtype
        values = _mat_compose(A.base, B.types, A.types, (x,), _dense(self.phi), theta.values)
        return Presheaf(B, x, CONTRA, values)

    def right(self, psi: Presheaf) -> Presheaf:
        """The right adjoint RB -> RA: the lifting of psi through the semidistributor."""
        A, B = self.phi.dom, self.phi.cod
        if psi.carrier != B or psi.variance != CONTRA:
            raise TypeMismatch("presheaf does not live on the codomain carrier")
        lifted = lifting_dist(self.phi, psi.as_semidistributor())
        core = Presheaf(A, psi.qtype, CONTRA, (lifted.mat[(a, "*")] for a in A.names))
        return map_j(A, core)


def induced_functor(phi: SemiDistributor) -> InducedFunctor:
    """Wrap a regular semidistributor as the map theta -> Φ⊗theta on regular presheaves."""
    return InducedFunctor(phi)


def distributor_from_cocont(F, A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP):
    """Recover the regular semidistributor whose induced functor is F.

    ``F`` maps regular contravariant presheaves on A to regular presheaves
    on B.  The candidate matrix reads F off the representables; F must then
    agree with the induced functor on every enumerated regular presheaf,
    otherwise :class:`NotCocontinuous` reports a witness.
    """
    _check_regular_pair(A, B)
    apply = F if callable(F) else (lambda t, _m=dict(F): _m[t])
    mat = {}
    for a in A.names:
        image = apply(yoneda(A, a))
        if not isinstance(image, Presheaf) or image.carrier != B:
            raise TypeMismatch(f"image of the representable at {a!r} is not a presheaf on the codomain")
        for b in B.names:
            mat[(b, a)] = image.value(b)
    cand = SemiDistributor(A, B, mat)
    if not is_regular_semidist(cand):
        raise NotCocontinuous(
            "map of representables does not give a regular semidistributor",
            witness=cand,
        )
    phi = validate_semidistributor(A, B, mat)
    functor = InducedFunctor(phi)
    for x in A.base.objects:
        for theta in enumerate_presheaves(A, x, CONTRA, cap):
            if not is_regular_presheaf(theta):
                continue
            if apply(theta) != functor(theta):
                raise NotCocontinuous(
                    "object map disagrees with the induced functor", witness=theta
                )
    return phi
