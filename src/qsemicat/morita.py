"""Equivalence of finite Q-categories and Morita equivalence of regular semicategories.

Two regular semicategories are Morita equivalent when their categories of
regular presheaves are equivalent; between finite skeletal Q-categories an
equivalence is a type- and hom-preserving bijection.  The category RA of
regular presheaves is skeletal by construction (1 ≤ ⋀ₐ[φ(a), ψ(a)] iff
φ ≤ ψ pointwise, so isomorphic presheaves are equal), and the decision is
an isomorphism search between RA and RB.  An independent route searches for
an isomorphism pair in the quantaloid of regular semidistributors; both
verdicts must agree wherever both complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCocontinuous, NotRegular, SearchCapExceeded, TypeMismatch
from .presheaf import (
    CONTRA,
    DEFAULT_CAP,
    Presheaf,
    QCategoryView,
    _regular_presheaves,
    build_RA,
    yoneda,
)
from .semicat import (
    SemiCategory,
    SemiDistributor,
    _check_regular_pair,
    _is_regular_flat,
    _mat_compose,
    _product_is,
    _regular_lifting,
    # unused here since the search scans lazily; kept because bench/ wraps it
    # as a module-boundary name of this module
    enumerate_regular_semidists,  # noqa: F401
    is_regular_semicat,
    is_regular_semidist,
    matrix_space,
    validate_semidistributor,
)


@dataclass(frozen=True)
class SkeletonReport:
    """Partition of a view's objects into isomorphism classes."""

    classes: tuple
    representatives: tuple


def _isomorphic(view: SemiCategory, i, k) -> bool:
    """Same type, and the identity below the hom both ways, between objects
    i and k of a semicategory known to be a category."""
    t = view.types[i]
    if view.types[k] != t:
        return False
    q, n, dense = view.base, len(view), view.dense
    le, one = q.hom_lat(t, t).le, q.identity[t]
    return le(one, dense[k * n + i]) and le(one, dense[i * n + k])


def skeleton(view: QCategoryView):
    """Pick the lowest-index representative of every isomorphism class.

    Returns the report and the full subcategory on the representatives.
    The view is checked first (once per view, see
    :meth:`QCategoryView.check`): the classes are read off the unit
    inequalities, which mean isomorphism only in a category.  Any other
    argument raises :class:`TypeMismatch`.
    """
    if not isinstance(view, QCategoryView):
        raise TypeMismatch("skeleton needs a QCategoryView", witness=view)
    view.check()
    classes = []
    for i in range(len(view)):
        home = next((cls for cls in classes if _isomorphic(view, i, cls[0])), None)
        if home is None:
            classes.append([i])
        else:
            home.append(i)
    names = view.names
    report = SkeletonReport(
        tuple(tuple(names[i] for i in cls) for cls in classes),
        tuple(names[cls[0]] for cls in classes),
    )
    # every class is founded by its lowest index, so keep is increasing
    keep = [cls[0] for cls in classes]
    n, dense, types, payloads = len(view), view.dense, view.types, view.payloads
    objects = [(names[i], types[i], payloads[i]) for i in keep]
    homs = tuple(dense[i * n + k] for i in keep for k in keep)
    return report, QCategoryView(view.base, objects, homs)


def categories_isomorphic(c: SemiCategory, d: SemiCategory, cap: int = DEFAULT_CAP) -> bool:
    """Search for a type-preserving object bijection with equal homs.

    Backtracking over objects, pruning on every partial hom mismatch; the
    node count is bounded by ``cap``.
    """
    if c.base != d.base:
        raise TypeMismatch("semicategories live over different base quantaloids")
    by_type_c = {}
    by_type_d = {}
    for a, t in enumerate(c.types):
        by_type_c.setdefault(t, []).append(a)
    for b, t in enumerate(d.types):
        by_type_d.setdefault(t, []).append(b)
    if {t: len(v) for t, v in by_type_c.items()} != {t: len(v) for t, v in by_type_d.items()}:
        return False

    # equal type counts, so both have n objects
    n, C, D, tc = len(c), c.dense, d.dense, c.types
    nodes = 0

    def extend(a, assignment, used):
        """Map object a of c and the ones after it, in object order."""
        nonlocal nodes
        if a == n:
            return True
        for b in by_type_d.get(tc[a], []):
            if b in used:
                continue
            nodes += 1
            if nodes > cap:
                raise SearchCapExceeded(
                    f"isomorphism search exceeded {cap} nodes", witness=nodes
                )
            ok = True
            for a0, b0 in assignment.items():
                if C[a * n + a0] != D[b * n + b0] or C[a0 * n + a] != D[b0 * n + b]:
                    ok = False
                    break
            if ok and C[a * n + a] == D[b * n + b]:
                assignment[a] = b
                used.add(b)
                if extend(a + 1, assignment, used):
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
    or None when the finite space holds none.  ``cap`` bounds the size of
    A -/-> B, the one space scanned: :func:`matrix_space` refuses a larger
    one before the scan starts.
    """
    _check_regular_pair(A, B)
    _, space = matrix_space(A, B, cap)
    q, ta, tb = A.base, A.types, B.types
    for phi in space:
        if not _is_regular_flat(A, B, phi):
            continue
        # the one candidate inverse, A⊗[Φ,B]⊗B: the regular lifting of B through Φ
        psi = _regular_lifting(B, B, A, phi, B.dense)
        if _product_is(q, ta, tb, ta, psi, phi, A.dense) and _product_is(
            q, tb, ta, tb, phi, psi, B.dense
        ):
            return (
                validate_semidistributor(A, B, phi),
                validate_semidistributor(B, A, psi),
            )
    return None


@dataclass
class MoritaResult:
    equivalent: bool
    skeleton_sizes: tuple
    certificate: object
    routes_agree: bool
    cross_check: str

    def as_json(self):
        cert = None
        if self.certificate is not None:
            phi, psi = self.certificate
            cert = {
                "phi": sorted([b, a, e] for (b, a), e in phi.mat.items()),
                "psi": sorted([a, b, e] for (a, b), e in psi.mat.items()),
            }
        return {
            "schema": 2,
            "morita": self.equivalent,
            "skeleton_sizes": list(self.skeleton_sizes),
            "certificate": cert,
            "routes_agree": self.routes_agree,
            "cross_check": self.cross_check,
        }


def morita_equivalent(A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP) -> MoritaResult:
    """Decide Morita equivalence of two regular semicategories.

    The primary route compares the regular-presheaf categories, which are
    skeletal by construction; the certificate route searches for an
    isomorphism pair of regular semidistributors.  ``cross_check`` is
    ``"agreed"`` or ``"disagreed"`` when the search completed, and
    ``"capped"`` when it exceeded ``cap`` and never ran; ``routes_agree``
    is false only for ``"disagreed"``.
    """
    _check_regular_pair(A, B)
    ra, rb = build_RA(A, CONTRA, cap), build_RA(B, CONTRA, cap)
    equivalent = categories_isomorphic(ra, rb, cap)

    try:
        certificate = rsdist_isomorphism_search(A, B, cap)
    except SearchCapExceeded:
        certificate, cross_check = None, "capped"
    else:
        cross_check = "agreed" if (certificate is not None) == equivalent else "disagreed"
    return MoritaResult(
        equivalent, (len(ra), len(rb)), certificate, cross_check != "disagreed", cross_check
    )


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
        if (theta.carrier is not A and theta.carrier != A) or theta.variance != CONTRA:
            raise TypeMismatch("presheaf does not live on the domain carrier")
        x = theta.qtype
        values = _mat_compose(A.base, B.types, A.types, (x,), self.phi.dense, theta.values)
        return Presheaf(B, x, CONTRA, values)

    def right(self, psi: Presheaf) -> Presheaf:
        """The right adjoint RB -> RA: the regular lifting A⊗[Φ,ψ] of psi
        through the semidistributor, read from :func:`_regular_lifting`."""
        A, B = self.phi.dom, self.phi.cod
        if (psi.carrier is not B and psi.carrier != B) or psi.variance != CONTRA:
            raise TypeMismatch("presheaf does not live on the codomain carrier")
        col = psi.as_semidistributor()  # validates psi: B⊗ψ ≤ ψ
        values = _regular_lifting(col.dom, B, A, self.phi.dense, col.dense)
        return Presheaf(A, psi.qtype, CONTRA, values)


def distributor_from_cocont(F, A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP):
    """Recover the regular semidistributor whose induced functor is F.

    ``F`` is a callable sending regular contravariant presheaves on A to
    regular presheaves on B.  The candidate matrix reads F off the
    representables; F must then agree with the induced functor on every
    enumerated regular presheaf, otherwise :class:`NotCocontinuous` reports
    a witness.
    """
    _check_regular_pair(A, B)
    q, columns = A.base, []
    for a, x in A.objects.elements:
        image = F(yoneda(A, a))
        if (
            not isinstance(image, Presheaf)
            or (image.carrier is not B and image.carrier != B)
            or image.variance != CONTRA
            or image.qtype != x
            # Presheaf() does not range-check its values
            or not all(e in q.hom_lat(x, t) for e, t in zip(image.values, B.types))
        ):
            raise TypeMismatch(
                f"image of the representable at {a!r} is not a contravariant presheaf "
                f"of type t({a!r}) on the codomain",
                witness=a,
            )
        columns.append(image.values)
    flat = tuple(e for row in zip(*columns) for e in row)
    cand = SemiDistributor(A, B, flat)
    if not is_regular_semidist(cand):
        raise NotCocontinuous(
            "map of representables does not give a regular semidistributor",
            witness=cand,
        )
    phi = validate_semidistributor(A, B, flat)
    functor = InducedFunctor(phi)
    for x in A.base.objects:
        for theta in _regular_presheaves(A, x, CONTRA, cap):
            if F(theta) != functor(theta):
                raise NotCocontinuous(
                    "object map disagrees with the induced functor", witness=theta
                )
    return phi
