"""Presheaves on a semicategory and the categories they form.

A contravariant presheaf of type X on A is a semidistributor from the
one-object unit category on X into A; its values are arrows X -> t(a).  A
covariant presheaf points the other way, with values t(a) -> X.  On top of
the raw enumeration this module classifies presheaves (regular, Yoneda),
materialises the presheaf categories PA, RA and YA (and their covariant
duals) as explicit Q-categories, and implements the reflection/coreflection
maps j and k plus weighted colimits computed without units.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    ActionFailure,
    EnumerationCapExceeded,
    NotACategory,
    NotRegular,
    TypeMismatch,
)
from .quantaloid import QArrow, Quantaloid
from .semicat import (
    DEFAULT_CAP,
    SemiCategory,
    SemiDistributor,
    SemiFunctor,
    _dense_matrix,
    _first_excess,
    _lift_entry,
    _mat_compose,
    _mat_lift,
    is_regular_semicat,
    lifting_rsdist,
    validate_semicategory,
    validate_semidistributor,
    validate_typed_set,
)

CONTRA = "contra"
CO = "co"


def unit_category(q: Quantaloid, x, name: str = "*") -> SemiCategory:
    """The one-object category on x whose single hom-arrow is the identity."""
    return validate_semicategory(q, [(name, x)], {(name, name): q.identity[x]})


class Presheaf:
    """A presheaf on a semicategory, stored as its tuple of value elements.

    ``values`` is aligned with the carrier's object order.  Presheaves
    compare by exact value equality; isomorphism of presheaves is a
    question about the category they live in, not about their raw values.
    ``_res`` keeps the residual once it is computed; equality and hashing
    ignore it.
    """

    __slots__ = ("carrier", "qtype", "variance", "values", "_res")

    def __init__(self, carrier: SemiCategory, qtype, variance: str, values):
        if variance not in (CONTRA, CO):
            raise TypeMismatch(f"unknown variance {variance!r}")
        self.carrier = carrier
        self.qtype = qtype
        self.variance = variance
        self.values = tuple(values)
        self._res = None

    def value(self, a) -> int:
        return self.values[self.carrier.objects.index_of(a)]

    def arrow(self, a) -> QArrow:
        ta = self.carrier.type_of(a)
        if self.variance == CONTRA:
            return QArrow(self.qtype, ta, self.value(a))
        return QArrow(ta, self.qtype, self.value(a))

    def as_semidistributor(self) -> SemiDistributor:
        # the values are a column on the carrier, or a row when covariant
        unit = unit_category(self.carrier.base, self.qtype)
        ends = (unit, self.carrier) if self.variance == CONTRA else (self.carrier, unit)
        return validate_semidistributor(*ends, self.values)

    def __eq__(self, other):
        if not isinstance(other, Presheaf):
            return NotImplemented
        return (
            self.qtype == other.qtype
            and self.variance == other.variance
            and self.values == other.values
            and self.carrier == other.carrier
        )

    def __hash__(self):
        return hash((self.qtype, self.variance, self.values))

    def __repr__(self):
        vals = ", ".join(f"{a}={v}" for a, v in zip(self.carrier.names, self.values))
        return f"Presheaf({self.variance} {self.qtype}: {vals})"


def _contra(A: SemiCategory, variance: str) -> SemiCategory:
    """The carrier on which presheaves of this variance are contravariant.

    A covariant presheaf on A over Q is a contravariant presheaf on A^op
    over Q^op with the same values, so every computation below is written
    once, contravariantly, on the carrier this returns.
    """
    if variance == CONTRA:
        return A
    if variance == CO:
        return A.op()
    raise TypeMismatch(f"unknown variance {variance!r}")


def enumerate_presheaves(A: SemiCategory, x, variance: str = CONTRA, cap: int = DEFAULT_CAP):
    """All presheaves of type x on A, in lexicographic value order.

    The candidate space is the product of the relevant hom-lattice sizes;
    if it exceeds ``cap`` an :class:`EnumerationCapExceeded` is raised
    before any work is done.
    """
    q = A.base
    if x not in q.objects:
        raise TypeMismatch(f"{x!r} is not an object of the base", witness=x)
    C = _contra(A, variance)
    sizes = [C.base.hom_lat(x, t).size for t in C.types]
    total = math.prod(sizes)
    if total > cap:
        raise EnumerationCapExceeded(
            f"presheaf space of size {total} exceeds cap {cap}", witness=total
        )
    return [
        Presheaf(A, x, variance, combo)
        for combo in itertools.product(*map(range, sizes))
        # the action inequalities C⊗φ ≤ φ of a contravariant φ
        if _first_excess(C.base, C.types, C.types, (x,), C.dense, combo, combo) is None
    ]


def yoneda(A: SemiCategory, a) -> Presheaf:
    """The representable contravariant presheaf A(-, a) of type t(a)."""
    return Presheaf(A, A.type_of(a), CONTRA, A.dense[A.objects.index_of(a) :: len(A.types)])


def yoneda_covariant(A: SemiCategory, a) -> Presheaf:
    """The representable covariant presheaf A(a, -) of type t(a)."""
    n, i = len(A.types), A.objects.index_of(a)
    return Presheaf(A, A.type_of(a), CO, A.dense[i * n : (i + 1) * n])


def presheaf_hom_elem(psi: Presheaf, phi: Presheaf) -> int:
    """The element of the presheaf-category hom from phi to psi."""
    if psi.carrier != phi.carrier or psi.variance != phi.variance:
        raise TypeMismatch("presheaves live in different presheaf categories")
    C = _contra(phi.carrier, phi.variance)
    if phi.variance == CO:
        # dualising reverses homs: phi -> psi on A is psi -> phi on A^op
        psi, phi = phi, psi
    return _lift_entry(C.base, psi.qtype, C.types, phi.qtype, psi.values, phi.values)


def presheaf_hom(psi: Presheaf, phi: Presheaf) -> QArrow:
    """The hom-arrow of the presheaf category from phi to psi: t(phi) -> t(psi).

    Contravariantly this is the meet of base liftings [ψ(a), φ(a)];
    covariantly the meet of base extensions of ψ(a) along φ(a).
    """
    return QArrow(phi.qtype, psi.qtype, presheaf_hom_elem(psi, phi))


def is_regular_presheaf(phi: Presheaf) -> bool:
    """True iff composing with the carrier's hom matrix fixes phi."""
    return phi.values == _act(phi)


def _act(phi: Presheaf):
    """The values of A⊗φ (contravariant) or φ⊗A (covariant)."""
    C = _contra(phi.carrier, phi.variance)
    return _mat_compose(C.base, C.types, C.types, (phi.qtype,), C.dense, phi.values)


def _residual(phi: Presheaf):
    """The values of the residual of the carrier by phi: at a, the meet over b
    of the lifting of A(b, a) into φ(b), which is the hom from A(-, a) to φ.

    Computed once per presheaf and kept on it.
    """
    if phi._res is None:
        C = _contra(phi.carrier, phi.variance)
        phi._res = _mat_lift(C.base, C.types, C.types, (phi.qtype,), C.dense, phi.values)
    return phi._res


def is_yoneda_presheaf(phi: Presheaf) -> bool:
    """True iff homming with every representable recovers the values of phi."""
    return phi.values == _residual(phi)


def is_regular_via_liftings(phi: Presheaf, cap: int = DEFAULT_CAP, against=None) -> bool:
    """The colimit-style regularity test: against every presheaf, the hom
    out of phi decomposes through the representables.

    Must agree with :func:`is_regular_presheaf` on every enumerable
    instance; the two are independent routes to the same notion.  When
    ``against`` is given it replaces the internal enumeration (callers
    sweeping one instance enumerate the presheaves once, and each residual
    is then computed once); its presheaves must live in phi's presheaf
    category.
    """
    A = phi.carrier
    if against is None:
        against = [
            psi
            for x in A.base.objects
            for psi in enumerate_presheaves(A, x, phi.variance, cap)
        ]
    elif any(psi.carrier != A or psi.variance != phi.variance for psi in against):
        raise TypeMismatch("presheaves live in different presheaf categories")
    C = _contra(A, phi.variance)
    q, t, x, values = C.base, C.types, phi.qtype, phi.values
    for psi in against:
        # the hom from psi to phi, directly and through the representables
        y = psi.qtype
        if _lift_entry(q, x, t, y, values, psi.values) != _lift_entry(
            q, x, t, y, values, _residual(psi)
        ):
            return False
    return True


# -- materialised presheaf categories ---------------------------------------


class QCategoryView:
    """A finite Q-category materialised from computed data.

    Objects carry a tag, a type and a payload (e.g. a presheaf).  ``dense``
    holds the homs as a flat row-major tuple in object order: entry (i, k)
    is the hom from object k to object i.  ``homs`` is that tuple, or a dict
    keyed (tag1, tag0), which is range-checked, completed with bottoms and
    flattened as :func:`validate_semicategory` does with a hom dict;
    ``hom_elems``, the dict form, is formed from ``dense`` on first read and
    kept.  ``check`` verifies the category axioms exhaustively.  The view is
    treated as immutable: it is validated once, on first use.
    """

    __slots__ = ("base", "objects", "dense", "_index", "_hom_elems", "_semicat")

    def __init__(self, base, objects, homs):
        self.base = base
        self.objects = tuple(objects)
        self._index = {tag: i for i, (tag, _, _) in enumerate(self.objects)}
        if isinstance(homs, dict):
            ts = validate_typed_set(self._elements(), base)
            homs = _dense_matrix(base, ts, ts, homs, "hom entry")
        self.dense = homs
        self._hom_elems = None
        self._semicat = None

    def _elements(self):
        return [(tag, t) for tag, t, _ in self.objects]

    @property
    def tags(self):
        return tuple(tag for tag, _, _ in self.objects)

    @property
    def hom_elems(self) -> dict:
        if self._hom_elems is None:
            tags = self.tags
            keys = ((tag1, tag0) for tag1 in tags for tag0 in tags)
            self._hom_elems = dict(zip(keys, self.dense))
        return self._hom_elems

    def index_of(self, tag) -> int:
        return self._index[tag]

    def type_of(self, tag):
        return self.objects[self._index[tag]][1]

    def payload(self, tag):
        return self.objects[self._index[tag]][2]

    def tag_of(self, payload):
        for tag, _, p in self.objects:
            if p == payload:
                return tag
        raise KeyError(f"no object with payload {payload!r}")

    def hom(self, tag1, tag0) -> QArrow:
        i, k = self._index[tag1], self._index[tag0]
        return QArrow(self.objects[k][1], self.objects[i][1], self.dense[i * len(self) + k])

    def as_semicategory(self) -> SemiCategory:
        """The view as a validated semicategory, built on the first call and kept."""
        if self._semicat is None:
            self._semicat = validate_semicategory(self.base, self._elements(), self.dense)
        return self._semicat

    def check(self):
        """Assert the full Q-category axioms; raises on violation."""
        sc = self.as_semicategory()
        if not sc.is_category:
            raise NotACategory("view violates a unit-inequality", witness=self)
        return True

    def __len__(self):
        return len(self.objects)

    def __repr__(self):
        return f"<Q-category view on {len(self.objects)} objects>"


def _build_view(A, variance, cap, keep):
    """The kept presheaves with every hom from one block residual: column i
    of the matrix holds the values of object i, and [M, M](i, k) is the
    contravariant hom from object k to object i."""
    q = A.base
    objects = []
    for x in q.objects:
        idx = 0
        for phi in enumerate_presheaves(A, x, variance, cap):
            if keep(phi):
                objects.append((f"{x}#{idx}", x, phi))
                idx += 1
    C = _contra(A, variance)
    types = tuple(x for _, x, _ in objects)
    M = tuple(e for row in zip(*(phi.values for _, _, phi in objects)) for e in row)
    homs = _mat_lift(C.base, types, C.types, types, M, M)
    if variance == CO:
        # dualising reverses homs: phi -> psi on A is psi -> phi on A^op
        n = len(objects)
        homs = tuple(e for i in range(n) for e in homs[i::n])
    return QCategoryView(q, objects, homs)


def build_PA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The Q-category of all presheaves on A (equal to that of its free category)."""
    return _build_view(A, variance, cap, lambda phi: True)


def build_RA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The full subcategory of regular presheaves."""
    return _build_view(A, variance, cap, is_regular_presheaf)


def build_RA_by_lifting(A: SemiCategory, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The contravariant :func:`build_RA` with every hom recomputed through
    the lifting in the regular-semidistributor calculus.

    For a regular carrier the two must agree; this route is the independent
    cross-check of the presheaf homs.
    """
    view = build_RA(A, CONTRA, cap)
    if not is_regular_semicat(A):
        raise NotRegular("lifting route needs a regular carrier", witness=A)
    homs = []
    for _, _, psi in view.objects:
        sd_psi = psi.as_semidistributor()
        for _, _, phi in view.objects:
            homs.append(lifting_rsdist(sd_psi, phi.as_semidistributor()).dense[0])
    return QCategoryView(view.base, view.objects, tuple(homs))


def build_YA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The full subcategory of Yoneda presheaves."""
    return _build_view(A, variance, cap, is_yoneda_presheaf)


# -- the adjoint triple -------------------------------------------------------


def map_j(A: SemiCategory, psi: Presheaf) -> Presheaf:
    """Project an arbitrary presheaf onto a regular one by acting with A.

    Contravariantly the inclusion of the regular presheaves is left
    adjoint to this projection, which in turn is left adjoint to
    :func:`map_k`; covariantly the two adjunctions trade sides (the
    presheaf homs reverse under dualisation).
    """
    if not is_regular_semicat(A):
        raise NotRegular("j is only an adjoint for a regular carrier", witness=A)
    if psi.carrier != A:
        raise TypeMismatch("presheaf does not live on the given carrier")
    return Presheaf(A, psi.qtype, psi.variance, _act(psi))


def map_k(A: SemiCategory, theta: Presheaf) -> Presheaf:
    """Send a regular presheaf to the Yoneda presheaf with the same homs."""
    if not is_regular_semicat(A):
        raise NotRegular("k needs a regular carrier", witness=A)
    if theta.carrier != A:
        raise TypeMismatch("presheaf does not live on the given carrier")
    if not is_regular_presheaf(theta):
        raise NotRegular("k is defined on regular presheaves", witness=theta)
    return Presheaf(A, theta.qtype, theta.variance, _residual(theta))


# -- weighted colimits without units -----------------------------------------


def weighted_colimit_RA(theta: SemiDistributor, fmap) -> dict:
    """The theta-weighted colimit of an object map into regular presheaves.

    ``theta`` is a weight D -/-> C and ``fmap`` sends each object of C to a
    regular contravariant presheaf on one regular carrier A; the result maps
    each object of D to the regular presheaf obtained by composing the
    graph of fmap with the weight.
    """
    D, C = theta.dom, theta.cod
    fmap = dict(fmap)
    if set(fmap) != set(C.names):
        raise TypeMismatch("object map does not cover the weight's codomain")
    presheaves = [fmap[c] for c in C.names]
    carrier = presheaves[0].carrier if presheaves else None
    if carrier is None:
        raise TypeMismatch("empty diagram has no carrier to land in")
    if not is_regular_semicat(carrier):
        raise NotRegular("colimits are computed in RA of a regular carrier", witness=carrier)
    q = carrier.base
    for c in C.names:
        phi = fmap[c]
        if phi.carrier != carrier or phi.variance != CONTRA:
            raise TypeMismatch(f"image of {c!r} lives in a different category", witness=c)
        if phi.qtype != C.type_of(c):
            raise TypeMismatch(f"image of {c!r} has type {phi.qtype!r} != t({c!r})", witness=c)
        if not is_regular_presheaf(phi):
            raise NotRegular(f"image of {c!r} is not a regular presheaf", witness=c)

    # the graph (c -> fmap[c]) must itself be a distributor in the C direction: F⊗C ≤ F
    F = tuple(fmap[c].values[i] for i in range(len(carrier.names)) for c in C.names)
    bad = _first_excess(q, carrier.types, C.types, C.types, F, C.dense, F)
    if bad is not None:
        raise ActionFailure(
            "object map is not compatible with the homs of its domain",
            witness=(carrier.names[bad[0]], C.names[bad[1]], C.names[bad[2]]),
        )

    flat = _mat_compose(q, carrier.types, C.types, D.types, F, theta.dense)
    n = len(D.names)
    return {
        d: Presheaf(carrier, D.type_of(d), CONTRA, flat[k::n]) for k, d in enumerate(D.names)
    }


def is_colimit(G: SemiFunctor, phi: SemiDistributor, F: SemiFunctor) -> bool:
    """Check the unit-free colimit formula: G is the phi-weighted colimit of F.

    Requires a common codomain category C; the test is the exact equality
    C(Ga, c) = meet over b of [phi(b, a), C(Fb, c)], with liftings taken in
    the base quantaloid.
    """
    if G.cod != F.cod:
        raise TypeMismatch("colimit candidates must share their codomain")
    C = G.cod
    if not C.is_category:
        raise NotACategory("colimits are tested in a category", witness=C)
    if G.dom != phi.dom or F.dom != phi.cod:
        raise TypeMismatch("weight endpoints do not match the functors")
    n = len(C.types)

    def rows(H):
        """The rows C(Hx, -) for x in the domain of H, in its object order."""
        at = (C.objects.index_of(H.map[x]) for x in H.dom.names)
        return tuple(e for i in at for e in C.dense[i * n : (i + 1) * n])

    return _mat_lift(C.base, phi.dom.types, phi.cod.types, C.types, phi.dense, rows(F)) == rows(G)
