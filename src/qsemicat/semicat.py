"""Semicategories, semifunctors and the semidistributor calculus.

A semicategory is a typed object set with a hom matrix satisfying the
composition-inequalities only; no units are required.  Semidistributors are
typed matrices compatible with the hom actions on both sides.  Matrices are
stored dense, indexed (codomain object, domain object), and all operations
are pure.

Order-theoretic instances over the two-element quantaloid follow the
convention ``A(a, b) = top  iff  a ≺ b``: the hom entry at key ``(a, b)``
classifies the relation from its first index to its second.  Representable
presheaves then come out as strict principal downsets, which is the reading
all instance builders in :mod:`qsemicat.instances` rely on.
"""

from __future__ import annotations

import itertools
import math
from operator import eq, getitem

from .errors import (
    ActionFailure,
    CompositionFailure,
    NotRegular,
    SearchCapExceeded,
    TypeMismatch,
)
from .quantaloid import QArrow, Quantaloid


class TypedSet:
    """A finite set of named elements, each typed by an object of the base."""

    __slots__ = ("elements", "names", "types", "_pos")

    def __init__(self, elements):
        self.elements = tuple((str(n), t) for n, t in elements)
        names = self.names = tuple(n for n, _ in self.elements)
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise TypeMismatch(f"duplicate element name {dup!r}", witness=dup)
        self.types = tuple(t for _, t in self.elements)
        self._pos = {n: i for i, n in enumerate(names)}

    def type_of(self, name):
        try:
            return self.types[self._pos[name]]
        except KeyError:
            raise TypeMismatch(f"unknown element {name!r}", witness=name) from None

    def index_of(self, name) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise TypeMismatch(f"unknown element {name!r}", witness=name) from None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self._pos

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TypedSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"TypedSet({list(self.elements)})"


class SemiCategory:
    """A validated semicategory over a quantaloid.

    ``hom`` maps pairs (a1, a0) of object names to the element index of the
    hom-arrow A(a1, a0): t(a0) -> t(a1) in the base.  ``types`` and ``dense``
    hold the object types and the hom matrix as a flat row-major tuple, both
    in object order, for the matrix kernels.
    """

    __slots__ = ("base", "objects", "hom", "is_category", "types", "dense", "_op")

    def __init__(self, base, objects, hom, is_category):
        self.base = base
        self.objects = objects
        self.hom = hom
        self.is_category = is_category
        self.types = objects.types
        self.dense = tuple(hom[(a1, a0)] for a1 in objects.names for a0 in objects.names)
        self._op = None

    def op(self) -> SemiCategory:
        """The dual A^op over the dual base: A^op(a1, a0) = A(a0, a1).

        Built once and cached; a covariant presheaf on A is a contravariant
        one on A^op.
        """
        if self._op is None:
            hom = {key: self.hom[key[::-1]] for key in self.hom}
            self._op = SemiCategory(self.base.op(), self.objects, hom, self.is_category)
            self._op._op = self
        return self._op

    @property
    def names(self):
        return self.objects.names

    def type_of(self, a):
        return self.objects.type_of(a)

    def hom_arrow(self, a1, a0) -> QArrow:
        return QArrow(self.type_of(a0), self.type_of(a1), self.hom[(a1, a0)])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SemiCategory):
            return NotImplemented
        return (
            self.base == other.base
            and self.objects == other.objects
            and self.hom == other.hom
        )

    def __repr__(self):
        kind = "category" if self.is_category else "semicategory"
        return f"<{kind} on {list(self.names)}>"


class SemiDistributor:
    """A validated semidistributor between semicategories over one base.

    ``mat`` maps pairs (b, a) to the element index of Phi(b, a): t(a) -> t(b).
    """

    __slots__ = ("dom", "cod", "mat")

    def __init__(self, dom, cod, mat):
        self.dom = dom
        self.cod = cod
        self.mat = mat

    @property
    def base(self):
        return self.dom.base

    def arrow(self, b, a) -> QArrow:
        return QArrow(self.dom.type_of(a), self.cod.type_of(b), self.mat[(b, a)])

    def __eq__(self, other):
        if not isinstance(other, SemiDistributor):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.mat == other.mat

    def __repr__(self):
        return f"<semidistributor {list(self.dom.names)} -/-> {list(self.cod.names)}>"


class SemiFunctor:
    """A type-preserving object map whose action only enlarges homs."""

    __slots__ = ("dom", "cod", "map")

    def __init__(self, dom, cod, mapping):
        self.dom = dom
        self.cod = cod
        self.map = mapping

    def __call__(self, a):
        return self.map[a]

    def __eq__(self, other):
        if not isinstance(other, SemiFunctor):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.map == other.map

    def __repr__(self):
        return f"<semifunctor {dict(self.map)}>"


# -- validation ------------------------------------------------------------


def validate_typed_set(elements, base: Quantaloid) -> TypedSet:
    ts = TypedSet(elements)
    for name, t in ts.elements:
        if t not in base.objects:
            raise TypeMismatch(f"element {name!r} has unknown type {t!r}", witness=(name, t))
    return ts


def validate_semicategory(base: Quantaloid, objects, hom) -> SemiCategory:
    """Check the composition-inequalities; omitted hom entries default to bottom.

    A(a2, a1)∘A(a1, a0) ≤ A(a2, a0) for every a1 iff the join over a1 is,
    so the inequalities hold iff A⊗A ≤ A entrywise, which one product by
    :func:`_mat_compose` decides.  Only when it fails does the triple loop
    run, to raise the first failure with its witness.
    """
    raw = objects.elements if isinstance(objects, TypedSet) else objects
    ts = validate_typed_set(raw, base)
    full = {}
    for a1 in ts.names:
        for a0 in ts.names:
            lat = base.hom_lat(ts.type_of(a0), ts.type_of(a1))
            e = hom.get((a1, a0), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(
                    f"hom entry ({a1!r}, {a0!r}) = {e} out of range", witness=(a1, a0)
                )
            full[(a1, a0)] = e
    for key in hom:
        if key not in full:
            raise TypeMismatch(f"hom entry {key} names unknown objects", witness=key)

    is_cat = all(
        base.hom_lat(ta, ta).le(base.identity[ta], full[(a, a)]) for a, ta in ts.elements
    )
    A = SemiCategory(base, ts, full, is_cat)
    t, dense = A.types, A.dense
    joins = [base.hom[(t0, t2)]._join2 for t2 in t for t0 in t]
    product = _mat_compose(base, t, t, t, dense, dense)
    # p ≤ v iff p ∨ v == v
    if not all(map(eq, map(getitem, map(getitem, joins, product), dense), dense)):
        _raise_composition_failure(base, ts, full)
    return A


def _raise_composition_failure(base, ts, full):
    """Walk every object triple and raise on the first composition-inequality that fails."""
    for a2, t2 in ts.elements:
        for a1, t1 in ts.elements:
            g = full[(a2, a1)]
            for a0, t0 in ts.elements:
                comp = base.compose_elems(t0, t1, t2, g, full[(a1, a0)])
                if not base.hom[(t0, t2)].le(comp, full[(a2, a0)]):
                    raise CompositionFailure(
                        f"A({a2!r},{a1!r})∘A({a1!r},{a0!r}) ≰ A({a2!r},{a0!r})",
                        witness=(a2, a1, a0),
                    )


def is_category(A: SemiCategory) -> bool:
    """True iff the unit-inequalities 1 <= A(a, a) hold on top of the semicategory axioms."""
    return A.is_category


def free_category(A: SemiCategory) -> SemiCategory:
    """Join an identity onto every endo-hom; off-diagonal homs are untouched."""
    hom = dict(A.hom)
    for a in A.names:
        t = A.type_of(a)
        lat = A.base.hom_lat(t, t)
        hom[(a, a)] = lat.join2(hom[(a, a)], A.base.identity[t])
    return validate_semicategory(A.base, A.objects, hom)


def _require_same_base(x, y, what):
    if x.base != y.base:
        raise TypeMismatch(f"{what} live over different base quantaloids")


def validate_semidistributor(dom: SemiCategory, cod: SemiCategory, mat) -> SemiDistributor:
    """Check the action-inequalities; omitted entries default to bottom."""
    _require_same_base(dom, cod, "semidistributor endpoints")
    q = dom.base
    full = {}
    for b in cod.names:
        for a in dom.names:
            lat = q.hom_lat(dom.type_of(a), cod.type_of(b))
            e = mat.get((b, a), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(f"entry ({b!r}, {a!r}) = {e} out of range", witness=(b, a))
            full[(b, a)] = e
    for key in mat:
        if key not in full:
            raise TypeMismatch(f"entry {key} names unknown objects", witness=key)

    for b in cod.names:
        tb = cod.type_of(b)
        for a1 in dom.names:
            for a0 in dom.names:
                t0, t1 = dom.type_of(a0), dom.type_of(a1)
                comp = q.compose_elems(t0, t1, tb, full[(b, a1)], dom.hom[(a1, a0)])
                if not q.hom_lat(t0, tb).le(comp, full[(b, a0)]):
                    raise ActionFailure(
                        f"Φ({b!r},{a1!r})∘A({a1!r},{a0!r}) ≰ Φ({b!r},{a0!r})",
                        witness=("dom", b, a1, a0),
                    )
    for b1 in cod.names:
        for b0 in cod.names:
            t1, t0 = cod.type_of(b1), cod.type_of(b0)
            for a in dom.names:
                ta = dom.type_of(a)
                comp = q.compose_elems(ta, t0, t1, cod.hom[(b1, b0)], full[(b0, a)])
                if not q.hom_lat(ta, t1).le(comp, full[(b1, a)]):
                    raise ActionFailure(
                        f"B({b1!r},{b0!r})∘Φ({b0!r},{a!r}) ≰ Φ({b1!r},{a!r})",
                        witness=("cod", b1, b0, a),
                    )
    return SemiDistributor(dom, cod, full)


# -- the algebra of semidistributors ----------------------------------------


def bottom_semidist(dom: SemiCategory, cod: SemiCategory) -> SemiDistributor:
    _require_same_base(dom, cod, "semidistributor endpoints")
    q = dom.base
    mat = {
        (b, a): q.hom_lat(dom.type_of(a), cod.type_of(b)).bottom
        for b in cod.names
        for a in dom.names
    }
    return SemiDistributor(dom, cod, mat)


def identity_semidist(A: SemiCategory) -> SemiDistributor:
    """The hom matrix of A as an endo-semidistributor (not in general a unit)."""
    return SemiDistributor(A, A, dict(A.hom))


def _mat_compose(q, tr, tm, tc, L, R) -> tuple:
    """The product kernel: (L⊗R)(r, c) = join over m of L(r, m)∘R(m, c).

    ``tr``, ``tm`` and ``tc`` are the type tuples of the row, middle and
    column index sets; ``L`` (|tr|×|tm|), ``R`` (|tm|×|tc|) and the result
    (|tr|×|tc|) are flat row-major tuples of elements.
    """
    nm, nc = len(tm), len(tc)
    out = []
    for i, cod in enumerate(tr):
        row = L[i * nm : (i + 1) * nm]
        for k, dom in enumerate(tc):
            plan = q._compose_plans.get((dom, cod, tm))
            if plan is None:
                lat = q.hom[(dom, cod)]
                tables = [q.compose_table[(dom, m, cod)] for m in tm]
                plan = q._compose_plans[(dom, cod, tm)] = (lat._join2, lat.bottom, tables)
            join, acc, tables = plan
            for table, g, f in zip(tables, row, R[k::nc]):
                acc = join[acc][table[g][f]]
            out.append(acc)
    return tuple(out)


def _mat_lift(q, tr, tm, tc, L, R) -> tuple:
    """The residuation kernel: [L, R](r, c) = meet over m of the base lifting
    of L(m, r) into R(m, c).

    ``L`` is |tm|×|tr| and ``R`` is |tm|×|tc|; the result is |tr|×|tc|, all
    flat row-major tuples as for :func:`_mat_compose`.
    """
    nr, nc = len(tr), len(tc)
    out = []
    for i, cod in enumerate(tr):
        col = L[i::nr]
        for k, dom in enumerate(tc):
            plan = q._lift_plans.get((dom, cod, tm))
            if plan is None:
                lat = q.hom[(dom, cod)]
                tables = [q._lift_table(dom, cod, m) for m in tm]
                plan = q._lift_plans[(dom, cod, tm)] = (lat._meet2, lat.top, tables)
            meet, acc, tables = plan
            for table, c, b in zip(tables, col, R[k::nc]):
                acc = meet[acc][table[c][b]]
            out.append(acc)
    return tuple(out)


def _dense(phi: SemiDistributor) -> tuple:
    """The matrix of a semidistributor as a flat row-major tuple."""
    mat = phi.mat
    return tuple(mat[(b, a)] for b in phi.cod.names for a in phi.dom.names)


def _sparse(cod: SemiCategory, dom: SemiCategory, flat) -> dict:
    """A flat row-major matrix cod × dom as a dict keyed (b, a)."""
    return dict(zip(((b, a) for b in cod.names for a in dom.names), flat))


def _product(psi: SemiDistributor, phi: SemiDistributor) -> tuple:
    """Ψ⊗Φ as a flat tuple."""
    A, B, C = phi.dom, phi.cod, psi.cod
    return _mat_compose(phi.base, C.types, B.types, A.types, _dense(psi), _dense(phi))


def compose_semidist(psi: SemiDistributor, phi: SemiDistributor) -> SemiDistributor:
    """(Ψ⊗Φ)(c, a) = join over b of Ψ(c, b)∘Φ(b, a)."""
    if psi.dom != phi.cod:
        raise TypeMismatch("composition needs cod(Φ) = dom(Ψ)")
    mat = _sparse(psi.cod, phi.dom, _product(psi, phi))
    return validate_semidistributor(phi.dom, psi.cod, mat)


def sup_semidist(family, dom: SemiCategory = None, cod: SemiCategory = None) -> SemiDistributor:
    """Entrywise join of a family of parallel semidistributors.

    An empty family yields the all-bottom matrix, in which case the
    endpoints must be supplied.
    """
    family = list(family)
    if not family:
        if dom is None or cod is None:
            raise TypeMismatch("empty supremum needs explicit dom and cod")
        return bottom_semidist(dom, cod)
    first = family[0]
    if any(p.dom != first.dom or p.cod != first.cod for p in family):
        raise TypeMismatch("supremum of semidistributors with different endpoints")
    q = first.base
    mat = {}
    for b in first.cod.names:
        for a in first.dom.names:
            lat = q.hom_lat(first.dom.type_of(a), first.cod.type_of(b))
            mat[(b, a)] = lat.join(p.mat[(b, a)] for p in family)
    return validate_semidistributor(first.dom, first.cod, mat)


def leq_semidist(lo: SemiDistributor, hi: SemiDistributor) -> bool:
    """Entrywise order on parallel semidistributors."""
    if lo.dom != hi.dom or lo.cod != hi.cod:
        raise TypeMismatch("cannot compare semidistributors with different endpoints")
    q = lo.base
    return all(
        q.hom_lat(lo.dom.type_of(a), lo.cod.type_of(b)).le(lo.mat[(b, a)], hi.mat[(b, a)])
        for b in lo.cod.names
        for a in lo.dom.names
    )


def lifting_dist(psi: SemiDistributor, phi: SemiDistributor) -> SemiDistributor:
    """[Ψ,Φ](c, a) = meet over b of the base lifting [Ψ(b,c), Φ(b,a)].

    For Ψ: C -/-> B and Φ: A -/-> B this is the largest matrix Ξ: A -/-> C
    with Ψ⊗Ξ <= Φ, the residuation being taken between the free categories.
    """
    if psi.cod != phi.cod:
        raise TypeMismatch("lifting needs a common codomain")
    A, B, C = phi.dom, phi.cod, psi.dom
    flat = _mat_lift(phi.base, C.types, B.types, A.types, _dense(psi), _dense(phi))
    return validate_semidistributor(A, C, _sparse(C, A, flat))


def is_regular_semicat(A: SemiCategory) -> bool:
    """True iff the hom matrix is idempotent: A⊗A = A entrywise."""
    t = A.types
    return _mat_compose(A.base, t, t, t, A.dense, A.dense) == A.dense


def is_regular_semidist(phi: SemiDistributor) -> bool:
    """True iff Φ⊗A = Φ = B⊗Φ.

    Works on raw matrices too: the two equalities force the action
    inequalities, so enumeration code may filter unvalidated candidates.
    """
    return _is_regular_flat(phi.dom, phi.cod, _dense(phi))


def _is_regular_flat(A: SemiCategory, B: SemiCategory, flat) -> bool:
    """Φ⊗A = Φ = B⊗Φ for a flat row-major matrix Φ: A -/-> B."""
    q, ta, tb = A.base, A.types, B.types
    return (
        _mat_compose(q, tb, ta, ta, flat, A.dense) == flat
        and _mat_compose(q, tb, tb, ta, B.dense, flat) == flat
    )


def _require_regular(*items):
    for item in items:
        if isinstance(item, SemiCategory):
            if not is_regular_semicat(item):
                raise NotRegular(f"{item!r} is not regular", witness=item)
        else:
            if not is_regular_semidist(item):
                raise NotRegular(f"{item!r} is not regular", witness=item)


def lifting_rsdist(psi: SemiDistributor, phi: SemiDistributor) -> SemiDistributor:
    """The lifting in the quantaloid of regular semidistributors.

    For regular Ψ: C -/-> B and Φ: A -/-> B between regular semicategories
    this is C⊗[Ψ,Φ]⊗A, the largest *regular* Ξ with Ψ⊗Ξ <= Φ.
    """
    if psi.cod != phi.cod:
        raise TypeMismatch("lifting needs a common codomain")
    _require_regular(phi.dom, phi.cod, psi.dom, psi, phi)
    core = lifting_dist(psi, phi)
    return compose_semidist(
        identity_semidist(psi.dom), compose_semidist(core, identity_semidist(phi.dom))
    )


# -- semifunctors ------------------------------------------------------------


def validate_semifunctor(dom: SemiCategory, cod: SemiCategory, mapping) -> SemiFunctor:
    """Check type-equalities and action-inequalities of an object map."""
    _require_same_base(dom, cod, "semifunctor endpoints")
    mapping = dict(mapping)
    if set(mapping) != set(dom.names):
        raise TypeMismatch("object map does not cover the domain", witness=sorted(mapping))
    for a, fa in mapping.items():
        if fa not in cod.objects:
            raise TypeMismatch(f"image {fa!r} is not an object of the codomain", witness=(a, fa))
        if dom.type_of(a) != cod.type_of(fa):
            raise TypeMismatch(f"t({fa!r}) != t({a!r})", witness=(a, fa))
    q = dom.base
    for a1 in dom.names:
        for a0 in dom.names:
            t0, t1 = dom.type_of(a0), dom.type_of(a1)
            if not q.hom_lat(t0, t1).le(
                dom.hom[(a1, a0)], cod.hom[(mapping[a1], mapping[a0])]
            ):
                raise ActionFailure(
                    f"A({a1!r},{a0!r}) ≰ B(F{a1!r},F{a0!r})", witness=(a1, a0)
                )
    return SemiFunctor(dom, cod, mapping)


def graph_semidists(F: SemiFunctor):
    """The semidistributors B(-, F-): A -/-> B and B(F-, -): B -/-> A."""
    A, B = F.dom, F.cod
    fwd = {(b, a): B.hom[(b, F.map[a])] for b in B.names for a in A.names}
    bwd = {(a, b): B.hom[(F.map[a], b)] for a in A.names for b in B.names}
    return (
        validate_semidistributor(A, B, fwd),
        validate_semidistributor(B, A, bwd),
    )


def is_regular_semifunctor(F: SemiFunctor) -> bool:
    """True iff both graph semidistributors are regular."""
    fwd, bwd = graph_semidists(F)
    return is_regular_semidist(fwd) and is_regular_semidist(bwd)


def is_adjoint_pair(phi: SemiDistributor, psi: SemiDistributor) -> bool:
    """True iff Ψ⊗Φ >= A and Φ⊗Ψ <= B in the regular calculus."""
    if phi.dom != psi.cod or phi.cod != psi.dom:
        raise TypeMismatch("adjoint candidates must be antiparallel")
    _require_regular(phi.dom, phi.cod, phi, psi)
    A, B = phi.dom, phi.cod
    return leq_semidist(identity_semidist(A), compose_semidist(psi, phi)) and leq_semidist(
        compose_semidist(phi, psi), identity_semidist(B)
    )


def right_adjoint(phi: SemiDistributor):
    """The right adjoint of Φ in the regular calculus, or None.

    The only candidate is the lifting of the identity through Φ; it is
    returned exactly when the unit inequality holds as well.
    """
    _require_regular(phi.dom, phi.cod, phi)
    A, B = phi.dom, phi.cod
    psi = lifting_rsdist(phi, identity_semidist(B))
    if leq_semidist(identity_semidist(A), compose_semidist(psi, phi)):
        return psi
    return None


# -- enumeration helpers -----------------------------------------------------


def _entry_sizes(dom: SemiCategory, cod: SemiCategory) -> list:
    """The hom-lattice size of every entry of a matrix dom -/-> cod, row-major."""
    q = dom.base
    return [q.hom_lat(ta, tb).size for tb in cod.types for ta in dom.types]


def matrix_space(dom: SemiCategory, cod: SemiCategory):
    """The matrices dom -/-> cod in lexicographic entry order, with their count.

    Returns ``(size, generator)``; callers enforce their own caps before
    consuming the generator.
    """
    _require_same_base(dom, cod, "matrix endpoints")
    sizes = _entry_sizes(dom, cod)

    def gen():
        for flat in itertools.product(*map(range, sizes)):
            yield _sparse(cod, dom, flat)

    return math.prod(sizes), gen()


def _regular_flats(dom: SemiCategory, cod: SemiCategory):
    """Lazily yield the regular matrices dom -/-> cod as flat row-major tuples.

    Scans the matrix space in the lexicographic order of :func:`matrix_space`
    and keeps Φ with Φ⊗A = Φ and B⊗Φ = Φ; callers enforce their own caps.
    """
    for flat in itertools.product(*map(range, _entry_sizes(dom, cod))):
        if _is_regular_flat(dom, cod, flat):
            yield flat


def enumerate_regular_semidists(dom: SemiCategory, cod: SemiCategory, cap: int):
    """All regular semidistributors dom -/-> cod, lexicographically ordered."""
    total, _ = matrix_space(dom, cod)
    if total > cap:
        raise SearchCapExceeded(
            f"matrix space of size {total} exceeds cap {cap}", witness=total
        )
    return [
        validate_semidistributor(dom, cod, _sparse(cod, dom, flat))
        for flat in _regular_flats(dom, cod)
    ]
