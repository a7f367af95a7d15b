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
from .lattice import is_pair
from .quantaloid import Quantaloid

# the default bound on every matrix space and presheaf candidate space
DEFAULT_CAP = 10**6


class TypedSet:
    """A finite set of named elements, each typed by an object of the base.

    Each element is an :func:`is_pair` (name, type); any other value is
    refused with :class:`TypeMismatch`, the value as witness."""

    __slots__ = ("elements", "names", "types", "_pos")

    def __init__(self, elements):
        elements = tuple(elements)
        if not all(map(is_pair, elements)):
            bad = next(e for e in elements if not is_pair(e))
            raise TypeMismatch(f"{bad!r} is not a pair", witness=bad)
        self.elements = tuple((str(n), t) for n, t in elements)
        names = self.names = tuple(n for n, _ in self.elements)
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise TypeMismatch(f"duplicate element name {dup!r}", witness=dup)
        self.types = tuple(t for _, t in self.elements)
        self._pos = {n: i for i, n in enumerate(names)}

    def type_of(self, name):
        return self.types[self.index_of(name)]

    def index_of(self, name) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise TypeMismatch(f"unknown element {name!r}", witness=name) from None

    def __len__(self):
        return len(self.elements)

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

    ``types`` and ``dense`` hold the object types and the hom matrix as a
    flat row-major tuple, both in object order: entry (i, j) is the element
    index of the hom-arrow A(a_i, a_j): t(a_j) -> t(a_i) in the base.
    ``dense`` is the stored form; ``hom``, the same matrix as a dict keyed
    by pairs (a1, a0) of object names, is formed from it on first read and
    kept.  ``is_category`` is given at construction; ``is_regular``
    (A⊗A = A) is decided by :func:`validate_semicategory`, or else on first
    read by one product, read up to its first entry that differs.
    """

    __slots__ = ("base", "objects", "is_category", "types", "dense", "_regular", "_hom", "_op")

    def __init__(self, base, objects, dense, is_category, is_regular=None):
        self.base = base
        self.objects = objects
        self.is_category = is_category
        self.types = objects.types
        self.dense = dense
        self._regular = is_regular
        self._hom = None
        self._op = None

    @property
    def is_regular(self) -> bool:
        if self._regular is None:
            t = self.types
            self._regular = _product_is(self.base, t, t, t, self.dense, self.dense, self.dense)
        return self._regular

    @property
    def hom(self) -> dict:
        if self._hom is None:
            self._hom = _sparse(self, self, self.dense)
        return self._hom

    def op(self) -> SemiCategory:
        """The dual A^op over the dual base: A^op(a1, a0) = A(a0, a1).

        Built once and cached by transposing ``dense``; a covariant
        presheaf on A is a contravariant one on A^op.  A^op is regular iff
        A is.
        """
        if self._op is None:
            n, dense = len(self.types), self.dense
            flipped = tuple(e for j in range(n) for e in dense[j::n])
            self._op = SemiCategory(
                self.base.op(), self.objects, flipped, self.is_category, self._regular
            )
            self._op._op = self
        return self._op

    @property
    def names(self):
        return self.objects.names

    def type_of(self, a):
        return self.objects.type_of(a)

    def __len__(self):
        return len(self.types)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SemiCategory):
            return NotImplemented
        return (
            self.base == other.base
            and self.objects == other.objects
            and self.dense == other.dense
        )

    def __repr__(self):
        kind = "category" if self.is_category else "semicategory"
        return f"<{kind} on {list(self.names)}>"


class SemiDistributor:
    """A validated semidistributor between semicategories over one base.

    ``dense`` holds the matrix as a flat row-major tuple in object order, as
    :attr:`SemiCategory.dense` does: entry (i, j) is the element index of
    Phi(b_i, a_j): t(a_j) -> t(b_i).  ``dense`` is the stored form; ``mat``,
    the same matrix as a dict keyed by pairs (b, a) of object names, is
    formed from it on first read and kept.  The constructor takes the flat
    tuple, or that dict complete.
    """

    __slots__ = ("dom", "cod", "dense", "_mat")

    def __init__(self, dom, cod, dense):
        if isinstance(dense, dict):
            mat = dense
            dense = (mat[(b, a)] for b in cod.names for a in dom.names)
        self.dom = dom
        self.cod = cod
        self.dense = tuple(dense)
        self._mat = None

    @property
    def mat(self) -> dict:
        if self._mat is None:
            self._mat = _sparse(self.cod, self.dom, self.dense)
        return self._mat

    @property
    def base(self):
        return self.dom.base

    def __eq__(self, other):
        if not isinstance(other, SemiDistributor):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.dense == other.dense

    def __repr__(self):
        return f"<semidistributor {list(self.dom.names)} -/-> {list(self.cod.names)}>"


class SemiFunctor:
    """A type-preserving object map whose action only enlarges homs."""

    __slots__ = ("dom", "cod", "map")

    def __init__(self, dom, cod, mapping):
        self.dom = dom
        self.cod = cod
        self.map = mapping

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

    ``hom`` is a dict keyed by pairs (a1, a0) of object names, or the flat
    row-major tuple that :attr:`SemiCategory.dense` holds.
    A(a2, a1)∘A(a1, a0) ≤ A(a2, a0) for every a1 iff the join over a1 is,
    so the inequalities hold iff A⊗A ≤ A entrywise, which one product by
    :func:`_mat_compose` decides.  Only when it fails does
    :func:`_first_excess` walk the triples, to raise the first failure with
    its witness.  The same product decides regularity, A⊗A = A.
    """
    raw = objects.elements if isinstance(objects, TypedSet) else objects
    ts = validate_typed_set(raw, base)
    dense = _dense_matrix(base, ts, ts, hom, "hom entry")
    t = ts.types
    joins = [base.hom[(t0, t2)]._join2 for t2 in t for t0 in t]
    product = _mat_compose(base, t, t, t, dense, dense)
    # p ≤ v iff p ∨ v == v
    if not all(map(eq, map(getitem, map(getitem, joins, product), dense), dense)):
        i, k, j = _first_excess(base, t, t, t, dense, dense, dense)
        a2, a1, a0 = ts.names[i], ts.names[k], ts.names[j]
        raise CompositionFailure(
            f"A({a2!r},{a1!r})∘A({a1!r},{a0!r}) ≰ A({a2!r},{a0!r})", witness=(a2, a1, a0)
        )
    return SemiCategory(base, ts, dense, _has_units(base, t, dense), product == dense)


def _has_units(q, types, dense) -> bool:
    """True iff 1 ≤ A(a, a) for every object a: the unit-inequalities."""
    n = len(types)
    return all(q.hom[(t, t)].leq[q.identity[t]][dense[i * (n + 1)]] for i, t in enumerate(types))


def _dense_matrix(q, rows: TypedSet, cols: TypedSet, mat, what) -> tuple:
    """``mat`` on rows × cols as a range-checked flat row-major tuple.

    ``mat`` is either that tuple already (or a list), or a dict keyed
    (row, column) with bottom in every omitted entry, whose every key, in
    the caller's order, must then name a row and a column.  Entries are
    checked to be elements of their hom-lattices (``e in lat``) in row-major
    order, before the keys; ``what`` names the entries in errors.
    """
    cells = [(r, c, q.hom[(tc, tr)]) for r, tr in rows.elements for c, tc in cols.elements]
    keyed = not isinstance(mat, (tuple, list))
    if not keyed:
        if len(mat) != len(cells):
            raise TypeMismatch(
                f"{what} matrix has {len(mat)} entries, not {len(cells)}", witness=len(mat)
            )
        flat = tuple(mat)
    else:
        get = mat.get
        flat = tuple(get((r, c), lat.bottom) for r, c, lat in cells)
    for (r, c, lat), e in zip(cells, flat):
        if e not in lat:
            raise TypeMismatch(f"{what} ({r!r}, {c!r}) = {e} out of range", witness=(r, c))
    if keyed:
        for key in mat:
            if not (is_pair(key) and key[0] in rows and key[1] in cols):
                raise TypeMismatch(f"{what} {key} names unknown objects", witness=key)
    return flat


def _first_excess(q, tr, tm, tc, L, R, V):
    """The first (i, k, j), in row, middle, column order, with
    L(i, k)∘R(k, j) ≰ V(i, j), or None.

    Index sets, types and flat row-major shapes are as for
    :func:`_mat_compose`, and ``V`` has the shape of the product.  The walk
    compares entry by entry and never forms the product, so it stays an
    independent check of the product kernel.
    """
    nm, nc = len(tm), len(tc)
    for i, cod in enumerate(tr):
        for k, mid in enumerate(tm):
            g = L[i * nm + k]
            for j, dom in enumerate(tc):
                comp = q.compose_table[(dom, mid, cod)][g][R[k * nc + j]]
                if not q.hom[(dom, cod)].leq[comp][V[i * nc + j]]:
                    return i, k, j
    return None


def is_category(A: SemiCategory) -> bool:
    """True iff the unit-inequalities 1 <= A(a, a) hold on top of the semicategory axioms."""
    return A.is_category


def free_category(A: SemiCategory) -> SemiCategory:
    """Join an identity onto every endo-hom; off-diagonal homs are untouched."""
    q, n, dense = A.base, len(A.types), list(A.dense)
    for i, t in enumerate(A.types):
        dense[i * (n + 1)] = q.hom[(t, t)].join2(dense[i * (n + 1)], q.identity[t])
    return validate_semicategory(q, A.objects, dense)


def _require_same_base(x, y, what):
    if x.base != y.base:
        raise TypeMismatch(f"{what} live over different base quantaloids")


def validate_semidistributor(dom: SemiCategory, cod: SemiCategory, mat) -> SemiDistributor:
    """Check the action-inequalities Φ⊗A ≤ Φ and B⊗Φ ≤ Φ, entry by entry;
    ``mat`` is a flat row-major tuple as :attr:`SemiDistributor.dense` is, or
    a dict keyed (b, a) whose omitted entries default to bottom."""
    _require_same_base(dom, cod, "semidistributor endpoints")
    q, ta, tb = dom.base, dom.types, cod.types
    phi = SemiDistributor(dom, cod, _dense_matrix(q, cod.objects, dom.objects, mat, "entry"))
    bad = _first_excess(q, tb, ta, ta, phi.dense, dom.dense, phi.dense)
    if bad is not None:
        b, a1, a0 = cod.names[bad[0]], dom.names[bad[1]], dom.names[bad[2]]
        raise ActionFailure(
            f"Φ({b!r},{a1!r})∘A({a1!r},{a0!r}) ≰ Φ({b!r},{a0!r})",
            witness=("dom", b, a1, a0),
        )
    bad = _first_excess(q, tb, tb, ta, cod.dense, phi.dense, phi.dense)
    if bad is not None:
        b1, b0, a = cod.names[bad[0]], cod.names[bad[1]], dom.names[bad[2]]
        raise ActionFailure(
            f"B({b1!r},{b0!r})∘Φ({b0!r},{a!r}) ≰ Φ({b1!r},{a!r})",
            witness=("cod", b1, b0, a),
        )
    return phi


# -- the algebra of semidistributors ----------------------------------------


def bottom_semidist(dom: SemiCategory, cod: SemiCategory) -> SemiDistributor:
    _require_same_base(dom, cod, "semidistributor endpoints")
    return SemiDistributor(dom, cod, (lat.bottom for lat in _entry_lats(dom, cod)))


def identity_semidist(A: SemiCategory) -> SemiDistributor:
    """The hom matrix of A as an endo-semidistributor (not in general a unit)."""
    return SemiDistributor(A, A, A.dense)


def _product_entries(q, tr, tm, tc, L, R):
    """The product kernel: the entries (L⊗R)(r, c) = join over m of
    L(r, m)∘R(m, c), yielded one at a time in row-major order.

    ``tr``, ``tm`` and ``tc`` are the type tuples of the row, middle and
    column index sets; ``L`` (|tr|×|tm|), ``R`` (|tm|×|tc|) and the product
    (|tr|×|tc|) are flat row-major tuples of elements.  An entry is formed
    only when it is read, so a test that stops at the first difference
    (:func:`_product_is`) forms no entry past it.
    """
    nm, nc = len(tm), len(tc)
    plans = q._compose_plans
    for i, cod in enumerate(tr):
        row = L[i * nm : (i + 1) * nm]
        for k, dom in enumerate(tc):
            plan = plans.get((dom, cod, tm))
            if plan is None:
                lat = q.hom[(dom, cod)]
                tables = [q.compose_table[(dom, m, cod)] for m in tm]
                plan = plans[(dom, cod, tm)] = (lat._join2, lat.bottom, tables)
            join, acc, tables = plan
            for table, g, f in zip(tables, row, R[k::nc]):
                acc = join[acc][table[g][f]]
            yield acc


def _mat_compose(q, tr, tm, tc, L, R) -> tuple:
    """L⊗R as a flat row-major tuple: every entry of :func:`_product_entries`."""
    return tuple(_product_entries(q, tr, tm, tc, L, R))


def _product_is(q, tr, tm, tc, L, R, V) -> bool:
    """True iff L⊗R = V, for ``V`` of the product's shape: the entries are
    read in row-major order up to the first that differs."""
    return all(map(eq, _product_entries(q, tr, tm, tc, L, R), V))


def _lift_plan(q, dom, cod, tm):
    """The meet table, the top and the base lifting tables, one per middle
    type, of the residuation kernel's entries hom(dom, cod); built once per
    quantaloid and kept."""
    lat = q.hom[(dom, cod)]
    tables = [q._lift_table(dom, cod, m) for m in tm]
    plan = q._lift_plans[(dom, cod, tm)] = (lat._meet2, lat.top, tables)
    return plan


def _mat_lift(q, tr, tm, tc, L, R) -> tuple:
    """The residuation kernel: [L, R](r, c) = meet over m of the base lifting
    of L(m, r) into R(m, c).

    ``L`` is |tm|×|tr| and ``R`` is |tm|×|tc|; the result is |tr|×|tc|, all
    flat row-major tuples as for :func:`_mat_compose`.  This is the block
    loop; :func:`_lift_entry` is the entry loop over the same plans.
    """
    nr, nc = len(tr), len(tc)
    plans = q._lift_plans
    out = []
    for i, cod in enumerate(tr):
        col = L[i::nr]
        for k, dom in enumerate(tc):
            meet, acc, tables = plans.get((dom, cod, tm)) or _lift_plan(q, dom, cod, tm)
            for table, c, b in zip(tables, col, R[k::nc]):
                acc = meet[acc][table[c][b]]
            out.append(acc)
    return tuple(out)


def _lift_entry(q, cod, tm, dom, L, R, plan=None) -> int:
    """One entry of the residuation kernel: ``_mat_lift(q, (cod,), tm, (dom,), L, R)[0]``
    for the types ``cod`` and ``dom`` and the |tm|-vectors ``L`` and ``R``,
    without the block loop's slicing.  A caller that has already looked up
    the plan of (dom, cod, tm) passes it as ``plan``."""
    meet, acc, tables = plan or q._lift_plans.get((dom, cod, tm)) or _lift_plan(q, dom, cod, tm)
    for table, c, b in zip(tables, L, R):
        acc = meet[acc][table[c][b]]
    return acc


def _sparse(cod: SemiCategory, dom: SemiCategory, flat) -> dict:
    """A flat row-major matrix cod × dom as a dict keyed (b, a)."""
    return dict(zip(((b, a) for b in cod.names for a in dom.names), flat))


def _product(psi: SemiDistributor, phi: SemiDistributor):
    """The entries of Ψ⊗Φ, yielded in row-major order as
    :func:`_product_entries` yields them."""
    A, B, C = phi.dom, phi.cod, psi.cod
    return _product_entries(phi.base, C.types, B.types, A.types, psi.dense, phi.dense)


def compose_semidist(psi: SemiDistributor, phi: SemiDistributor) -> SemiDistributor:
    """(Ψ⊗Φ)(c, a) = join over b of Ψ(c, b)∘Φ(b, a)."""
    if psi.dom != phi.cod:
        raise TypeMismatch("composition needs cod(Φ) = dom(Ψ)")
    return validate_semidistributor(phi.dom, psi.cod, tuple(_product(psi, phi)))


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
    entries = zip(_entry_lats(first.dom, first.cod), *(p.dense for p in family))
    flat = tuple(lat.join(column) for lat, *column in entries)
    return validate_semidistributor(first.dom, first.cod, flat)


def leq_semidist(lo: SemiDistributor, hi: SemiDistributor) -> bool:
    """Entrywise order on parallel semidistributors."""
    if lo.dom != hi.dom or lo.cod != hi.cod:
        raise TypeMismatch("cannot compare semidistributors with different endpoints")
    entries = zip(_entry_lats(lo.dom, lo.cod), lo.dense, hi.dense)
    return all(lat.le(x, y) for lat, x, y in entries)


def lifting_dist(psi: SemiDistributor, phi: SemiDistributor) -> SemiDistributor:
    """[Ψ,Φ](c, a) = meet over b of the base lifting [Ψ(b,c), Φ(b,a)].

    For Ψ: C -/-> B and Φ: A -/-> B this is the largest matrix Ξ: A -/-> C
    with Ψ⊗Ξ <= Φ, the residuation being taken between the free categories.
    """
    if psi.cod != phi.cod:
        raise TypeMismatch("lifting needs a common codomain")
    A, B, C = phi.dom, phi.cod, psi.dom
    flat = _mat_lift(phi.base, C.types, B.types, A.types, psi.dense, phi.dense)
    return validate_semidistributor(A, C, flat)


def is_regular_semicat(A: SemiCategory) -> bool:
    """True iff the hom matrix is idempotent: A⊗A = A entrywise, as
    decided by :func:`validate_semicategory`."""
    return A.is_regular


def is_regular_semidist(phi: SemiDistributor) -> bool:
    """True iff Φ⊗A = Φ = B⊗Φ.

    Works on raw matrices too: the two equalities force the action
    inequalities, so enumeration code may filter unvalidated candidates.
    """
    return _is_regular_flat(phi.dom, phi.cod, phi.dense)


def _is_regular_flat(A: SemiCategory, B: SemiCategory, flat) -> bool:
    """Φ⊗A = Φ = B⊗Φ for a flat row-major matrix Φ: A -/-> B."""
    q, ta, tb = A.base, A.types, B.types
    return _product_is(q, tb, ta, ta, flat, A.dense, flat) and _product_is(
        q, tb, tb, ta, B.dense, flat, flat
    )


def _check_regular_pair(A, B):
    if not is_regular_semicat(A):
        raise NotRegular("first semicategory is not regular", witness=A)
    if not is_regular_semicat(B):
        raise NotRegular("second semicategory is not regular", witness=B)


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
    A, B, C = phi.dom, phi.cod, psi.dom
    return validate_semidistributor(A, C, _regular_lifting(A, B, C, psi.dense, phi.dense))


def _regular_lifting(A, B, C, psi, phi) -> tuple:
    """C⊗[Ψ,Φ]⊗A as a flat row-major tuple, for flat Ψ: C -/-> B and
    Φ: A -/-> B: the lifting of :func:`lifting_rsdist`, unvalidated."""
    q, ta, tb, tc = A.base, A.types, B.types, C.types
    core = _mat_compose(q, tc, ta, ta, _mat_lift(q, tc, tb, ta, psi, phi), A.dense)
    return _mat_compose(q, tc, tc, ta, C.dense, core)


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
    q, t, n, m = dom.base, dom.types, len(dom.types), len(cod.types)
    img = [cod.objects.index_of(mapping[a]) for a in dom.names]
    for i, a1 in enumerate(dom.names):
        for j, a0 in enumerate(dom.names):
            if not q.hom_lat(t[j], t[i]).le(dom.dense[i * n + j], cod.dense[img[i] * m + img[j]]):
                raise ActionFailure(f"A({a1!r},{a0!r}) ≰ B(F{a1!r},F{a0!r})", witness=(a1, a0))
    return SemiFunctor(dom, cod, mapping)


def graph_semidists(F: SemiFunctor):
    """The semidistributors B(-, F-): A -/-> B and B(F-, -): B -/-> A."""
    A, B = F.dom, F.cod
    m, dense = len(B.types), B.dense
    img = [B.objects.index_of(F.map[a]) for a in A.names]
    fwd = tuple(dense[i * m + k] for i in range(m) for k in img)
    bwd = tuple(e for k in img for e in dense[k * m : (k + 1) * m])
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


def _entry_lats(dom: SemiCategory, cod: SemiCategory) -> list:
    """The hom-lattice of every entry of a matrix dom -/-> cod, row-major."""
    q = dom.base
    return [q.hom_lat(ta, tb) for tb in cod.types for ta in dom.types]


def matrix_space(dom: SemiCategory, cod: SemiCategory, cap: int = DEFAULT_CAP):
    """The matrices dom -/-> cod as flat row-major tuples, the form of
    :attr:`SemiDistributor.dense`, in lexicographic entry order, with their count.

    Returns ``(size, generator)``.  A space of more than ``cap`` matrices
    raises :class:`SearchCapExceeded`, with its size as witness, before any
    matrix is formed.
    """
    _require_same_base(dom, cod, "matrix endpoints")
    sizes = [lat.size for lat in _entry_lats(dom, cod)]
    total = math.prod(sizes)
    if total > cap:
        raise SearchCapExceeded(f"matrix space of size {total} exceeds cap {cap}", witness=total)
    return total, itertools.product(*map(range, sizes))


def enumerate_regular_semidists(dom: SemiCategory, cod: SemiCategory, cap: int):
    """All regular semidistributors dom -/-> cod, lexicographically ordered."""
    _, space = matrix_space(dom, cod, cap)
    regular = (flat for flat in space if _is_regular_flat(dom, cod, flat))
    return [validate_semidistributor(dom, cod, flat) for flat in regular]
