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

import math
from operator import getitem

from .errors import (
    ActionFailure,
    EnumerationCapExceeded,
    NotACategory,
    NotRegular,
    TypeMismatch,
)
from .quantaloid import Quantaloid
from .semicat import (
    DEFAULT_CAP,
    SemiCategory,
    SemiDistributor,
    SemiFunctor,
    _first_excess,
    _has_units,
    _lift_entry,
    _lift_plan,
    _mat_compose,
    _mat_lift,
    _product_is,
    _require_same_base,
    is_regular_semicat,
    validate_semicategory,
    validate_semidistributor,
    validate_typed_set,
)

CONTRA = "contra"
CO = "co"


def unit_category(q: Quantaloid, x) -> SemiCategory:
    """The one-object category on x, its object named ``*``, whose single
    hom-arrow is the identity."""
    return validate_semicategory(q, [("*", x)], (q.identity[x],))


class Presheaf:
    """A presheaf on a semicategory, stored as its tuple of value elements.

    ``values`` is aligned with the carrier's object order, one value per
    object (checked at construction).  Presheaves
    compare by exact value equality; isomorphism of presheaves is a
    question about the category they live in, not about their raw values.
    ``_action`` and ``_res`` keep the action and the residual once each is
    computed; equality and hashing ignore them.
    """

    __slots__ = ("carrier", "qtype", "variance", "values", "_action", "_res")

    def __init__(self, carrier: SemiCategory, qtype, variance: str, values):
        if variance not in (CONTRA, CO):
            raise TypeMismatch(f"unknown variance {variance!r}")
        self.carrier = carrier
        self.qtype = qtype
        self.variance = variance
        self.values = tuple(values)
        if len(self.values) != len(carrier.types):
            raise TypeMismatch(
                f"presheaf has {len(self.values)} values, not {len(carrier.types)}",
                witness=len(self.values),
            )
        self._action = None
        self._res = None

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
            and (self.carrier is other.carrier or self.carrier == other.carrier)
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


def _space(A: SemiCategory, x, variance: str, cap: int):
    """The contravariant carrier of this variance and the hom-lattices
    hom(x, t(a)) that the values of a presheaf of type x range over.

    The candidate space is their product; if its size exceeds ``cap`` an
    :class:`EnumerationCapExceeded` is raised before any work is done.
    """
    q = A.base
    if x not in q.objects:
        raise TypeMismatch(f"{x!r} is not an object of the base", witness=x)
    C = _contra(A, variance)
    lats = [C.base.hom_lat(x, t) for t in C.types]
    total = math.prod(lat.size for lat in lats)
    if total > cap:
        raise EnumerationCapExceeded(
            f"presheaf space of size {total} exceeds cap {cap}", witness=total
        )
    return C, lats


def _walk(C: SemiCategory, x, lats):
    """The values of every contravariant presheaf of type x on C, in
    lexicographic order.

    The walk fixes the entries depth-first in object order, each trying its
    values in increasing order, and prunes as soon as an action inequality
    C(b, a)∘φ(a) ≤ φ(b) between fixed entries fails.  Against the fixed
    entries a < d and b < d those inequalities confine φ(d) to an interval:
    at least the join of the C(d, a)∘φ(a), at most the meet of the liftings
    of φ(b) through C(b, d).  C(d, d)∘φ(d) ≤ φ(d) does not depend on the
    other entries, so its solutions are listed once per entry.
    """
    q, t, dense = C.base, C.types, C.dense
    n = len(t)
    if n == 0:
        return [()]
    # act[d][a][v] = C(d, a)∘v and lift[d][b][w] = [C(b, d), w], both in hom(x, t(d))
    act = [[q.compose_table[(x, t[a], t[d])][dense[d * n + a]] for a in range(d)] for d in range(n)]
    lift = [[q._lift_table(x, t[d], t[b])[dense[b * n + d]] for b in range(d)] for d in range(n)]
    loops = []
    for d, lat in enumerate(lats):
        comp = q.compose_table[(x, t[d], t[d])][dense[d * (n + 1)]]
        loops.append([v for v in range(lat.size) if lat.leq[comp[v]][v]])

    def candidates(d):
        """The values of φ(d) that satisfy the inequalities against φ(0..d-1)."""
        lat = lats[d]
        lo, hi, join, meet = lat.bottom, lat.top, lat._join2, lat._meet2
        for row, v in zip(act[d], phi):
            lo = join[lo][row[v]]
        for row, w in zip(lift[d], phi):
            hi = meet[hi][row[w]]
        up, leq = lat.leq[lo], lat.leq
        return [v for v in loops[d] if up[v] and leq[v][hi]]

    out, phi, stack = [], [0] * n, []  # stack[k] runs through the candidates of φ(k)
    d = 0
    while True:
        if d == n - 1:
            head = tuple(phi[:d])
            out += [head + (v,) for v in candidates(d)]
        else:
            stack.append(iter(candidates(d)))
        while stack:
            v = next(stack[-1], None)
            if v is not None:
                break
            stack.pop()
        else:
            return out
        d = len(stack)
        phi[d - 1] = v


def enumerate_presheaves(A: SemiCategory, x, variance: str = CONTRA, cap: int = DEFAULT_CAP):
    """All presheaves of type x on A, in lexicographic value order.

    ``cap`` bounds the size of the candidate space, the product of the
    relevant hom-lattice sizes (see :func:`_space`); the presheaves are
    then found by the pruned walk of :func:`_walk`.
    """
    C, lats = _space(A, x, variance, cap)
    return [Presheaf(A, x, variance, values) for values in _walk(C, x, lats)]


def _regular_presheaves(A: SemiCategory, x, variance: str = CONTRA, cap: int = DEFAULT_CAP):
    """The regular presheaves of type x on A, in lexicographic value order."""
    return _regular_closure(A, x, variance, cap)[0]


def _regular_closure(A: SemiCategory, x, variance: str, cap: int):
    """The regular presheaves of type x on A, in lexicographic value order,
    and the join-closure they were found in.

    A regular φ is the join of the C(-, a)∘φ(a) over the objects a of the
    contravariant carrier C, so it lies in the join-closure of the
    generators C(-, a)∘f, f in hom(x, t(a)), started from the bottom
    presheaf.  The closure keeps the members that C⊗- fixes; on a regular
    carrier every member is fixed, because C⊗C = C and ⊗ preserves joins,
    so no action is formed.  Each returned presheaf keeps its action.
    ``cap`` bounds the candidate space as for :func:`enumerate_presheaves`.

    The closure is a dict from the values of each member, in the order
    found, to its parent pair (s, gen) with member = s ∨ gen, both found
    before it; the bottom and each generator new when reached map to None.
    """
    C, lats = _space(A, x, variance, cap)
    q, t, dense = C.base, C.types, C.dense
    n = len(t)
    joins = [lat._join2 for lat in lats]
    closure = {tuple(lat.bottom for lat in lats): None}
    for a in range(n):
        tables = [q.compose_table[(x, t[a], t[b])][dense[b * n + a]] for b in range(n)]
        for f in range(lats[a].size):
            gen = tuple(table[f] for table in tables)
            if gen not in closure:
                # the closure so far is join-closed, so this adds its joins with gen
                closure[gen] = None
                for s in list(closure):
                    closure.setdefault(tuple(map(getitem, map(getitem, joins, s), gen)), (s, gen))
    found = closure
    if not C.is_regular:
        found = [v for v in found if _product_is(q, t, t, (x,), dense, v, v)]
    out = []
    for values in sorted(found):
        phi = Presheaf(A, x, variance, values)
        phi._action = phi.values
        out.append(phi)
    return out, closure


def _yoneda_presheaves(A: SemiCategory, x, variance: str = CONTRA, cap: int = DEFAULT_CAP):
    """The Yoneda presheaves of type x on A, in lexicographic value order."""
    return [phi for phi in enumerate_presheaves(A, x, variance, cap) if is_yoneda_presheaf(phi)]


def yoneda(A: SemiCategory, a) -> Presheaf:
    """The representable contravariant presheaf A(-, a) of type t(a)."""
    return Presheaf(A, A.type_of(a), CONTRA, A.dense[A.objects.index_of(a) :: len(A.types)])


def yoneda_covariant(A: SemiCategory, a) -> Presheaf:
    """The representable covariant presheaf A(a, -) of type t(a)."""
    n, i = len(A.types), A.objects.index_of(a)
    return Presheaf(A, A.type_of(a), CO, A.dense[i * n : (i + 1) * n])


def presheaf_hom_elem(psi: Presheaf, phi: Presheaf) -> int:
    """The element of the presheaf-category hom from phi to psi, an arrow
    t(phi) -> t(psi) of the base.

    Contravariantly this is the meet of base liftings [ψ(a), φ(a)];
    covariantly the meet of base extensions of ψ(a) along φ(a).
    """
    A = phi.carrier
    if (psi.carrier is not A and psi.carrier != A) or psi.variance != phi.variance:
        raise TypeMismatch("presheaves live in different presheaf categories")
    C = _contra(A, phi.variance)
    if phi.variance == CO:
        # dualising reverses homs: phi -> psi on A is psi -> phi on A^op
        psi, phi = phi, psi
    return _lift_entry(C.base, psi.qtype, C.types, phi.qtype, psi.values, phi.values)


def is_regular_presheaf(phi: Presheaf) -> bool:
    """True iff composing with the carrier's hom matrix fixes phi."""
    return phi.values == _act(phi)


def _act(phi: Presheaf):
    """The values of A⊗φ (contravariant) or φ⊗A (covariant).

    Computed once per presheaf and kept on it.
    """
    if phi._action is None:
        C = _contra(phi.carrier, phi.variance)
        phi._action = _mat_compose(C.base, C.types, C.types, (phi.qtype,), C.dense, phi.values)
    return phi._action


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


def is_regular_via_liftings(phi: Presheaf, against) -> bool:
    """The colimit-style regularity test: against every presheaf of the
    pool ``against``, the hom out of phi decomposes through the
    representables.

    Against every presheaf of phi's category it must agree with
    :func:`is_regular_presheaf`; the two are independent routes to the same
    notion.  Callers sweeping one instance enumerate the pool once, so each
    residual is computed once; ``against`` may be any iterable, and its
    presheaves must live in phi's presheaf category.  A Yoneda ψ, whose
    residual is its values, gives the same lifting both ways and is skipped.
    """
    A = phi.carrier
    against = list(against)
    if any(
        (psi.carrier is not A and psi.carrier != A) or psi.variance != phi.variance
        for psi in against
    ):
        raise TypeMismatch("presheaves live in different presheaf categories")
    C = _contra(A, phi.variance)
    q, t, x, values = C.base, C.types, phi.qtype, phi.values
    plans = {}  # the lifting plan of the entries hom(y, x), by the type y of psi
    for psi in against:
        # the hom from psi to phi, directly and through the representables
        residual = _residual(psi)
        if residual == psi.values:
            continue
        y = psi.qtype
        plan = plans.get(y)
        if plan is None:
            plan = plans[y] = q._lift_plans.get((y, x, t)) or _lift_plan(q, y, x, t)
        if _lift_entry(q, x, t, y, values, psi.values, plan) != _lift_entry(
            q, x, t, y, values, residual, plan
        ):
            return False
    return True


# -- materialised presheaf categories ---------------------------------------


class QCategoryView(SemiCategory):
    """A finite Q-category materialised from computed data: a semicategory
    whose objects each carry a payload (e.g. a presheaf).

    ``objects`` is given as (name, type, payload) triples; names and types
    become the :class:`TypedSet` ``objects``, checked at construction, and
    the payloads ``payloads``, in the same order.  ``homs`` is the flat
    row-major tuple that :attr:`SemiCategory.dense` holds, whose length is
    checked.  ``is_category`` is read off the diagonal; ``check`` validates
    the composition inequalities once, on first use, and keeps the verdict.
    """

    __slots__ = ("payloads", "_checked")

    def __init__(self, base, objects, homs):
        objects = tuple(objects)
        ts = validate_typed_set([(name, t) for name, t, _ in objects], base)
        if len(homs) != len(ts) ** 2:
            raise TypeMismatch(
                f"hom entry matrix has {len(homs)} entries, not {len(ts) ** 2}",
                witness=len(homs),
            )
        super().__init__(base, ts, tuple(homs), _has_units(base, ts.types, homs))
        self.payloads = tuple(p for _, _, p in objects)
        self._checked = False

    def check(self):
        """Assert the full Q-category axioms; raises on violation.

        The composition inequalities are validated on the first call only.
        """
        if not self._checked:
            self._regular = validate_semicategory(self.base, self.objects, self.dense).is_regular
            self._checked = True
        if not self.is_category:
            raise NotACategory("view violates a unit-inequality", witness=self)
        return True


def _columns(vectors) -> tuple:
    """The flat row-major matrix whose column i holds the i-th vector."""
    return tuple(e for row in zip(*vectors) for e in row)


def _build_view(A, variance, pools, closures=None):
    """The view on the presheaves of ``pools``, a dict from each type x to a
    list of presheaves of type x on A of this variance, named x#i in list
    order.  Every hom comes from one block residual: column i of the matrix
    holds the values of object i, and [M, M](i, k) is the contravariant hom
    from object k to object i.

    ``closures``, when given, maps each type to the join-closure of
    :func:`_regular_closure` that its pool was kept from.  A lifting turns a
    join in its first argument into a meet, so the row of a member s ∨ gen
    is the entrywise meet of the rows of s and gen, and only the rows of the
    members without a parent come from the block residual [R, M], column i
    of R holding the values of the i-th of them."""
    objects = [(f"{x}#{i}", x, phi) for x, pool in pools.items() for i, phi in enumerate(pool)]
    C = _contra(A, variance)
    q, n = C.base, len(objects)
    types = tuple(x for _, x, _ in objects)
    M = _columns(phi.values for _, _, phi in objects)
    if closures is None:
        homs = _mat_lift(q, types, C.types, types, M, M)
    else:
        homs = []
        for x, pool in pools.items():
            closure = closures[x]
            roots = [m for m, parent in closure.items() if parent is None]
            block = _mat_lift(q, (x,) * len(roots), C.types, types, _columns(roots), M)
            rows = {m: block[i * n : (i + 1) * n] for i, m in enumerate(roots)}
            # the meet table of hom(y, x) for every column of type y
            meets = [q.hom[(y, x)]._meet2 for y in types]
            for m, parent in closure.items():
                if parent is not None:
                    s, gen = parent
                    rows[m] = tuple(map(getitem, map(getitem, meets, rows[s]), rows[gen]))
            for phi in pool:
                homs += rows[phi.values]
    if variance == CO:
        # dualising reverses homs: phi -> psi on A is psi -> phi on A^op
        homs = tuple(e for i in range(n) for e in homs[i::n])
    return QCategoryView(A.base, objects, homs)


def build_PA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The Q-category of all presheaves on A (equal to that of its free category)."""
    return _build_view(
        A, variance, {x: enumerate_presheaves(A, x, variance, cap) for x in A.base.objects}
    )


def build_RA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The full subcategory of regular presheaves, found by join-closure; its
    rows are meets along the closure (see :func:`_build_view`)."""
    pools, closures = {}, {}
    for x in A.base.objects:
        pools[x], closures[x] = _regular_closure(A, x, variance, cap)
    return _build_view(A, variance, pools, closures)


def build_YA(A: SemiCategory, variance: str = CONTRA, cap: int = DEFAULT_CAP) -> QCategoryView:
    """The full subcategory of Yoneda presheaves."""
    return _build_view(
        A, variance, {x: _yoneda_presheaves(A, x, variance, cap) for x in A.base.objects}
    )


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
    if psi.carrier is not A and psi.carrier != A:
        raise TypeMismatch("presheaf does not live on the given carrier")
    return Presheaf(A, psi.qtype, psi.variance, _act(psi))


def map_k(A: SemiCategory, theta: Presheaf) -> Presheaf:
    """Send a regular presheaf to the Yoneda presheaf with the same homs."""
    if not is_regular_semicat(A):
        raise NotRegular("k needs a regular carrier", witness=A)
    if theta.carrier is not A and theta.carrier != A:
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
        # the objects missed and the keys that name no object
        odd = tuple(sorted(set(fmap) ^ set(C.names), key=str))
        raise TypeMismatch("object map does not cover the weight's codomain", witness=odd)
    presheaves = [fmap[c] for c in C.names]
    carrier = presheaves[0].carrier if presheaves else None
    if carrier is None:
        raise TypeMismatch("empty diagram has no carrier to land in")
    _require_same_base(theta, carrier, "weight and carrier")
    if not is_regular_semicat(carrier):
        raise NotRegular("colimits are computed in RA of a regular carrier", witness=carrier)
    q = carrier.base
    for c in C.names:
        phi = fmap[c]
        if (phi.carrier is not carrier and phi.carrier != carrier) or phi.variance != CONTRA:
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
