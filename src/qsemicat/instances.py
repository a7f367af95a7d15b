"""Order-theoretic and locale-theoretic instances.

Transitive relations are semicategories over the two-element quantaloid,
interpolation is idempotence of the relation matrix, the way-below relation
of a finite poset is its order (every finite directed set holds its join),
and Scott opens and closeds fall out as the covariant regular and
contravariant Yoneda presheaves of the way-below semicategory.  An
Omega-valued equality on a set is a symmetric regular semicategory over the
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ActionFailure,
    CompositionFailure,
    NotAPartialOrder,
    NotSymmetric,
    NotTransitive,
    NotTransitiveEq,
    TypeMismatch,
)
from .lattice import order_rows
from .presheaf import (
    CO,
    CONTRA,
    _regular_presheaves,
    _yoneda_presheaves,
)
from .quantaloid import Quantaloid, builtin_quantaloid
from .semicat import (
    SemiCategory,
    SemiDistributor,
    TypedSet,
    is_regular_semidist,
    right_adjoint,
    validate_semicategory,
    validate_semidistributor,
)


class FinitePoset:
    """A finite partial order on named elements."""

    __slots__ = ("elements", "leq")

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.leq = leq

    def le(self, x, y) -> bool:
        return self.leq[(x, y)]

    def __repr__(self):
        return f"FinitePoset({list(self.elements)})"


def _relation(elements, pairs):
    """The distinct ``elements``, their positions and ``pairs`` as a list;
    refuses two elements equal in Python but named differently (1 and True),
    two with one object name str(x), then the first pair that names an
    element not listed, or a listed one under another name (True for 1).
    Every relation builder and every Omega-set reads this."""
    seen = {}
    for x in elements:
        y = seen.setdefault(x, x)
        if str(y) != str(x):
            raise TypeMismatch(f"{y!r} and {x!r} are equal but named differently", witness=(y, x))
    elements, pairs = tuple(seen), list(pairs)
    TypedSet((x, None) for x in elements)
    index = {x: i for i, x in enumerate(elements)}
    names = list(map(str, elements))

    def listed(x):
        # by name: True does not name a listed 1
        return x in index and str(x) == names[index[x]]

    for x, y in pairs:
        if not (listed(x) and listed(y)):
            raise TypeMismatch(f"pair ({x!r}, {y!r}) names unknown elements", witness=(x, y))
    return elements, index, pairs


def validate_poset(elements, pairs) -> FinitePoset:
    """Build a poset from generating pairs (x, y) meaning x <= y."""
    elements, index, pairs = _relation(elements, pairs)
    up, _, equivalent = order_rows(len(elements), [(index[x], index[y]) for x, y in pairs])
    if equivalent is not None:
        x, y = (elements[i] for i in equivalent)
        raise NotAPartialOrder(f"{x!r} and {y!r} are order-equivalent", witness=(x, y))
    leq = {
        (x, y): bool(row >> j & 1) for x, row in zip(elements, up) for j, y in enumerate(elements)
    }
    return FinitePoset(elements, leq)


def _transitive_rows(elements, pairs):
    """``(elements, succ)`` for a relation read by :func:`_relation` and
    checked to be transitive: bit j of ``succ[i]`` is set iff the i-th
    element is related to the j-th.  A failure names the first (x, y) in
    pair order whose y has a successor z that x lacks, and the first such
    (y, z) in pair order."""
    elements, index, pairs = _relation(elements, pairs)
    succ = [0] * len(elements)
    for x, y in pairs:
        succ[index[x]] |= 1 << index[y]
    for x, y in pairs:
        missing = succ[index[y]] & ~succ[index[x]]
        if missing:
            z = next(z for y2, z in pairs if y2 == y and missing >> index[z] & 1)
            raise NotTransitive(
                f"({x!r}, {y!r}) and ({y!r}, {z!r}) without ({x!r}, {z!r})",
                witness=(x, y, z),
            )
    return elements, succ


def strict_order_to_semicat(elements, pairs) -> SemiCategory:
    """A transitive relation as a semicategory over the two-element quantaloid.

    The hom entry at key (x, y) is top exactly when (x, y) is in the
    relation; loops are allowed, so any transitive relation qualifies, with
    strict orders as the motivating case.
    """
    elements, succ = _transitive_rows(elements, pairs)
    q = builtin_quantaloid("2")
    obj = q.objects[0]
    # flat: TypedSet names objects by str(x), which a dict keyed by x would miss
    hom = tuple(row >> j & 1 for row in succ for j in range(len(elements)))
    return validate_semicategory(q, [(x, obj) for x in elements], hom)


def has_interpolation(elements, pairs) -> bool:
    """True iff every related pair factors through a middle element.

    Equivalent to idempotence of the relation matrix, and to regularity of
    the associated semicategory; the three routes are asserted against each
    other in the test-suite.
    """
    _, succ = _transitive_rows(elements, pairs)
    for row in succ:
        through = 0  # the successors of row's successors
        for j, row_j in enumerate(succ):
            if row >> j & 1:
                through |= row_j
        if row & ~through:
            return False
    return True


def way_below(P: FinitePoset):
    """The way-below relation of a finite poset, which is its order.

    x is way below y iff every directed subset D with y ≤ ⋁D holds an
    element above x, and a finite directed set holds its join.  The
    directed set {y} shows that x ≤ y is needed; x ≤ y ≤ ⋁D ∈ D shows that
    it is enough.
    """
    return {pair for pair, below in P.leq.items() if below}


def _way_below_subsets(P: FinitePoset, variance, presheaves):
    """The supports of the presheaves that ``presheaves`` lists on the
    way-below semicategory, as sets of the poset's own elements, by size and
    then by the positions of their elements in ``P.elements``."""
    W = strict_order_to_semicat(P.elements, way_below(P))
    obj = W.base.objects[0]
    supports = [
        tuple(i for i, v in enumerate(phi.values) if v == 1)
        for phi in presheaves(W, obj, variance)
    ]
    supports.sort(key=lambda s: (len(s), s))
    return [frozenset(P.elements[i] for i in s) for s in supports]


def scott_opens(P: FinitePoset):
    """The Scott-open subsets: covariant regular presheaves of the way-below semicategory."""
    return _way_below_subsets(P, CO, _regular_presheaves)


def scott_closeds(P: FinitePoset):
    """The Scott-closed subsets: contravariant Yoneda presheaves of the way-below semicategory."""
    return _way_below_subsets(P, CONTRA, _yoneda_presheaves)


# -- Omega-sets ---------------------------------------------------------------


class OmegaSet:
    """A set with an Omega-valued symmetric transitive equality."""

    __slots__ = ("frame", "elements", "eq", "_semicat")

    def __init__(self, frame, elements, eq, semicat):
        self.frame = frame
        self.elements = elements
        self.eq = eq
        self._semicat = semicat

    def as_semicategory(self) -> SemiCategory:
        """The equality as the semicategory over the frame, validated once."""
        return self._semicat

    def __repr__(self):
        return f"OmegaSet({list(self.elements)})"


def validate_omega_set(frame: Quantaloid, elements, eq) -> OmegaSet:
    """Check symmetry and the triangle law of an equality matrix.

    ``frame`` must be a one-object quantaloid with top as identity and the
    meet table as composition (as :func:`qsemicat.quantaloid.from_frame`
    builds); ``eq`` maps element pairs to lattice elements, omitted pairs
    default to bottom.
    """
    if len(frame.objects) != 1:
        raise TypeMismatch("an Omega-set needs a one-object base", witness=frame.objects)
    obj = frame.objects[0]
    lat = frame.hom_lat(obj, obj)
    table, unit = frame.compose_table[(obj, obj, obj)], frame.identity[obj]
    if unit != lat.top or table != lat._meet2:
        # the identity when it is not top, else the first (g, f) with g∘f ≠ g∧f
        flat = [gf != m for row, meets in zip(table, lat._meet2) for gf, m in zip(row, meets)]
        bad = unit if unit != lat.top else divmod(flat.index(True), lat.size)
        raise TypeMismatch("the base quantaloid is not a frame with meet composition", witness=bad)
    elements = _relation(elements, ())[0]
    # keys by name: (True, True) does not name the pair (1, 1)
    names = {(x, y): (str(x), str(y)) for x in elements for y in elements}
    for key in eq:
        if key not in names or tuple(map(str, key)) != names[key]:
            raise TypeMismatch(f"equality {key} names unknown elements", witness=key)
    full = {}
    for x in elements:
        for y in elements:
            e = eq.get((x, y), lat.bottom)
            if not 0 <= e < lat.size:
                raise TypeMismatch(f"[{x!r}={y!r}] = {e} out of range", witness=(x, y))
            full[(x, y)] = e
    for x in elements:
        for y in elements:
            if full[(x, y)] != full[(y, x)]:
                raise NotSymmetric(f"[{x!r}={y!r}] != [{y!r}={x!r}]", witness=(x, y))
    # composition is meet, so the triangle law [x=y] ∧ [y=z] ≤ [x=z] is the
    # semicategory axiom E⊗E ≤ E, whose witness is the first failing (x, y, z).
    # The matrix goes in flat and the witness is mapped back, because TypedSet
    # names objects by str(x), which a dict keyed by x would miss.
    flat = tuple(full[(x, y)] for x in elements for y in elements)
    try:
        semicat = validate_semicategory(frame, [(x, obj) for x in elements], flat)
    except CompositionFailure as exc:
        given = dict(zip(map(str, elements), elements))
        x, y, z = (given[name] for name in exc.witness)
        raise NotTransitiveEq(
            f"[{x!r}={y!r}] ∧ [{y!r}={z!r}] ≰ [{x!r}={z!r}]", witness=(x, y, z)
        ) from None
    return OmegaSet(frame, elements, full, semicat)


def omega_subsets(E: OmegaSet):
    """The subobjects of an Omega-set: regular contravariant presheaves on it."""
    A = E.as_semicategory()
    obj = E.frame.objects[0]
    return _regular_presheaves(A, obj, CONTRA)


def is_omega_morphism(phi: SemiDistributor) -> bool:
    """True iff the semidistributor is regular and has a right adjoint."""
    if not is_regular_semidist(phi):
        return False
    return right_adjoint(phi) is not None


@dataclass
class ScottContinuityReport:
    """Verdict of the way-below continuity condition for an object map."""

    continuous: bool
    graph_is_semidistributor: bool
    graph_regular: bool

    def __bool__(self):
        return self.continuous


def scott_continuity_check(f, P: FinitePoset, Q: FinitePoset) -> ScottContinuityReport:
    """Check b << f(a) iff some x has b << f(x) and x << a, over all a, b.

    Also reports whether the graph of f between the way-below
    semicategories is a (regular) semidistributor; continuity implies
    regularity of the graph, the converse direction is reported, never
    assumed.
    """
    f = dict(f)
    if set(f) != set(P.elements):
        missed = [a for a in P.elements if a not in f] + [a for a in f if a not in P.elements]
        raise TypeMismatch("map does not cover its domain", witness=missed[0])
    off = next(((a, f[a]) for a in P.elements if f[a] not in Q.elements), None)
    if off is not None:
        raise TypeMismatch("map leaves its codomain", witness=off)
    wb_p = way_below(P)
    wb_q = way_below(Q)
    # way-below is the order; x = a and b = f(x) reduce the definition to monotonicity
    continuous = all((f[x], f[a]) in wb_q for x, a in wb_p)

    WP = strict_order_to_semicat(P.elements, wb_p)
    WQ = strict_order_to_semicat(Q.elements, wb_q)
    flat = tuple(int((b, f[a]) in wb_q) for b in Q.elements for a in P.elements)
    try:
        graph = validate_semidistributor(WP, WQ, flat)
    except ActionFailure:
        return ScottContinuityReport(continuous, False, False)
    return ScottContinuityReport(continuous, True, is_regular_semidist(graph))
