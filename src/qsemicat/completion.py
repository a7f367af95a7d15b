"""Splitting idempotents in a quantaloid.

Objects of the idempotent completion are the idempotent endo-arrows of the
base; the arrows between two idempotents are the base arrows fixed by them
on both sides.  Those fixed sets are join-closed, so each hom is again a
sup-lattice and the whole thing a quantaloid, with every idempotent acting
as its own identity.  The same recipe applied to matrices over the base is
exactly the calculus of regular semicategories, which
:func:`verify_rsdist_is_idm_matr` checks on finite instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, product
from operator import and_, eq, itemgetter

from .errors import ActionFailure, NotIdempotent, SearchCapExceeded, TypeMismatch
from .lattice import (
    join_closed_sublattice,
    # unused here since homs are restricted from the base; kept because bench/ wraps it
    # as a module-boundary name of this module
    validate_sup_lattice,  # noqa: F401
)
from .quantaloid import QArrow, Quantaloid, at_triples, validate_quantaloid
from .semicat import (
    DEFAULT_CAP,
    SemiCategory,
    SemiDistributor,
    _check_regular_pair,
    _is_regular_flat,
    _product,
    identity_semidist,
    is_regular_semicat,  # noqa: F401 -- unused; bench/ wraps it as a name of this module
    is_regular_semidist,
    matrix_space,
    validate_semidistributor,
)


def _is_idempotent(q: Quantaloid, e: QArrow) -> bool:
    """True iff ``e`` is an endo-arrow of ``q`` with its element in range and e∘e = e."""
    x, i = e.dom, e.elem
    if x != e.cod or x not in q.objects or not 0 <= i < q.hom[(x, x)].size:
        return False
    return q.compose_table[(x, x, x)][i][i] == i


def idempotents(q: Quantaloid):
    """All endo-arrows e with e∘e = e, in object-then-element order."""
    arrows = (QArrow(x, x, e) for x in q.objects for e in range(q.hom[(x, x)].size))
    return [e for e in arrows if _is_idempotent(q, e)]


def _idm_tag(e: QArrow) -> str:
    return f"{e.dom}|{e.elem}"


class IdmQuantaloid:
    """The idempotent-splitting completion, materialised as a quantaloid.

    ``objects`` are the idempotents of the base; ``hom_elements`` records,
    per pair of idempotents, which base elements survive the two-sided
    fixing condition.  ``quantaloid`` is the reindexed validated result.
    """

    __slots__ = ("base", "objects", "hom_elements", "quantaloid")

    def __init__(self, base, objects, hom_elements, quantaloid):
        self.base = base
        self.objects = objects
        self.hom_elements = hom_elements
        self.quantaloid = quantaloid

    def tag(self, e: QArrow) -> str:
        return _idm_tag(e)

    def __repr__(self):
        return f"<idempotent completion on {len(self.objects)} objects>"


def build_idm(q: Quantaloid) -> IdmQuantaloid:
    """Split all idempotents of a finite quantaloid.

    Each distinct (base pair, fixed set) gets an id and one hom-lattice, and
    lattices with equal orders are one object.  Each table is built once per
    triple of fixed-set ids and interned, so the validator gets them shared.
    """
    objs = idempotents(q)
    tags, n, comp = [_idm_tag(e) for e in objs], len(objs), q.compose_table
    # per idempotent e and base object y: b∘e = b for b in hom(e.dom, y), and e∘b = b
    # for b in hom(y, e.dom); each pair's fixed set is the intersection
    right, left = [], []
    for e in objs:
        x, at_e = e.dom, itemgetter(e.elem)
        right.append({y: tuple(map(eq, map(at_e, comp[(x, x, y)]), count())) for y in q.objects})
        left.append({y: tuple(map(eq, comp[(y, x, x)][e.elem], count())) for y in q.objects})
    fixed_keys = (
        (e.dom, f.dom, tuple(compress(count(), map(and_, by_e[f.dom], by_f[e.dom]))))
        for (e, by_e), (f, by_f) in product(zip(objs, right), zip(objs, left))
    )
    ids = {}  # (base pair, fixed set) -> its id
    pair_id = [ids.setdefault(key, len(ids)) for key in fixed_keys]
    fixed_sets, orders = list(ids), {}
    # b ↦ b∘e and b ↦ f∘b preserve ⊥ and joins, so a fixed set holds ⊥ and is
    # join-closed, and inherits the base order and joins
    lats = [join_closed_sublattice(q.hom_lat(x, y), fixed, orders) for x, y, fixed in fixed_sets]
    pos = [{b: i for i, b in enumerate(fixed)} for _, _, fixed in fixed_sets]

    # each table maps whole base rows through the fixed-element positions
    keys = list(zip(*at_triples(pair_id, n)))
    interned, built = {}, {}
    for key in dict.fromkeys(keys):
        (x, y, fixed_ef), (_, z, fixed_fg) = fixed_sets[key[0]], fixed_sets[key[1]]
        base, to_pos = comp[(x, y, z)], pos[key[2]]
        rows = [base[c] for c in fixed_fg]
        table = tuple([tuple([to_pos[row[b]] for b in fixed_ef]) for row in rows])
        built[key] = interned.setdefault(table, table)

    pairs = list(product(tags, repeat=2))
    hom_elements = dict(zip(pairs, (fixed_sets[i][2] for i in pair_id)))
    homs = dict(zip(pairs, map(lats.__getitem__, pair_id)))
    compose = dict(zip(product(tags, repeat=3), map(built.__getitem__, keys)))
    identities = {te: pos[i][e.elem] for e, te, i in zip(objs, tags, pair_id[:: n + 1])}
    quant = validate_quantaloid(tags, homs, compose, identities)
    return IdmQuantaloid(q, tuple(objs), hom_elements, quant)


def idm_lifting(q: Quantaloid, e: QArrow, f: QArrow, g: QArrow, b: int, c: int) -> int:
    """The lifting in the completion: g∘[c,b]∘e, as a base element.

    ``b`` is an arrow e -> f and ``c`` an arrow g -> f.
    """
    for idem in (e, f, g):
        if not _is_idempotent(q, idem):
            raise NotIdempotent(f"{idem} is not an idempotent endo-arrow", witness=idem)
    _require_fixed(q, e, f, b)
    _require_fixed(q, g, f, c)
    A, B, C = e.dom, f.dom, g.dom
    core = q.lifting_elem(A, C, B, c, b)
    return q.compose_elems(A, A, C, q.compose_elems(A, C, C, g.elem, core), e.elem)


def _require_fixed(q, e, f, arrow_elem):
    A, B = e.dom, f.dom
    lat = q.hom_lat(A, B)
    if not 0 <= arrow_elem < lat.size:
        raise TypeMismatch(f"element {arrow_elem} out of range", witness=arrow_elem)
    if (
        q.compose_elems(A, A, B, arrow_elem, e.elem) != arrow_elem
        or q.compose_elems(A, B, B, f.elem, arrow_elem) != arrow_elem
    ):
        raise TypeMismatch(
            f"element {arrow_elem} is not an arrow {e} -> {f}", witness=(e, f, arrow_elem)
        )


def split_idempotent_in_idm(q: Quantaloid, e: QArrow, t: int):
    """Split an idempotent arrow t: e -> e of the completion.

    Returns ``(object, section, retraction)``: the new object is the base
    idempotent t itself, and both structural arrows are carried by t.  The
    retraction after the section is the identity on the new object, and the
    section after the retraction is t back on e.
    """
    if not _is_idempotent(q, e):
        raise NotIdempotent(f"{e} is not an idempotent endo-arrow", witness=e)
    _require_fixed(q, e, e, t)
    obj = QArrow(e.dom, e.dom, t)
    if not _is_idempotent(q, obj):
        raise NotIdempotent(f"{t} is not idempotent on {e}", witness=t)
    # t carries both structural arrows with no further check: t∘e = e∘t = t = t∘t,
    # so t is an arrow e -> t and t -> e, and both splitting composites are t∘t = t
    section = (e, obj, t)
    retraction = (obj, e, t)
    return obj, section, retraction


@dataclass
class RsdistIdmReport:
    """Outcome of checking the matrix calculus against the idempotent recipe."""

    ok: bool
    regular_semidistributors: int
    compatible_matrices: int
    detail: str = ""

    def __bool__(self):
        return self.ok


def verify_rsdist_is_idm_matr(
    A: SemiCategory, B: SemiCategory, cap: int = DEFAULT_CAP
) -> RsdistIdmReport:
    """Check that regular semidistributors A -/-> B are exactly the matrices
    fixed by the idempotent hom matrices of A and B, and that composition
    and identities agree with the completion's recipe."""
    _check_regular_pair(A, B)

    def scan(dom, cod):
        # every matrix dom -/-> cod, with its semidistributor when "regular":
        # regular and a semidistributor by the entrywise action inequalities
        total, space = matrix_space(dom, cod)
        if total > cap:
            raise SearchCapExceeded(
                f"matrix space of size {total} exceeds cap {cap}", witness=total
            )
        for flat in space:
            cand = SemiDistributor(dom, cod, flat)
            phi = None
            if is_regular_semidist(cand):
                try:
                    phi = validate_semidistributor(dom, cod, flat)
                except ActionFailure:
                    pass
            yield cand, phi

    # "compatible": fixed by the identity semidistributors
    ida, idb = identity_semidist(A), identity_semidist(B)
    regular_ab, compatible_ab = [], []
    for cand, phi in scan(A, B):
        if phi is not None:
            regular_ab.append(phi)
        # each product is read only up to its first entry that differs
        flat = cand.dense
        if all(map(eq, _product(cand, ida), flat)) and all(map(eq, _product(idb, cand), flat)):
            compatible_ab.append(flat)
    if [phi.dense for phi in regular_ab] != compatible_ab:
        return RsdistIdmReport(False, len(regular_ab), len(compatible_ab), "hom sets differ")

    # the identities act as units on every phi, which was admitted to
    # compatible_ab by exactly that test; composites with the reverse homs
    # must stay in the hom
    regular_ba = [psi for _, psi in scan(B, A) if psi is not None]
    for phi in regular_ab:
        for psi in regular_ba:
            if not _is_regular_flat(A, A, tuple(_product(psi, phi))):
                return RsdistIdmReport(
                    False, len(regular_ab), len(compatible_ab), "composite leaves the hom"
                )
    return RsdistIdmReport(True, len(regular_ab), len(compatible_ab))
