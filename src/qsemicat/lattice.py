"""Finite sup-lattices.

Elements are dense indices ``0..size-1``.  The order is given extensionally
as a set of pairs and validated on int bitsets of up-sets and down-sets,
from which the join and meet tables are read.  Everything downstream
brute-forces over elements, so nothing here is lazy.
"""

from __future__ import annotations

from functools import cache

from .errors import MissingJoin, NotAPartialOrder


class SupLattice:
    """A validated finite complete lattice.

    Instances come from :func:`validate_sup_lattice` and are immutable.
    ``join`` and ``meet`` accept arbitrary iterables of element indices,
    including empty ones (yielding bottom and top respectively).
    ``join_irreducibles`` lists, in increasing index order, the elements
    that are not the join of the elements strictly below them; every
    element is the join of the join-irreducibles below it.
    """

    __slots__ = ("size", "leq", "bottom", "top", "join_irreducibles", "_join2", "_meet2")

    def __init__(self, size, leq, bottom, join2, meet2):
        self.size = size
        self.leq = leq
        self.bottom = bottom
        self._join2 = join2
        self._meet2 = meet2
        self.top = self.join(range(size))
        self.join_irreducibles = tuple(
            x
            for x in range(size)
            if self.join(y for y in range(size) if y != x and leq[y][x]) != x
        )

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def join2(self, i: int, j: int) -> int:
        return self._join2[i][j]

    def meet2(self, i: int, j: int) -> int:
        return self._meet2[i][j]

    def join(self, elems) -> int:
        acc = self.bottom
        for x in elems:
            acc = self._join2[acc][x]
        return acc

    def meet(self, elems) -> int:
        acc = self.top
        for x in elems:
            acc = self._meet2[acc][x]
        return acc

    def __eq__(self, other):
        if not isinstance(other, SupLattice):
            return NotImplemented
        return self.size == other.size and self.leq == other.leq

    def __hash__(self):
        return hash((self.size, self.leq))

    def __repr__(self):
        return f"SupLattice(size={self.size})"


def order_rows(size: int, pairs):
    """``(up, down, equivalent)`` for the reflexive-transitive closure of
    order pairs ``(i, j)``, i <= j: ``up[i]`` has bit j set iff i <= j,
    ``down[j]`` bit i, and ``equivalent`` is the first pair i < j with
    j <= i, in lexicographic order, or None.  Raises ``ValueError`` on a
    pair out of range."""
    if size < 0:
        raise ValueError("size must be non-negative")
    up = [1 << i for i in range(size)]
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"order pair ({i}, {j}) out of range for size {size}")
        up[i] |= 1 << j
    # transitive closure: every element below k is below all that k is below
    for k in range(size):
        bit, row_k = 1 << k, up[k]
        for i in range(size):
            if up[i] & bit:
                up[i] |= row_k
    down = [sum(1 << i for i in range(size) if up[i] >> j & 1) for j in range(size)]
    for i in range(size):
        later = (up[i] & down[i]) >> (i + 1)
        if later:
            return up, down, (i, i + (later & -later).bit_length())
    return up, down, None


def validate_sup_lattice(size: int, pairs) -> SupLattice:
    """Build a sup-lattice from generating order pairs ``(i, j)`` meaning i <= j.

    The reflexive-transitive closure of the pairs is taken first; a cycle
    between distinct elements raises :class:`NotAPartialOrder`, and a subset
    without a least upper bound raises :class:`MissingJoin` (the empty
    subset, i.e. a missing bottom, or a pair suffice as witnesses: joins of
    larger finite subsets follow by folding).  The first order-equivalent
    pair (i < j) and the first pair without a join are named, each in
    lexicographic order.

    The order is held as the int bitsets of :func:`order_rows`.  Ranking
    the elements by a linear extension (fewer elements below first, then by
    index) makes joins and meets single bit operations:

    * If i and j have a least upper bound u, every other upper bound v has
      u < v, so strictly more elements below it, and u is the upper bound
      of lowest rank.  So the lowest-ranked upper bound is the join exactly
      when it lies below every upper bound, and the pair has no join
      otherwise (or when it has no upper bound at all).
    * In a lattice the meet is the greatest common lower bound, so by the
      same argument the common lower bound of highest rank.
    * Joins and meets are symmetric and i∨i = i, so the first pair without
      a join in lexicographic order has i < j, and only those are searched.
    """
    up, down, equivalent = order_rows(size, pairs)
    if equivalent is not None:
        i, j = equivalent
        raise NotAPartialOrder(f"elements {i} and {j} are order-equivalent", witness=(i, j))

    full = (1 << size) - 1
    bottom = next((b for b in range(size) if up[b] == full), None)
    if bottom is None:
        raise MissingJoin("the empty subset has no join (no bottom element)", witness=())

    # the same bitsets over ranks: rank r holds element order[r]
    order = sorted(range(size), key=lambda x: (down[x].bit_count(), x))
    up_r = [sum(1 << r for r, x in enumerate(order) if row >> x & 1) for row in up]
    down_r = [sum(1 << r for r, x in enumerate(order) if row >> x & 1) for row in down]

    join2 = [[0] * size for _ in range(size)]
    meet2 = [[0] * size for _ in range(size)]
    for i in range(size):
        join_i, meet_i, up_i, down_i = join2[i], meet2[i], up_r[i], down_r[i]
        join_i[i] = meet_i[i] = i
        for j in range(i + 1, size):
            ubs = up_i & up_r[j]
            least = order[(ubs & -ubs).bit_length() - 1]  # order[-1], unused, if ubs is 0
            if not ubs or ubs & ~up_r[least]:
                raise MissingJoin(f"elements {i} and {j} have no join", witness=(i, j))
            join_i[j] = join2[j][i] = least
            # Meets exist automatically in a finite complete lattice: the
            # common lower bounds hold the bottom and have a greatest one.
            meet_i[j] = meet2[j][i] = order[(down_i & down_r[j]).bit_length() - 1]

    frozen_leq = tuple(tuple(map("1".__eq__, f"{row:0{size}b}"[::-1])) for row in up)
    frozen_join = tuple(map(tuple, join2))
    frozen_meet = tuple(map(tuple, meet2))
    return SupLattice(size, frozen_leq, bottom, frozen_join, frozen_meet)


def join_closed_sublattice(lat: SupLattice, elements, shared: dict) -> SupLattice:
    """The sub-order on ``elements`` (distinct base indices, holding the
    base bottom and closed under the base's binary joins).

    Returns the lattice that :func:`validate_sup_lattice` builds from the
    order pairs among the elements, with element i standing for
    ``elements[i]``: the order and joins are those of the base, and the
    meet of s and t is the greatest element below the base meet s∧t, the
    join of the elements below it, which is one of them.  Raises
    ``ValueError`` when the elements miss the bottom or a binary join.
    An order already in ``shared`` returns its lattice; a new one is added.
    """
    at = [-1] * lat.size  # the position of each base element among the elements, or -1
    for i, b in enumerate(elements):
        at[b] = i
    if at[lat.bottom] < 0:
        raise ValueError("the elements do not hold the bottom")

    def rows(table):
        # the rows of a base table at the elements, each read once
        return [table[s] for s in elements]

    join2 = tuple([tuple([at[row[t]] for t in elements]) for row in rows(lat._join2)])
    if any([-1 in row for row in join2]):
        raise ValueError("the elements are not closed under binary joins")
    leq = tuple([tuple([row[t] for t in elements]) for row in rows(lat.leq)])
    if leq in shared:
        return shared[leq]
    core = tuple(at[lat.join(s for s in elements if lat.leq[s][m])] for m in range(lat.size))
    meet2 = tuple([tuple([core[row[t]] for t in elements]) for row in rows(lat._meet2)])
    sub = SupLattice(len(elements), leq, at[lat.bottom], join2, meet2)
    return shared.setdefault(leq, sub)


def chain(n: int) -> SupLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return validate_sup_lattice(n, [(i, i + 1) for i in range(n - 1)])


def square_lattice() -> SupLattice:
    """The four-element Boolean algebra: bottom, two incomparable atoms, top."""
    return validate_sup_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def diamond_lattice() -> SupLattice:
    """M3: bottom, three incomparable atoms, top.  A lattice but not a frame."""
    return validate_sup_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


_NAMED = {
    "2": lambda: chain(2),
    "3": lambda: chain(3),
    "4": lambda: chain(4),
    "square": square_lattice,
    "diamond": diamond_lattice,
}


@cache
def named_lattice(name: str) -> SupLattice:
    """Look up one of the built-in lattices: 2, 3, 4, square, diamond.

    Each name is built once; lattices are immutable, so every caller shares
    the one instance.
    """
    try:
        return _NAMED[name]()
    except KeyError:
        raise KeyError(f"unknown lattice name {name!r}; known: {sorted(_NAMED)}") from None
