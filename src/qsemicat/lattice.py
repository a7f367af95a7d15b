"""Finite sup-lattices.

Elements are dense indices ``0..size-1``.  The order is given extensionally
as a set of pairs, joins are found by scanning upper bounds, and meets are
derived from joins.  Everything downstream brute-forces over elements, so
nothing here is lazy.
"""

from __future__ import annotations

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
        top = bottom
        for x in range(size):
            top = join2[top][x]
        self.top = top
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


def validate_sup_lattice(size: int, pairs) -> SupLattice:
    """Build a sup-lattice from generating order pairs ``(i, j)`` meaning i <= j.

    The reflexive-transitive closure of the pairs is taken first; a cycle
    between distinct elements raises :class:`NotAPartialOrder`, and a subset
    without a least upper bound raises :class:`MissingJoin` (the empty
    subset, i.e. a missing bottom, or a pair suffice as witnesses: joins of
    larger finite subsets follow by folding).
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"order pair ({i}, {j}) out of range for size {size}")
        leq[i][j] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(size):
        for j in range(i + 1, size):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"elements {i} and {j} are order-equivalent", witness=(i, j)
                )

    bottom = None
    for b in range(size):
        if all(leq[b][x] for x in range(size)):
            bottom = b
            break
    if bottom is None:
        raise MissingJoin("the empty subset has no join (no bottom element)", witness=())

    join2 = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            ubs = [u for u in range(size) if leq[i][u] and leq[j][u]]
            least = next((u for u in ubs if all(leq[u][v] for v in ubs)), None)
            if least is None:
                raise MissingJoin(f"elements {i} and {j} have no join", witness=(i, j))
            join2[i][j] = least

    # Meets exist automatically in a finite complete lattice: the join of
    # the common lower bounds is itself a lower bound.
    meet2 = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = bottom
            for x in range(size):
                if leq[x][i] and leq[x][j]:
                    acc = join2[acc][x]
            meet2[i][j] = acc

    frozen_leq = tuple(tuple(row) for row in leq)
    frozen_join = tuple(tuple(row) for row in join2)
    frozen_meet = tuple(tuple(row) for row in meet2)
    return SupLattice(size, frozen_leq, bottom, frozen_join, frozen_meet)


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


def named_lattice(name: str) -> SupLattice:
    """Look up one of the built-in lattices: 2, 3, 4, square, diamond."""
    try:
        return _NAMED[name]()
    except KeyError:
        raise KeyError(f"unknown lattice name {name!r}; known: {sorted(_NAMED)}") from None
