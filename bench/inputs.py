"""Seeded input generation and independent reference kernels.

Nothing here imports qsemicat: the families are enumerated and the
reference products are computed with plain Python, so the correctness
checks in :mod:`workloads` never ask the code under test to vouch for
itself.

Matrices are tuples of rows; ``m[i][j]`` is the hom entry at key
``(names[i], names[j])``, i.e. the arrow from object j to object i.
"""

import itertools
import operator

NAMES = ("a", "b", "c", "d", "e")


# -- reference products -------------------------------------------------------


# (join, composition) of a frame quantaloid: max and min on a chain, OR and
# AND on the element codes of the four-element Boolean frame.
CHAIN_OPS = (max, min)
SQUARE_OPS = (operator.or_, operator.and_)


def _entry(left, right, i, j, ops):
    """(left ⊗ right)[i][j] = join over x of left[i][x] ∘ right[x][j]."""
    join, comp = ops
    acc = 0
    for x in range(len(right)):
        acc = join(acc, comp(left[i][x], right[x][j]))
    return acc


def frame_product(left, right, ops):
    return tuple(
        tuple(_entry(left, right, i, j, ops) for j in range(len(right[0])))
        for i in range(len(left))
    )


def is_idempotent(m, ops):
    n = len(m)
    return all(_entry(m, m, i, j, ops) == m[i][j] for i in range(n) for j in range(n))


def chain_fixed_vectors(m, k):
    """Row vectors r with r ⊗ m = r and column vectors v with m ⊗ v = v, over the k-chain.

    These are the regular presheaves of both variances of the semicategory.
    """
    cols = tuple(zip(*m))
    rows_fixed, cols_fixed = [], []
    for v in itertools.product(range(k), repeat=len(m)):
        if all(max(map(min, v, col)) == v[j] for j, col in enumerate(cols)):
            rows_fixed.append(v)
        if all(max(map(min, row, v)) == v[i] for i, row in enumerate(m)):
            cols_fixed.append(v)
    return rows_fixed, cols_fixed


def regular_count(dom_rows, cod_cols, n_dom):
    """How many matrices dom -/-> cod are regular: every column is a regular
    column vector of cod and every row a regular row vector of dom."""
    allowed = set(dom_rows)
    count = 0
    for choice in itertools.product(cod_cols, repeat=n_dom):
        if all(row in allowed for row in zip(*choice)):
            count += 1
    return count


def idempotent_family(k, n, ops):
    """Every n x n matrix over a k-element frame with m ⊗ m = m, in lexicographic order."""
    out = []
    for flat in itertools.product(range(k), repeat=n * n):
        m = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if is_idempotent(m, ops):
            out.append(m)
    return out


def settle(m, ops):
    """Close m transitively, then take powers until they stop changing.

    Powers of a transitive matrix descend, so the fixed point is idempotent.
    """
    join, _ = ops
    while True:
        sq = frame_product(m, m, ops)
        closed = tuple(tuple(join(x, y) for x, y in zip(r, s)) for r, s in zip(m, sq))
        if closed == m:
            break
        m = closed
    while True:
        sq = frame_product(m, m, ops)
        if sq == m:
            return m
        m = sq


# -- relations: the explicit two-object quantaloid ----------------------------

REL_POINTS = {"X": 1, "Y": 2}


def rel_compose(g, f, nx, ny, nz):
    """g∘f for relations f ⊆ x×y and g ⊆ y×z, cell (i, j) at bit i*n_cod + j."""
    out = 0
    for i in range(nx):
        for k in range(nz):
            for j in range(ny):
                if f >> (i * ny + j) & 1 and g >> (j * nz + k) & 1:
                    out |= 1 << (i * nz + k)
                    break
    return out


def rel_identity(n):
    return sum(1 << (i * n + i) for i in range(n))


def rel_quantaloid_spec():
    """Workspace JSON for sets of one and two points with relations as arrows.

    Homs are powerset lattices of sizes 2, 4, 4 and 16 ordered by inclusion.
    """
    objs = sorted(REL_POINTS)
    homs = {}
    for x in objs:
        for y in objs:
            size = 1 << (REL_POINTS[x] * REL_POINTS[y])
            leq = [[i, j] for i in range(size) for j in range(size) if i != j and i | j == j]
            homs[f"{x}>{y}"] = {"size": size, "leq": leq}
    compose = {}
    for x, y, z in itertools.product(objs, repeat=3):
        nx, ny, nz = REL_POINTS[x], REL_POINTS[y], REL_POINTS[z]
        compose[f"{x}>{y}>{z}"] = [
            [rel_compose(g, f, nx, ny, nz) for f in range(1 << (nx * ny))]
            for g in range(1 << (ny * nz))
        ]
    ids = {x: rel_identity(REL_POINTS[x]) for x in objs}
    return {"objects": objs, "homs": homs, "compose": compose, "id": ids}


def rel_idempotent_count():
    """Idempotent endo-relations over both objects: the size of the completion."""
    total = 0
    for n in REL_POINTS.values():
        total += sum(1 for r in range(1 << (n * n)) if rel_compose(r, r, n, n, n) == r)
    return total


REL_TYPES = ("X", "Y")


def rel_product(left, right, types):
    """Hom-matrix product of a semicategory whose object i has type types[i]."""
    n = len(types)
    pts = [REL_POINTS[t] for t in types]
    out = []
    for c in range(n):
        row = []
        for a in range(n):
            acc = 0
            for b in range(n):
                acc |= rel_compose(left[c][b], right[b][a], pts[a], pts[b], pts[c])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def rel_family():
    """Every regular semicategory on one object of type X and one of type Y."""
    types = REL_TYPES
    sizes = [
        1 << (REL_POINTS[types[j]] * REL_POINTS[types[i]]) for i in range(2) for j in range(2)
    ]
    out = []
    for flat in itertools.product(*(range(s) for s in sizes)):
        m = (flat[0:2], flat[2:4])
        if rel_product(m, m, types) == m:
            out.append(m)
    return out


# -- transitive relations over the two-element quantaloid ---------------------


def random_transitive(rng, n, density):
    """A seeded relation on n points, closed transitively; rows are bitmasks."""
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def relation_square(rows):
    """Row bitmasks of R;R."""
    out = []
    for r in rows:
        acc = 0
        for k in range(len(rows)):
            if r >> k & 1:
                acc |= rows[k]
        out.append(acc)
    return tuple(out)


def random_poset(rng, n):
    """Generating pairs of a seeded partial order on n labelled points."""
    return [[f"x{i}", f"x{j}"] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]


def random_omega_set(rng, n, frame_size):
    """An Omega-valued equality over a chain frame: extents meet inside blocks."""
    extent = [rng.randrange(frame_size) for _ in range(n)]
    block = [rng.randrange(2) for _ in range(n)]
    eq = []
    for i in range(n):
        for j in range(n):
            if block[i] == block[j]:
                eq.append([f"e{i}", f"e{j}", min(extent[i], extent[j])])
    return {"frame": str(frame_size), "elements": [f"e{i}" for i in range(n)], "eq": eq}


def semicat_spec(base, m, types=None):
    """Workspace JSON of a semicategory with hom matrix m."""
    n = len(m)
    types = types or ("*",) * n
    return {
        "base": base,
        "objects": [{"name": NAMES[i], "type": types[i]} for i in range(n)],
        "hom": [[NAMES[i], NAMES[j], m[i][j]] for i in range(n) for j in range(n) if m[i][j]],
    }
