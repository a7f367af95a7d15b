import itertools
import random

import pytest

from helpers import lattice_fields, order_pairs, reference_sup_lattice
from qsemicat import (
    MissingJoin,
    NotAPartialOrder,
    QsError,
    chain,
    diamond_lattice,
    named_lattice,
    square_lattice,
    validate_sup_lattice,
)


def test_two_chain():
    lat = validate_sup_lattice(2, [(0, 1)])
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join([]) == 0
    assert lat.join([0, 1]) == 1
    assert lat.meet([]) == 1
    assert lat.le(0, 1) and not lat.le(1, 0)


def test_three_chain():
    lat = validate_sup_lattice(3, [(0, 1), (1, 2)])
    assert lat.top == 2
    assert lat.join([0, 1]) == 1
    assert lat.meet([1, 2]) == 1
    # transitive closure of the generators
    assert lat.le(0, 2)


def test_antichain_has_no_joins():
    with pytest.raises(MissingJoin) as exc:
        validate_sup_lattice(2, [])
    assert exc.value.witness in ((), (0, 1), (1, 0))


def test_cycle_rejected():
    with pytest.raises(NotAPartialOrder) as exc:
        validate_sup_lattice(2, [(0, 1), (1, 0)])
    assert exc.value.witness == (0, 1)


def test_missing_pairwise_join():
    # two atoms over a bottom, no top: the pair of atoms has no join
    with pytest.raises(MissingJoin) as exc:
        validate_sup_lattice(3, [(0, 1), (0, 2)])
    assert set(exc.value.witness) == {1, 2}


def test_join_against_upper_bound_scan():
    # oracle: the join is the least element dominating both, found by scanning
    for lat in (chain(4), square_lattice(), diamond_lattice()):
        for i in range(lat.size):
            for j in range(lat.size):
                ubs = [u for u in range(lat.size) if lat.le(i, u) and lat.le(j, u)]
                least = [u for u in ubs if all(lat.le(u, v) for v in ubs)]
                assert lat.join([i, j]) == least[0]


def test_meet_is_greatest_lower_bound():
    for lat in (chain(3), square_lattice(), diamond_lattice()):
        for i in range(lat.size):
            for j in range(lat.size):
                m = lat.meet([i, j])
                assert lat.le(m, i) and lat.le(m, j)
                for x in range(lat.size):
                    if lat.le(x, i) and lat.le(x, j):
                        assert lat.le(x, m)


def test_named_lattices():
    assert named_lattice("2").size == 2
    assert named_lattice("square").size == 4
    assert named_lattice("diamond").size == 5
    with pytest.raises(KeyError):
        named_lattice("pentagon")


def test_fold_join_over_subsets():
    lat = square_lattice()
    import itertools

    for r in range(lat.size + 1):
        for subset in itertools.combinations(range(lat.size), r):
            j = lat.join(subset)
            assert all(lat.le(x, j) for x in subset)
            for u in range(lat.size):
                if all(lat.le(x, u) for x in subset):
                    assert lat.le(j, u)


# -- the bitset route against the boolean-matrix reference ------------------


def _outcome(build, size, pairs):
    try:
        return lattice_fields(build(size, pairs))
    except (ValueError, QsError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _agree(size, pairs):
    want = _outcome(reference_sup_lattice, size, pairs)
    assert _outcome(validate_sup_lattice, size, pairs) == want, (size, pairs)
    return want


@pytest.mark.parametrize("size", range(4))
def test_every_pair_set_agrees_with_reference(size):
    cells = list(itertools.product(range(size), repeat=2))
    outcomes = set()
    for mask in range(1 << len(cells)):
        pairs = [cell for k, cell in enumerate(cells) if mask >> k & 1]
        want = _agree(size, pairs)
        outcomes.add(want[0] if isinstance(want[0], type) else "lattice")
    if size >= 2:
        assert outcomes == {"lattice", NotAPartialOrder, MissingJoin}


def test_random_pair_sets_agree_with_reference():
    # mostly upward pairs, often with a bottom and a top added, so that
    # lattices, cycles, missing joins and out-of-range pairs all occur
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(1500):
        size = rng.choice((-1, 4, 5, 6, 7))
        n = max(size, 1)
        pairs = []
        for _ in range(rng.randrange(3 * n)):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            pairs.append((j, i) if rng.random() < 0.05 else (i, j))
        if rng.random() < 0.6:
            pairs += [(0, x) for x in range(n)] + [(x, n - 1) for x in range(n)]
        if rng.random() < 0.05:
            k = rng.randrange(len(pairs) + 1)
            pairs.insert(k, rng.choice(((n, 0), (0, -1), (-1, n))))
        rng.shuffle(pairs)
        want = _agree(size, pairs)
        outcomes.add(want[0] if isinstance(want[0], type) else "lattice")
    assert outcomes == {"lattice", NotAPartialOrder, MissingJoin, ValueError}


@pytest.mark.parametrize("name", ["2", "3", "4", "square", "diamond"])
def test_named_lattices_agree_with_reference(name):
    lat = named_lattice(name)
    assert lattice_fields(lat) == _agree(lat.size, order_pairs(lat))
