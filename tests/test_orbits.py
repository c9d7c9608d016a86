"""Diagonal orbit structure of products of coordinate blocks."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from amalgam.matrices import ELEMENTARY_GENERATORS
from amalgam.orbits import (
    SizeGuardExceeded,
    diagonal_orbits,
    fixed_point_dimension,
    partitions_agree,
    zero_pattern_partition,
)
from amalgam.primes import PrimeSeq
from amalgam.semidirect import KVector, block_points, product_image

PRIMES = PrimeSeq.parse("2,3,5")

# Frozen oracle: sorted orbit sizes of the diagonal action, brute-forced
# by a BFS independent of zero-pattern counting.  A product of blocks
# splits into one orbit per zero pattern, of size prod(p^3 - 1) over the
# nonzero positions.
ORBIT_SIZES = {
    (0,): (1, 7),
    (0, 1): (1, 7, 26, 182),
    (0, 1, 2): (1, 7, 26, 124, 182, 868, 3224, 22568),
}


def test_act_mod_p_matches_matrix_action():
    # the code permutation the orbit search walks sends each point of a
    # block to its image under the matrix, as the blockwise action does
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(3)
        p = PRIMES.p(n)
        x = tuple(rng.randrange(p) for _ in range(3))
        g = rng.choice(ELEMENTARY_GENERATORS)
        y = block_points(p)[product_image((p,), g)[block_points(p).index(x)]]
        assert y == g.apply(x, p)
        assert KVector.single(PRIMES, n, x).act(g, PRIMES) == KVector.single(PRIMES, n, y)


def test_act_is_functorial():
    # on the diagonal product of blocks the image of g*h is image(g) after image(h)
    ps = PRIMES.primes[:2]
    rng = random.Random(8)
    for _ in range(60):
        g, h = rng.choice(ELEMENTARY_GENERATORS), rng.choice(ELEMENTARY_GENERATORS)
        gh, pg, ph = (product_image(ps, m) for m in (g * h, g, h))
        code = rng.randrange(len(gh))
        assert gh[code] == pg[ph[code]]


@pytest.mark.parametrize("indices", [(0,), (0, 1), (0, 1, 2)])
def test_orbit_sizes_frozen(indices):
    part = diagonal_orbits(PRIMES, indices)
    assert tuple(sorted(part.block_sizes)) == ORBIT_SIZES[indices]
    total = math.prod(PRIMES.cube(n) for n in indices)
    assert sum(part.block_sizes) == total


def test_orbit_numbering_frozen():
    # blocks are numbered by their lexicographically least point, which is
    # public behaviour: pin the unsorted sizes and check each representative
    part = diagonal_orbits(PRIMES, (0, 1, 2))
    assert part.block_sizes == (1, 124, 26, 3224, 7, 868, 182, 22568)
    least: dict[int, tuple] = {}
    for point, bid in part.labels.items():
        if bid not in least or point < least[bid]:
            least[bid] = point
    assert part.representatives == tuple(least[bid] for bid in range(part.block_count))


@pytest.mark.parametrize("indices", [(0,), (0, 1), (0, 1, 2)])
def test_orbits_match_zero_patterns(indices):
    bfs = diagonal_orbits(PRIMES, indices)
    patterns = zero_pattern_partition(PRIMES, indices)
    assert partitions_agree(bfs, patterns)
    assert bfs.block_count == 2 ** len(indices)


def test_zero_pattern_sizes_closed_form():
    part = zero_pattern_partition(PRIMES, (0, 2))
    expected = sorted(
        math.prod((PRIMES.cube(n) - 1) if nz else 1 for n, nz in zip((0, 2), pattern))
        for pattern in itertools.product((False, True), repeat=2)
    )
    assert sorted(part.block_sizes) == expected


def test_partitions_agree_is_strict():
    a = diagonal_orbits(PRIMES, (0,))
    b = zero_pattern_partition(PRIMES, (0, 1))
    assert not partitions_agree(a, b)  # different point sets


def test_block_of_representatives():
    part = diagonal_orbits(PRIMES, (0, 1))
    for bid, rep in enumerate(part.representatives):
        assert part.block_of(rep) == bid


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fixed_point_dimension_is_two_per_block(count):
    indices = tuple(range(count))
    assert fixed_point_dimension(PRIMES, indices) == 2**count
    assert fixed_point_dimension(PRIMES, indices) == diagonal_orbits(PRIMES, indices).block_count


def test_size_guard_raises():
    with pytest.raises(SizeGuardExceeded):
        diagonal_orbits(PRIMES, (0, 1, 2), size_guard=100)
    with pytest.raises(SizeGuardExceeded):
        fixed_point_dimension(PRIMES, (2, 2, 2), size_guard=1000)


def test_single_block_orbit_is_nonzero_set():
    part = diagonal_orbits(PRIMES, (2,))
    assert tuple(sorted(part.block_sizes)) == (1, 124)
