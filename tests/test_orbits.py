"""Diagonal orbit structure of products of coordinate blocks."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam import orbits
from amalgam.matrices import ELEMENTARY_GENERATORS
from amalgam.orbits import (
    SizeGuardExceeded,
    diagonal_orbits,
    fixed_point_dimension,
    partitions_agree,
    zero_pattern_partition,
)
from amalgam.primes import PrimeSeq
from amalgam.semidirect import KVector, product_image
from timelimit import time_limit

PRIMES = PrimeSeq.parse("2,3,5,7")

# Frozen oracle: sorted orbit sizes of the diagonal action, brute-forced
# by a BFS independent of zero-pattern counting.  A product of blocks
# splits into one orbit per zero pattern, of size prod(p^3 - 1) over the
# nonzero positions.
ORBIT_SIZES = {
    (0,): (1, 7),
    (0, 1): (1, 7, 26, 182),
    (0, 1, 2): (1, 7, 26, 124, 182, 868, 3224, 22568),
}


def _lex_points(p: int) -> list[tuple[int, int, int]]:
    # a block's points in code order, independent of `semidirect.points`
    return list(itertools.product(range(p), repeat=3))


def test_act_mod_p_matches_matrix_action():
    # the code permutation the orbit union-find reads sends each point of a
    # block to its image under the matrix, as the blockwise action does
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(3)
        p = PRIMES.p(n)
        x = tuple(rng.randrange(p) for _ in range(3))
        g = rng.choice(ELEMENTARY_GENERATORS)
        lex = _lex_points(p)
        y = lex[product_image((p,), g)[lex.index(x)]]
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
    points = list(itertools.product(*map(_lex_points, part.primes_used)))
    assert part.labels.shape == (len(points),)
    least = [min(points[c] for c in np.flatnonzero(part.labels == bid))
             for bid in range(part.block_count)]
    assert part.representatives == tuple(least)


@pytest.mark.parametrize("indices", [(0,), (0, 1), (0, 1, 2)])
def test_orbits_match_zero_patterns(indices):
    bfs = diagonal_orbits(PRIMES, indices)
    patterns = zero_pattern_partition(PRIMES, indices)
    assert partitions_agree(bfs, patterns)
    assert bfs.block_count == 2 ** len(indices)
    # both number their parts by least code, so agreeing partitions are equal
    assert patterns.block_sizes == bfs.block_sizes
    assert patterns.representatives == bfs.representatives
    assert np.array_equal(patterns.labels, bfs.labels)


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


def test_partitions_agree_sees_one_moved_point():
    a = diagonal_orbits(PRIMES, (0, 1))
    b = zero_pattern_partition(PRIMES, (0, 1))
    assert partitions_agree(a, b) and partitions_agree(b, a)
    for code in (0, 100, len(b.labels) - 1):
        moved = dataclasses.replace(b, labels=b.labels.copy())
        moved.labels[code] = (moved.labels[code] + 1) % moved.block_count
        assert not partitions_agree(a, moved) and not partitions_agree(moved, a)


def test_block_of_representatives():
    part = diagonal_orbits(PRIMES, (0, 1))
    points = list(itertools.product(*map(_lex_points, part.primes_used)))
    for bid, rep in enumerate(part.representatives):
        assert part.labels[points.index(rep)] == bid


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fixed_point_dimension_is_two_per_block(count):
    indices = tuple(range(count))
    assert fixed_point_dimension(PRIMES, indices) == 2**count
    assert fixed_point_dimension(PRIMES, indices) == diagonal_orbits(PRIMES, indices).block_count


@pytest.mark.parametrize("indices, blocks", [((), 1), ((0, 0), 5)])
def test_fixed_point_dimension_counts_orbits(indices, blocks):
    # no block gives one point; repeating the p = 2 block splits its pattern
    # with both positions nonzero into pairs u = v and independent pairs
    assert fixed_point_dimension(PRIMES, indices) == blocks
    assert diagonal_orbits(PRIMES, indices).block_count == blocks


def test_fixed_point_dimension_at_a_million_points():
    # [3,5,7] has 1,157,625 points, beyond a per-pair Python walk
    assert fixed_point_dimension(PRIMES, (1, 2, 3)) == 8


def _components(n, maps):
    """Each point's connected component in the graph with an edge
    x -- m[x] per map, components numbered in order of their least point."""
    adjacent = [[] for _ in range(n)]
    for m in maps:
        for x, y in enumerate(m):
            adjacent[x].append(y)
            adjacent[y].append(x)
    component = [-1] * n
    count = 0
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = count
        queue = deque([start])
        while queue:
            for y in adjacent[queue.popleft()]:
                if component[y] < 0:
                    component[y] = count
                    queue.append(y)
        count += 1
    return component


def _pivot_walk_dimension(n, maps):
    """Points minus the rank of the rows F(x) - F(m[x]), by the pivot walk
    that computed the fixed-point dimension before the union-find."""
    pivot_off = {}

    def reduce_column(c):
        chain = []
        while c in pivot_off:
            chain.append(c)
            c = pivot_off[c]
        for seen in chain:
            pivot_off[seen] = c
        return c

    rank = 0
    for m in maps:
        for i, j in enumerate(m):
            if i == j:
                continue
            a, b = reduce_column(i), reduce_column(j)
            if a == b:
                continue
            pivot_off[min(a, b)] = max(a, b)
            rank += 1
    return n - rank


@st.composite
def _point_maps(draw):
    """Twelve self-maps of range(n) that keep a hidden partition of the
    points into at most `parts` classes, so the class count ranges from 1
    to n: permutations of each class, arbitrary maps into it, and maps
    that move a few points and fix the rest."""
    n = draw(st.integers(1, 200))
    parts = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    part_of = [rng.randrange(parts) for _ in range(n)]
    members = [[x for x in range(n) if part_of[x] == k] for k in range(parts)]
    maps = []
    for kind in draw(st.lists(st.sampled_from("pam"), min_size=12, max_size=12)):
        m = list(range(n))
        if kind == "p":
            for cls in members:
                for x, y in zip(cls, rng.sample(cls, len(cls))):
                    m[x] = y
        else:
            moved = range(n) if kind == "a" else rng.sample(range(n), rng.randint(0, min(n, 6)))
            for x in moved:
                m[x] = rng.choice(members[part_of[x]])
        maps.append(m)
    return n, maps


# no shrink phase: shrinking an example that loops would rerun it up to
# the time limit again and again
@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
@given(_point_maps())
def test_fixed_point_dimension_on_random_maps(case):
    # the union-find must find the classes of any maps handed to it, not
    # only of the permutations the generators induce: the dimension
    # counts them and the partition numbers them by least point
    n, maps = case
    images = iter([np.array(m, dtype=np.int64) for m in maps * 2])
    with pytest.MonkeyPatch.context() as mp, time_limit(1.0):
        mp.setattr(orbits, "_check_size", lambda ps, guard: n)
        mp.setattr(orbits, "product_image", lambda ps, g: next(images))
        dim = fixed_point_dimension(PRIMES, ())
        part = diagonal_orbits(PRIMES, ())
    component = _components(n, maps)
    assert part.labels.tolist() == component
    assert dim == part.block_count == max(component) + 1 == _pivot_walk_dimension(n, maps)


def test_size_guard_raises():
    with pytest.raises(SizeGuardExceeded):
        diagonal_orbits(PRIMES, (0, 1, 2), size_guard=100)
    with pytest.raises(SizeGuardExceeded):
        fixed_point_dimension(PRIMES, (2, 2, 2), size_guard=1000)


def test_single_block_orbit_is_nonzero_set():
    part = diagonal_orbits(PRIMES, (2,))
    assert tuple(sorted(part.block_sizes)) == (1, 124)
