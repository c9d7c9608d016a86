"""Diagonal matrix action on finite products of rank-3 blocks.

The twelve elementary generators act simultaneously on every chosen
block (each reduced mod its own prime).  Points of the product space are
handled as their integer codes (see `semidirect`), and each generator
acts through its image table there.  This module computes the orbit
partition of the product space by breadth-first search over those
tables and, separately, the dimension of the space of invariant
functions by exact rational elimination, so the two can be compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .matrices import ELEMENTARY_GENERATORS
from .primes import PrimeSeq
from .semidirect import product_image, product_points

__all__ = [
    "OrbitPartition",
    "SizeGuardExceeded",
    "diagonal_orbits",
    "zero_pattern_partition",
    "partitions_agree",
    "fixed_point_dimension",
]

Triple = tuple[int, int, int]

DEFAULT_SIZE_GUARD = 10_000_000


class SizeGuardExceeded(ValueError):
    """The requested product space is larger than the configured guard."""


def _check_size(primes_used: Sequence[int], size_guard: int) -> int:
    total = math.prod(p**3 for p in primes_used)
    if total > size_guard:
        raise SizeGuardExceeded(
            f"product space has {total} points, above the guard of {size_guard}"
        )
    return total


@dataclass(eq=False)
class OrbitPartition:
    """Deterministic orbit partition of a product of blocks.

    Blocks are numbered in order of their lexicographically least point,
    and `representatives[i]` is that least point.  `labels` maps every
    point (a tuple of coordinate triples) to its block number.
    """

    indices: tuple[int, ...]
    primes_used: tuple[int, ...]
    block_sizes: tuple[int, ...]
    representatives: tuple[tuple[Triple, ...], ...]
    labels: dict = field(repr=False)

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)

    def block_of(self, point: tuple[Triple, ...]) -> int:
        return self.labels[point]


def diagonal_orbits(
    primes: PrimeSeq,
    indices: Sequence[int],
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> OrbitPartition:
    """Orbit partition of the product of the given blocks under the
    diagonal action of the elementary generators (BFS closure on codes)."""
    indices = tuple(indices)
    ps = tuple(primes.p(n) for n in indices)
    npoints = _check_size(ps, size_guard)

    # the generator set is inverse-closed, so forward images reach the orbit
    images = [product_image(ps, g) for g in ELEMENTARY_GENERATORS]
    label = np.full(npoints, -1, dtype=np.int64)
    starts: list[int] = []
    unlabeled = np.flatnonzero(label < 0)
    while unlabeled.size:
        # the least unlabeled code starts the next block
        start = int(unlabeled[0])
        bid = len(starts)
        starts.append(start)
        label[start] = bid
        frontier = np.array([start])
        while frontier.size:
            # each image is a permutation, so the points newly reached
            # through one generator are distinct, and labelling them at
            # once keeps them out of the later generators' parts
            parts = []
            for image in images:
                reached = image[frontier]
                reached = reached[label[reached] < 0]
                label[reached] = bid
                parts.append(reached)
            frontier = np.concatenate(parts)
        unlabeled = np.flatnonzero(label < 0)
    del images  # 12 code arrays of the product, not needed past the search

    points = product_points(ps)
    return OrbitPartition(
        indices=indices,
        primes_used=ps,
        block_sizes=tuple(np.bincount(label).tolist()),
        representatives=tuple(points[c] for c in starts),
        labels=dict(zip(points, label.tolist())),
    )


def zero_pattern_partition(
    primes: PrimeSeq,
    indices: Sequence[int],
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> OrbitPartition:
    """The partition of the product space by which positions are zero.

    Every part is a product over positions of either {0} or the nonzero
    triples of that block.  This is the candidate answer the BFS orbit
    partition is compared against.
    """
    indices = tuple(indices)
    ps = tuple(primes.p(n) for n in indices)
    _check_size(ps, size_guard)

    labels: dict[tuple[Triple, ...], int] = {}
    pattern_to_bid: dict[tuple[bool, ...], int] = {}
    sizes: list[int] = []
    reps: list[tuple[Triple, ...]] = []
    for point in product_points(ps):
        pattern = tuple(t == (0, 0, 0) for t in point)
        bid = pattern_to_bid.get(pattern)
        if bid is None:
            bid = len(sizes)
            pattern_to_bid[pattern] = bid
            sizes.append(0)
            reps.append(point)
        labels[point] = bid
        sizes[bid] += 1
    return OrbitPartition(
        indices=indices,
        primes_used=ps,
        block_sizes=tuple(sizes),
        representatives=tuple(reps),
        labels=labels,
    )


def partitions_agree(a: OrbitPartition, b: OrbitPartition) -> bool:
    """Whether two partitions of the same point set have identical parts."""
    if a.labels.keys() != b.labels.keys():  # set comparison without copying
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for point, la in a.labels.items():
        lb = b.labels[point]
        if fwd.setdefault(la, lb) != lb or bwd.setdefault(lb, la) != la:
            return False
    return True


def fixed_point_dimension(
    primes: PrimeSeq,
    indices: Sequence[int],
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> int:
    """Dimension of the space of functions invariant under every generator.

    Solves the linear system F(x) = F(g x), over all generators g and
    points x, by exact elimination; the answer is the number of points
    minus the rank.  Independent of the BFS orbit computation.

    Each constraint row F(x) - F(g x) has two entries, +1 and -1, and
    eliminating such a row by another one leaves again at most two such
    entries.  A pivot row normalized to leading +1 is therefore fully
    described by its off-pivot column, and keeping every pivot row
    reduced against the others turns each row reduction into a pair of
    column walks.
    """
    indices = tuple(indices)
    ps = tuple(primes.p(n) for n in indices)
    npoints = _check_size(ps, size_guard)

    # pivot_off[c] = c' means the pivot row at column c is F(c) - F(c')
    pivot_off: dict[int, int] = {}

    def reduce_column(c: int) -> int:
        # follow pivot substitutions until an unpivoted column remains,
        # then rewrite the visited pivot rows against that column
        chain = []
        while c in pivot_off:
            chain.append(c)
            c = pivot_off[c]
        for seen in chain:
            pivot_off[seen] = c
        return c

    rank = 0
    for g in ELEMENTARY_GENERATORS:
        # one constraint F(i) - F(g i) per code i, in code order
        for i, j in enumerate(product_image(ps, g).tolist()):
            if i == j:
                continue
            a, b = reduce_column(i), reduce_column(j)
            if a == b:
                continue  # row reduced to zero: dependent constraint
            pivot_off[min(a, b)] = max(a, b)
            rank += 1
    return npoints - rank
