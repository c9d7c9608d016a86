"""Diagonal matrix action on finite products of rank-3 blocks.

The twelve elementary generators act simultaneously on every chosen
block (each reduced mod its own prime).  Points of the product space are
handled as their integer codes (see `semidirect`), and each generator
acts through its image table there.  This module computes the orbit
partition of the product space by breadth-first search over those
tables and, separately, the dimension of the space of invariant
functions by a union-find on the codes, so the two can be compared.
A partition keeps its labels as an array indexed by point code; only
the least point of each part is decoded to coordinate triples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .matrices import ELEMENTARY_GENERATORS
from .primes import PrimeSeq
from .semidirect import Triple, points, product_image

__all__ = [
    "OrbitPartition",
    "SizeGuardExceeded",
    "diagonal_orbits",
    "zero_pattern_partition",
    "partitions_agree",
    "fixed_point_dimension",
]

DEFAULT_SIZE_GUARD = 10_000_000
WORD_ENTRIES = 32  # entries a kept word counts as; words measured 27 to 100 entries' bytes


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
    and `representatives[i]` is that least point.  `labels` is an int64
    array giving the block number of every point at its code (see
    `semidirect`), which is also its lexicographic index.
    """

    indices: tuple[int, ...]
    primes_used: tuple[int, ...]
    block_sizes: tuple[int, ...]
    representatives: tuple[tuple[Triple, ...], ...]
    labels: np.ndarray = field(repr=False)

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)



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
    return _partition(indices, ps, label, starts)


def _partition(
    indices: tuple[int, ...], ps: tuple[int, ...], label: np.ndarray, starts: Sequence[int]
) -> OrbitPartition:
    """The partition giving code c the block `label[c]`; block i's least code is `starts[i]`."""
    # one decode per block, of the digits of every least code at once
    rest, blocks = np.asarray(starts, dtype=np.int64), []
    for p in reversed(ps):  # mixed-radix digits, last block lowest
        rest, c = np.divmod(rest, p**3)
        blocks.insert(0, [tuple(x) for x in points(c, p).tolist()])
    return OrbitPartition(
        indices=indices,
        primes_used=ps,
        block_sizes=tuple(np.bincount(label).tolist()),
        representatives=tuple(tuple(b[i] for b in blocks) for i in range(len(starts))),
        labels=label,
    )


def zero_pattern_partition(
    primes: PrimeSeq,
    indices: Sequence[int],
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> OrbitPartition:
    """The partition of the product space by which positions are zero.

    Every part is a product over positions of either {0} or the nonzero
    triples of that block.  This is the candidate answer the BFS orbit
    partition is compared against.  Parts are numbered in order of their
    least code.
    """
    indices = tuple(indices)
    ps = tuple(primes.p(n) for n in indices)
    _check_size(ps, size_guard)

    # a code's pattern has one bit per block, first block highest, set
    # where that block's triple is zero (its code within the block is 0);
    # built digit by digit in the mixed radix, as `product_image` is
    pattern = np.zeros(1, dtype=np.int64)
    for p in ps:
        pattern = (2 * pattern[:, None] + (np.arange(p**3) == 0)).ravel()
    _, first, inverse = np.unique(pattern, return_index=True, return_inverse=True)
    order = np.argsort(first)  # patterns in order of their least code
    return _partition(indices, ps, np.argsort(order)[inverse], first[order].tolist())


def partitions_agree(a: OrbitPartition, b: OrbitPartition) -> bool:
    """Whether two partitions of the same point set have identical parts.

    Both builders number parts in order of their least code, so identical
    parts give equal label arrays and the arrays are compared directly.
    Equal arrays always mean identical parts, whatever the numbering: a
    numbering fault can only make agreeing partitions read as disagreeing,
    never let disagreeing ones pass.
    """
    return a.primes_used == b.primes_used and np.array_equal(a.labels, b.labels)


def fixed_point_dimension(
    primes: PrimeSeq,
    indices: Sequence[int],
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> int:
    """Dimension of the space of functions invariant under every generator.

    F is invariant exactly when F(x) = F(g x) for every generator g and
    point x, so the dimension is the number of classes of the
    equivalence these pairs generate, and the rank of that linear system
    is the number of points minus it.  The classes come from a union-find
    on integer codes that reads only the generators' image tables: the
    count is exact and independent of the BFS orbit computation.

    `root[x]` is a code in the class of x.  For one generator at a time,
    every pair (x, g x) whose roots differ hooks the larger root to the
    smaller one (the least wins where several pairs hook the same root),
    then pointer jumping `root = root[root]` flattens every chain; this
    repeats until no pair of that generator has two roots.  Hooking only
    from a higher code to a lower one keeps `root[x] <= x` throughout, so
    there are no cycles, each round lowers the number of roots, and every
    loop terminates.  The classes are the codes x with `root[x] == x`.
    """
    indices = tuple(indices)
    ps = tuple(primes.p(n) for n in indices)
    npoints = _check_size(ps, size_guard)

    root = np.arange(npoints)
    for g in ELEMENTARY_GENERATORS:
        # one generator's pairs at a time: holding all twelve image
        # tables at once would raise the peak memory by their size
        image = product_image(ps, g)
        while True:
            a, b = root, root[image]
            live = a != b
            if not live.any():
                break
            a, b = a[live], b[live]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped
    return int(np.count_nonzero(root == np.arange(npoints)))
