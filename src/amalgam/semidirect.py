"""Finitely supported mod-p coordinate vectors and the base semidirect product.

The abelian normal part is a restricted direct sum over block index n of
rank-3 vectors mod p_n; the matrix group acts on every block at once.

Validation happens at the boundary: `KVector.from_mapping`/`single` check
every block index against the configured primes and reduce the
coordinates, and `G0Element(k, lam)` takes parts built that way (the
plain constructors `KVector(items)` and `G0Element(k, lam)` store what
they are given).  The results of `KVector.add`/`act`/`neg` and
`G0Element.mul`/`inv` only ever carry indices and reduced coordinates of
such operands, so they are built by the private trusted constructors
`_kvec` and `_g0` (see `matrices` for how trusted construction works) and
read the primes as `primes.primes[n]` rather than through `PrimeSeq.p`.

This module also owns the one integer encoding of block points: the
triple (a, b, c) mod p has code (a*p + b)*p + c, its index in
lexicographic order, and a point of a product of blocks has the
mixed-radix code of its per-block codes, again its lexicographic index.
`codes` encodes and `points` decodes.  `image_table` gives the matrix
action on one block as a permutation of codes, by linearity over the
block's three axes; it is cached only for p <= 11, the primes whose
pairing `fourier` caches, so no larger table outlives the row that built it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matrices import IDENTITY_MATRIX, LambdaMatrix, _ID_ROWS, _Immutable, _unguarded
from .primes import PrimeSeq, _integer

__all__ = [
    "KVector",
    "G0Element",
    "ZERO_K",
    "codes",
    "points",
    "image_table",
    "product_image",
]

Triple = tuple[int, int, int]

_CACHED_POINTS = 11**3  # largest block whose image tables stay cached: p <= 11


def codes(pts, p: int) -> np.ndarray:
    """Code (a*p + b)*p + c of each reduced triple along the last axis of `pts`."""
    pts = np.asarray(pts, dtype=np.int64)
    return (pts[..., 0] * p + pts[..., 1]) * p + pts[..., 2]


def points(codes, p: int) -> np.ndarray:
    """The reduced triples of the given codes, on a new last axis of 3: `codes` inverted."""
    high, c = np.divmod(np.asarray(codes, dtype=np.int64), p)
    a, b = np.divmod(high, p)
    return np.stack((a, b, c), axis=-1)


def _build_image_table(p: int, g: LambdaMatrix) -> np.ndarray:
    # g x = a g e_1 + b g e_2 + c g e_3, broadcast over the block's three axes
    axes = np.ix_(*[np.arange(p)] * 3)
    image = np.empty((3, p, p, p), dtype=np.int64)
    for i, row in enumerate(g.mod(p)):
        np.remainder(sum(m * x for m, x in zip(row, axes)), p, out=image[i])
    table = codes(np.moveaxis(image, 0, -1), p).ravel()
    table.flags.writeable = False
    return table


_cached_image_table = lru_cache(maxsize=128)(_build_image_table)


def image_table(p: int, g: LambdaMatrix) -> np.ndarray:
    """Read-only permutation of codes sending each point x to g x mod p."""
    return (_cached_image_table if p**3 <= _CACHED_POINTS else _build_image_table)(p, g)


def product_image(ps: Sequence[int], g: LambdaMatrix) -> np.ndarray:
    """Diagonal action of g on the product of blocks, as a permutation of codes."""
    image = np.zeros(1, dtype=np.int64)
    for p in ps:
        image = (image[:, None] * p**3 + image_table(p, g)).ravel()
    return image


class KVector(_Immutable):
    """Finitely supported element of the restricted direct sum of blocks.

    Stored as (index, coords) pairs sorted by index with zero blocks
    dropped, so equal vectors have equal representations.
    """

    __slots__ = ("items",)

    def __new__(cls, items: tuple[tuple[int, Triple], ...]) -> "KVector":
        return _kvec(items)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash((self.items,))

    def __repr__(self) -> str:
        return f"KVector(items={self.items!r})"

    def __reduce__(self):
        return _kvec, (self.items,)

    @classmethod
    def from_mapping(cls, primes: PrimeSeq, blocks: Mapping[int, Iterable[int]]) -> "KVector":
        blocks = {_integer(n, "block indices must be integers"): c for n, c in blocks.items()}
        items = []
        for n in sorted(blocks):
            p = primes.p(n)
            c = tuple(_integer(x, "coordinates must be integers") % p for x in blocks[n])
            if len(c) != 3:
                raise ValueError(f"block {n} needs 3 coordinates, got {c}")
            if c != (0, 0, 0):
                items.append((n, c))
        return cls(tuple(items))

    @classmethod
    def single(cls, primes: PrimeSeq, n: int, coords: Iterable[int]) -> "KVector":
        return cls.from_mapping(primes, {n: tuple(coords)})

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.items)

    def block(self, n: int) -> Triple:
        for m, c in self.items:
            if m == n:
                return c
        return (0, 0, 0)

    def add(self, other: "KVector", primes: PrimeSeq) -> "KVector":
        a, b = self.items, other.items
        if not b:
            return self
        if not a:
            return other
        # merge the two sorted supports
        ps = primes.primes
        out: list[tuple[int, Triple]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            na, ca = a[i]
            nb, cb = b[j]
            if na < nb:
                out.append(a[i])
                i += 1
            elif nb < na:
                out.append(b[j])
                j += 1
            else:
                p = ps[na]
                s = ((ca[0] + cb[0]) % p, (ca[1] + cb[1]) % p, (ca[2] + cb[2]) % p)
                if s != (0, 0, 0):
                    out.append((na, s))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _kvec(tuple(out))

    def neg(self, primes: PrimeSeq) -> "KVector":
        ps = primes.primes
        out = []
        for n, c in self.items:
            p = ps[n]
            out.append((n, ((-c[0]) % p, (-c[1]) % p, (-c[2]) % p)))
        return _kvec(tuple(out))

    def act(self, g: LambdaMatrix, primes: PrimeSeq) -> "KVector":
        """Blockwise matrix action: the same matrix applied to every block."""
        if not self.items:
            return self
        ps = primes.primes
        out = []
        for n, c in self.items:
            v = g.apply(c, ps[n])
            if v != (0, 0, 0):
                out.append((n, v))
        return _kvec(tuple(out))

    def supported_at_or_above(self, cutoff: int) -> bool:
        # items are sorted by index, so the lowest block decides
        items = self.items
        return not items or items[0][0] >= cutoff


_UnguardedKVector = _unguarded(KVector)


def _kvec(items: tuple[tuple[int, Triple], ...]) -> KVector:
    """Build a vector from sorted, reduced, nonzero blocks without re-checking."""
    v = object.__new__(_UnguardedKVector)
    v.items = items
    v.__class__ = KVector
    return v


ZERO_K = _kvec(())


class G0Element(_Immutable):
    """Semidirect pair (vector part, matrix part) with law (k, g)(k', g') = (k + g k', g g')."""

    __slots__ = ("k", "lam")

    def __new__(cls, k: KVector, lam: LambdaMatrix) -> "G0Element":
        return _g0(k, lam)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.lam) == (other.k, other.lam)

    def __hash__(self) -> int:
        return hash((self.k, self.lam))

    def __repr__(self) -> str:
        return f"G0Element(k={self.k!r}, lam={self.lam!r})"

    def __reduce__(self):
        return _g0, (self.k, self.lam)

    @classmethod
    def identity(cls) -> "G0Element":
        return cls(ZERO_K, IDENTITY_MATRIX)

    @property
    def is_identity(self) -> bool:
        return not self.k.items and self.lam.rows == _ID_ROWS

    def mul(self, other: "G0Element", primes: PrimeSeq) -> "G0Element":
        # identity parts cost nothing: 0 is not acted on, and I*M = M, M*I = M
        lam, k = self.lam, other.k
        if lam.rows == _ID_ROWS:
            return _g0(self.k.add(k, primes), other.lam)
        if k.items:
            k = k.act(lam, primes)
        if other.lam.rows != _ID_ROWS:
            lam = lam * other.lam
        return _g0(self.k.add(k, primes), lam)

    def inv(self, primes: PrimeSeq) -> "G0Element":
        lam_inv = self.lam.inverse()
        return _g0(self.k.neg(primes).act(lam_inv, primes), lam_inv)


_UnguardedG0 = _unguarded(G0Element)


def _g0(k: KVector, lam: LambdaMatrix) -> G0Element:
    """Build a pair from already-valid parts without re-checking."""
    e = object.__new__(_UnguardedG0)
    e.k = k
    e.lam = lam
    e.__class__ = G0Element
    return e
