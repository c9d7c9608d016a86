"""Fourier duality on one coordinate block and the convolution algebra.

Functions on a block (with pointwise product) correspond to finitely
supported combinations of group basis elements u_x (with convolution
product) through the characters chi_x(y) = exp(2 pi i <x,y> / p).  The
forward direction sends a function to its coefficient family

    c(x) = p^{-3} sum_y f(y) conj(chi_x(y)),

which is trace preserving (the coefficient at 0 is the mean of f) and
turns pointwise products into convolutions.  Both transforms gather a
table of the p roots of unity through the pairing table <x,y> mod p.  The
matrix action on the block intertwines the two sides up to an inverse
transpose; since <x, g y> = <g^T x, y>, that is an identity of integer
indices into the pairing table, which `check_intertwiner` compares as
such, measuring a float defect only where the indices differ.

`GroupAlgebraElement` is the one class for finitely supported
combinations of words: the group algebra under convolution, and the
square-summable vectors of `witness` under the inner product.  Its `mul`
convolves exact or complex operands on one block over lex point codes and
all others in a pair loop over `Tower.mul`; the paths give the same
coefficients, bit for bit in the complex case (see `_convolve_block`).

The pairing is a read-only p^3 x p^3 table in the smallest unsigned dtype
that holds p - 1, built on first use and cached for at most `_TABLES`
primes while p^3 <= `semidirect._CACHED_POINTS` (p <= 11), as the image
tables are; larger ones are built per call.

numpy is loaded on first use (see `_numpy`) by the transforms, the
intertwiner check and a convolution on one block.  The pair-loop
convolution, the inner product and the rest of `GroupAlgebraElement`
never load it, so `witness` and `sampling` work without it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, sqrt
from numbers import Rational

from . import _numpy as np
from .matrices import LambdaMatrix
from .semidirect import _CACHED_POINTS, image_table, points
from .words import GroupWord, Tower

__all__ = [
    "GroupAlgebraElement",
    "transform_matrix",
    "fourier",
    "inverse_fourier",
    "check_intertwiner",
    "projection_en",
]


_TABLES = 8  # primes whose pairing table stays cached
_ROWS = 64  # left points per scatter in `_convolve_block`


def _build_pairing(p: int) -> np.ndarray:
    pts = points(np.arange(p**3), p)
    table = ((pts @ pts.T) % p).astype(np.min_scalar_type(p - 1))
    table.flags.writeable = False
    return table


_cached_pairing = lru_cache(maxsize=_TABLES)(_build_pairing)


def _pairing(p: int) -> np.ndarray:
    """<x, y> mod p over pairs of lex points, to index a table of p roots."""
    return (_cached_pairing if p**3 <= _CACHED_POINTS else _build_pairing)(p)


def transform_matrix(p: int) -> np.ndarray:
    """Matrix of the function-to-coefficients map in the lex point basis."""
    return (np.exp(-2j * np.pi * np.arange(p) / p) / p**3)[_pairing(p)]


def _abs_squared(c):
    if isinstance(c, complex):
        return c.real * c.real + c.imag * c.imag
    return c * c


@dataclass
class GroupAlgebraElement:
    """Finitely supported combination of group basis elements u_w.

    Coefficients may be exact rationals or complex floats; convolution,
    adjoint, and trace follow the group algebra rules, and the Hermitian
    pairing and norm those of l^2(G).  Keys must be reduced words of one
    tower.  A key above level 0 is stored as its `Tower.key`, and keys of
    one element merge, the later coefficients added to the first in
    insertion order, so the element is a function on the group, not on
    words; level-0 words are canonical already.
    """

    tower: Tower = field(repr=False)
    coeffs: dict[GroupWord, object]

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        if any(w.level for w in coeffs):
            key, coeffs = self.tower.key, {}
            for w, c in self.coeffs.items():
                w = key(w) if w.level else w
                prev = coeffs.get(w)
                coeffs[w] = c if prev is None else prev + c
        self.coeffs = {w: c for w, c in coeffs.items() if c != 0}

    def coefficient(self, word: GroupWord):
        return self.coeffs.get(self.tower.key(word) if word.level else word, 0)

    @property
    def support(self):
        return self.coeffs.keys()

    @property
    def support_size(self) -> int:
        return len(self.coeffs)

    def trace(self):
        """Coefficient at the identity."""
        return self.coeffs.get(self.tower.identity(), 0)

    def mul(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution: (u_a)(u_b) = u_{ab}, by one of three paths.

        Exact operands, as integer numerators over common denominators, and
        operands whose coefficients are all Python complex go to
        `_convolve_block` when every key is a pure coordinate element of one
        block.  The rest (mixed, float or numpy coefficients; level >= 1,
        matrix-part, off-block or foreign keys) take the pair loop.
        """
        tw = self.tower
        left, right = list(self.coeffs.items()), list(other.coeffs.items())
        exact = self.is_exact() and other.is_exact()
        if exact:
            da = lcm(*(c.denominator for _, c in left))
            db = lcm(*(c.denominator for _, c in right))
            left = [(w, int(c.numerator) * (da // c.denominator)) for w, c in left]
            right = [(w, int(c.numerator) * (db // c.denominator)) for w, c in right]
        acc = None
        if exact or all(type(c) is complex for _, c in itertools.chain(left, right)):
            block = _single_block(tw, itertools.chain(self.coeffs, other.coeffs))
            acc = None if block is None else _convolve_block(tw, block, left, right)
        if acc is None:
            tmul, acc = tw.mul, {}
            for wa, ca in left:
                for wb, cb in right:
                    key = tmul(wa, wb)
                    prev = acc.get(key)  # each sum starts from its first product
                    acc[key] = ca * cb if prev is None else prev + ca * cb
        if exact:
            acc = {w: Fraction(n, da * db) for w, n in acc.items()}
        return GroupAlgebraElement(tw, acc)

    def star(self) -> "GroupAlgebraElement":
        """Adjoint: conjugate coefficients on inverted basis words."""
        tw = self.tower
        out = {}
        for w, c in self.coeffs.items():
            out[tw.inv(w)] = c.conjugate() if isinstance(c, complex) else c
        return GroupAlgebraElement(tw, out)

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.tower is not other.tower and self.tower.primes != other.tower.primes:
            raise ValueError("cannot mix elements over towers with different primes")

    def add(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return GroupAlgebraElement(self.tower, out)

    def scale(self, factor) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.tower, {w: factor * c for w, c in self.coeffs.items()})

    def sub(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self.add(other.scale(-1))

    def inner(self, other: "GroupAlgebraElement"):
        """Hermitian pairing, conjugate-linear in self."""
        self._check(other)
        total = 0
        small, big = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        for w, c in small.coeffs.items():
            d = big.coeffs.get(w)
            if d is None:
                continue
            a, b = (c, d) if small is self else (d, c)
            a = a.conjugate() if isinstance(a, complex) else a
            total += a * b
        return total

    def norm_squared(self):
        return sum(_abs_squared(c) for c in self.coeffs.values())

    def norm(self) -> float:
        return sqrt(self.norm_squared())

    def is_exact(self) -> bool:
        return all(isinstance(c, Rational) for c in self.coeffs.values())

    def equals(self, other: "GroupAlgebraElement") -> bool:
        """Coefficientwise equality (every key is canonical)."""
        return self.coeffs == other.coeffs


def _single_block(tower: Tower, words) -> int | None:
    """The block n when every word is a pure coordinate element of block n.

    Identity words are allowed.  Returns None when a word is of level >= 1,
    has a non-identity matrix part, spans two blocks, belongs to another
    tower object, or when no word leaves the identity.
    """
    block = None
    for w in words:
        if w.tower is not tower or w.level != 0 or not w.g0.lam.is_identity:
            return None
        items = w.g0.k.items
        if not items:
            continue
        if len(items) > 1 or (block is not None and items[0][0] != block):
            return None
        block = items[0][0]
    return block


def _convolve_block(tower: Tower, n: int, left: list, right: list) -> dict | None:
    """Convolution of (word, coefficient) lists supported on block n, on codes.

    The products of up to `_ROWS` left points with every right point are
    scattered at once by `np.add.at` onto the codes of the point sums,
    computed per chunk in the smallest unsigned dtype holding p^3 - 1.
    `np.add.at` adds in index order, left row by left row, so each target
    sums its terms in the pair loop's order.  Integers sum in int64 unless
    a partial sum could reach 2^63 (a code collects at most min(|A|, |B|)
    products), else as Python ints in an object array.  Complex parts sum
    in float64 through CPython's product (ar*br - ai*bi, ar*bi + ai*br);
    numpy's complex multiply can differ in the last bit.  Sums start at
    -0.0, which IEEE addition leaves unchanged, as the pair loop starts
    from its first product (`np.bincount` would start at +0.0), and keys
    come in order of first touch, the least pair position that
    `np.minimum.at` records per code: the pair loop's result, bit for bit.
    None when p^3 exceeds the pairs, so the work bounds memory.
    """
    p = tower.primes.p(n)
    pairs = len(left) * len(right)
    if p**3 > pairs:
        return None
    # coordinate rows, unsigned: s - p wraps above s unless s >= p, so
    # min(s, s - p) is s mod p for the sums s < 2p of two coordinates
    coord = np.min_scalar_type(p**3 - 1)
    left_pts = np.array([w.g0.k.block(n) for w, _ in left], dtype=coord).T.copy()
    right_pts = np.array([w.g0.k.block(n) for w, _ in right], dtype=coord).T.copy()
    cplx = isinstance(left[0][1], complex)
    if cplx:
        a, b = np.array([c for _, c in left]), np.array([c for _, c in right])
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        acc = np.full((2, p**3), -0.0)
    else:
        bound = max(abs(c) for _, c in left) * max(abs(c) for _, c in right)
        dtype = np.int64 if bound * min(len(left), len(right)) < 2**63 else object
        a = np.array([c for _, c in left], dtype=dtype)
        b = np.array([c for _, c in right], dtype=dtype)
        acc = np.zeros((1, p**3), dtype=dtype)
    first = np.full(p**3, pairs)
    for start in range(0, len(left), _ROWS):
        rows = slice(start, start + _ROWS)
        s = left_pts[:, rows, None] + right_pts[:, None]
        s = np.minimum(s, s - p)
        idx = ((s[0] * p + s[1]) * p + s[2]).ravel()
        if cplx:
            real = np.multiply.outer(ar[rows], br) - np.multiply.outer(ai[rows], bi)
            imag = np.multiply.outer(ar[rows], bi) + np.multiply.outer(ai[rows], br)
            np.add.at(acc[0], idx, real.ravel())
            np.add.at(acc[1], idx, imag.ravel())
        else:
            np.add.at(acc[0], idx, np.multiply.outer(a[rows], b).ravel())
        np.minimum.at(first, idx, np.arange(start * len(right), start * len(right) + idx.size))
    keys = np.argsort(first)[: np.count_nonzero(first < pairs)].tolist()
    values = zip(*acc[:, keys].tolist())
    words = tower.block(n)
    return {words[k]: complex(*z) if cplx else z[0] for k, z in zip(keys, values)}


def fourier(tower: Tower, n: int, f) -> GroupAlgebraElement:
    """Function on block n -> coefficients on the group basis of that block.

    `f` holds the p^3 values of the function over the lex point order.
    """
    p = tower.primes.p(n)
    values = np.asarray(f, dtype=complex).reshape(-1)
    if values.shape != (p**3,):
        raise ValueError(f"need {p**3} values for a block mod {p}, got {values.shape}")
    coeff = transform_matrix(p) @ values
    return GroupAlgebraElement(tower, dict(zip(tower.block(n), coeff.tolist())))  # drops zeros


def inverse_fourier(element: GroupAlgebraElement, n: int) -> np.ndarray:
    """Coefficients back to the function sum_x c(x) chi_x, over lex points."""
    tower = element.tower
    p = tower.primes.p(n)
    coeff = np.array([complex(element.coefficient(w)) for w in tower.block(n)])
    characters = np.exp(2j * np.pi * np.arange(p) / p)[_pairing(p)]
    return characters.T @ coeff


def check_intertwiner(tower: Tower, g: LambdaMatrix, n: int) -> float:
    """Worst basis-function defect between transform-then-act and act-then-relabel.

    Acting on functions by x -> g^{-1} x and then transforming must agree
    with transforming first and relabelling u_x -> u_{h x} for h the
    inverse transpose of g.  Column y of the first side is the transform
    of the delta at g y, F[:, g y]; row x of the second is the row of F
    at g^T x.  Both gather one table of roots through the pairing table,
    so the identity <x, g y> = <g^T x, y> mod p is compared on the
    integer pairing.  Only when some index differs is F built and the
    2-norm defect computed, in 64-column slices that give the bits of the
    dense defect.  Returns the largest defect over the delta-function
    basis: 0.0 when every index agrees.
    """
    p = tower.primes.p(n)
    P = _pairing(p)
    cols, rows = image_table(p, g), image_table(p, g.transpose())
    worst = 0.0
    if np.any(P[:, cols] != P[rows, :]):
        F = transform_matrix(p)
        for start in range(0, p**3, 64):  # column slices keep p^3 x p^3 temporaries off the peak
            part = slice(start, start + 64)
            defect = F[:, cols[part]] - F[rows, part]
            worst = max(worst, float(np.linalg.norm(defect, axis=0).max()))
    return worst


def projection_en(tower: Tower, n: int) -> GroupAlgebraElement:
    """The averaging idempotent of block n: p^{-3} sum over the block basis."""
    words = tower.block(n)
    return GroupAlgebraElement(tower, dict.fromkeys(words, Fraction(1, len(words))))
