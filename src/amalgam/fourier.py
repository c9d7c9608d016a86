"""Fourier duality on one coordinate block and the convolution algebra.

Functions on a block (with pointwise product) correspond to finitely
supported combinations of group basis elements u_x (with convolution
product) through the characters chi_x(y) = exp(2 pi i <x,y> / p).  The
forward direction sends a function to its coefficient family

    c(x) = p^{-3} sum_y f(y) conj(chi_x(y)),

which is trace preserving (the coefficient at 0 is the mean of f) and
turns pointwise products into convolutions.  The matrix action on the
block intertwines the two sides up to an inverse transpose, which
`check_intertwiner` measures numerically.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Mapping

import numpy as np

from .matrices import LambdaMatrix
from .semidirect import block_points, codes, image_table, point_array
from .words import GroupWord, Tower

__all__ = [
    "GroupAlgebraElement",
    "block_points",
    "transform_matrix",
    "fourier",
    "inverse_fourier",
    "action_permutation",
    "check_intertwiner",
    "projection_en",
]

# public name of the codec's permutation of point codes under a matrix
action_permutation = image_table


def transform_matrix(p: int) -> np.ndarray:
    """Matrix of the function-to-coefficients map in the lex point basis."""
    pts = point_array(p)
    pairing = (pts @ pts.T) % p
    return np.exp(-2j * np.pi * pairing / p) / p**3


def _as_values(p: int, f) -> np.ndarray:
    if isinstance(f, Mapping):
        return np.array([complex(f.get(pt, 0)) for pt in block_points(p)])
    arr = np.asarray(f, dtype=complex).reshape(-1)
    if arr.shape != (p**3,):
        raise ValueError(f"need {p**3} values for a block mod {p}, got {arr.shape}")
    return arr


@dataclass
class GroupAlgebraElement:
    """Finitely supported combination of group basis elements u_w.

    Coefficients may be exact rationals or complex floats; convolution,
    adjoint, and trace follow the group algebra rules.  Keys must be
    reduced words of one tower.
    """

    tower: Tower = field(repr=False)
    coeffs: dict[GroupWord, object]

    def __post_init__(self) -> None:
        self.coeffs = {w: c for w, c in self.coeffs.items() if c != 0}

    @classmethod
    def basis(cls, word: GroupWord, coeff=Fraction(1)) -> "GroupAlgebraElement":
        return cls(word.tower, {word: coeff})

    def coefficient(self, word: GroupWord):
        return self.coeffs.get(word, 0)

    @property
    def support_size(self) -> int:
        return len(self.coeffs)

    def trace(self):
        """Coefficient at the identity."""
        return self.coeffs.get(self.tower.identity(), 0)

    def mul(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution: (u_a)(u_b) = u_{ab}."""
        if self.is_exact() and other.is_exact():
            return self._mul_exact(other)
        tw = self.tower
        tmul = tw.mul
        out: dict[GroupWord, object] = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                key = tmul(wa, wb)
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return GroupAlgebraElement(tw, out)

    def _mul_exact(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Rational convolution over a common denominator (integer inner loop).

        When every key of both operands is a pure coordinate element of one
        block n (the identity allowed), the product is a convolution on the
        abelian group (Z/p)^3 and is computed on lex point codes by
        `_convolve_block`, without a `Tower.mul` per pair.  Its numerators
        accumulate in int64 unless a sum could reach 2^63, in which case
        they stay Python ints.  Every other operand goes through the
        generic pair loop.  Both give the same coefficients.
        """
        tw = self.tower
        da = lcm(*(Fraction(c).denominator for c in self.coeffs.values())) if self.coeffs else 1
        db = lcm(*(Fraction(c).denominator for c in other.coeffs.values())) if other.coeffs else 1
        left = [(w, int(c * da)) for w, c in self.coeffs.items()]
        right = [(w, int(c * db)) for w, c in other.coeffs.items()]
        block = _single_block(tw, itertools.chain(self.coeffs, other.coeffs))
        acc = None if block is None else _convolve_block(tw, block, left, right)
        if acc is None:
            tmul = tw.mul
            acc = {}
            get = acc.get
            for wa, na in left:
                for wb, nb in right:
                    key = tmul(wa, wb)
                    acc[key] = get(key, 0) + na * nb
        denom = da * db
        return GroupAlgebraElement(tw, {w: Fraction(n, denom) for w, n in acc.items()})

    def star(self) -> "GroupAlgebraElement":
        """Adjoint: conjugate coefficients on inverted basis words."""
        tw = self.tower
        out = {}
        for w, c in self.coeffs.items():
            out[tw.inv(w)] = c.conjugate() if isinstance(c, complex) else c
        return GroupAlgebraElement(tw, out)

    def add(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return GroupAlgebraElement(self.tower, out)

    def scale(self, factor) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.tower, {w: factor * c for w, c in self.coeffs.items()})

    def sub(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self.add(other.scale(-1))

    def is_exact(self) -> bool:
        return all(isinstance(c, Rational) for c in self.coeffs.values())

    def equals(self, other: "GroupAlgebraElement") -> bool:
        """Coefficientwise equality (keys supported in the base lattice are canonical)."""
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


def _convolve_block(
    tower: Tower, n: int, left: list[tuple[GroupWord, int]], right: list[tuple[GroupWord, int]]
) -> dict[GroupWord, int] | None:
    """Integer convolution of (word, numerator) lists supported on block n.

    Points are added coordinatewise mod p and accumulated at their lex
    codes in one array of p^3 numerators.  One row of the smaller operand
    translates the other operand's distinct points to distinct codes, so a
    fancy-indexed add per row is exact.  The accumulator is int64 when no
    partial sum can reach 2^63 (each code collects at most min(|A|, |B|)
    products); otherwise it holds Python ints.  Returns None, leaving the
    product to the generic loop, when p^3 exceeds the number of pairs, so
    that the accumulator is never larger than the work.
    """
    p = tower.primes.p(n)
    if p**3 > len(left) * len(right):
        return None
    if len(left) > len(right):
        left, right = right, left
    bound = max(abs(c) for _, c in left) * max(abs(c) for _, c in right) * len(left)
    dtype = np.int64 if bound < 2**63 else object
    right_pts = np.array([w.g0.k.block(n) for w, _ in right], dtype=np.int64)
    right_num = np.array([c for _, c in right], dtype=dtype)
    acc = np.zeros(p**3, dtype=dtype)
    for w, na in left:
        acc[codes((right_pts + w.g0.k.block(n)) % p, p)] += na * right_num
    words = tower.block(n)
    return {words[c]: int(acc[c]) for c in np.flatnonzero(acc).tolist()}


def fourier(tower: Tower, n: int, f) -> GroupAlgebraElement:
    """Function on block n -> coefficients on the group basis of that block.

    `f` is a mapping triple -> value or an array over the lex point order.
    """
    p = tower.primes.p(n)
    values = _as_values(p, f)
    coeff = transform_matrix(p) @ values
    out: dict[GroupWord, object] = {}
    for w, c in zip(tower.block(n), coeff.tolist()):
        if c != 0:
            out[w] = c
    return GroupAlgebraElement(tower, out)


def inverse_fourier(element: GroupAlgebraElement, n: int) -> np.ndarray:
    """Coefficients back to the function sum_x c(x) chi_x, over lex points."""
    tower = element.tower
    p = tower.primes.p(n)
    coeff = np.zeros(p**3, dtype=complex)
    for i, w in enumerate(tower.block(n)):
        c = element.coefficient(w)
        if c:
            coeff[i] = complex(c)
    pts_arr = point_array(p)
    pairing = (pts_arr @ pts_arr.T) % p
    characters = np.exp(2j * np.pi * pairing / p)
    return characters.T @ coeff


def check_intertwiner(tower: Tower, g: LambdaMatrix, n: int) -> float:
    """Worst basis-function defect between transform-then-act and act-then-relabel.

    Acting on functions by x -> g^{-1} x and then transforming must agree
    with transforming first and relabelling u_x -> u_{h x} for h the
    inverse transpose of g.  Returns the largest 2-norm defect over the
    delta-function basis; exactness of the identity shows up as a value
    at rounding level.
    """
    p = tower.primes.p(n)
    F = transform_matrix(p)
    # columns of LHS: transform of the delta at g y, i.e. F with columns
    # pulled back along y -> g y
    defect = F[:, image_table(p, g)]
    # rows of RHS: relabel u_x -> u_{h x} with h = inverse transpose of g;
    # row j of the result is row at h^{-1} point_j = g^T point_j.
    # Subtracted in place: one p^3 x p^3 matrix fewer at the peak.
    defect -= F[image_table(p, g.transpose()), :]
    return float(np.linalg.norm(defect, axis=0).max())


def projection_en(tower: Tower, n: int) -> GroupAlgebraElement:
    """The averaging idempotent of block n: p^{-3} sum over the block basis."""
    words = tower.block(n)
    return GroupAlgebraElement(tower, dict.fromkeys(words, Fraction(1, len(words))))
