"""Adjoint action on finitely supported square-summable vectors.

A vector is a `GroupAlgebraElement`: a finitely supported combination
of words, read through its `inner`, `norm_squared` and `support` rather
than its convolution.
Basis vectors are indexed by canonical words (`GroupAlgebraElement`
stores each key as its `Tower.key`), and conjugation relabels any
support injectively.  The uniform block vectors produced by `xi` are
fixed by every conjugation that normalizes their block, which
`check_xi_invariance` verifies exactly: all coefficients of a uniform
vector are equal, so invariance reduces to the block being mapped onto
itself, which `block_stabilized` decides.  Both make the one scalar walk
of the conjugator's factors over the block's three unit vectors
(`Tower._conj_units`), and build no word.
Norm comparisons are decided on exact squared sums whenever the
coefficients are rational.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fourier import GroupAlgebraElement
from .words import GroupWord, Tower

__all__ = [
    "delta",
    "adjoint_apply",
    "xi",
    "xi_overlap_squared",
    "InvarianceDomainError",
    "check_xi_invariance",
    "block_stabilized",
    "search_invariance_violation",
    "conditional_expectation",
    "OrthogonalityReport",
    "orthogonality_inequality_check",
]


def delta(tower: Tower, w: GroupWord) -> GroupAlgebraElement:
    """Basis vector with a single unit coefficient at `w`."""
    return GroupAlgebraElement(tower, {w: Fraction(1)})


def adjoint_apply(g: GroupWord, v: GroupAlgebraElement) -> GroupAlgebraElement:
    """Relabel the basis by conjugation: the key k moves to g k g^{-1}."""
    tw = v.tower
    out = GroupAlgebraElement(tw, {tw.conj(k, g): c for k, c in v.coeffs.items()})
    if len(out.coeffs) != len(v.coeffs):
        raise AssertionError("conjugation collided on group elements; reduction is broken")
    return out


def xi(tower: Tower, n: int) -> GroupAlgebraElement:
    """Unit vector spread uniformly over one coordinate block.

    All p^3 coefficients equal p^{-3/2}; the coefficient at the identity
    word is the block's zero element, so the overlap with the identity
    basis vector is p^{-3/2} (exactly p^{-3} after squaring, see
    `xi_overlap_squared`).
    """
    coeff = tower.primes.p(n) ** -1.5
    return GroupAlgebraElement(tower, dict.fromkeys(tower.block(n), coeff))


def xi_overlap_squared(tower: Tower, n: int) -> Fraction:
    """Exact squared overlap of xi(n) with the identity basis vector."""
    return Fraction(1, tower.primes.cube(n))


class InvarianceDomainError(ValueError):
    """Raised when an invariance query lies outside the claimed index range."""


def check_xi_invariance(tower: Tower, cutoff: int, n: int, g: GroupWord) -> bool:
    """Exact check that conjugation by g fixes xi(n), for g at level <= cutoff.

    The claim is only made for cutoff >= 0 and n > cutoff; asking outside
    that raises InvarianceDomainError so callers can distinguish "outside
    the claimed range" from a genuine failure.  Because all coefficients
    of xi(n) are equal and conjugation relabels injectively, invariance is
    exactly key-set equality: the conjugates are the p^3 points of block n.
    They lie in block n exactly when the walk of g's factors over its unit
    vectors stays in K (`Tower._conj_units`, as in `block_stabilized`), and
    then they cover it: every matrix on the walk lies in SL(3, Z), so the
    block moves by a matrix of determinant 1 mod p_n, a permutation.  No
    block word is built.
    """
    if cutoff < 0:
        raise InvarianceDomainError(f"invariance is only claimed for cutoff >= 0, got {cutoff}")
    if n <= cutoff:
        raise InvarianceDomainError(
            f"invariance is only claimed for block index n > {cutoff}, got n={n}"
        )
    if not tower.in_gn(g, cutoff):
        raise ValueError(f"conjugator must lie at level <= {cutoff}, got level {g.level}")
    return tower._conj_units(n, g) is not None


def block_stabilized(tower: Tower, n: int, g: GroupWord) -> bool:
    """Exact test that conjugation by g maps block n onto itself setwise.

    It suffices to conjugate the three unit vectors: if their conjugates
    land in the block, the conjugated subgroup they generate sits inside
    a finite group of the same order, hence equals it.  One scalar walk
    over g's factors moves all three (`Tower._conj_units`); every matrix
    maps block n onto itself, so the test is whether the walk stays in K,
    and no word is built.  Equivalent to check_xi_invariance without the
    domain restriction.
    """
    return tower._conj_units(n, g) is not None


def search_invariance_violation(
    tower: Tower, cutoff: int, n: int, max_length: int = 2
) -> GroupWord | None:
    """Search for g at level <= cutoff whose conjugation moves xi(n).

    Tries all words of length <= max_length over the level-cutoff letter
    alphabet.  Returns a violating word, or None if the search radius was
    exhausted (an inconclusive outcome, not a proof of invariance).
    """
    letters = tower.alphabet(cutoff)
    frontier = [tower.identity()]
    for _ in range(max_length):
        frontier = [tower.mul(w, letter) for w in frontier for letter in letters]
        for g in frontier:
            if not g.is_identity and not block_stabilized(tower, n, g):
                return g
    return None


def conditional_expectation(v: GroupAlgebraElement, cutoff: int) -> GroupAlgebraElement:
    """Orthogonal projection keeping the coefficients supported at or above the cutoff block."""
    tw = v.tower
    return GroupAlgebraElement(tw, {w: c for w, c in v.coeffs.items() if tw.in_kn(w, cutoff)})


@dataclass(frozen=True)
class OrthogonalityReport:
    """Both sides of the conjugation-versus-expectation norm inequality."""

    passed: bool
    lhs: float
    rhs: float
    lhs_squared: object
    rhs_squared: object
    disjoint_supports: bool


def orthogonality_inequality_check(y: GroupAlgebraElement, cutoff: int) -> OrthogonalityReport:
    """Exact check of ||g y g^{-1} - y|| >= ||y - E(y)|| for the next stable letter.

    `y` must be supported on the base lattice.  The conjugator is the
    stable letter at level cutoff+1, which commutes with everything at or
    above the cutoff block; the moved part of y is carried outside the
    lattice, so the difference splits into two summands with disjoint
    supports, verified here alongside the inequality itself.
    """
    tw = y.tower
    for w in y.coeffs:
        if not tw.in_k(w):
            raise ValueError(f"support must lie in the base lattice, found {w.format()}")
    g = tw.stable(cutoff + 1)
    expected = conditional_expectation(y, cutoff)
    residual = y.sub(expected)
    # one conjugation per key: the residual's keys are a subset of y's,
    # and adjoint_apply keeps y's key order
    moved = adjoint_apply(g, y)
    image = dict(zip(y.coeffs, moved.coeffs))
    disjoint = all(not tw.in_k(image[w]) for w in residual.coeffs)
    difference = moved.sub(y)
    lhs_squared = difference.norm_squared()
    rhs_squared = residual.norm_squared()
    return OrthogonalityReport(
        passed=lhs_squared >= rhs_squared,
        lhs=math.sqrt(lhs_squared),
        rhs=math.sqrt(rhs_squared),
        lhs_squared=lhs_squared,
        rhs_squared=rhs_squared,
        disjoint_supports=disjoint,
    )
