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
itself, which `block_stabilized` decides.  Both decide by the glued-subgroup
rule of `Tower.conj`: g of level L maps block n onto itself exactly when
n >= L-1, and build no word.
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
    the claimed range" from a genuine failure, and a block n with no
    configured prime raises IndexError.  Because all coefficients of xi(n)
    are equal and conjugation relabels injectively, invariance is exactly
    block n being mapped onto itself, which holds exactly when
    n >= g.level - 1 (see `block_stabilized`).  Within the domain
    n > cutoff >= g.level, so the answer is always True.  No word is built.
    """
    if cutoff < 0:
        raise InvarianceDomainError(f"invariance is only claimed for cutoff >= 0, got {cutoff}")
    if n <= cutoff:
        raise InvarianceDomainError(
            f"invariance is only claimed for block index n > {cutoff}, got n={n}"
        )
    if not tower.in_gn(g, cutoff):
        raise ValueError(f"conjugator must lie at level <= {cutoff}, got level {g.level}")
    return block_stabilized(tower, n, g)


def block_stabilized(tower: Tower, n: int, g: GroupWord) -> bool:
    """Exact test that conjugation by g maps block n onto itself setwise.

    Let L be g's level.  For n >= L-1, block n lies in the glued subgroup
    K_{L-1}, on which conjugation by g is the action of the matrix part of
    g's retraction to G_0 (`Tower._retract_act`): a matrix of SL(3, Z),
    invertible mod p_n, so it maps the block onto itself.  For n < L-1
    and v nonzero in the block, write g = x_0 t^{m_1} x_1 ... t^{m_r} x_r
    reduced: x_r v x_r^{-1} lies outside K_{L-1} (else v, its image under
    x_r^{-1}, would lie in it), as do x_1, ..., x_{r-1}, so g v g^{-1} is
    a reduced word of level L, outside K.  So the answer is n >= L-1,
    that is g in G_{n+1}, and no word is built.  A block n with no
    configured prime raises IndexError, and a word of a tower with other
    primes ValueError.  Equivalent to check_xi_invariance without the
    domain restriction.
    """
    tower.primes.p(n)
    return tower.in_gn(g, n + 1)


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
