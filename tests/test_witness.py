"""Witness vectors: block-uniform states, invariance, and orthogonality."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from amalgam.fourier import GroupAlgebraElement
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.witness import (
    InvarianceDomainError,
    adjoint_apply,
    block_stabilized,
    check_xi_invariance,
    conditional_expectation,
    delta,
    orthogonality_inequality_check,
    search_invariance_violation,
    xi,
    xi_overlap_squared,
)
from amalgam.words import Tower

PRIMES = PrimeSeq.parse("2,3,5,7,11")


@pytest.fixture(scope="module")
def tw() -> Tower:
    return Tower(PRIMES)


def test_l2_vector_basics(tw: Tower):
    v = delta(tw, tw.identity())
    assert v.norm_squared() == 1
    assert v.support_size == 1
    w = v.scale(Fraction(1, 2)).add(delta(tw, tw.stable(1)))
    assert w.norm_squared() == Fraction(5, 4)
    assert w.sub(w).support_size == 0
    assert w.coefficient(tw.stable(1)) == 1


def test_l2_vector_is_the_group_algebra_element(tw: Tower):
    v = xi(tw, 1)
    assert isinstance(v, GroupAlgebraElement)
    assert v.star().equals(v)  # a uniform block vector is self-adjoint
    assert v.inner(delta(tw, tw.identity())) == v.trace()


def test_inner_is_conjugate_linear_in_self(tw: Tower):
    a = GroupAlgebraElement(tw, {tw.identity(): 1 + 1j})
    b = GroupAlgebraElement(tw, {tw.identity(): 2j})
    assert a.inner(b) == (1 - 1j) * 2j
    assert abs(a.inner(a) - a.norm_squared()) < 1e-12
    assert a.norm_squared() == 2.0  # re*re + im*im; abs(c)**2 reads 2.0000000000000004


def test_xi_is_uniform_unit_vector(tw: Tower):
    for n in range(3):
        p = PRIMES.p(n)
        v = xi(tw, n)
        assert v.support_size == p**3
        assert abs(v.norm_squared() - 1) < 1e-12
        overlap = v.coefficient(tw.identity())
        assert abs(overlap**2 - float(xi_overlap_squared(tw, n))) < 1e-12
        assert xi_overlap_squared(tw, n) == Fraction(1, p**3)


def test_adjoint_apply_preserves_norm_and_composes(tw: Tower):
    sampler = Sampler(tw, seed=19)
    for _ in range(25):
        v = GroupAlgebraElement(
            tw,
            {sampler.lattice_word((0, 1), nonzero=True): Fraction(1, 2), tw.identity(): Fraction(1, 3)},
        )
        g = sampler.word(3, level_cap=2)
        image = adjoint_apply(g, v)
        assert image.norm_squared() == v.norm_squared()
        h = sampler.word(2, level_cap=1)
        composed = adjoint_apply(tw.mul(g, h), v)
        stepwise = adjoint_apply(g, adjoint_apply(h, v))
        # keys may reduce to different spellings of the same element, so
        # compare semantically, key by key
        assert composed.support_size == stepwise.support_size
        for k, c in composed.coeffs.items():
            matches = [d for m, d in stepwise.coeffs.items() if tw.eq(k, m)]
            assert matches == [c]


def test_adjoint_apply_structural_for_matrix_conjugators(tw: Tower):
    # Matrix conjugation of lattice keys stays on canonical base words, so
    # structural equality of the composition law holds on the nose.
    sampler = Sampler(tw, seed=29)
    for _ in range(25):
        v = GroupAlgebraElement(tw, {sampler.lattice_word((0, 1, 2), nonzero=True): 1.0})
        g, h = sampler.word(2, level_cap=0), sampler.word(2, level_cap=0)
        assert adjoint_apply(tw.mul(g, h), v).equals(adjoint_apply(g, adjoint_apply(h, v)))


def test_check_xi_invariance_for_letters(tw: Tower):
    for cutoff in (0, 1, 2):
        for n in (cutoff + 1, cutoff + 2):
            for letter in tw.alphabet(cutoff):
                assert check_xi_invariance(tw, cutoff, n, letter)


def test_check_xi_invariance_domain_guard(tw: Tower):
    with pytest.raises(InvarianceDomainError):
        check_xi_invariance(tw, 2, 2, tw.identity())
    with pytest.raises(ValueError, match="level"):
        check_xi_invariance(tw, 0, 1, tw.stable(1))


def test_check_xi_invariance_rejects_broken_conjugation(monkeypatch):
    # Within its domain the check always holds, so each way it can fail is
    # shown with a substituted conjugation: one leaving the lattice, one
    # leaving block n, one spanning two blocks, one not onto the block
    tower = Tower(PRIMES)
    n, g = 2, tower.stable(1)
    block = tower.block(n)
    moved = {
        "lattice": tower.stable(1),
        "block": tower.h(n - 1, (1, 0, 0)),
        "span": tower.k_vector({n: (0, 0, 1), n + 1: (1, 0, 0)}),  # block n part is block[1]
        "onto": block[2],
    }
    for label, image in moved.items():
        monkeypatch.setattr(Tower, "conj", lambda self, k, g: image if k is block[1] else k)
        assert not check_xi_invariance(tower, 1, n, g), label
    monkeypatch.setattr(Tower, "conj", lambda self, k, g: block[-1 - block.index(k)])
    assert check_xi_invariance(tower, 1, n, g)  # a relabelling onto the block


def test_block_stabilized_matches_full_check(tw: Tower):
    sampler = Sampler(tw, seed=37)
    for _ in range(40):
        g = sampler.word(3, level_cap=1)
        assert block_stabilized(tw, 2, g) == check_xi_invariance(tw, 1, 2, g)


def test_block_stabilized_detects_movement(tw: Tower):
    # the level-2 letter moves block 0: conjugation leaves the lattice
    assert not block_stabilized(tw, 0, tw.stable(2))
    assert block_stabilized(tw, 1, tw.stable(2))
    # a matrix moves every block setwise-invariantly
    lam = tw.lam(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert block_stabilized(tw, 0, lam)


# Violation search over increasing levels: a mover of block n exists at
# level N exactly when N >= n + 2, and the first such mover is the stable
# letter at level n + 2.
VIOLATION_CASES = (
    (1, 0, False),
    (2, 0, True),
    (2, 1, False),
    (3, 0, True),
    (3, 1, True),
)


@pytest.mark.parametrize("cutoff,n,expected", VIOLATION_CASES)
def test_search_invariance_violation(tw: Tower, cutoff, n, expected):
    found = search_invariance_violation(tw, cutoff, n, max_length=2)
    if expected:
        assert found is not None
        assert not block_stabilized(tw, n, found)
        assert tw.membership(found, f"G{cutoff}")
    else:
        assert found is None  # inconclusive at this radius, and truly invariant


def test_conditional_expectation_projects(tw: Tower):
    sampler = Sampler(tw, seed=41)
    for _ in range(30):
        v = GroupAlgebraElement(
            tw,
            {
                sampler.lattice_word_escaping(1): Fraction(1, 2),
                sampler.lattice_word_in(1): Fraction(1, 3),
            },
        )
        e = conditional_expectation(v, 1)
        assert conditional_expectation(e, 1).equals(e)  # idempotent
        assert e.norm_squared() <= v.norm_squared()  # contractive
        for w in e.support:
            assert tw.in_kn(w, 1)


def test_orthogonality_worked_example(tw: Tower):
    # y = delta at a block-0 point: E(y) for cutoff 1 is zero, conjugation
    # moves everything, and the inequality is exact equality times two.
    y = delta(tw, tw.h(0, (1, 0, 0)))
    report = orthogonality_inequality_check(y, 1)
    assert report.passed
    assert report.disjoint_supports
    assert report.lhs_squared == 2
    assert report.rhs_squared == 1


def test_orthogonality_doubling_identity(tw: Tower):
    # For lattice-supported y the two summands are orthogonal of equal
    # norm, so lhs^2 = 2 rhs^2 exactly.
    sampler = Sampler(tw, seed=47)
    for cutoff in (1, 2):
        for _ in range(40):
            y = GroupAlgebraElement(
                tw,
                {
                    sampler.lattice_word_escaping(cutoff): sampler.rational_unit(),
                    sampler.lattice_word_in(cutoff): sampler.rational_unit(),
                },
            )
            report = orthogonality_inequality_check(y, cutoff)
            assert report.passed
            assert report.disjoint_supports
            assert report.lhs_squared == 2 * report.rhs_squared


def test_orthogonality_rejects_non_lattice_support(tw: Tower):
    v = delta(tw, tw.stable(1))
    with pytest.raises(ValueError, match="lattice"):
        orthogonality_inequality_check(v, 1)


def test_invariant_vector_gives_zero_residual(tw: Tower):
    y = GroupAlgebraElement(tw, {tw.h(2, (1, 0, 0)): Fraction(1)})  # supported above cutoff 1
    report = orthogonality_inequality_check(y, 1)
    assert report.passed
    assert report.lhs_squared == 0
    assert report.rhs_squared == 0


def test_full_xi_check_agrees_with_block_stabilized(tw: Tower):
    # every letter at every (cutoff, n) the xi suite uses on these primes;
    # every pair at (0, 1), and a seeded sample of pairs at the larger
    # blocks, where the full key-set check costs p^3 conjugations a word
    rng = random.Random(61)
    for cutoff, n in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)):
        letters = tw.alphabet(cutoff)
        pairs = [(a, b) for a in letters for b in letters]
        if (cutoff, n) != (0, 1):
            pairs = rng.sample(pairs, 30)
        words = list(letters) + [tw.mul(a, b) for a, b in pairs]
        for g in words:
            assert check_xi_invariance(tw, cutoff, n, g) == block_stabilized(tw, n, g)


def test_xi_is_uniform_over_the_block_words(tw: Tower):
    for n in range(3):
        v = xi(tw, n)
        assert list(v.coeffs) == list(tw.block(n))
        assert set(v.coeffs.values()) == {tw.primes.p(n) ** -1.5}
