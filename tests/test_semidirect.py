"""Base group: finitely supported lattice vectors twisted by matrices."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from amalgam import semidirect
from amalgam.matrices import ELEMENTARY_GENERATORS, IDENTITY_MATRIX, elementary, generator_ball
from amalgam.primes import PrimeSeq
from amalgam.semidirect import G0Element, KVector, ZERO_K, codes, image_table, points
from amalgam.words import Tower

PRIMES = PrimeSeq.parse("2,3,5")
GENS = [elementary(i, j, s) for i in range(3) for j in range(3) if i != j for s in (1, -1)]


def test_kvector_zero_and_single():
    assert ZERO_K.is_zero
    assert ZERO_K.support == ()
    v = KVector.single(PRIMES, 1, (1, 2, 0))
    assert v.support == (1,)
    assert v.block(1) == (1, 2, 0)
    assert v.block(0) == (0, 0, 0)


def test_kvector_single_reduces_mod_p():
    v = KVector.single(PRIMES, 0, (3, -1, 2))
    assert v.block(0) == (1, 1, 0)
    assert KVector.single(PRIMES, 2, (5, 10, -5)).is_zero


def test_from_mapping_drops_zero_blocks_and_sorts():
    v = KVector.from_mapping(PRIMES, {2: (1, 0, 0), 0: (1, 1, 0), 1: (0, 3, 0)})
    assert v.support == (0, 2)
    with pytest.raises(ValueError, match="3 coordinates"):
        KVector.from_mapping(PRIMES, {0: (1,)})


def test_coordinates_and_block_indices_must_be_integers():
    # 1.7 and "2" were once read as 1 and 2, through KVector.from_mapping
    for bad in (1.7, "2", 2.0):
        with pytest.raises(ValueError, match=f"^coordinates must be integers, got {bad!r}$"):
            KVector.from_mapping(PRIMES, {1: (bad, 0, 0)})
    tower = Tower(PRIMES)
    with pytest.raises(ValueError, match="coordinates must be integers"):
        tower.h(1, (1.7, 0, 0))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        tower.k_vector({0: (1, 0, 0), 1: ("2", 0, 0)})
    assert tower.h(1, np.array([4, 1, 0])).g0.k.items == ((1, (1, 1, 0)),)
    # a block index too: 1.0 raised TypeError, and True was kept as the index
    with pytest.raises(ValueError, match="^block indices must be integers, got 1.0$"):
        tower.h(1.0, (1, 0, 0))
    assert tower.h(True, (1, 0, 0)).format() == tower.h(np.int64(1), (1, 0, 0)).format() == "h(1;1,0,0)"


def test_add_is_blockwise_mod_p():
    a = KVector.single(PRIMES, 0, (1, 1, 0))
    assert a.add(a, PRIMES).is_zero
    c = KVector.single(PRIMES, 2, (4, 0, 0))
    s = a.add(c, PRIMES)
    assert s.support == (0, 2)
    assert s.block(2) == (4, 0, 0)


def test_add_merges_disjoint_supports_in_order():
    lo = KVector.single(PRIMES, 0, (1, 0, 0))
    hi = KVector.single(PRIMES, 2, (0, 0, 3))
    assert lo.add(hi, PRIMES).support == (0, 2)
    assert hi.add(lo, PRIMES).support == (0, 2)
    assert lo.add(ZERO_K, PRIMES) is lo
    assert ZERO_K.add(hi, PRIMES) is hi


def test_neg_is_additive_inverse():
    rng = random.Random(11)
    for _ in range(50):
        blocks = {
            n: tuple(rng.randrange(PRIMES.p(n)) for _ in range(3))
            for n in rng.sample(range(3), rng.randrange(1, 4))
        }
        v = KVector.from_mapping(PRIMES, blocks)
        assert v.add(v.neg(PRIMES), PRIMES).is_zero


def test_act_is_blockwise_matrix_action():
    v = KVector.single(PRIMES, 1, (1, 0, 0))
    m = elementary(1, 0, 1)  # adds coordinate 0 into coordinate 1
    assert v.act(m, PRIMES).block(1) == (1, 1, 0)
    assert v.act(IDENTITY_MATRIX, PRIMES) == v


def test_act_is_group_action():
    rng = random.Random(3)
    for _ in range(40):
        v = KVector.single(PRIMES, rng.randrange(3), tuple(rng.randrange(5) for _ in range(3)))
        a, b = rng.choice(GENS), rng.choice(GENS)
        assert v.act(b, PRIMES).act(a, PRIMES) == v.act(a * b, PRIMES)


def test_supported_at_or_above():
    v = KVector.from_mapping(PRIMES, {1: (1, 0, 0), 2: (0, 1, 0)})
    assert v.supported_at_or_above(1)
    assert not v.supported_at_or_above(2)
    assert ZERO_K.supported_at_or_above(10)


def test_g0_twisted_law_worked_example():
    # (k, a) (k', a') = (k + a k', a a'); with a adding coordinate 0 into
    # coordinate 1, a e_0 = (1, 1, 0), so block 0 of the product is
    # (1, 0, 0) + (1, 1, 0) = (0, 1, 0) mod 2.
    a = elementary(1, 0, 1)
    left = G0Element(KVector.single(PRIMES, 0, (1, 0, 0)), a)
    right = G0Element(KVector.single(PRIMES, 0, (1, 0, 0)), IDENTITY_MATRIX)
    prod = left.mul(right, PRIMES)
    assert prod.k.block(0) == (0, 1, 0)
    assert prod.lam == a


def test_g0_inverse_and_identity():
    rng = random.Random(5)
    for _ in range(60):
        lam = IDENTITY_MATRIX
        for _ in range(rng.randrange(3)):
            lam = lam * rng.choice(GENS)
        g = G0Element(KVector.single(PRIMES, rng.randrange(3), (1, rng.randrange(3), 0)), lam)
        assert g.mul(g.inv(PRIMES), PRIMES).is_identity
        assert g.inv(PRIMES).mul(g, PRIMES).is_identity
    assert G0Element.identity().is_identity


def test_g0_associativity_random():
    rng = random.Random(9)

    def sample() -> G0Element:
        k = KVector.single(PRIMES, rng.randrange(3), tuple(rng.randrange(4) for _ in range(3)))
        return G0Element(k, rng.choice(GENS))

    for _ in range(80):
        a, b, c = sample(), sample(), sample()
        assert a.mul(b, PRIMES).mul(c, PRIMES) == a.mul(b.mul(c, PRIMES), PRIMES)


def test_points_decodes_codes():
    # the decoder against an independent reference: lex order of the
    # triples, a round trip on sampled codes, and a scalar code's shape
    for p in (2, 3, 5, 7):
        assert points(np.arange(p**3), p).tolist() == [
            list(x) for x in itertools.product(range(p), repeat=3)
        ]
    rng = np.random.default_rng(0)
    for p in (47, 211):
        sample = rng.integers(0, p**3, size=10_000)
        assert np.array_equal(codes(points(sample, p), p), sample)
    assert points(5 * 49 + 2 * 7 + 6, 7).shape == (3,)
    assert points(5 * 49 + 2 * 7 + 6, 7).tolist() == [5, 2, 6]


def test_image_tables_are_the_action_and_cached_only_for_small_blocks():
    # above p = 11 a table is built per call and not kept; at every size it
    # is a read-only permutation that sends the code of x to the code of g x
    rng = random.Random(3)
    matrices = list(ELEMENTARY_GENERATORS) + rng.sample(generator_ball(3), 4)
    semidirect._cached_image_table.cache_clear()
    for p in (2, 11, 13, 47):
        sample = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(200)]
        for g in matrices:
            table = image_table(p, g)
            assert not table.flags.writeable
            assert (image_table(p, g) is table) == (p <= 11)
            assert codes([g.apply(x, p) for x in sample], p).tolist() == (
                table[codes(sample, p)].tolist())
        assert np.array_equal(np.sort(table), np.arange(p**3))
    assert semidirect._cached_image_table.cache_info().currsize == 2 * len(set(matrices))
