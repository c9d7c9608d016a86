"""Seeded random generators used by the verification sweeps."""
from __future__ import annotations

from fractions import Fraction

from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.words import Tower

PRIMES = PrimeSeq.parse("2,3,5")
TOWER = Tower(PRIMES)


def test_same_seed_same_stream():
    a, b = Sampler(TOWER, seed=5), Sampler(TOWER, seed=5)
    for _ in range(20):
        assert TOWER.eq(a.word(4, level_cap=2), b.word(4, level_cap=2))
    c = Sampler(TOWER, seed=6)
    words_a = [Sampler(TOWER, seed=5).word(4, 2) for _ in range(1)]
    words_c = [c.word(4, 2) for _ in range(1)]
    assert not all(TOWER.eq(x, y) for x, y in zip(words_a, words_c))


def test_word_respects_level_cap():
    s = Sampler(TOWER, seed=1)
    for _ in range(50):
        assert s.word(5, level_cap=1).level <= 1
        assert s.word(5, level_cap=0).level == 0


def test_base_factor_escapes_commuting_subgroup():
    s = Sampler(TOWER, seed=2)
    for level in (1, 2, 3):
        for _ in range(20):
            f = s.base_factor(level)
            assert not f.is_identity
            assert f.level < level
            assert not TOWER.in_kn(f, level - 1)


def test_base_factor_blocks_clamped_to_configured_primes():
    one = Tower(PrimeSeq.parse("2"))
    s = Sampler(one, seed=4)
    for _ in range(40):
        f = s.base_factor(3)
        assert not one.in_kn(f, 2)
        if f.level == 0:
            assert set(f.g0.k.support) <= {0}


def test_reduced_word_shape():
    s = Sampler(TOWER, seed=3)
    for level in (1, 2, 3):
        for syllables in (1, 2, 3):
            w = s.reduced_word(level, syllables)
            assert w.level == level
            assert w.syllable_count >= 1
            assert not w.is_identity


def test_block_triple_and_lattice_words():
    s = Sampler(TOWER, seed=4)
    for _ in range(30):
        t = s.block_triple(1, nonzero=True)
        assert t != (0, 0, 0)
        assert all(0 <= c < 3 for c in t)
        w = s.lattice_word((0, 1), nonzero=True)
        assert TOWER.in_k(w)
        assert not w.is_identity


def test_lattice_word_in_and_escaping():
    s = Sampler(TOWER, seed=8)
    for cutoff in (1, 2):
        for _ in range(30):
            inside = s.lattice_word_in(cutoff)
            assert TOWER.in_kn(inside, cutoff)
            escaping = s.lattice_word_escaping(cutoff)
            assert TOWER.in_k(escaping)
            assert not TOWER.in_kn(escaping, cutoff)


def test_value_generators_stay_in_bounds():
    s = Sampler(TOWER, seed=9)
    values = s.unit_ball_values(64)
    assert len(values) == 64
    assert all(isinstance(v, Fraction) and abs(v) <= 1 for v in values)
    for _ in range(50):
        u = s.rational_unit()
        assert abs(u) <= 1


def test_lattice_vector_is_lattice_supported():
    s = Sampler(TOWER, seed=10)
    v = s.lattice_vector((0, 1), size=5)
    assert v.support_size > 0
    assert all(TOWER.in_k(w) for w in v.support)
