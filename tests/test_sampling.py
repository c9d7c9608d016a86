"""Seeded random generators used by the verification sweeps."""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from amalgam.fourier import GroupAlgebraElement
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler, _below
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
    # each sampler builds its own table of rational units: a fresh one repeats the values
    values = Sampler(TOWER, seed=5).unit_ball_values(200)
    assert Sampler(TOWER, seed=5).unit_ball_values(200) == values


def test_seed_and_word_length_must_be_integers():
    # a seed of 2.5 was once accepted, and word(2.0, 1) raised AttributeError
    for bad in (2.5, "1", None):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad!r}$"):
            Sampler(TOWER, seed=bad)
    with pytest.raises(ValueError, match="^word lengths must be integers, got 2.0$"):
        Sampler(TOWER, seed=1).word(2.0, 1)
    reference = Sampler(TOWER, seed=1)
    words = [reference.word(4, 2) for _ in range(10)]
    for seed, length in ((np.int64(1), np.int32(4)), (True, 4)):
        s = Sampler(TOWER, seed=seed)
        assert [s.word(length, 2) for _ in range(10)] == words


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


# The per-block construction the samplers replaced, one `Tower.h` and one
# `Tower.mul` per kept block, drawing from the sampler's rng in the same
# order: the reference for the one-vector lattice samplers.
def _ref_triple(s: Sampler, block: int, nonzero: bool = False):
    p = s.tower.primes.p(block)
    while True:
        coords = tuple(s.rng.randrange(p) for _ in range(3))
        if not nonzero or any(coords):
            return coords


def _ref_lattice_word(s: Sampler, blocks, nonzero: bool = False):
    tw = s.tower
    w = tw.identity()
    picked = [b for b in blocks if s.rng.random() < 0.7]
    if nonzero and not picked:
        picked = [s.rng.choice(list(blocks))]
    for b in picked:
        w = tw.mul(w, tw.h(b, _ref_triple(s, b, nonzero=nonzero)))
    return w


def _ref_lattice_word_in(s: Sampler, cutoff: int, width: int = 2):
    return _ref_lattice_word(s, range(cutoff, min(cutoff + width, len(s.tower.primes))))


def _ref_lattice_word_escaping(s: Sampler, cutoff: int, width: int = 2):
    tw = s.tower
    low = s.rng.randrange(cutoff)
    w = tw.h(low, _ref_triple(s, low, nonzero=True))
    return tw.mul(w, _ref_lattice_word_in(s, cutoff, width))


def _ref_lattice_vector(s: Sampler, blocks, size: int = 4):
    coeffs = {}
    for _ in range(size):
        w = _ref_lattice_word(s, blocks)
        coeffs[w] = coeffs.get(w, 0) + Fraction(s.rng.randint(-9, 9), s.rng.randint(1, 9))
    return GroupAlgebraElement(s.tower, coeffs)


@pytest.mark.parametrize("primes", ["2,3,5", None], ids=["2,3,5", "default"])
@pytest.mark.parametrize("seed", range(4))
def test_lattice_samplers_match_the_per_block_products(primes, seed):
    tw = Tower(PrimeSeq.parse(primes) if primes else None)
    new, ref = Sampler(tw, seed=seed), Sampler(tw, seed=seed)

    def same(got, expected):
        assert got == expected and got.format() == expected.format()
        assert got.is_identity == expected.is_identity
        assert new.rng.getstate() == ref.rng.getstate()

    kinds = set()
    for _ in range(25):
        for blocks in ((0, 1), range(3)):
            for nonzero in (False, True):
                w = new.lattice_word(blocks, nonzero=nonzero)
                same(w, _ref_lattice_word(ref, blocks, nonzero=nonzero))
                kinds.add(len(w.g0.k.items))
            got, expected = new.lattice_vector(blocks), _ref_lattice_vector(ref, blocks)
            assert list(got.coeffs.items()) == list(expected.coeffs.items())
            assert new.rng.getstate() == ref.rng.getstate()
        for cutoff in (1, 2, 3):
            same(new.lattice_word_in(cutoff), _ref_lattice_word_in(ref, cutoff))
            same(new.lattice_word_escaping(cutoff), _ref_lattice_word_escaping(ref, cutoff))
    assert kinds == {0, 1, 2, 3}  # the identity and one, two and three blocks all occur


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.lattice_word_escaping(0),
        lambda s: s.lattice_word_escaping(-1),
        lambda s: s.lattice_word_escaping(len(PRIMES) + 1),
        lambda s: s.lattice_word((), nonzero=True),
        lambda s: s.lattice_word((1, 1)),
        lambda s: s.lattice_word((0, 2, 0), nonzero=True),
        lambda s: s.lattice_vector((2, 2)),
        lambda s: s.lattice_word((0, 7)),
        lambda s: s.lattice_word((-1,)),
        lambda s: s.lattice_word((0, len(PRIMES)), nonzero=True),
        lambda s: s.lattice_vector((1, 7)),
        lambda s: s.lattice_word_in(-1),
        lambda s: s.lattice_word_in(len(PRIMES) + 1),
        lambda s: s.lattice_word_in(1, width=0),
        lambda s: s.lattice_word_escaping(1, width=0),
    ],
    ids=["escaping-0", "escaping-negative", "escaping-past-primes", "nonzero-no-blocks",
         "repeated-block", "repeated-block-nonzero", "vector-repeated-block",
         "block-past-primes", "block-negative", "block-past-primes-nonzero",
         "vector-block-past-primes", "in-negative", "in-past-primes", "in-width-0",
         "escaping-width-0"],
)
def test_bad_lattice_requests_raise_before_any_draw(call):
    # at every seed: whether a draw happens to reach a bad block must not matter
    for seed in (0, 1, 2, 3, 4, 5, 12):
        s = Sampler(TOWER, seed=seed)
        state = s.rng.getstate()
        with pytest.raises(ValueError, match="must lie|needs at least one block|distinct|width"):
            call(s)
        assert s.rng.getstate() == state


def test_escaping_accepts_every_cutoff_up_to_the_prime_count():
    s = Sampler(TOWER, seed=13)
    assert s.lattice_word_in(len(PRIMES)).is_identity  # the high part escaping builds on
    for cutoff in range(1, len(PRIMES) + 1):
        w = s.lattice_word_escaping(cutoff)
        assert TOWER.in_k(w) and not TOWER.in_kn(w, cutoff)
    assert s.lattice_word((), nonzero=False).is_identity


_SIZES = sorted(set(range(1, 71)) | {2**k + d for k in range(1, 41) for d in (-1, 0, 1)})


@pytest.mark.parametrize("seed", (0, 1, 7, 2**40 + 3))
def test_below_is_randrange_draw_for_draw(seed):
    mine, ref = random.Random(seed), random.Random(seed)
    for n in _SIZES:
        for _ in range(3):
            assert _below(mine, n) == ref.randrange(n), n
        assert mine.getstate() == ref.getstate(), n


def test_below_refuses_an_empty_range_before_any_draw():
    rng = random.Random(3)
    state = rng.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            _below(rng, n)
    assert rng.getstate() == state


# The word and number samplers as they drew through randrange, randint and
# choice: the reference for `_below` and its inlined copies.
def _ref_word(s: Sampler, length: int, level_cap: int):
    letters = s.tower.alphabet(level_cap)
    w = s.tower.identity()
    for _ in range(s.rng.randint(1, max(1, length))):
        w = s.tower.mul(w, s.rng.choice(letters))
    return w


def _ref_base_factor(s: Sampler, level: int):
    tw = s.tower
    while True:
        choice = s.rng.random()
        if choice < 0.4:
            block = s.rng.randint(0, min(max(0, level - 2), len(tw.primes) - 1))
            w = tw.h(block, tuple(s.rng.randrange(tw.primes.p(block)) for _ in range(3)))
        elif choice < 0.8:
            w = s.rng.choice(tw.alphabet(0))
            if s.rng.random() < 0.5:
                w = tw.mul(w, s.rng.choice(tw.alphabet(0)))
        elif level >= 2:
            w = tw.stable(s.rng.randint(1, level - 1), s.rng.choice((-1, 1)))
        else:
            w = s.rng.choice(tw.alphabet(0))
        if not w.is_identity and not tw.in_kn(w, level - 1):
            return w


def _ref_reduced_word(s: Sampler, level: int, syllables: int):
    tw = s.tower
    w = _ref_base_factor(s, level) if s.rng.random() < 0.5 else tw.identity()
    for i in range(syllables):
        w = tw.mul(w, tw.stable(level, s.rng.choice((-2, -1, 1, 2))))
        if i < syllables - 1:
            w = tw.mul(w, _ref_base_factor(s, level))
    if s.rng.random() < 0.5:
        w = tw.mul(w, _ref_base_factor(s, level))
    return w


def _ref_rational_unit(s: Sampler, denominator: int = 99):
    if s.rng.random() < 0.2:
        return Fraction(s.rng.choice((-1, 1)))
    return Fraction(s.rng.randint(-denominator, denominator), denominator)


@pytest.mark.parametrize("denominator", [1, 7, 99])
def test_rational_units_match_the_randrange_draws(denominator):
    new, ref = Sampler(TOWER, seed=denominator), Sampler(TOWER, seed=denominator)
    for _ in range(300):
        got = new.rational_unit(denominator)
        assert type(got) is Fraction and got == _ref_rational_unit(ref, denominator)
        assert new.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", range(3))
def test_word_and_number_samplers_match_the_randrange_draws(seed):
    new, ref = Sampler(TOWER, seed=seed), Sampler(TOWER, seed=seed)

    def same(got, expected):
        assert got == expected and got.format() == expected.format()
        assert new.rng.getstate() == ref.rng.getstate()

    for _ in range(20):
        for level in (0, 1, 2, 3):
            for length in (0, 1, 6):
                same(new.word(length, level), _ref_word(ref, length, level))
            same(new.letter(level), ref.rng.choice(TOWER.alphabet(level)))
        for level in (1, 2, 3):
            same(new.base_factor(level), _ref_base_factor(ref, level))
            same(new.reduced_word(level, 2), _ref_reduced_word(ref, level, 2))
        assert new.rational_unit() == _ref_rational_unit(ref)
        assert new.rng.getstate() == ref.rng.getstate()
