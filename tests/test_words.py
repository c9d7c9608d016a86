"""Tower arithmetic: reduced words across the amalgamated levels."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.grammar import parse_element
from amalgam.matrices import ELEMENTARY_GENERATORS, IDENTITY_MATRIX, LambdaMatrix, generator_ball
from amalgam.orbits import SizeGuardExceeded
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.semidirect import G0Element, KVector, codes, points
from amalgam.words import GroupWord, Tower, _word
from timelimit import time_limit

PRIMES = PrimeSeq.parse("2,3,5")


@pytest.fixture(scope="module")
def tw() -> Tower:
    return Tower(PRIMES)


def test_identity_and_builders(tw: Tower):
    assert tw.identity().is_identity
    assert tw.h(2, (0, 5, 0)).is_identity  # coords reduce mod p = 5
    g = tw.h(1, (1, 2, 0))
    assert g.level == 0
    assert tw.in_k(g)
    assert not tw.in_lambda(g)


def test_stable_letter_levels(tw: Tower):
    t1 = tw.stable(1)
    t2 = tw.stable(2)
    assert t1.level == 1
    assert t2.level == 2
    assert tw.mul(t1, tw.inv(t1)).is_identity
    assert tw.eq(tw.mul(t1, t1), tw.stable(1, 2))


def test_stable_level_and_power_must_be_integers(tw: Tower):
    # t(1)^1.5 and t(1.0) were once built and formatted as such
    with pytest.raises(ValueError, match="^stable powers must be integers, got 1.5$"):
        tw.stable(1, 1.5)
    with pytest.raises(ValueError, match="^stable levels must be integers, got 1.0$"):
        tw.stable(1.0)
    assert tw.stable(np.int64(2), np.int32(-3)).format() == "t(2)^-3"


def test_stable_commutes_with_high_blocks(tw: Tower):
    # The level-m letter centralizes exactly the blocks n >= m - 1, so the
    # conjugate demotes back to the base group and equals the input.
    for m in (1, 2, 3):
        t = tw.stable(m)
        for n in range(m - 1, 3):
            k = tw.h(n, (1, 1, 0))
            image = tw.conj(k, t)
            assert image.level == 0
            assert tw.eq(image, k)


def test_stable_moves_low_blocks(tw: Tower):
    # Below the centralized range the conjugate stays a genuine level-m word.
    for m in (2, 3):
        t = tw.stable(m)
        for n in range(m - 1):
            moved = tw.conj(tw.h(n, (1, 0, 0)), t)
            assert moved.level == m
            assert not tw.in_k(moved)


def test_matrix_conjugation_is_blockwise(tw: Tower):
    lam = tw.lam(((1, 0, 0), (1, 1, 0), (0, 0, 1)))
    k = tw.h(1, (1, 0, 0))
    image = tw.conj(k, lam)
    assert tw.in_k(image)
    assert image.g0.k.block(1) == (1, 1, 0)


def test_level2_conjugate_escapes_lattice(tw: Tower):
    # Worked example: g = t(2) lam t(2)^-1 conjugating block 0 gives
    # t(2) lam t(2)^-1 k t(2) lam^-1 t(2)^-1, and no syllable cancels
    # because block 0 is outside the subgroup t(2) centralizes.
    lam = tw.lam(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    g = tw.reduce([tw.stable(2), lam, tw.inv(tw.stable(2))])
    assert g.syllable_count == 2
    k = tw.h(0, (1, 0, 0))
    image = tw.conj(k, g)
    assert image.level == 2
    assert image.syllable_count == 4
    assert not tw.in_k(image)


def test_membership_matrix(tw: Tower):
    t1, t2 = tw.stable(1), tw.stable(2)
    k1 = tw.h(1, (0, 1, 0))
    lam = tw.lam(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    assert tw.membership(k1, "K")
    assert tw.membership(k1, "K1")
    assert not tw.membership(k1, "K2")
    assert tw.membership(lam, "Lambda")
    assert tw.membership(lam, "G0")
    assert not tw.membership(lam, "K")
    assert tw.membership(t1, "G1")
    assert not tw.membership(t1, "G0")
    assert tw.membership(t2, "G2")
    assert not tw.membership(t2, "G1")
    with pytest.raises(ValueError, match="subgroup"):
        tw.membership(t1, "Q7")


@pytest.mark.parametrize("sub", ["G١", "K٣", "G_١", "G1١"])
def test_membership_refuses_non_ascii_digits(tw: Tower, sub: str):
    # as in the element grammar, only ASCII 0-9 are digits
    with pytest.raises(ValueError, match="unknown subgroup"):
        tw.membership(tw.stable(1), sub)


def test_commuting_product_demotes_level(tw: Tower):
    # t(1) K t(1)^-1 = K, so t(1) k t(1)^-1 k' is again a lattice word.
    t1 = tw.stable(1)
    k = tw.h(2, (1, 2, 3))
    w = tw.reduce([t1, k, tw.inv(t1), tw.h(0, (1, 0, 0))])
    assert w.level == 0
    assert tw.in_k(w)


def test_group_axioms_random(tw: Tower):
    sampler = Sampler(tw, seed=42)
    for _ in range(200):
        a = sampler.word(6, level_cap=3)
        b = sampler.word(6, level_cap=3)
        c = sampler.word(6, level_cap=3)
        assert tw.eq(tw.mul(tw.mul(a, b), c), tw.mul(a, tw.mul(b, c)))
        assert tw.mul(a, tw.inv(a)).is_identity
        assert tw.eq(tw.mul(a, tw.identity()), a)


def test_inverse_reverses_products(tw: Tower):
    sampler = Sampler(tw, seed=17)
    for _ in range(100):
        a = sampler.word(5, level_cap=2)
        b = sampler.word(5, level_cap=2)
        assert tw.eq(tw.inv(tw.mul(a, b)), tw.mul(tw.inv(b), tw.inv(a)))


def test_reduced_words_are_sound(tw: Tower):
    # A word with r >= 1 stable syllables after reduction is never the identity
    # and never lies in a lower level of the tower.
    sampler = Sampler(tw, seed=23)
    for _ in range(150):
        level = 1 + (_ % 3)
        w = sampler.reduced_word(level, syllables=1 + (_ % 3))
        assert not w.is_identity
        assert w.level == level
        assert not tw.in_gn(w, level - 1)


def test_reduce_accepts_iterables(tw: Tower):
    t1 = tw.stable(1)
    k = tw.h(0, (1, 1, 1))
    w1 = tw.reduce([t1, k, tw.inv(t1)])
    w2 = tw.mul(tw.mul(t1, k), tw.inv(t1))
    assert tw.eq(w1, w2)


def test_mul_rejects_foreign_words(tw: Tower):
    other = Tower(PrimeSeq.parse("2,3"))
    with pytest.raises(ValueError, match="tower"):
        tw.mul(tw.identity(), other.identity())


def test_power_matches_repeated_mul(tw: Tower):
    sampler = Sampler(tw, seed=31)
    for _ in range(30):
        w = sampler.word(4, level_cap=2)
        acc = tw.identity()
        for _ in range(3):
            acc = tw.mul(acc, w)
        assert tw.eq(w**3, acc)
        assert tw.eq(w**-2, tw.inv(tw.mul(w, w)))


def test_power_exponent_must_be_an_integer(tw: Tower):
    # w ** 2.0 once raised TypeError from `&`, and w ** "2" from `<`
    w = tw.mul(tw.stable(1), tw.h(1, (1, 2, 0)))
    for bad in (2.0, "2", None):
        with pytest.raises(ValueError, match=f"^exponents must be integers, got {bad!r}$"):
            w ** bad
    assert w ** np.int64(3) == w ** 3 and w ** np.int32(-2) == w ** -2
    assert w ** True is w and (w ** False).is_identity


def test_alphabet_contents(tw: Tower):
    letters = tw.alphabet(level_cap=2)
    assert all(any(tw.eq(tw.inv(l), m) for m in letters) for l in letters[:10])
    core = tw.alphabet(level_cap=1, block_cap=0)
    assert len(core) == 14  # 12 matrix generators + t(1)^{+-1}
    flat = tw.alphabet(level_cap=0, block_cap=1)
    assert all(w.level == 0 for w in flat)
    # memoized per tower: repeated calls share one tuple, other towers build their own
    assert tw.alphabet(level_cap=2) is letters
    other = Tower(tw.primes).alphabet(level_cap=2)
    assert other == letters and other is not letters


def test_alphabet_caps_must_be_integers():
    # alphabet(1.5) once raised TypeError from range
    tw = Tower(PRIMES)
    for caps, name, bad in (((1.5,), "level", 1.5), ((1, 2.0), "block", 2.0), (("1",), "level", "'1'")):
        with pytest.raises(ValueError, match=f"^{name} caps must be integers, got {bad}$"):
            tw.alphabet(*caps)
    assert tw.alphabet(np.int64(1), np.int32(2)) is tw.alphabet(1, 2)


# Frozen oracle: conjugate-counting growth profiles at radii 0..3.  The
# matrix row was recomputed by brute force over plain generator balls
# ({m g m^-1 : |m| <= r}); the lattice row is the orbit filling of a unit
# vector under the mod-2 matrix action (7 nonzero points in the plane).
GROWTH_CASES = (
    ("matrix", (1, 7, 40, 204)),
    ("lattice", (1, 3, 6, 7)),
)


def test_conjugate_growth_profiles(tw: Tower):
    lam = tw.lam(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    k = tw.h(0, (1, 0, 0))
    cases = {"matrix": lam, "lattice": k}
    for name, expected in GROWTH_CASES:
        profile = tw.conjugate_growth_profile(cases[name], 3)
        assert profile == expected, name


def test_conjugate_growth_guard_bounds_each_radius(tw: Tower):
    # the guard charges WORD_ENTRIES for each conjugate seen and each
    # frontier word and letter before each radius; a profile that saturates
    # runs to any radius
    lattice = tw.h(0, (1, 0, 0))
    with time_limit(10.0):
        assert tw.conjugate_growth_profile(lattice, 40, size_guard=32000) == (1, 3, 6) + (7,) * 38
        growing = tw.mul(tw.stable(2), tw.stable(1))
        with pytest.raises(SizeGuardExceeded,
                           match=r"radius 4 may hold 320864 entries, above the guard of 320000"):
            tw.conjugate_growth_profile(growing, 40, size_guard=320000)
    assert tw.conjugate_growth_profile(growing, 3, size_guard=320000) == (1, 13, 121, 883)
    with pytest.raises(SizeGuardExceeded, match="radius 1 may hold 416 entries, above the guard of 384"):
        tw.conjugate_growth_profile(growing, 1, size_guard=384)
    assert tw.conjugate_growth_profile(growing, 1, size_guard=416) == (1, 13)


def test_conjugate_growth_radius_and_guard_must_be_integers(tw: Tower):
    # a radius of 2.0 once raised TypeError from range
    k = tw.h(0, (1, 0, 0))
    for args, rule, bad in (((2.0,), "radius must be an integer", 2.0),
                            (("2",), "radius must be an integer", "'2'"),
                            ((2, 100.0), "size guard must be an integer", 100.0)):
        with pytest.raises(ValueError, match=f"^{rule}, got {bad}$"):
            tw.conjugate_growth_profile(k, *args)
    assert tw.conjugate_growth_profile(k, np.int64(3), np.int32(32000)) == (1, 3, 6, 7)
    assert tw.conjugate_growth_profile(k, True) == (1, 3)


def test_conjugate_growth_monotone_everywhere(tw: Tower):
    sampler = Sampler(tw, seed=13)
    for _ in range(6):
        w = sampler.word(3, level_cap=2)
        if w.is_identity:
            continue
        profile = tw.conjugate_growth_profile(w, 2)
        assert all(a <= b for a, b in zip(profile, profile[1:]))


def _sampled_words(tw: Tower, seed: int) -> list:
    sampler = Sampler(tw, seed=seed)
    words = [sampler.word(5, level_cap=level) for level in (0, 1, 2, 3) for _ in range(25)]
    words += [sampler.reduced_word(level, syllables=s) for level in (1, 2, 3) for s in (1, 2, 3)]
    return words + [tw.identity(), tw.lam(ELEMENTARY_GENERATORS[0]), tw.stable(3, -2)]


def test_inverse_cached_one_way_per_tower(tw: Tower):
    fresh = Tower(tw.primes)  # same primes, its own caches
    for w in _sampled_words(tw, seed=53):
        inv = tw.inv(w)
        assert tw.inv(w) is inv
        # w belongs to tw, so fresh neither reads nor fills its cache
        uncached = fresh.inv(w)
        assert uncached.tower is fresh
        assert uncached == inv and uncached.format() == inv.format()
        assert tw.mul(w, inv).is_identity
        # the cache is one way: inverting the inverse reduces it again
        back = tw.inv(inv)
        assert back == fresh.inv(uncached)
        if not w.is_identity:
            assert back is not w
            assert tw.inv(w) is inv


def test_is_identity_is_the_towers_identity_word(tw: Tower):
    e = tw.identity()
    assert tw.stable(2, 0) is e and tw.h(1, (3, 0, 0)) is e and tw.lam(IDENTITY_MATRIX) is e
    for a in _sampled_words(tw, seed=59):
        for w in (a, tw.mul(a, tw.inv(a)), tw.mul(tw.inv(a), a), tw.mul(a, a), tw.conj(a, a)):
            assert w.is_identity == tw.eq(w, e) == (w.format() == "e")
            assert w.is_identity == (w is e)


def test_block_words_in_lex_order_and_memoized(tw: Tower):
    for n in range(len(tw.primes)):
        p = tw.primes.p(n)
        block = tw.block(n)
        assert list(block) == [tw.h(n, x) for x in itertools.product(range(p), repeat=3)]
        assert tw.block(n) is block
        assert block[0] is tw.identity()
        assert (block[p * p], block[p], block[1]) == (
            tw.h(n, (1, 0, 0)), tw.h(n, (0, 1, 0)), tw.h(n, (0, 0, 1))
        )
    assert Tower(tw.primes).block(1) is not tw.block(1)
    # index i holds the point of code i, as `semidirect.points` decodes it
    four = Tower("2,3,5,7")
    for n, p in enumerate(four.primes):
        block = four.block(n)
        decoded = points(np.arange(p**3), p).tolist()
        assert len(block) == len(decoded) == p**3
        assert all(w == four.h(n, x) for w, x in zip(block, decoded))


def test_block_index_must_be_an_integer():
    # block(1.0) once raised TypeError from tuple indexing
    tw = Tower(PRIMES)
    with pytest.raises(ValueError, match="^prime indices must be integers, got 1.0$"):
        tw.block(1.0)
    with pytest.raises(IndexError, match="not configured"):
        tw.block(3)
    assert tw.block(np.int64(1)) == tw.block(1)


def test_a_tower_keeps_only_the_last_block_built():
    tw = Tower(PRIMES)
    first = tw.block(1)
    assert tw.block(1) is first
    tw.block(2)  # releases block 1
    again = tw.block(1)
    assert again is not first and again == first


def _linear_powers(tw: Tower, atom, count: int) -> list:
    """atom^0 .. atom^count as the plain left-to-right product."""
    out = [tw.identity()]
    for _ in range(count):
        out.append(tw.mul(out[-1], atom))
    return out


def test_atom_power_formats_like_linear_product(tw: Tower):
    atoms = [
        "e", "h(0;1,0,0)", "h(2;1,4,2)", "L[1,2,0;0,1,0;0,0,1]", "L[2,1,0;1,1,0;0,0,1]",
        "t(1)", "t(3)",
    ]
    for text in atoms:
        atom = parse_element(tw, text)
        up = _linear_powers(tw, atom, 300)
        down = _linear_powers(tw, tw.inv(atom), 300)
        for m in range(301):
            assert (atom**m).format() == up[m].format(), (text, m)
            assert (atom**-m).format() == down[m].format(), (text, -m)
            assert parse_element(tw, f"{text}^{m}").format() == up[m].format()


def test_power_makes_logarithmically_many_products():
    # only the products `__pow__` asks for count, not the engine's own
    # calls of `mul` on the factors inside them
    tower = Tower(PRIMES)
    calls = depth = 0
    mul = tower.mul

    def counted(a, b):
        nonlocal calls, depth
        if depth == 0:
            calls += 1
        depth += 1
        try:
            return mul(a, b)
        finally:
            depth -= 1

    tower.mul = counted
    m = 1_000_000
    t1 = tower.stable(1)
    assert t1**m == tower.stable(1, m)
    assert calls <= 2 * m.bit_length()
    calls = 0
    assert (t1**-m).format() == f"t(1)^{-m}"
    assert calls <= 2 * m.bit_length()


def _law(primes: PrimeSeq, left: tuple, right: tuple) -> tuple:
    """(k, g)(k', g') = (k + g k', g g') on plain block dicts and row tuples."""
    (k, g), (k2, g2) = left, right
    out = {n: list(c) for n, c in k.items()}
    for n, c in k2.items():
        moved = [sum(g[i][j] * c[j] for j in range(3)) for i in range(3)]
        out[n] = [a + b for a, b in zip(out.get(n, (0, 0, 0)), moved)]
    rows = tuple(
        tuple(sum(g[i][m] * g2[m][j] for m in range(3)) for j in range(3)) for i in range(3)
    )
    return {n: tuple(x % primes.p(n) for x in c) for n, c in out.items()}, rows


def _public_g0(tw: Tower, k: dict, rows: tuple) -> G0Element:
    return G0Element(KVector.from_mapping(tw.primes, k), LambdaMatrix(rows))


def test_level0_product_follows_the_semidirect_law(tw: Tower):
    rng = random.Random(61)
    ball = [m.rows for m in generator_ball(2)]
    ident = IDENTITY_MATRIX.rows

    def sample() -> tuple:
        blocks = rng.sample(range(len(tw.primes)), rng.randint(0, 3))
        k = {n: tuple(rng.randrange(-3, 7) for _ in range(3)) for n in blocks}
        return k, rng.choice([ident, ident] + ball)

    for _ in range(400):
        left, right = sample(), sample()
        if rng.random() < 0.15:
            left = ({}, ident)
        if rng.random() < 0.15:
            right = ({}, ident)
        if rng.random() < 0.15:
            inv = tw.inv(tw.g0(_public_g0(tw, *left))).g0
            right = (dict(inv.k.items), inv.lam.rows)
        a, b = tw.g0(_public_g0(tw, *left)), tw.g0(_public_g0(tw, *right))
        # the checking constructors build the expected parts from the plain law
        expected = tw.g0(_public_g0(tw, *_law(tw.primes, left, right)))
        prod = tw.mul(a, b)
        assert prod == expected and hash(prod) == hash(expected)
        assert prod.format() == expected.format() and prod.tower is tw
        assert (prod is tw.identity()) == (expected.format() == "e")
        # pairs that cancel
        assert tw.mul(a, tw.inv(a)) is tw.identity()
        assert tw.mul(tw.inv(a), a) is tw.identity()


def test_identity_shortcut_keeps_the_product_in_this_tower(tw: Tower):
    other = Tower(tw.primes)
    for text in ("h(1;1,2,0)", "L[1,2,0;0,1,0;0,0,1]", "h(0;1,0,0) * L[1,0,0;1,1,0;0,0,1]", "e"):
        mine, theirs = parse_element(tw, text), parse_element(other, text)
        for prod in (
            tw.mul(tw.identity(), theirs), tw.mul(theirs, tw.identity()),
            tw.mul(other.identity(), theirs), tw.mul(theirs, other.identity()),
            tw.mul(other.identity(), mine), tw.mul(mine, other.identity()),
        ):
            assert prod.tower is tw
            assert prod == mine and prod.format() == text
        assert tw.mul(tw.identity(), mine) is mine and tw.mul(mine, tw.identity()) is mine
    # the shortcut holds at every level: a reduced word of this tower is
    # handed back as it is, not rebuilt by the engine
    t = tw.stable(1)
    assert tw.mul(tw.identity(), t) is t
    assert tw.mul(t, tw.identity()) is t
    assert tw.reduce([t]) is t


def test_direct_word_construction_is_refused(tw: Tower):
    # an identity built outside the tower would not be the tower's identity word
    with pytest.raises(TypeError):
        GroupWord(tower=tw, level=0, g0=G0Element.identity())
    with pytest.raises(TypeError):
        GroupWord()
    assert tw.g0(G0Element.identity()).is_identity


def test_arithmetic_results_hash_like_validated_twins(tw: Tower):
    for w in _sampled_words(tw, seed=67):
        for x in (w, tw.inv(w), tw.mul(w, w)):
            if x.level == 0:
                g0 = G0Element(KVector(x.g0.k.items), LambdaMatrix(x.g0.lam.rows))
                assert x.g0 == g0 and hash(x.g0) == hash(g0)
                assert hash(x.g0.k) == hash(g0.k) and hash(x.g0.lam) == hash(g0.lam)


def test_glued_subgroup_membership_reads_the_lowest_block(tw: Tower):
    vectors = [{0: (1, 0, 0), 2: (0, 1, 0)}, {1: (1, 1, 0), 2: (0, 0, 1)},
               {0: (1, 0, 0), 1: (0, 2, 0), 2: (4, 0, 0)}, {2: (1, 0, 0)}, {}]
    shear = ELEMENTARY_GENERATORS[0]
    for blocks in vectors:
        k = tw.k_vector(blocks)
        moved = tw.mul(k, tw.lam(shear))
        lifted = tw.mul(tw.stable(1), k)
        for cutoff in range(len(tw.primes) + 1):
            assert tw.in_kn(k, cutoff) == all(n >= cutoff for n in blocks), (blocks, cutoff)
            assert tw.membership(k, f"K{cutoff}") == tw.in_kn(k, cutoff)
            assert not tw.in_kn(moved, cutoff)
            assert not tw.in_kn(lifted, cutoff)


def _conj_cases(tw: Tower, seed: int):
    """(target, conjugator) pairs at levels 0-3: lattice targets on both
    sides of each conjugator's cutoff, the identity, and non-lattice words."""
    sampler = Sampler(tw, seed=seed)
    blocks = range(len(tw.primes))
    for i in range(240):
        level = i % 4
        if level and i % 3 == 0:
            h = sampler.reduced_word(level, syllables=1 + i % 2)
        else:
            h = sampler.word(5, level_cap=level)
        cutoff = max(level - 1, 0)
        targets = [sampler.lattice_word(blocks), sampler.lattice_word_in(cutoff), tw.identity(),
                   sampler.word(4, level_cap=3), tw.lam(ELEMENTARY_GENERATORS[i % 12])]
        if cutoff:
            targets.append(sampler.lattice_word_escaping(cutoff))
        for g in targets:
            yield g, h


def test_conj_agrees_with_the_rewriting_engine(tw: Tower):
    stayed = escaped = 0
    for g, h in _conj_cases(tw, seed=71):
        image = tw.conj(g, h)
        assert image == tw.mul(tw.mul(h, g), tw.inv(h)), (g, h)
        if g.is_identity:
            assert image is tw.identity()
        if tw.in_k(g):
            stayed += tw.in_k(image)
            escaped += image.level > 0
    assert stayed > 500 and escaped > 100


def test_conj_of_a_lattice_element_that_stays_in_k_skips_the_engine():
    tw = Tower(PRIMES)
    calls = []
    engine = tw.mul
    tw.mul = lambda a, b: calls.append(1) or engine(a, b)
    t2, t3 = tw.stable(2), tw.stable(3, -1)
    shear = tw.lam(ELEMENTARY_GENERATORS[0])
    h = tw.reduce([shear, t3, tw.h(0, (1, 0, 0)), t2, shear, tw.inv(t2)])
    assert h.level == 3
    g = tw.h(2, (0, 1, 0))  # the shear, applied twice, moves it to (2, 1, 0)
    calls.clear()
    image = tw.conj(g, h)
    assert not calls
    assert image == tw.mul(tw.mul(h, g), tw.inv(h)) == tw.h(2, (2, 1, 0))


def test_conj_of_a_lattice_element_outside_k_by_a_stable_power_skips_the_engine():
    tw = Tower(PRIMES)
    calls = []
    engine, inverse = tw.mul, tw.inv
    tw.mul = lambda a, b: calls.append(1) or engine(a, b)
    tw.inv = lambda a: calls.append(1) or inverse(a)
    sampler = Sampler(tw, seed=67)
    for level in (2, 3, 4):  # K_0 is all of K, so level 1 has no such target
        for m in (-2, -1, 1, 2):
            h = tw.stable(level, m)
            for _ in range(10):
                g = sampler.lattice_word_escaping(level - 1)
                calls.clear()
                image = tw.conj(g, h)
                assert not calls
                expected = engine(engine(h, g), inverse(h))
                assert image == expected and image.format() == expected.format()
                assert image.exponents == (m, -m) and image.factors[1] is g


_UNIT_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _block_conjugators(tw: Tower) -> list[GroupWord]:
    # 23 conjugators at levels 0-3, some of which move low blocks out of K
    sampler = Sampler(tw, seed=23)
    conjugators = [tw.identity(), tw.stable(1), tw.stable(3, -1)]
    for level in range(4):
        for i in range(5):
            conjugators.append(sampler.reduced_word(level, syllables=1 + i % 2) if level and i % 2
                               else sampler.word(2 + i, level_cap=level, block_cap=5))
    return conjugators


def test_conj_units_matrix_is_conj_on_every_point_of_a_block():
    # `Tower.conj` against the rewriting engine on every point of every
    # block: the same word, since level-0 results are canonical.  The
    # conjugate stays in block n exactly when n >= h.level - 1, the rule
    # both block checks decide by; there the matrix whose columns are the
    # retraction's images of the unit vectors moves every point of the
    # block onto its conjugate, and has determinant 1 mod p_n, so it
    # permutes the block
    tw = Tower(PrimeSeq.parse("2,3,5,7,11"))
    outcomes = set()
    for h in _block_conjugators(tw):
        h_inv = tw.inv(h)
        for n in range(5):
            p = tw.primes.p(n)
            stays = n >= h.level - 1
            images = []
            for k in tw.block(n):
                image = tw.conj(k, h)
                assert image == tw.mul(tw.mul(h, k), h_inv), (k, h)
                if not k.is_identity:
                    assert (tw.in_k(image) and image.g0.k.support == (n,)) == stays, (k, h)
                images.append(image)
            if stays:
                units = [tw._retract_act(tw.h(n, e).g0.k, h).block(n) for e in _UNIT_VECTORS]
                # the units are the matrix's columns, so they are the rows
                # that multiply the points from the right
                moved = codes((points(np.arange(p**3), p) @ np.array(units)) % p, p)
                assert moved.tolist() == codes([w.g0.k.block(n) for w in images], p).tolist(), (h, n)
                assert round(np.linalg.det(np.array(units))) % p == 1, (h, n)
            outcomes.add(stays)
    assert outcomes == {False, True}


def test_conj_units_is_conj_of_the_unit_vectors():
    # the engine's conjugates of block n's three unit vectors: one leaves
    # block n exactly when n < h.level - 1, and otherwise their block-n
    # coordinates, in order, are the retraction's images of the unit vectors
    tw = Tower(PrimeSeq.parse("2,3,5,7,11"))
    outcomes = set()
    for h in _block_conjugators(tw):
        h_inv = tw.inv(h)
        for n in range(5):
            units = [tw.h(n, e) for e in _UNIT_VECTORS]
            images = [tw.mul(tw.mul(h, u), h_inv) for u in units]
            left = any(not (tw.in_k(w) and w.g0.k.support == (n,)) for w in images)
            assert left == (n < h.level - 1), (h, n)
            if not left:
                assert [w.g0.k.block(n) for w in images] == \
                    [tw._retract_act(u.g0.k, h).block(n) for u in units], (h, n)
            outcomes.add(left)
    assert outcomes == {False, True}


@pytest.mark.parametrize("predicate, answer", [
    (lambda tw, w: tw.in_gn(w, 1), True),
    (lambda tw, w: tw.in_k(w), True),
    (lambda tw, w: tw.in_kn(w, 1), True),
    (lambda tw, w: tw.in_lambda(w), False),
    (lambda tw, w: tw.membership(w, "K1"), True),
], ids=["in_gn", "in_k", "in_kn", "in_lambda", "membership"])
def test_predicates_reject_foreign_words(predicate, answer):
    ours, theirs = Tower(PrimeSeq.parse("2,3")), Tower(PrimeSeq.parse("2,5"))
    with pytest.raises(ValueError, match="tower"):
        predicate(ours, theirs.h(1, (1, 0, 0)))
    # a tower with the same primes is the same group
    assert predicate(ours, Tower(PrimeSeq.parse("2,3")).h(1, (1, 0, 0))) is answer


def test_powers_skip_the_product_with_the_identity(tw: Tower):
    # the words are the ones a product starting from the identity hands back
    sampler = Sampler(tw, seed=41)
    for i in range(40):
        w = sampler.word(1 + i % 5, level_cap=i % 4)
        assert w**1 is w
        assert w**-1 is tw.inv(w)
        assert w**0 is tw.identity()
        for n in (-3, -2, -1, 1, 2, 3, 6):
            expected = tw.identity()
            for _ in range(abs(n)):
                expected = tw.mul(expected, w if n > 0 else tw.inv(w))
            assert w**n == expected


def test_conj_and_eq_reject_foreign_words():
    ours, theirs = Tower(PrimeSeq.parse("2,3")), Tower(PrimeSeq.parse("2,5"))
    a, b = ours.h(1, (1, 0, 0)), theirs.h(1, (1, 0, 0))
    assert a == b  # the same representation of elements of different groups
    for op in (ours.eq, ours.conj):
        for args in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="tower"):
                op(*args)
    for w in (b, theirs.mul(theirs.stable(2), b)):
        with pytest.raises(ValueError, match="tower"):
            ours.key(w)


def test_key_pushes_the_glued_part_right(tw: Tower):
    # (h(1;0,1,0), L) = (0, L) * (L^-1 h(1;0,1,0), I), and the second factor
    # lies in K_1, which commutes with t(2)
    a = parse_element(tw, "t(2) * h(1;0,1,0) * L[1,1,0;0,1,0;0,0,1] * t(2)")
    b = parse_element(tw, "t(2) * L[1,1,0;0,1,0;0,0,1] * t(2) * h(1;2,1,0)")
    assert a != b and tw.eq(a, b) and tw.eq(b, a)
    assert tw.key(a) == b and tw.key(b) is b
    assert a.format() == "t(2) * h(1;0,1,0) * L[1,1,0;0,1,0;0,0,1] * t(2)"  # printed as built
    for text in ("h(1;1,2,0)", "L[1,2,0;0,1,0;0,0,1]", "h(0;1,0,0) * L[1,0,0;1,1,0;0,0,1]", "e"):
        w = parse_element(tw, text)
        assert tw.key(w) is w


# a sampled word w and w * t^m * k * t^-m * k^-1 with k in the glued
# subgroup are one element, often in two representations
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1))
def test_eq_is_key_equality(seed: int):
    tw = Tower(PRIMES)
    rng = random.Random(seed)
    sampler = Sampler(tw, seed=seed)

    def draw() -> GroupWord:
        level = rng.randint(0, 3)
        if level and rng.random() < 0.5:
            return sampler.reduced_word(level, syllables=rng.randint(1, 3))
        return sampler.word(rng.randint(1, 6), level_cap=level)

    with time_limit(10.0):
        for _ in range(8):
            a, b = draw(), draw()
            level, m = max(a.level, 1), rng.choice((-2, -1, 1, 2))
            k = sampler.lattice_word(range(level - 1, len(PRIMES)), nonzero=True)
            same = tw.reduce([a, tw.stable(level, m), k, tw.stable(level, -m), tw.inv(k)])
            assert tw.eq(a, same) and tw.key(a) == tw.key(same)
            for x, y in ((a, b), (b, a), (a, same), (same, b)):
                # reducing x * y^-1 is the reference for element equality
                assert tw.eq(x, y) == (tw.key(x) == tw.key(y)) == tw.mul(x, tw.inv(y)).is_identity
            for w in (a, b, same):
                key = tw.key(w)
                assert tw.key(key) is key and key.level == w.level
                assert tw.mul(key, tw.inv(w)).is_identity


class _TokenTower(Tower):
    """A token-list rewriting engine, the reference for the junction splice
    of `Tower.mul` and `Tower.inv`.

    It pushes every syllable of both operands, as (base, word) or
    (stable, exponent) tokens, through the merge and fold checks, and
    reduces lower levels with itself.
    """

    def mul(self, a, b):
        if a.level == 0 and b.level == 0:
            return super().mul(a, b)
        level = max(a.level, b.level)
        out: list = []
        self._feed(out, a, level)
        self._feed(out, b, level)
        return self._word_of(out, level)

    def inv(self, a):
        if a.level == 0:
            return super().inv(a)
        tokens: list = []
        for i in reversed(range(len(a.factors))):
            if not a.factors[i].is_identity:
                self._push_base(tokens, self.inv(a.factors[i]))
            if i:
                self._push_stable(tokens, -a.exponents[i - 1], a.level)
        return self._word_of(tokens, a.level)

    def _feed(self, out, w, level):
        if w.level < level:
            self._push_base(out, w)
            return
        self._push_base(out, w.factors[0])
        for m, x in zip(w.exponents, w.factors[1:]):
            self._push_stable(out, m, level)
            self._push_base(out, x)

    def _push_base(self, out, w):
        if w.is_identity:
            return
        if out and out[-1][0] == "base":
            self._push_base(out, self.mul(out.pop()[1], w))
            return
        out.append(("base", w))

    def _push_stable(self, out, m, level):
        if m == 0:
            return
        if out and out[-1][0] == "stable":
            self._push_stable(out, out.pop()[1] + m, level)
            return
        if len(out) >= 2 and out[-1][0] == "base" and out[-2][0] == "stable" and self.in_kn(out[-1][1], level - 1):
            z = out.pop()[1]
            a = out.pop()[1]
            self._push_base(out, z)
            self._push_stable(out, a + m, level)
            return
        out.append(("stable", m))

    def _word_of(self, out, level):
        if len(out) >= 2 and out[0][0] == "base" and out[1][0] == "stable" and self.in_kn(out[0][1], level - 1):
            rebuilt: list = []
            self._push_stable(rebuilt, out[1][1], level)
            self._push_base(rebuilt, out[0][1])
            for kind, val in out[2:]:
                if kind == "base":
                    self._push_base(rebuilt, val)
                else:
                    self._push_stable(rebuilt, val, level)
            out = rebuilt
        if not out:
            return self.identity()
        if len(out) == 1 and out[0][0] == "base":
            return out[0][1]
        factors, exponents = [], []
        for kind, val in out:
            if kind == "stable":
                if len(factors) == len(exponents):
                    factors.append(self.identity())
                exponents.append(val)
            else:
                factors.append(val)
        if len(factors) == len(exponents):
            factors.append(self.identity())
        return _word(self, level, None, tuple(factors), tuple(exponents))


# no shrink phase: shrinking an example that loops would rerun it up to
# the time limit again and again
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1))
def test_junction_splice_matches_the_token_engine(seed: int):
    tw, other, ref = Tower(PRIMES), Tower(PRIMES), _TokenTower(PRIMES)
    rng = random.Random(seed)
    samplers = (Sampler(tw, seed=seed), Sampler(other, seed=seed + 1))

    def draw() -> GroupWord:
        sampler, level = rng.choice(samplers), rng.randint(0, 3)
        if level and rng.random() < 0.5:
            return sampler.reduced_word(level, syllables=rng.randint(1, 3))
        return sampler.word(rng.randint(1, 8), level_cap=level)

    with time_limit(10.0):
        for _ in range(6):
            a, b = draw(), draw()
            # a * undo cancels back to a's head, leaving k * t^m * y with k
            # in the glued subgroup, which _build's leading fold moves right
            level, m = max(a.level, 1), rng.choice((-2, -1, 1, 2))
            k = samplers[0].lattice_word(range(level - 1, len(PRIMES)), nonzero=True)
            y = samplers[1].base_factor(level)
            undo = tw.reduce([tw.inv(a), k, tw.stable(level, m), y])
            for x, z in ((a, b), (b, a), (a, undo)):
                product, expected = tw.mul(x, z), ref.mul(x, z)
                assert product == expected and product.format() == expected.format(), (x, z)
            folded = tw.mul(a, undo)
            assert folded.factors[0].is_identity and folded.exponents == (m,)
            assert folded == tw.mul(tw.stable(level, m), tw.mul(k, y))
            for x in (a, b, undo):
                inverse, expected = tw.inv(x), ref.inv(x)
                assert inverse == expected and inverse.format() == expected.format(), x


def _assert_reduced(tw: Tower, w: GroupWord) -> None:
    """The reduced-word invariant at every level of w: at level L >= 1,
    nonzero exponents, factors of lower level, and every non-identity
    factor but the last outside the glued subgroup K_{L-1}."""
    if w.level == 0:
        assert not w.factors and not w.exponents
        assert w.is_identity or not (w.g0.k.is_zero and w.g0.lam.is_identity)
        return
    assert w.g0 is None and len(w.factors) == len(w.exponents) + 1 >= 2
    assert all(w.exponents)
    for i, x in enumerate(w.factors):
        assert x.level < w.level
        if i < len(w.exponents) and not x.is_identity:
            assert not tw.in_kn(x, w.level - 1), w.format()
        _assert_reduced(tw, x)


def test_products_and_conjugates_keep_the_reduced_word_invariant():
    tw, ref = Tower(PRIMES), _TokenTower(PRIMES)
    sampler = Sampler(tw, seed=61)
    words = [sampler.word(6, level_cap=level) for level in (0, 1, 2, 3) for _ in range(30)]
    words += [sampler.reduced_word(level, syllables=s)
              for level in (1, 2, 3) for s in (1, 2, 3) for _ in range(3)]
    for w in words:
        _assert_reduced(tw, w)
    rng = random.Random(61)
    lower = 0
    for _ in range(300):
        a, b = rng.choice(words), rng.choice(words)
        for x, y in ((a, b), (b, a)):
            product = tw.mul(x, y)
            _assert_reduced(tw, product)
            if y.level < x.level:  # the right operand joins x's last factor
                lower += 1
                expected = ref.mul(x, y)
                assert product == expected and product.format() == expected.format()
    assert lower > 150
    targets = words[::4] + [sampler.lattice_word(range(len(PRIMES))) for _ in range(30)]
    for level in (1, 2, 3):
        for m in (-2, -1, 1, 2):
            for g in targets:
                _assert_reduced(tw, tw.conj(g, tw.stable(level, m)))


class _ProductCarryTower(Tower):
    """`Tower._split` with the carry taken as the product c^-1 * y, the
    reference for its closed form (lambda^-1 v_high, I)."""

    def _split(self, y, cutoff):
        if y.level:
            return super()._split(y, cutoff)
        items = y.g0.k.items
        if not items or items[-1][0] < cutoff:
            return y, self.identity()
        low = {n: c for n, c in items if n < cutoff}
        c = self.g0(G0Element(KVector.from_mapping(self.primes, low), y.g0.lam))
        return c, self.mul(self.inv(c), y)


_MATRICES = [m for m in generator_ball(2) if not m.is_identity]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.dictionaries(st.integers(0, len(PRIMES) - 1), st.tuples(*[st.integers(-6, 6)] * 3)),
    st.sampled_from(_MATRICES),
    st.integers(0, len(PRIMES)),
)
def test_split_carry_is_the_closed_form(blocks, lam, cutoff):
    tw, ref = Tower(PRIMES), _ProductCarryTower(PRIMES)
    y = tw.g0(G0Element(KVector.from_mapping(PRIMES, blocks), lam))
    c, k = tw._split(y, cutoff)
    assert tw.mul(c, k) == y
    assert tw.in_kn(k, cutoff)
    assert c.g0.lam == lam and all(n < cutoff for n in c.g0.k.support)
    assert c.g0.k.items == tuple(b for b in y.g0.k.items if b[0] < cutoff)
    assert (c, k) == ref._split(y, cutoff)


def test_keys_match_the_product_carry():
    tw, ref = Tower(PRIMES), _ProductCarryTower(PRIMES)
    sampler = Sampler(tw, seed=43)
    cuts = 0
    for i in range(300):
        level = 1 + i % 3
        w = (sampler.reduced_word(level, syllables=1 + i % 3) if i % 2
             else sampler.word(8, level_cap=level))
        key = tw.key(w)
        assert key == ref.key(w) and key.format() == ref.key(w).format()
        cuts += key is not w
    assert cuts > 20  # many of the words are not keys already
