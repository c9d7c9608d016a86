"""Tower arithmetic: reduced words across the amalgamated levels."""
from __future__ import annotations

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.grammar import parse_element
from amalgam.matrices import ELEMENTARY_GENERATORS, IDENTITY_MATRIX, LambdaMatrix, generator_ball
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.semidirect import G0Element, KVector, block_points
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


def test_lambda_ball_and_image(tw: Tower):
    assert len(tw.lambda_ball(0)) == 1
    assert len(tw.lambda_ball(1)) == 13
    lam = tw.lam(((1, 2, 0), (0, 1, 0), (0, 0, 1)))
    assert tw.lambda_image(lam).rows == ((1, 2, 0), (0, 1, 0), (0, 0, 1))


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
        assert list(block) == [tw.h(n, x) for x in block_points(p)]
        assert tw.block(n) is block
        assert block[0] is tw.identity()
        assert (block[p * p], block[p], block[1]) == (
            tw.h(n, (1, 0, 0)), tw.h(n, (0, 1, 0)), tw.h(n, (0, 0, 1))
        )
    assert Tower(tw.primes).block(1) is not tw.block(1)


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
    tower = Tower(PRIMES)
    calls = 0
    mul = tower.mul

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

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
