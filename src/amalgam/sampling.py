"""Seeded random generators for words, lattice vectors, and test functions.

Every generator draws from one `random.Random` held by the `Sampler`, so
a fixed seed reproduces the whole draw sequence bit-for-bit across runs.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .fourier import GroupAlgebraElement
from .words import GroupWord, Tower

__all__ = ["Sampler"]


class Sampler:
    """Deterministic sample streams over one tower."""

    def __init__(self, tower: Tower, seed: int = 0):
        self.tower = tower
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # words
    def letter(self, level_cap: int, block_cap: int = 3) -> GroupWord:
        return self.rng.choice(self.tower.alphabet(level_cap, block_cap))

    def word(self, length: int, level_cap: int, block_cap: int = 3) -> GroupWord:
        """Product of `length` uniform letters (reduced along the way)."""
        letters = self.tower.alphabet(level_cap, block_cap)
        w = self.tower.identity()
        for _ in range(self.rng.randint(1, max(1, length))):
            w = self.tower.mul(w, self.rng.choice(letters))
        return w

    def base_factor(self, level: int) -> GroupWord:
        """Nonidentity factor below `level` that the amalgam cannot absorb.

        Suitable as an internal factor of a level-`level` word: it is kept
        outside the commuting subgroup of the level's stable letter.
        """
        tw = self.tower
        for _ in range(64):
            choice = self.rng.random()
            if choice < 0.4:
                block = self.rng.randint(0, min(max(0, level - 2), len(tw.primes) - 1))
                p = tw.primes.p(block)
                coords = tuple(self.rng.randrange(p) for _ in range(3))
                w = tw.h(block, coords)
            elif choice < 0.8:
                w = self.letter(0)
                if self.rng.random() < 0.5:
                    w = tw.mul(w, self.letter(0))
            else:
                if level >= 2:
                    w = tw.stable(self.rng.randint(1, level - 1), self.rng.choice((-1, 1)))
                else:
                    w = self.letter(0)
            if not w.is_identity and not tw.in_kn(w, level - 1):
                return w
        raise AssertionError("factor sampling failed to escape the commuting subgroup")

    def reduced_word(self, level: int, syllables: int = 1) -> GroupWord:
        """Word with `syllables` stable powers at `level`, reduced by construction.

        Internal factors escape the commuting subgroup, so no folding can
        drop a syllable; the result is checked to confirm that.
        """
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if syllables < 1:
            raise ValueError(f"syllable count must be >= 1, got {syllables}")
        tw = self.tower
        w = self.base_factor(level) if self.rng.random() < 0.5 else tw.identity()
        for i in range(syllables):
            power = self.rng.choice((-2, -1, 1, 2))
            w = tw.mul(w, tw.stable(level, power))
            if i < syllables - 1:
                w = tw.mul(w, self.base_factor(level))
        if self.rng.random() < 0.5:
            w = tw.mul(w, self.base_factor(level))
        if w.level != level or w.syllable_count != syllables:
            raise AssertionError(
                f"constructed word collapsed: level {w.level}, {w.syllable_count} syllables"
            )
        return w

    # ------------------------------------------------------------------
    # lattice elements
    def block_triple(self, block: int, nonzero: bool = False) -> tuple[int, int, int]:
        p = self.tower.primes.p(block)
        while True:
            coords = tuple(self.rng.randrange(p) for _ in range(3))
            if not nonzero or any(coords):
                return coords

    def lattice_word(self, blocks, nonzero: bool = False) -> GroupWord:
        """Element of the base lattice supported inside the given blocks."""
        tw = self.tower
        w = tw.identity()
        picked = [b for b in blocks if self.rng.random() < 0.7]
        if nonzero and not picked:
            picked = [self.rng.choice(list(blocks))]
        for b in picked:
            w = tw.mul(w, tw.h(b, self.block_triple(b, nonzero=nonzero)))
        return w

    def lattice_word_in(self, cutoff: int, width: int = 2) -> GroupWord:
        """Lattice element supported at or above the cutoff block."""
        blocks = range(cutoff, min(cutoff + width, len(self.tower.primes)))
        return self.lattice_word(blocks)

    def lattice_word_escaping(self, cutoff: int, width: int = 2) -> GroupWord:
        """Lattice element with some support strictly below the cutoff block."""
        tw = self.tower
        low = self.rng.randrange(cutoff)
        w = tw.h(low, self.block_triple(low, nonzero=True))
        high = self.lattice_word_in(cutoff, width)
        return tw.mul(w, high)

    # ------------------------------------------------------------------
    # numbers and vectors
    def rational_unit(self, denominator: int = 99) -> Fraction:
        """Rational in [-1, 1]; hits the endpoints with positive probability."""
        if self.rng.random() < 0.2:
            return Fraction(self.rng.choice((-1, 1)))
        return Fraction(self.rng.randint(-denominator, denominator), denominator)

    def unit_ball_values(self, count: int) -> list[Fraction]:
        return [self.rational_unit() for _ in range(count)]

    def sign_values(self, count: int) -> list[int]:
        return [self.rng.choice((-1, 1)) for _ in range(count)]

    def lattice_vector(self, blocks, size: int = 4) -> GroupAlgebraElement:
        """Rational vector supported on random base-lattice words."""
        tw = self.tower
        coeffs = {}
        for _ in range(size):
            w = self.lattice_word(blocks)
            coeffs[w] = coeffs.get(w, 0) + Fraction(
                self.rng.randint(-9, 9), self.rng.randint(1, 9)
            )
        return GroupAlgebraElement(tw, coeffs)
