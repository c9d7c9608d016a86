"""Seeded random generators for words, lattice vectors, and test functions.

Every generator draws from one `random.Random` held by the `Sampler`, so
a fixed seed reproduces the whole draw sequence bit-for-bit across runs.
Each index below n is drawn by `_below`: n.bit_length() bits from
`getrandbits`, drawn again while they reach n.  That is the draw
`randrange(n)`, `randint` and `choice` make in CPython, value for value,
but the stream depends on `getrandbits` alone, not on `randrange`'s
private algorithm; floats come from `random()`.  A rational unit k/d is
read from a table of the 2d+1 reduced fractions that each sampler builds
on first use of d, with the draws unchanged.

A lattice sample is one vector built from its drawn (block, triple) pairs,
with the draws a product of per-block `Tower.h` words would take.  A bad
lattice request (a block outside 0..len(primes)-1 or a repeated one, a
nonzero element over no blocks, a cutoff outside 0..len(primes), or
1..len(primes) for an escaping element, a width below 1) raises
`ValueError` before any draw.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .fourier import GroupAlgebraElement
from .primes import _integer
from .words import GroupWord, Tower

__all__ = ["Sampler"]


def _below(rng: random.Random, n: int) -> int:
    """A uniform index in 0..n-1, for n >= 1 (see the module docstring)."""
    if n < 1:
        raise ValueError(f"no index below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class Sampler:
    """Deterministic sample streams over one tower."""

    def __init__(self, tower: Tower, seed: int = 0):
        self.tower = tower
        self.rng = random.Random(_integer(seed, "seed must be an integer"))
        self._units: dict[int, tuple[Fraction, ...]] = {}  # denominator d -> k/d for k in -d..d

    # ------------------------------------------------------------------
    # words
    def letter(self, level_cap: int, block_cap: int = 3) -> GroupWord:
        letters = self.tower.alphabet(level_cap, block_cap)
        return letters[_below(self.rng, len(letters))]

    def word(self, length: int, level_cap: int, block_cap: int = 3) -> GroupWord:
        """Product of 1..max(1, length) uniform letters (reduced along the way)."""
        tw, rng = self.tower, self.rng
        length = _integer(length, "word lengths must be integers")
        letters = tw.alphabet(level_cap, block_cap)
        w = tw.identity()
        for _ in range(1 + _below(rng, max(1, length))):
            w = tw.mul(w, letters[_below(rng, len(letters))])
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
                block = _below(self.rng, min(max(1, level - 1), len(tw.primes)))
                p = tw.primes.p(block)
                coords = tuple(_below(self.rng, p) for _ in range(3))
                w = tw.h(block, coords)
            elif choice < 0.8:
                w = self.letter(0)
                if self.rng.random() < 0.5:
                    w = tw.mul(w, self.letter(0))
            else:
                if level >= 2:
                    w = tw.stable(1 + _below(self.rng, level - 1), (-1, 1)[_below(self.rng, 2)])
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
            power = (-2, -1, 1, 2)[_below(self.rng, 4)]
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
        p, rng = self.tower.primes.p(block), self.rng
        while True:
            coords = (_below(rng, p), _below(rng, p), _below(rng, p))
            if not nonzero or any(coords):
                return coords

    def lattice_word(self, blocks, nonzero: bool = False) -> GroupWord:
        """Element of the base lattice supported inside the given distinct blocks:
        each is kept with probability 0.7 and drawn a triple, in the given order."""
        blocks = tuple(blocks)
        count = len(self.tower.primes)
        if not all(0 <= b < count for b in blocks):
            raise ValueError(f"lattice blocks must lie in 0..{count - 1}, got {blocks}")
        if len(set(blocks)) != len(blocks):
            raise ValueError(f"lattice blocks must be distinct, got {blocks}")
        if nonzero and not blocks:
            raise ValueError("a nonzero lattice element needs at least one block")
        picked = [b for b in blocks if self.rng.random() < 0.7]
        if nonzero and not picked:
            picked = [blocks[_below(self.rng, len(blocks))]]
        items = [(b, self.block_triple(b, nonzero=nonzero)) for b in picked]
        return self.tower._lattice(tuple(sorted(b for b in items if b[1] != (0, 0, 0))))

    def lattice_word_in(self, cutoff: int, width: int = 2) -> GroupWord:
        """Lattice element supported at or above the cutoff block."""
        count = len(self.tower.primes)
        if not 0 <= cutoff <= count:
            raise ValueError(f"cutoff must lie in 0..{count}, got {cutoff}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        blocks = range(cutoff, min(cutoff + width, count))
        return self.lattice_word(blocks)

    def lattice_word_escaping(self, cutoff: int, width: int = 2) -> GroupWord:
        """Lattice element with some support strictly below the cutoff block."""
        tw = self.tower
        if not 1 <= cutoff <= len(tw.primes):
            raise ValueError(f"cutoff must lie in 1..{len(tw.primes)}, got {cutoff}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        low = _below(self.rng, cutoff)
        triple = self.block_triple(low, nonzero=True)
        high = self.lattice_word_in(cutoff, width)
        return tw._lattice(((low, triple),) + high.g0.k.items)

    # ------------------------------------------------------------------
    # numbers and vectors
    def rational_unit(self, denominator: int = 99) -> Fraction:
        """Rational in [-1, 1]; hits the endpoints with positive probability."""
        if self.rng.random() < 0.2:
            return Fraction((-1, 1)[_below(self.rng, 2)])
        k = _below(self.rng, 2 * denominator + 1)
        units = self._units.get(denominator)
        if units is None:
            units = self._units[denominator] = tuple(
                Fraction(j, denominator) for j in range(-denominator, denominator + 1)
            )
        return units[k]

    def unit_ball_values(self, count: int) -> list[Fraction]:
        return [self.rational_unit() for _ in range(count)]

    def lattice_vector(self, blocks, size: int = 4) -> GroupAlgebraElement:
        """Rational vector supported on random base-lattice words."""
        tw = self.tower
        coeffs = {}
        for _ in range(size):
            w = self.lattice_word(blocks)
            coeffs[w] = coeffs.get(w, 0) + Fraction(
                _below(self.rng, 19) - 9, 1 + _below(self.rng, 9)
            )
        return GroupAlgebraElement(tw, coeffs)
