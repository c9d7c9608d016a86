"""Reduced words in the inductive tower of amalgamated products.

Level 0 is the semidirect product of the restricted coordinate sum with
the integer matrix group.  Level N+1 adjoins a stable letter t(N+1) that
commutes exactly with the coordinate blocks at index >= N, i.e. the two
factors are glued along that subgroup.  A word of level L >= 1 is an
alternating product

    x_0 * t(L)^{m_1} * x_1 * ... * t(L)^{m_r} * x_r

with every x_i of level < L, every m_i nonzero, and no x_i between two
stable powers lying in the glued subgroup.  Such words are never the
identity (r >= 1), which is what makes equality decidable by rewriting
a * b^{-1} to its reduced form.  No coset transversal is chosen, so two
reduced words may still denote the same element; `Tower.eq` is the
equality contract.

Every word the engine returns, and every `Tower.stable` letter, keeps one
invariant: each non-identity factor except the last lies outside the
glued subgroup K_{L-1} (the leading factor x_0 included, because `_build`
folds a leading glued-subgroup factor into x_1).  So a product of two
reduced words rewrites only where they meet (the normal-form theorem for
amalgamated products): `Tower.mul` copies a's syllables, multiplies b's
first factor into a's last, and pushes b's stable powers one at a time,
merging and folding, until one of them starts a new syllable; from there
it appends the rest of b unchanged, since no factor of b before its last
can fold.  `Tower.inv` reverses the syllables, inverting factors and
negating exponents, which keeps every inner factor outside K_{L-1}.
Both end in `_build`'s one leading fold.

Each tower builds exactly one identity word (`Tower.identity()`): every
operation that reduces to the identity returns that object, so
`GroupWord.is_identity` is an identity test on the object.  `Tower.inv`
caches its result on the word it inverted, one way only: the inverse of
that result is reduced afresh when asked for, never short-circuited back
to the original word.  Without a canonical form a reduced inverse of the
inverse may be a different representation of the same element, and a
two-way cache would let the order of earlier calls decide which one
later results (and reports) are built from.

Validation happens at the boundary: `Tower.h`, `k_vector`, `lam` and the
element grammar build their parts through the checking constructors, and
`Tower.mul`/`inv`/`eq` (and so `conj`) and the membership predicates refuse
words of a tower with other primes.  Results of arithmetic are built from
such parts by the private `_word` constructor without re-checking.  A
product with an identity operand returns the other operand when it belongs
to this tower: level-0 words are canonical and a word of a higher level
is reduced when it is built, so this is the same element in the same
representation the engine would return.

`Tower.conj` of a lattice element (level 0, identity matrix) skips the
rewriting engine while the conjugate stays in K: a matrix acts on the
vector blockwise, and t(L)^m fixes a vector of the glued subgroup, so the
vector is moved factor by factor and wrapped as a level-0 word.  Since a
reduced word of level >= 1 never lies in G_0, the engine would have
returned that same canonical word.  A vector that leaves the glued
subgroup before a stable power is crossed goes back to the engine.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .matrices import (
    ELEMENTARY_GENERATORS,
    IDENTITY_MATRIX,
    LambdaMatrix,
    _ID_ROWS,
    generator_ball,
)
from .primes import PrimeSeq
from .semidirect import G0Element, KVector, ZERO_K, _g0, block_points
from . import primes as _primes_mod

__all__ = ["GroupWord", "Tower"]

_set = object.__setattr__


@dataclass(frozen=True, init=False)
class GroupWord:
    """Immutable reduced word, built only through a Tower.

    Calling `GroupWord(...)` raises TypeError: a word built outside the
    tower could be an identity that is not the tower's identity word.
    Structural equality/hash compare the representation, not the group
    element; use Tower.eq for element equality.  The tower's single
    identity word is the only identity word, and the word remembers its
    inverse once `Tower.inv` has computed it (one way only; see the
    module docstring).
    """

    tower: "Tower" = field(compare=False, repr=False)
    level: int
    g0: G0Element | None
    factors: tuple["GroupWord", ...]
    exponents: tuple[int, ...]

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("build words through a Tower (h, lam, g0, stable, mul, ...)")

    @property
    def is_identity(self) -> bool:
        return self is self.tower._identity

    @property
    def syllable_count(self) -> int:
        """Number r of stable powers at the top level (0 for base elements)."""
        return len(self.exponents)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return self.tower.mul(self, other)

    def inverse(self) -> "GroupWord":
        return self.tower.inv(self)

    def __pow__(self, n: int) -> "GroupWord":
        """Integer power by repeated squaring: O(log |n|) products."""
        tower = self.tower
        base = tower.inv(self) if n < 0 else self
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else tower.mul(out, base)
            n >>= 1
            if n:
                base = tower.mul(base, base)
        return tower.identity() if out is None else out

    def format(self) -> str:
        """Render in the element grammar (h/L/t atoms joined by '*')."""
        return _format_word(self)

    def __repr__(self) -> str:
        return f"<word {self.format()}>"

    def __hash__(self) -> int:
        # cached: words are hot dict keys in convolutions and orbit searches
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.level, self.g0, self.factors, self.exponents))
            _set(self, "_hash", h)
        return h


def _word(tower: "Tower", level: int, g0=None, factors=(), exponents=()) -> GroupWord:
    """Build a word from already-reduced parts without the dataclass init."""
    w = object.__new__(GroupWord)
    _set(w, "tower", tower)
    _set(w, "level", level)
    _set(w, "g0", g0)
    _set(w, "factors", factors)
    _set(w, "exponents", exponents)
    return w


_SUBGROUP_RE = re.compile(r"^(K|G)_?(\d+)$|^(K)$|^(Lambda|L)$")


class Tower:
    """The tower of groups over one configured prime sequence.

    All element construction and arithmetic flows through a tower so that
    coordinates are reduced mod the right primes.  Words from different
    towers must not be mixed unless the prime sequences agree.
    """

    def __init__(self, primes: PrimeSeq | Sequence[int] | str | None = None):
        if primes is None:
            primes = PrimeSeq.default()
        self.primes = _primes_mod.as_prime_seq(primes)
        self._identity = _word(self, 0, G0Element.identity())
        self._ball_cache: dict[int, tuple[GroupWord, ...]] = {}
        self._alphabet_cache: dict[tuple[int, int], tuple[GroupWord, ...]] = {}
        self._block_cache: dict[int, tuple[GroupWord, ...]] = {}

    # ------------------------------------------------------------------
    # element constructors

    def identity(self) -> GroupWord:
        return self._identity

    def g0(self, element: G0Element) -> GroupWord:
        if not element.k.items and element.lam.rows == _ID_ROWS:
            return self._identity
        return _word(self, 0, element)

    def h(self, n: int, coords: Iterable[int]) -> GroupWord:
        """Pure coordinate element supported on block n."""
        return self.g0(G0Element(KVector.single(self.primes, n, coords), IDENTITY_MATRIX))

    def block(self, n: int) -> tuple[GroupWord, ...]:
        """The p^3 words h(n, x) of block n, x in lexicographic order.

        Index i holds h(n; x) for the point x of code i (see `semidirect`);
        index 0 is the identity.
        Memoized per tower.
        """
        if n not in self._block_cache:
            self._block_cache[n] = tuple(self.h(n, x) for x in block_points(self.primes.p(n)))
        return self._block_cache[n]

    def k_vector(self, blocks: dict[int, Iterable[int]]) -> GroupWord:
        """Pure coordinate element with several blocks."""
        return self.g0(G0Element(KVector.from_mapping(self.primes, blocks), IDENTITY_MATRIX))

    def lam(self, matrix: LambdaMatrix | Sequence[Sequence[int]]) -> GroupWord:
        """Pure matrix element."""
        if not isinstance(matrix, LambdaMatrix):
            matrix = LambdaMatrix(tuple(tuple(int(e) for e in row) for row in matrix))
        return self.g0(G0Element(ZERO_K, matrix))

    def stable(self, level: int, power: int = 1) -> GroupWord:
        """The stable letter t(level) raised to `power`."""
        if level < 1:
            raise ValueError(f"stable letters start at level 1, got {level}")
        if power == 0:
            return self._identity
        e = self._identity
        return _word(self, level, None, (e, e), (power,))

    # ------------------------------------------------------------------
    # membership predicates (arguments must be reduced words, which every
    # tower operation returns, of a tower with these primes)

    def in_gn(self, w: GroupWord, n: int) -> bool:
        if w.tower is not self:
            self._check(w)
        return w.level <= n

    def in_k(self, w: GroupWord) -> bool:
        if w.tower is not self:
            self._check(w)
        return w.level == 0 and w.g0.lam.is_identity

    def in_kn(self, w: GroupWord, n: int) -> bool:
        return self.in_k(w) and w.g0.k.supported_at_or_above(n)

    def in_lambda(self, w: GroupWord) -> bool:
        if w.tower is not self:
            self._check(w)
        return w.level == 0 and w.g0.k.is_zero

    def membership(self, a: GroupWord, sub: str) -> bool:
        """Membership in a named subgroup: K, K<N>, Lambda, or G<N>."""
        m = _SUBGROUP_RE.match(sub.strip())
        if not m:
            raise ValueError(f"unknown subgroup {sub!r} (expected K, K<N>, Lambda, G<N>)")
        if m.group(4):
            return self.in_lambda(a)
        if m.group(3):
            return self.in_k(a)
        n = int(m.group(2))
        if m.group(1) == "K":
            return self.in_kn(a, n)
        return self.in_gn(a, n)

    # ------------------------------------------------------------------
    # the rewriting engine, over the syllable lists of a word being built
    # at `level`: `factors` holds one more entry than `exponents`

    def _times(self, x: GroupWord, y: GroupWord) -> GroupWord:
        """x * y, with no product taken when either side is the identity."""
        if y.is_identity:
            return x
        if x.is_identity:
            return y
        return self.mul(x, y)

    def _push(self, factors: list, exponents: list, m: int, x: GroupWord, level: int) -> bool:
        """Append t(level)^m * x; True when t^m starts a new syllable.

        Until then t^m merges with the stable power before it, across an
        identity factor or across a glued-subgroup factor z, which commutes
        out (t^a z t^m -> z t^(a+m)) and merges leftwards.
        """
        while m and exponents:
            z = factors.pop()
            if not z.is_identity:
                if not self.in_kn(z, level - 1):
                    factors.append(z)
                    break
                factors[-1] = self._times(factors[-1], z)
            m += exponents.pop()
        if m:
            exponents.append(m)
            factors.append(x)
            return True
        factors[-1] = self._times(factors[-1], x)
        return False

    def _build(self, factors: list, exponents: list, level: int) -> GroupWord:
        if not exponents:
            return self._identity if factors[0].is_identity else factors[0]
        z = factors[0]
        if not z.is_identity and self.in_kn(z, level - 1):
            # a leading glued-subgroup factor commutes rightwards across
            # the first stable power and folds into the next factor
            factors[0] = self._identity
            factors[1] = self._times(z, factors[1])
        return _word(self, level, None, tuple(factors), tuple(exponents))

    def _check(self, w: GroupWord) -> None:
        if w.tower is not self and w.tower.primes != self.primes:
            raise ValueError("cannot mix words from towers with different primes")

    # ------------------------------------------------------------------
    # group operations

    def mul(self, a: GroupWord, b: GroupWord) -> GroupWord:
        if a.tower is not self:
            self._check(a)
        if b.tower is not self:
            self._check(b)
        # an identity factor hands back the other operand itself when it
        # is one of ours: level-0 words are canonical, and a word of a
        # higher level is reduced when it is built
        if a is a.tower._identity and b.tower is self:
            return b
        if b is b.tower._identity and a.tower is self:
            return a
        if a.level == 0 and b.level == 0:
            return self.g0(a.g0.mul(b.g0, self.primes))
        level = max(a.level, b.level)
        factors, exponents = (list(a.factors), list(a.exponents)) if a.level == level else ([a], [])
        b_factors, b_exponents = (b.factors, b.exponents) if b.level == level else ((b,), ())
        factors[-1] = self._times(factors[-1], b_factors[0])
        for j, m in enumerate(b_exponents, 1):
            if self._push(factors, exponents, m, b_factors[j], level):
                # from a new syllable on, the rest of b is already reduced
                factors += b_factors[j + 1 :]
                exponents += b_exponents[j:]
                break
        return self._build(factors, exponents, level)

    def inv(self, a: GroupWord) -> GroupWord:
        """The reduced inverse, cached on `a` when `a` belongs to this tower.

        The cache is one way (see the module docstring): the result does
        not learn that `a` is its inverse.
        """
        own = a.tower is self
        if own:
            cached = a.__dict__.get("_inv")
            if cached is not None:
                return cached
        else:
            self._check(a)
        if a.level == 0:
            out = self.g0(a.g0.inv(self.primes))
        else:
            factors = [x if x.is_identity else self.inv(x) for x in reversed(a.factors)]
            out = self._build(factors, [-m for m in reversed(a.exponents)], a.level)
        if own:
            _set(a, "_inv", out)
        return out

    def conj(self, g: GroupWord, h: GroupWord) -> GroupWord:
        """The conjugate h * g * h^{-1}, reduced.

        A lattice target (level 0, identity matrix) of this tower, conjugated
        by a word of this tower, is moved on its vector directly while it
        stays in K (see `_conj_k`).  Such a result is a level-0 word, and
        level-0 words are canonical, while a reduced word at level >= 1
        never lies in G_0; so this is the word the rewriting engine would
        return.  Every other case, and a target that leaves K on the way,
        is reduced by the engine.
        """
        if g.level == 0 and g.tower is self and h.tower is self and g.g0.lam.rows == _ID_ROWS:
            k = self._conj_k(g.g0.k, h)
            if k is not None:
                return g if k is g.g0.k else self.g0(_g0(k, IDENTITY_MATRIX))
        return self.mul(self.mul(h, g), self.inv(h))

    def _conj_k(self, k: KVector, h: GroupWord) -> KVector | None:
        """The vector of h k h^{-1} for k in K, or None once it leaves K.

        At level 0, (k_h, L)(k, I)(k_h, L)^{-1} = (L k, I).  At level L >= 1
        the factors x_r, ..., x_0 conjugate in turn, innermost first, and
        t(L)^m fixes k when k lies in the glued subgroup K_{L-1} (the test
        `_push` folds with); any other k stops the walk.
        """
        if h.level == 0:
            lam = h.g0.lam
            return k if lam.rows == _ID_ROWS else k.act(lam, self.primes)
        cutoff = h.level - 1
        factors = h.factors
        for i in range(len(h.exponents), 0, -1):
            k = self._conj_k(k, factors[i])
            if k is None or not k.supported_at_or_above(cutoff):
                return None
        return self._conj_k(k, factors[0])

    def eq(self, a: GroupWord, b: GroupWord) -> bool:
        """Element equality, decided by reducing a * b^{-1}."""
        if a.tower is not self:
            self._check(a)
        if b.tower is not self:
            self._check(b)
        if a is b or a == b:
            return True
        return self.mul(a, self.inv(b)).is_identity

    def reduce(self, word: GroupWord | Iterable[GroupWord]) -> GroupWord:
        """Reduce a raw word (a sequence of already-built syllables or a word)."""
        if isinstance(word, GroupWord):
            self._check(word)
            return word
        out = self._identity
        for part in word:
            out = self.mul(out, part)
        return out

    # ------------------------------------------------------------------
    # conjugacy growth

    def lambda_ball(self, radius: int) -> tuple[GroupWord, ...]:
        """Pure matrix elements that are products of <= radius generators."""
        if radius not in self._ball_cache:
            self._ball_cache[radius] = tuple(
                self.lam(m) for m in generator_ball(radius)
            )
        return self._ball_cache[radius]

    def lambda_image(self, w: GroupWord) -> LambdaMatrix:
        """Image under the quotient that kills coordinates and stable letters."""
        if w.level == 0:
            return w.g0.lam
        out = IDENTITY_MATRIX
        for x in w.factors:
            out = out * self.lambda_image(x)
        return out

    def _conjugate_key(self, w: GroupWord):
        # invariant of the element (not just the representation): level-0
        # words are canonical; higher words are pinned up to glued-subgroup
        # shifts, under which exponents and factorwise matrix images are stable
        if w.level == 0:
            return (0, w.g0)
        return (
            w.level,
            w.exponents,
            tuple(self.lambda_image(x).rows for x in w.factors),
        )

    def _register(self, buckets: dict, w: GroupWord) -> bool:
        """Add a conjugate to the distinct set; True if it was new."""
        bucket = buckets.setdefault(self._conjugate_key(w), [])
        for rep in bucket:
            if self.eq(w, rep):
                return False
        bucket.append(w)
        return True

    def alphabet(self, level_cap: int, block_cap: int = 3) -> tuple[GroupWord, ...]:
        """Finite generating letters used for word-metric balls.

        The twelve elementary matrices, the stable letters up to
        `level_cap` and their inverses, and the +-unit coordinate vectors
        of the first `block_cap` configured blocks.  The tuple is memoized
        per tower and key, so every caller shares the same letters.
        """
        key = (level_cap, block_cap)
        if key not in self._alphabet_cache:
            letters: dict[GroupWord, None] = {}
            for m in ELEMENTARY_GENERATORS:
                letters[self.lam(m)] = None
            for lvl in range(1, level_cap + 1):
                letters[self.stable(lvl, 1)] = None
                letters[self.stable(lvl, -1)] = None
            for n in range(min(len(self.primes), block_cap)):
                for i in range(3):
                    for s in (1, -1):
                        coords = [0, 0, 0]
                        coords[i] = s
                        letters[self.h(n, coords)] = None
            self._alphabet_cache[key] = tuple(letters)
        return self._alphabet_cache[key]

    def conjugate_growth_profile(self, g: GroupWord, radius: int) -> tuple[int, ...]:
        """Distinct conjugate counts at radii 0..radius.

        Conjugators run over matrix-generator balls when g is outside the
        coordinate subgroup, and over word-metric balls one level above g
        otherwise (where matrix conjugation alone would be too coarse a
        reading of the ambient group).
        """
        if g.is_identity:
            raise ValueError("conjugate growth of the identity is not defined")
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if self.in_k(g):
            letters = self.alphabet(level_cap=g.level + 1)
        else:
            letters = [self.lam(m) for m in ELEMENTARY_GENERATORS]
        buckets: dict = {}
        self._register(buckets, g)
        counts = [1]
        frontier = [g]
        for _ in range(radius):
            nxt: list[GroupWord] = []
            for c in frontier:
                for ltr in letters:
                    cand = self.conj(c, ltr)
                    if self._register(buckets, cand):
                        nxt.append(cand)
            counts.append(counts[-1] + len(nxt))
            frontier = nxt
        return tuple(counts)


def _format_g0(e: G0Element) -> str:
    parts = [
        f"h({n};{c[0]},{c[1]},{c[2]})" for n, c in e.k.items
    ]
    if not e.lam.is_identity:
        r = e.lam.rows
        parts.append(
            "L[%d,%d,%d;%d,%d,%d;%d,%d,%d]"
            % (r[0][0], r[0][1], r[0][2], r[1][0], r[1][1], r[1][2], r[2][0], r[2][1], r[2][2])
        )
    if not parts:
        return "e"
    return " * ".join(parts)


def _format_word(w: GroupWord) -> str:
    if w.level == 0:
        return _format_g0(w.g0)
    parts = []
    if not w.factors[0].is_identity:
        parts.append(_format_word(w.factors[0]))
    for i, m in enumerate(w.exponents):
        parts.append(f"t({w.level})" if m == 1 else f"t({w.level})^{m}")
        x = w.factors[i + 1]
        if not x.is_identity:
            parts.append(_format_word(x))
    return " * ".join(parts)
