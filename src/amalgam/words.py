"""Reduced words in the inductive tower of amalgamated products.

Level 0 is the semidirect product of the restricted coordinate sum with
the integer matrix group.  Level N+1 adjoins a stable letter t(N+1) that
commutes exactly with the coordinate blocks at index >= N, i.e. the two
factors are glued along that subgroup.  A word of level L >= 1 is an
alternating product

    x_0 * t(L)^{m_1} * x_1 * ... * t(L)^{m_r} * x_r

with every x_i of level < L, every m_i nonzero, and no x_i between two
stable powers lying in the glued subgroup.  Such words are never the
identity (r >= 1).  Products choose no coset transversal, so two reduced
words may denote the same element.  `Tower.key` gives each element one
word, keeping only blocks below L-1 in each inner factor's last level-0
part (Lyndon-Schupp IV.2; Serre, Trees I.1), and carrying the rest,
lambda^-1 of its high blocks, into the next factor; `Tower.eq` compares keys.

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
Both end in `_build`'s one leading fold, with one exception: a b of
lower level than a has no stable powers to push, so it joins a's last
factor, the one factor the invariant leaves free, and a's other factors
and its exponents are shared as they are, with no fold to test.

Each tower builds exactly one identity word (`Tower.identity()`): every
operation that reduces to the identity returns that object, so
`GroupWord.is_identity` is an identity test on the object.  `Tower.inv`
caches its result on the word it inverted, one way only: the inverse of
that result is reduced afresh when asked for, never short-circuited back
to the original word.  Reduced words are not canonical, so a reduced
inverse of the inverse may be a different representation of the same
element, and a two-way cache would let the order of earlier calls decide
which one later results (and reports) are built from.

Validation happens at the boundary: `Tower.h`, `k_vector`, `lam` and the
element grammar build their parts through the checking constructors,
`Tower.stable` takes only an integer level and power, and
`Tower.mul`/`inv`/`eq` (and so `conj`) and the membership predicates refuse
words of a tower with other primes.  Results of arithmetic are built from
such parts by the private trusted constructor `_word` without re-checking
(see `matrices` for how trusted construction works), and sampled lattice
vectors by `Tower._lattice`.  A
product with an identity operand returns the other operand when it belongs
to this tower: level-0 words are canonical and a word of a higher level
is reduced when it is built, so this is the same element in the same
representation the engine would return.

`Tower.conj` of a lattice element (level 0, identity matrix) skips the
rewriting engine when the vector lies in K_{L-1}, for a conjugator h of
level L: there conjugation by h is the action of the matrix part of h's
retraction to G_0 (`Tower._retract_act`), so the conjugate is a level-0
word, which is canonical.  A reduced word of level >= 1 never lies in
G_0, so the engine would have returned that same word.  A lattice target
outside K_{L-1} conjugated by a bare stable power t(L)^m starts a new
syllable, so t^m g t^-m is already the engine's word.  Every other
target goes to the engine.  The same rule decides both block checks in
`witness`: h maps block n onto itself exactly when n >= L-1.
"""
from __future__ import annotations

import itertools
import re
from typing import Iterable, Sequence

from .matrices import (
    ELEMENTARY_GENERATORS,
    IDENTITY_MATRIX,
    LambdaMatrix,
    _ID_ROWS,
    _Immutable,
    _unguarded,
)
from .orbits import DEFAULT_SIZE_GUARD, WORD_ENTRIES, SizeGuardExceeded
from .primes import PrimeSeq, _integer
from .semidirect import G0Element, KVector, Triple, ZERO_K, _g0, _kvec
from . import primes as _primes_mod

__all__ = ["GroupWord", "Tower"]

_set = object.__setattr__


class GroupWord(_Immutable):
    """Immutable reduced word, built only through a Tower.

    Calling `GroupWord(...)` raises TypeError: a word built outside the
    tower could be an identity that is not the tower's identity word.
    Equality and hash compare the representation (level, g0, factors,
    exponents), not the group element and not the tower; use Tower.eq or
    Tower.key for element equality.  The tower's single identity word is
    the only identity word.  The hash and, once `Tower.inv` has computed
    it, the inverse are cached on the word (one way only; see the module
    docstring).
    """

    __slots__ = ("tower", "level", "g0", "factors", "exponents", "_hash", "_inv")

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("build words through a Tower (h, lam, g0, stable, mul, ...)")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.g0, self.factors, self.exponents) == (
            other.level, other.g0, other.factors, other.exponents)

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
        n = _integer(n, "exponents must be integers")
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
        h = self._hash
        if h is None:
            h = hash((self.level, self.g0, self.factors, self.exponents))
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        # a blank word first and its fields as state, so that a copy made
        # while its tower is copied (a tower holds its identity word) is
        # the one object the copied tower refers to
        return _word, (None, 0), (self.tower, self.level, self.g0, self.factors, self.exponents)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state + (None, None)):
            _set(self, name, value)


_UnguardedWord = _unguarded(GroupWord)


def _word(tower: "Tower", level: int, g0=None, factors=(), exponents=()) -> GroupWord:
    """Build a word from already-reduced parts without re-checking."""
    w = object.__new__(_UnguardedWord)
    w.tower = tower
    w.level = level
    w.g0 = g0
    w.factors = factors
    w.exponents = exponents
    w._hash = None
    w._inv = None
    w.__class__ = GroupWord
    return w


_SUBGROUP_RE = re.compile(r"^(K|G)_?([0-9]+)$|^(K)$|^(Lambda|L)$")


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
        self._alphabet_cache: dict[tuple[int, int], tuple[GroupWord, ...]] = {}
        self._block_cache: dict[int, tuple[GroupWord, ...]] = {}
        # the element grammar's parsed terms, by text (see `grammar`)
        self._term_cache: dict[str, tuple[G0Element | tuple[int, int], int]] = {}

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
        Memoized per tower one block at a time: building another releases it.
        """
        if n not in self._block_cache:
            self._block_cache.clear()
            p = self.primes.p(n)
            points = itertools.product(range(p), repeat=3)  # lexicographic: code order
            self._block_cache[n] = tuple(self.h(n, x) for x in points)
        return self._block_cache[n]

    def k_vector(self, blocks: dict[int, Iterable[int]]) -> GroupWord:
        """Pure coordinate element with several blocks."""
        return self.g0(G0Element(KVector.from_mapping(self.primes, blocks), IDENTITY_MATRIX))

    def _lattice(self, items: tuple[tuple[int, Triple], ...]) -> GroupWord:
        """Pure coordinate element of (block, triple) pairs sorted by block,
        reduced and nonzero, built without re-checking (see `_word`)."""
        return self.g0(_g0(_kvec(items), IDENTITY_MATRIX))

    def lam(self, matrix: LambdaMatrix | Sequence[Sequence[int]]) -> GroupWord:
        """Pure matrix element."""
        if not isinstance(matrix, LambdaMatrix):
            matrix = LambdaMatrix(matrix)
        return self.g0(G0Element(ZERO_K, matrix))

    def stable(self, level: int, power: int = 1) -> GroupWord:
        """The stable letter t(level) raised to `power`."""
        level = _integer(level, "stable levels must be integers")
        power = _integer(power, "stable powers must be integers")
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
                factors[-1] = self.mul(factors[-1], z)
            m += exponents.pop()
        if m:
            exponents.append(m)
            factors.append(x)
            return True
        factors[-1] = self.mul(factors[-1], x)
        return False

    def _build(self, factors: list, exponents: list, level: int) -> GroupWord:
        if not exponents:
            return self._identity if factors[0].is_identity else factors[0]
        z = factors[0]
        if not z.is_identity and self.in_kn(z, level - 1):
            # a leading glued-subgroup factor commutes rightwards across
            # the first stable power and folds into the next factor
            factors[0] = self._identity
            factors[1] = self.mul(z, factors[1])
        return _word(self, level, None, tuple(factors), tuple(exponents))

    def _check(self, w: GroupWord) -> None:
        if w.tower is not self and w.tower.primes != self.primes:
            raise ValueError("cannot mix words from towers with different primes")

    # ------------------------------------------------------------------
    # group operations

    def mul(self, a: GroupWord, b: GroupWord) -> GroupWord:
        """The reduced product a * b (see the module docstring).

        When b's level is below a's, b joins a's last factor and the result
        shares a's other factors and exponents: no syllable can merge, and
        the leading factor, outside K_{L-1}, needs no fold.
        """
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
        if b.level < a.level:
            last = self.mul(a.factors[-1], b)
            return _word(self, a.level, None, a.factors[:-1] + (last,), a.exponents)
        level = b.level
        factors, exponents = (list(a.factors), list(a.exponents)) if a.level == level else ([a], [])
        b_factors, b_exponents = b.factors, b.exponents
        factors[-1] = self.mul(factors[-1], b_factors[0])
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
            cached = a._inv
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

        A lattice target (level 0, identity matrix) of this tower in the
        glued subgroup K_{L-1}, for a conjugator h of this tower at level L,
        is moved by the matrix part of h's retraction (`_retract_act`).
        Such a result is a level-0 word, and level-0 words are canonical,
        while a reduced word at level >= 1 never lies in G_0; so this is the
        word the rewriting engine would return.  A lattice target outside
        K_{L-1} conjugated by a bare stable power h = t(L)^m is returned as
        the word t^m g t^-m: g starts a new syllable, so the engine would
        fold nothing.  Every other case is reduced by the engine.
        """
        if g.level == 0 and g.tower is self and h.tower is self and g.g0.lam.rows == _ID_ROWS:
            k = g.g0.k
            if k.supported_at_or_above(h.level - 1):
                k = self._retract_act(k, h)
                return g if k is g.g0.k else self.g0(_g0(k, IDENTITY_MATRIX))
            if len(h.exponents) == 1 and h.factors[0].is_identity and h.factors[1].is_identity:
                # h = t(L)^m and g outside K_{L-1}: t^m g t^-m is reduced as it stands
                e, m = h.factors[0], h.exponents[0]
                return _word(self, h.level, None, (e, g, e), (m, -m))
        return self.mul(self.mul(h, g), self.inv(h))

    def _retract_act(self, k: KVector, h: GroupWord) -> KVector:
        """The vector of h k h^{-1} for k in K_{L-1}, h of level L.

        The tower glues t(N+1) along K_N, so t(L) fixes K_{L-1} pointwise.
        Deleting stable letters is a homomorphism rho: G_L -> G_0, the
        identity on G_0 (the amalgam's universal property, Serre, Trees
        I.1).  Write h = x_0 t^{m_1} x_1 ... t^{m_r} x_r with x_i of level
        < L.  By induction on L, each x_i conjugates K_{L-1} into itself as
        the matrix part of rho(x_i) does (blockwise, so the support is
        kept), and each t^{m_i} fixes the result; at level 0,
        (v, lambda)(k, I)(v, lambda)^{-1} = (lambda k, I).  So h k h^{-1} is
        lambda k, for lambda the matrix part of rho(h).  The level-0
        matrices act on k one at a time, innermost first, reduced mod p at
        every step; no product of matrices and no word is formed.
        """
        if h.level == 0:
            lam = h.g0.lam
            return k if lam.rows == _ID_ROWS else k.act(lam, self.primes)
        for x in reversed(h.factors):
            k = self._retract_act(k, x)
        return k

    def eq(self, a: GroupWord, b: GroupWord) -> bool:
        """Element equality: the two words have the same key."""
        if a.tower is not self:
            self._check(a)
        if b.tower is not self:
            self._check(b)
        if a is b or a == b:
            return True
        return self.key(a) == self.key(b)

    def key(self, w: GroupWord) -> GroupWord:
        """The canonical word of w's element; w itself when w is one.

        Each inner factor, times the carry in K_{L-1} from its left, has its
        key split as c * k (`_split`); c lies outside K_{L-1} as the factor
        does, so a key is a reduced word, and k, built in closed form, is the
        next carry.
        """
        if w.tower is not self:
            self._check(w)
        if w.level == 0:
            return w
        out, carry = [], self._identity
        for x in w.factors[:-1]:
            c, carry = self._split(self.key(self.mul(carry, x)), w.level - 1)
            out.append(c)
        out.append(self.key(self.mul(carry, w.factors[-1])))
        if all(c is x for c, x in zip(out, w.factors)):
            return w
        return _word(self, w.level, None, tuple(out), w.exponents)

    def _split(self, y: GroupWord, cutoff: int) -> tuple[GroupWord, GroupWord]:
        """y = c * k for a key y, with k = c^-1 y in K_cutoff: c is y with its
        innermost last level-0 factor (v, lambda) cut to v's blocks below the
        cutoff.  With v = v_low + v_high split there, k is the closed form
        (v_low, lambda)^-1 (v, lambda) = (lambda^-1 v_high, I): no product, no inverse.
        """
        if y.level:
            c, k = self._split(y.factors[-1], cutoff)
            if c is not y.factors[-1]:
                y = _word(self, y.level, None, y.factors[:-1] + (c,), y.exponents)
            return y, k
        items = y.g0.k.items
        if not items or items[-1][0] < cutoff:  # blocks are sorted by index
            return y, self._identity
        lam = y.g0.lam
        low = tuple(b for b in items if b[0] < cutoff)
        high = _kvec(items[len(low):])
        if lam.rows != _ID_ROWS:
            high = high.act(lam.inverse(), self.primes)
        return self.g0(_g0(_kvec(low), lam)), _word(self, 0, _g0(high, IDENTITY_MATRIX))

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

    def alphabet(self, level_cap: int, block_cap: int = 3) -> tuple[GroupWord, ...]:
        """Finite generating letters used for word-metric balls.

        The twelve elementary matrices, the stable letters up to
        `level_cap` and their inverses, and the +-unit coordinate vectors
        of the first `block_cap` configured blocks.  The tuple is memoized
        per tower and key, so every caller shares the same letters.
        """
        level_cap = _integer(level_cap, "level caps must be integers")
        block_cap = _integer(block_cap, "block caps must be integers")
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

    def conjugate_growth_profile(
        self, g: GroupWord, radius: int, size_guard: int = DEFAULT_SIZE_GUARD
    ) -> tuple[int, ...]:
        """Distinct conjugate counts at radii 0..radius.

        Conjugators run over matrix-generator balls when g is outside the
        coordinate subgroup, and over word-metric balls one level above g
        otherwise (where matrix conjugation alone would be too coarse a
        reading of the ambient group).  Before each radius, the conjugates
        seen plus one per frontier word and letter, at `WORD_ENTRIES` entries
        each, bound what it can hold; past `size_guard` it raises
        `SizeGuardExceeded`, so a profile that saturates runs to any radius.
        """
        radius = _integer(radius, "radius must be an integer")
        size_guard = _integer(size_guard, "size guard must be an integer")
        if g.is_identity:
            raise ValueError("conjugate growth of the identity is not defined")
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if self.in_k(g):
            letters = self.alphabet(level_cap=g.level + 1)
        else:
            letters = [self.lam(m) for m in ELEMENTARY_GENERATORS]
        frontier = [self.key(g)]
        seen = set(frontier)
        counts = [1]
        for r in range(1, radius + 1):
            reach = WORD_ENTRIES * (len(seen) + len(frontier) * len(letters))
            if reach > size_guard:
                raise SizeGuardExceeded(f"conjugates to radius {r} may hold {reach} entries, "
                                        f"above the guard of {size_guard}")
            nxt: list[GroupWord] = []
            for c in frontier:
                for ltr in letters:
                    cand = self.key(self.conj(c, ltr))
                    if cand not in seen:
                        seen.add(cand)
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
