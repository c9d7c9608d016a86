"""Text grammar for group elements.

    e                        identity
    h(n;a,b,c)               coordinate block at index n
    L[a,b,c;d,e,f;g,h,i]     determinant-one integer matrix
    t(N)                     stable letter at level N >= 1
    x * y                    product
    x^m                      integer power (so x^-1 is the inverse)

Integers are an optional sign and ASCII digits 0-9; any other digit is a
syntax error, and so is an integer with more digits than Python's int()
converts.  Whitespace (every character for which `str.isspace` is true,
which are the characters the patterns' whitespace class matches) is
insignificant.  A term whose text is not in the tower's cache (below)
is matched by its atom's pattern: each atom's tokens are declared once
and compiled to one pattern, `^m` tail included; where it fails, the
same tokens are walked one at a time, so syntax errors report the
offset that failed.

A parsed element is also rejected, as an ElementSyntaxError, when its
matrix entries outgrow MAX_ENTRY_BITS bits, summed over its syllables.
Powers of a hyperbolic matrix grow exponentially (`L[2,1,0;1,1,0;0,0,1]^m`
has entries of about 1.39*m bits), so a short text could otherwise ask
for unbounded memory; under the cap the product, inverse or conjugate of
parsed elements stays within Python's default limit of 4300 digits for
printing an int.

Each tower keeps the terms it has parsed (an atom with its `^m` tail),
keyed by the term's text without the spaces around it.  A term's text
runs to the next `*` (no term has one) or to the end of the text, and
it is looked up before anything else: a text that comes back is not
matched, converted, validated or built again.  Only the text of one
whole term is ever a key, so text that is not one misses and takes the
matching path, which raises its error.  The cache holds TERM_CACHE_SIZE
terms of at most TERM_CACHE_TEXT characters, the first ones seen, and
adds none once full, so its memory is bounded by constants.  It keeps
no word: a level-0 term is kept as its G0Element and a stable power as
(level, m), and the tower's word is rebuilt from them, since a cached
word would hold its tower.  Only terms that parse are kept, so every
error and its offset is raised afresh.  The cache lives on the tower
and not in the module, so a fresh tower parses from a cold start.
"""
from __future__ import annotations

import re
from typing import NoReturn

from .matrices import IDENTITY_MATRIX
from .semidirect import G0Element
from .words import GroupWord, Tower

__all__ = [
    "parse_element", "format_element", "ElementSyntaxError", "UnconfiguredPrimeError", "MAX_ENTRY_BITS",
]

MAX_ENTRY_BITS = 3000
TERM_CACHE_SIZE = 128  # parsed terms kept per tower
TERM_CACHE_TEXT = 64   # longest term text kept, in characters


class ElementSyntaxError(ValueError):
    """Malformed element text; `position` is the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnconfiguredPrimeError(ValueError):
    """A block index beyond the configured prime prefix."""


INT = None  # the integer token: an optional sign and ASCII digits
_ROW = (INT, ",", INT, ",", INT)
_ATOMS = {tokens[0]: tokens for tokens in (  # keyed by the first character
    ("e",),
    ("h", "(", INT, ";", *_ROW, ")"),
    ("L", "[", *_ROW, ";", *_ROW, ";", *_ROW, "]"),
    ("t", "(", INT, ")"),
)}
_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _compile(tokens: tuple) -> tuple[re.Pattern, int]:
    """The atom's pattern, with groups for its integers, the tail (`^m` or the
    spaces after the atom, so it starts where the atom ends) and m."""
    body = "".join(r"\s*" + (f"({_INTEGER.pattern})" if t is INT else re.escape(t)) for t in tokens)
    return re.compile(rf"{body}(\s*\^\s*({_INTEGER.pattern})|\s*)"), tokens.count(INT)


_PATTERNS = {first: _compile(tokens) for first, tokens in _ATOMS.items()}


def _walk(text: str, pos: int, tokens: tuple) -> int:
    """The offset after `tokens` at `pos`, or the error at the first that fails."""
    for token in tokens:
        pos = _SPACE.match(text, pos).end()
        if token is INT:
            m = _INTEGER.match(text, pos)
            if m is None:
                raise ElementSyntaxError("expected an integer", pos)
            pos = m.end()
        elif text.startswith(token, pos):
            pos += len(token)
        else:
            raise ElementSyntaxError(f"expected {token!r}", pos)
    return pos


def _fail(text: str, pos: int) -> NoReturn:
    """Raise the error in the term at `pos` or in what follows it."""
    tokens = _ATOMS.get(text[pos : pos + 1])
    if tokens is None:
        raise ElementSyntaxError("expected an atom (e, h, L, or t)", pos)
    pos = _SPACE.match(text, _walk(text, pos, tokens)).end()
    if text.startswith("^", pos):
        pos = _SPACE.match(text, _walk(text, pos, ("^", INT))).end()
    raise ElementSyntaxError("expected '*'", pos)


def _atom(tower: Tower, first: str, values: list[int], end: int) -> GroupWord:
    if first == "h":
        try:
            return tower.h(values[0], values[1:])
        except IndexError as exc:
            raise UnconfiguredPrimeError(str(exc)) from None
    if first == "L":
        try:
            return tower.lam((values[0:3], values[3:6], values[6:9]))
        except ValueError as exc:
            raise ElementSyntaxError(str(exc), end)
    if first == "t":
        if values[0] < 1:
            raise ElementSyntaxError(f"stable letters start at level 1, got {values[0]}", end)
        return tower.stable(values[0])
    return tower.identity()


def _matrix_bits(lam) -> int:
    if lam is IDENTITY_MATRIX:  # the matrix part of every h atom
        return 1
    r0, r1, r2 = lam.rows
    return max(map(abs, r0 + r1 + r2)).bit_length()


def _entry_bits(word: GroupWord) -> int:
    """Bit length of the largest matrix entry, summed over the syllables."""
    if word.level == 0:
        return _matrix_bits(word.g0.lam)
    return sum(_entry_bits(x) for x in word.factors)


def _too_large(position: int) -> ElementSyntaxError:
    return ElementSyntaxError(f"element too large: matrix entries exceed {MAX_ENTRY_BITS} bits", position)


def _bounded(word: GroupWord, position: int) -> int:
    """The entry bits of `word`, which must not exceed the cap."""
    bits = _entry_bits(word)
    if bits > MAX_ENTRY_BITS:
        raise _too_large(position)
    return bits


def _int(m: re.Match, group: int) -> int:
    """The integer in `group`; one that int() refuses (Python caps the
    digits it converts) is an error at its offset."""
    try:
        return int(m.group(group))
    except ValueError:
        raise ElementSyntaxError("integer has too many digits", m.start(group)) from None


def _term(tower: Tower, text: str, pos: int) -> tuple[GroupWord, int, int]:
    """The atom or power at `pos`, its entry bits, and the offset after it."""
    first = text[pos : pos + 1]
    pattern, count = _PATTERNS.get(first, (None, 0))
    m = pattern and pattern.match(text, pos)
    if not m:
        _fail(text, pos)
    end = m.start(count + 1)
    word = _atom(tower, first, [_int(m, i) for i in range(1, count + 1)], end)
    if m.group(count + 2) is not None:
        power = _int(m, count + 2)
        if word.level == 0 and not -1 <= power <= 1:
            # square the matrix as the power will, and give up as soon as
            # a square outgrows the cap rather than after the last one
            lam = word.g0.lam if power >= 0 else word.g0.lam.inverse()
            for _ in range(power.bit_length() - 1):
                lam = lam * lam
                if _matrix_bits(lam) > MAX_ENTRY_BITS:
                    raise _too_large(end)
        word = word**power
    bits = _bounded(word, end)
    cache = tower._term_cache
    key = m.group(0).rstrip()  # a tail of spaces is not part of the term
    if len(cache) < TERM_CACHE_SIZE and len(key) <= TERM_CACHE_TEXT:
        # a term above level 0 is a stable power t(N)^m
        cache[key] = (word.g0 if word.level == 0 else (word.level, word.exponents[0]), bits)
    return word, bits, m.end()


def parse_element(tower: Tower, text: str) -> GroupWord:
    """Parse element text into a reduced word over `tower`."""
    cache = tower._term_cache
    word = None
    pos = 0  # where the next term's text starts, spaces included
    while True:
        stop = text.find("*", pos)  # no term has a '*' in it
        if stop < 0:
            stop = len(text)
        hit = cache.get(text[pos:stop].strip())
        if hit is None:
            start = _SPACE.match(text, pos).end()
            term, term_bits, end = _term(tower, text, start)
        else:
            part, term_bits = hit
            term = tower.g0(part) if type(part) is G0Element else tower.stable(*part)
            end = stop  # where its match ends, if no ^m tail ends it earlier
        if word is None:
            word, bits = term, term_bits
        else:
            word = tower.mul(word, term)
            # `bits` bounds the entry bits of `word` from above: a term has at
            # most one syllable with a matrix other than the identity, and one
            # matrix product adds at most 2 bits (|(AB)_ij| <= 3 max|A| max|B|),
            # so the exact count is needed only once the bound passes the cap
            bits += term_bits + 2
            if bits > MAX_ENTRY_BITS:
                if hit is not None and "^" in text[pos:stop]:
                    end = pos + len(text[pos:stop].rstrip())  # after the ^m digits
                bits = _bounded(word, end)
        if end < stop and text[end:stop].strip():  # more than spaces after the term
            _fail(text, start)
        if stop == len(text):
            return word
        pos = stop + 1


def format_element(word: GroupWord) -> str:
    """Render a word in the grammar; parse_element inverts this up to eq."""
    return word.format()
