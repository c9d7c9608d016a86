"""Text grammar for group elements.

    e                        identity
    h(n;a,b,c)               coordinate block at index n
    L[a,b,c;d,e,f;g,h,i]     determinant-one integer matrix
    t(N)                     stable letter at level N >= 1
    x * y                    product
    x^m                      integer power (so x^-1 is the inverse)

Whitespace is insignificant.  Syntax errors report the offset at which
parsing failed.

A parsed element is also rejected, as an ElementSyntaxError, when its
matrix entries outgrow MAX_ENTRY_BITS bits, summed over its syllables.
Powers of a hyperbolic matrix grow exponentially (`L[2,1,0;1,1,0;0,0,1]^m`
has entries of about 1.39*m bits), so a short text could otherwise ask
for unbounded memory; under the cap the product, inverse or conjugate of
parsed elements stays within Python's default limit of 4300 digits for
printing an int.
"""
from __future__ import annotations

from .matrices import IDENTITY_MATRIX
from .words import GroupWord, Tower

__all__ = [
    "parse_element", "format_element", "ElementSyntaxError", "UnconfiguredPrimeError", "MAX_ENTRY_BITS",
]

MAX_ENTRY_BITS = 3000


class ElementSyntaxError(ValueError):
    """Malformed element text; `position` is the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnconfiguredPrimeError(ValueError):
    """A block index beyond the configured prime prefix."""


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ElementSyntaxError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ElementSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def int_list(self, count: int, sep: str) -> list[int]:
        out = [self.integer()]
        for _ in range(count - 1):
            self.take(sep)
            out.append(self.integer())
        return out

    @property
    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _atom(scanner: _Scanner, tower: Tower) -> GroupWord:
    ch = scanner.peek()
    if ch == "e":
        scanner.take("e")
        return tower.identity()
    if ch == "h":
        scanner.take("h")
        scanner.take("(")
        n = scanner.integer()
        scanner.take(";")
        coords = scanner.int_list(3, ",")
        scanner.take(")")
        try:
            return tower.h(n, coords)
        except IndexError as exc:
            raise UnconfiguredPrimeError(str(exc)) from None
    if ch == "L":
        scanner.take("L")
        scanner.take("[")
        rows = [scanner.int_list(3, ",")]
        scanner.take(";")
        rows.append(scanner.int_list(3, ","))
        scanner.take(";")
        rows.append(scanner.int_list(3, ","))
        scanner.take("]")
        try:
            return tower.lam(rows)
        except ValueError as exc:
            raise ElementSyntaxError(str(exc), scanner.pos)
    if ch == "t":
        scanner.take("t")
        scanner.take("(")
        level = scanner.integer()
        scanner.take(")")
        if level < 1:
            raise ElementSyntaxError(f"stable letters start at level 1, got {level}", scanner.pos)
        return tower.stable(level)
    raise ElementSyntaxError("expected an atom (e, h, L, or t)", scanner.pos)


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


def _term(scanner: _Scanner, tower: Tower) -> tuple[GroupWord, int]:
    """The next atom or power, with its entry bits."""
    word = _atom(scanner, tower)
    position = scanner.pos
    if scanner.peek() == "^":
        scanner.take("^")
        m = scanner.integer()
        if word.level == 0:
            # square the matrix as the power will, and give up as soon as
            # a square outgrows the cap rather than after the last one
            lam = word.g0.lam if m >= 0 else word.g0.lam.inverse()
            for _ in range(abs(m).bit_length() - 1):
                lam = lam * lam
                if _matrix_bits(lam) > MAX_ENTRY_BITS:
                    raise _too_large(position)
        word = word**m
    return word, _bounded(word, position)


def parse_element(tower: Tower, text: str) -> GroupWord:
    """Parse element text into a reduced word over `tower`."""
    scanner = _Scanner(text)
    word, bits = _term(scanner, tower)
    while not scanner.done:
        scanner.take("*")
        term, term_bits = _term(scanner, tower)
        word = tower.mul(word, term)
        # `bits` bounds the entry bits of `word` from above: a term has at
        # most one syllable with a matrix other than the identity, and one
        # matrix product adds at most 2 bits (|(AB)_ij| <= 3 max|A| max|B|),
        # so the exact count is needed only once the bound passes the cap
        bits += term_bits + 2
        if bits > MAX_ENTRY_BITS:
            bits = _bounded(word, scanner.pos)
    return word


def format_element(word: GroupWord) -> str:
    """Render a word in the grammar; parse_element inverts this up to eq."""
    return word.format()
