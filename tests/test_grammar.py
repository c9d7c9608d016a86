"""Element text grammar: parse and format round trips."""
from __future__ import annotations

import gc
import re
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.grammar import (
    MAX_ENTRY_BITS,
    TERM_CACHE_SIZE,
    TERM_CACHE_TEXT,
    ElementSyntaxError,
    UnconfiguredPrimeError,
    format_element,
    parse_element,
)
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.words import GroupWord, Tower
from timelimit import time_limit

PRIMES = PrimeSeq.parse("2,3,5")


@pytest.fixture(scope="module")
def tw() -> Tower:
    return Tower(PRIMES)


def test_parse_atoms(tw: Tower):
    assert parse_element(tw, "e").is_identity
    h = parse_element(tw, "h(1;1,2,0)")
    assert tw.eq(h, tw.h(1, (1, 2, 0)))
    lam = parse_element(tw, "L[1,1,0;0,1,0;0,0,1]")
    assert tw.eq(lam, tw.lam(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    t = parse_element(tw, "t(2)")
    assert tw.eq(t, tw.stable(2))


def test_parse_products_and_powers(tw: Tower):
    w = parse_element(tw, "t(1) * h(0;1,0,0) * t(1)^-1")
    assert tw.eq(w, tw.h(0, (1, 0, 0)))  # the level-1 letter centralizes the lattice
    sq = parse_element(tw, "t(2)^3")
    assert tw.eq(sq, tw.stable(2, 3))
    assert parse_element(tw, "h(0;1,0,0)^2").is_identity


def test_whitespace_is_insignificant(tw: Tower):
    a = parse_element(tw, "t(1)*h(2;1,1,1)")
    b = parse_element(tw, "  t( 1 )  *  h( 2 ; 1 , 1 , 1 )  ")
    assert tw.eq(a, b)


def test_negative_coordinates_reduce(tw: Tower):
    w = parse_element(tw, "h(1;-1,4,0)")
    assert w.g0.k.block(1) == (2, 1, 0)


def test_syntax_error_positions(tw: Tower):
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(tw, "h(1;1,2)")
    assert err.value.position == 7
    with pytest.raises(ElementSyntaxError):
        parse_element(tw, "t(0)")
    with pytest.raises(ElementSyntaxError):
        parse_element(tw, "h(1;1,2,0) * ")
    with pytest.raises(ElementSyntaxError):
        parse_element(tw, "q(1)")
    with pytest.raises(ElementSyntaxError):
        parse_element(tw, "t(1) h(0;1,0,0)")


def test_rejects_non_unimodular_matrix(tw: Tower):
    with pytest.raises(ValueError, match="determinant"):
        parse_element(tw, "L[2,0,0;0,1,0;0,0,1]")


HYPERBOLIC = "L[2,1,0;1,1,0;0,0,1]"


def _largest_entry_bits(word) -> int:
    return max(abs(x).bit_length() for row in word.g0.lam.rows for x in row)


def test_rejects_elements_beyond_the_entry_cap(tw: Tower):
    # entries of HYPERBOLIC^m have about 1.39*m bits
    for m in (2000, -2000):
        assert _largest_entry_bits(parse_element(tw, f"{HYPERBOLIC}^{m}")) <= MAX_ENTRY_BITS
    for text in (
        f"{HYPERBOLIC}^20000",
        f"{HYPERBOLIC}^-20000",
        f"{HYPERBOLIC}^100000000",
        f"{HYPERBOLIC}^2000 * {HYPERBOLIC}^2000",
        f"t(1) * {HYPERBOLIC}^1500 * t(1) * {HYPERBOLIC}^1500",
        "L[1,1,0;0,1,0;0,0,1]^" + "9" * 1000,
        f"L[1,{2**3001},0;0,1,0;0,0,1]",
    ):
        with pytest.raises(ElementSyntaxError, match="too large"):
            parse_element(tw, text)
    # unipotent and finite-order powers grow slowly and stay accepted
    assert parse_element(tw, "L[1,1,0;0,1,0;0,0,1]^1000000000000").format() == (
        "L[1,1000000000000,0;0,1,0;0,0,1]"
    )
    assert parse_element(tw, "L[0,-1,0;1,0,0;0,0,1]^99999999999999").format() == "L[0,1,0;-1,0,0;0,0,1]"


def test_rejects_unconfigured_block(tw: Tower):
    with pytest.raises(UnconfiguredPrimeError):
        parse_element(tw, "h(3;1,0,0)")


def test_format_atoms(tw: Tower):
    assert format_element(tw.identity()) == "e"
    assert "h(1;" in format_element(tw.h(1, (1, 0, 0)))
    assert "t(2)" in format_element(tw.stable(2))


def test_format_parse_round_trip_random(tw: Tower):
    sampler = Sampler(tw, seed=101)
    for i in range(120):
        w = sampler.word(1 + i % 6, level_cap=3)
        again = parse_element(tw, format_element(w))
        assert tw.eq(w, again)


def test_round_trip_reduced_words(tw: Tower):
    sampler = Sampler(tw, seed=7)
    for i in range(40):
        w = sampler.reduced_word(1 + i % 3, syllables=1 + i % 2)
        again = parse_element(tw, format_element(w))
        assert tw.eq(w, again)
        assert again.level == w.level


HUGE = 2**3001
# Each malformed text with the exception type, message and offset it
# raises (None for UnconfiguredPrimeError, which carries no offset).
ERRORS = [
    ("", ElementSyntaxError, "expected an atom (e, h, L, or t)", 0),
    ("   ", ElementSyntaxError, "expected an atom (e, h, L, or t)", 3),
    ("q(1)", ElementSyntaxError, "expected an atom (e, h, L, or t)", 0),
    ("h(1;1,2,0) * ", ElementSyntaxError, "expected an atom (e, h, L, or t)", 13),
    ("^2", ElementSyntaxError, "expected an atom (e, h, L, or t)", 0),
    ("t(1) h(0;1,0,0)", ElementSyntaxError, "expected '*'", 5),
    ("e e", ElementSyntaxError, "expected '*'", 2),
    ("h[1;1,0,0)", ElementSyntaxError, "expected '('", 1),
    ("t", ElementSyntaxError, "expected '('", 1),
    ("h(1,1,0,0)", ElementSyntaxError, "expected ';'", 3),
    ("h(1;1,2)", ElementSyntaxError, "expected ','", 7),
    ("h(1;1,2,0", ElementSyntaxError, "expected ')'", 9),
    ("t(1", ElementSyntaxError, "expected ')'", 3),
    ("h(;1,0,0)", ElementSyntaxError, "expected an integer", 2),
    ("L(1,0,0;0,1,0;0,0,1]", ElementSyntaxError, "expected '['", 1),
    ("L[1,0,0,0,1,0;0,0,1]", ElementSyntaxError, "expected ';'", 7),
    ("L[1,0;0,1,0;0,0,1]", ElementSyntaxError, "expected ','", 5),
    ("L[1,0,0;0,1,0;0,0,1", ElementSyntaxError, "expected ']'", 19),
    ("t(-)", ElementSyntaxError, "expected an integer", 2),
    ("t(0)", ElementSyntaxError, "stable letters start at level 1, got 0", 4),
    ("t(-3) * h(0;1,0,0)", ElementSyntaxError, "stable letters start at level 1, got -3", 5),
    ("L[2,0,0;0,1,0;0,0,1]", ElementSyntaxError, "matrix determinant must be 1, got 2", 20),
    (" L[1,2,3;4,5,6;7,8,9] ", ElementSyntaxError, "matrix determinant must be 1, got 0", 21),
    ("h(3;1,0,0)", UnconfiguredPrimeError, "prime index 3 not configured (only 3 primes)", None),
    ("h(-1;1,0,0)", UnconfiguredPrimeError, "prime index -1 is negative", None),
    # the three size caps: while squaring, after the term, and on the running bound
    (f"{HYPERBOLIC}^20000", ElementSyntaxError, "element too large: matrix entries exceed 3000 bits", 20),
    (f"L[1,{HUGE},0;0,1,0;0,0,1] ^1", ElementSyntaxError, "element too large: matrix entries exceed 3000 bits",
     len(f"L[1,{HUGE},0;0,1,0;0,0,1]")),
    (f"{HYPERBOLIC}^2000 * {HYPERBOLIC}^2000 q", ElementSyntaxError,
     "element too large: matrix entries exceed 3000 bits", 53),
    (f"{HYPERBOLIC}^2000 * L[1,{2**1500},0;0,1,0;0,0,1]  * e", ElementSyntaxError,
     "element too large: matrix entries exceed 3000 bits", len(f"{HYPERBOLIC}^2000 * L[1,{2**1500},0;0,1,0;0,0,1]  ")),
    # the same on terms a warm tower has cached: the offset after a power's
    # digits, and after the spaces of a term without a power
    (f"{HYPERBOLIC}^2000 * {HYPERBOLIC}^2000  ", ElementSyntaxError,
     "element too large: matrix entries exceed 3000 bits", 53),
    (f"{HYPERBOLIC}^2000" + f" * {HYPERBOLIC}  " * 161 + "* e", ElementSyntaxError,
     "element too large: matrix entries exceed 3000 bits", len(f"{HYPERBOLIC}^2000" + f" * {HYPERBOLIC}  " * 161)),
    ("t(1)^", ElementSyntaxError, "expected an integer", 5),
    ("t(1) ^ x", ElementSyntaxError, "expected an integer", 7),
    ("t(1)^- 1", ElementSyntaxError, "expected an integer", 5),
    ("t(1)^+ * t(1)", ElementSyntaxError, "expected an integer", 5),
    ("e^", ElementSyntaxError, "expected an integer", 2),
    ("　h(\xa01; 1, x,0)", ElementSyntaxError, "expected an integer", 10),
    ("t(1) *\x85q", ElementSyntaxError, "expected an atom (e, h, L, or t)", 7),
    ("t(1)\x0b^　*", ElementSyntaxError, "expected an integer", 7),
    # digits other than ASCII 0-9 are not digits of the grammar
    ("h(0;²,0,0)", ElementSyntaxError, "expected an integer", 4),
    ("t(1)^²", ElementSyntaxError, "expected an integer", 5),
    ("h(0;١,0,0)", ElementSyntaxError, "expected an integer", 4),
    ("h(0;1١,0,0)", ElementSyntaxError, "expected ','", 5),
]


def _raises_as_listed(tower: Tower, text: str, kind: type, message: str, position: int | None):
    with pytest.raises(kind) as err:
        parse_element(tower, text)
    assert type(err.value) is kind
    if position is None:
        assert str(err.value) == message
        assert not hasattr(err.value, "position")
    else:
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position


@pytest.mark.parametrize("text, kind, message, position", ERRORS)
def test_error_surface(tw: Tower, text: str, kind: type, message: str, position: int | None):
    _raises_as_listed(tw, text, kind, message, position)


@pytest.mark.parametrize("template, position", [
    ("t({})", 2),
    ("h(0;1,{},0)", 6),
    ("L[1,0,0;0,1,0;0,0,{}]", 18),
    ("h(0;1,0,0) * t(1)^-{}", 18),
])
def test_integer_past_the_digit_limit_is_a_syntax_error(tw: Tower, default_digit_limit, template, position):
    text = template.format("1" * (default_digit_limit + 700))
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(tw, text)
    assert str(err.value) == f"integer has too many digits (at offset {position})"
    assert err.value.position == position


def test_whitespace_after_power_sign(tw: Tower):
    assert parse_element(tw, "h(0;1,0,0)^ -1").format() == "h(0;1,0,0)"


_INTS = st.tuples(st.sampled_from(("", "-", "+")), st.text("0123456789²١५３", max_size=3)).map("".join)


@st.composite
def _grammar_texts(draw):
    """A product of one to three terms in the grammar's shape, whose integers
    may hold non-ASCII digits or none, with one character dropped half the
    time."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        values = [draw(_INTS) for _ in range(9)]
        atom = draw(st.sampled_from(("e", "h({};{},{},{})", "L[{},{},{};{},{},{};{},{},{}]", "t({})")))
        term = atom.format(*values)
        if draw(st.booleans()):
            term += "^" + draw(_INTS)
        terms.append(term)
    text = draw(st.sampled_from((" * ", "*", "\u3000*\xa0"))).join(terms)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text) - 1))
        text = text[:cut] + text[cut + 1 :]
    return text


# the grammar's characters, non-ASCII digits, and spaces str.isspace accepts
_TEXTS = st.one_of(st.text("ehLtq()[];,*^+-0123456789 ²١५３　\xa0 \t\n", max_size=30), _grammar_texts())


# no shrink phase: shrinking an example that loops would rerun it up to
# the time limit again and again
@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(_TEXTS)
def test_short_texts_parse_or_raise_the_grammar_errors(text: str):
    tw = Tower(PRIMES)
    try:
        with time_limit(1.0):
            word = parse_element(tw, text)
    except ElementSyntaxError as err:
        assert 0 <= err.position <= len(text)
    except UnconfiguredPrimeError:
        pass
    else:
        assert isinstance(word, GroupWord) and word.tower is tw


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 3))
def test_format_parse_round_trip_at_each_level(seed: int, length: int, level: int):
    tw = Tower(PRIMES)
    w = Sampler(tw, seed=seed).word(length, level_cap=level)
    assert tw.eq(parse_element(tw, format_element(w)), w)


# ----------------------------------------------------------------------
# the per-tower term cache

_ATOM_TEXTS = ("e", "t(1)", "t(2)", "t(3)", "h(0;1,0,0)", "h(1;0,-1,0)", "h(2;0,0,4)",
               "L[1,1,0;0,1,0;0,0,1]", "L[1,0,0;0,1,-1;0,0,1]", "L[0,-1,0;1,0,0;0,0,1]", HYPERBOLIC)


@st.composite
def _alphabet_texts(draw):
    """One to four atoms with powers, joined and spaced in varied ways."""
    space = st.sampled_from(("", " ", "  ", "\t", "\u3000"))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = draw(st.sampled_from(_ATOM_TEXTS)).replace(",", draw(st.sampled_from((",", ", ", " ,"))))
        if draw(st.booleans()):
            term += draw(space) + "^" + draw(space) + str(draw(st.sampled_from((-1, 1, 2, -3, 7, -40, 300))))
        terms.append(draw(space) + term + draw(space))
    return "*".join(terms)


_WARM = Tower(PRIMES)  # shared by every example, so it warms up and fills


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_alphabet_texts())
def test_warm_tower_parses_as_a_fresh_one(text: str):
    fresh = parse_element(Tower(PRIMES), text)
    for _ in range(2):  # the second parse reads its terms from the cache, while it has room
        warm = parse_element(_WARM, text)
        assert warm == fresh and warm.format() == fresh.format()
        assert warm.tower is _WARM


def test_errors_are_the_same_on_a_warm_tower():
    tower = Tower(PRIMES)
    wellformed = [piece for text, *_ in ERRORS for piece in text.split("*")] + list(_ATOM_TEXTS)
    for piece in wellformed:
        try:
            parse_element(tower, piece)
        except ValueError:
            pass
    assert len(tower._term_cache) >= len(_ATOM_TEXTS)
    for row in ERRORS:
        _raises_as_listed(tower, *row)


def test_term_cache_stays_within_its_cap():
    tower = Tower(PRIMES)
    texts = [f"h(2;{i},0,0) * t(1)^{i}" for i in range(TERM_CACHE_SIZE)]
    for text in texts:
        parse_element(tower, text)
    assert len(tower._term_cache) == TERM_CACHE_SIZE
    # once full, new terms parse as before and are not kept
    for text in texts:
        assert parse_element(tower, text) == parse_element(Tower(PRIMES), text)
    assert len(tower._term_cache) == TERM_CACHE_SIZE
    # nor is a term whose text is longer than the cap on text
    tower = Tower(PRIMES)
    long = "L[1," + "0" * TERM_CACHE_TEXT + "1,0;0,1,0;0,0,1]"
    assert parse_element(tower, long).format() == "L[1,1,0;0,1,0;0,0,1]"
    assert not tower._term_cache


def test_term_cache_keys_a_term_without_the_spaces_after_it():
    tower = Tower(PRIMES)
    parse_element(tower, "h(0;1,0,0) * t(1)")
    parse_element(tower, "t(1) * h(0;1,0,0)")
    assert len(tower._term_cache) == 2


def test_term_cache_holds_no_word():
    tower = Tower(PRIMES)
    parse_element(tower, " * ".join(f"{a}^-2" for a in _ATOM_TEXTS))
    assert len(tower._term_cache) == len(_ATOM_TEXTS)
    seen, stack = set(), [tower._term_cache]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (GroupWord, Tower))
        stack.extend(gc.get_referents(obj))


_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def test_regex_spaces_are_the_isspace_characters():
    # a term's text is looked up stripped by str.strip and matched with \s
    assert "".join(re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))) == _SPACES


def _parsed(tower: Tower, text: str) -> tuple:
    """The word and its format, or the error's type, message and offset."""
    try:
        word = parse_element(tower, text)
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)
    return word, word.format()


@st.composite
def _spaced_texts(draw):
    """One to three atoms with powers, spaced with any whitespace around the
    terms, the '*' and the '^'; sometimes with junk after a term or a '*'
    left out.  Returns the text and its terms."""
    space = st.text(_SPACES, max_size=2)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        term = draw(st.sampled_from(_ATOM_TEXTS + (HYPERBOLIC,) * 4))
        if draw(st.booleans()):
            term += draw(space) + "^" + draw(space) + str(draw(st.sampled_from((-1, 2, -3, 1100, -1100, 2000))))
        terms.append(term)
    text = draw(space)
    for i, term in enumerate(terms):
        if i:
            star = draw(st.sampled_from(("*",) * 7 + ("",)))  # a missing '*' one time in eight
            text += draw(space) + star + draw(space)
        text += term
        if draw(st.integers(0, 7)) == 0:
            text += draw(space) + draw(st.sampled_from(("q", "e", "t(1)", "^2", ")", "1")))
    return text + draw(space), terms


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_spaced_texts())
def test_cached_terms_parse_as_on_a_fresh_tower(text_terms: tuple[str, list[str]]):
    text, terms = text_terms
    warm = Tower(PRIMES)
    for term in _ATOM_TEXTS + tuple(terms):
        parse_element(warm, term)
    assert all(term in warm._term_cache for term in terms)
    assert _parsed(warm, text) == _parsed(Tower(PRIMES), text)


def test_cached_terms_with_each_space_parse_as_on_a_fresh_tower():
    for space in _SPACES:
        warm = Tower(PRIMES)
        for term in _ATOM_TEXTS:
            parse_element(warm, f"{term}{space}^{space}-2")
        texts = [space.join(("", term, "^", "-2", "*", term, "^", "-2", "")) for term in _ATOM_TEXTS]
        texts += [f"{space}t(1){space}^{space}-2{space}q", f"t(1){space}^{space}-2{space}e"]
        for text in texts:
            assert _parsed(warm, text) == _parsed(Tower(PRIMES), text), repr(text)
