"""Element text grammar: parse and format round trips."""
from __future__ import annotations

import pytest

from amalgam.grammar import (
    MAX_ENTRY_BITS,
    ElementSyntaxError,
    UnconfiguredPrimeError,
    format_element,
    parse_element,
)
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.words import Tower

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
