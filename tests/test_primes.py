"""Prime sequence configuration."""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from amalgam.primes import PrimeSeq, as_prime_seq, is_prime, next_prime
from amalgam.suites import SuiteConfig
from amalgam.words import Tower
from timelimit import time_limit


def test_is_prime_small_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 = 151 * 751 * 28351 passes the strong test to bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23
    assert is_prime(2**61 - 1) and is_prime(18446744073709551557)  # the largest below 2^64


def test_long_primes_parse_at_once():
    with time_limit(1.0):
        assert tuple(PrimeSeq.parse("10000000000000061")) == (10000000000000061,)
        assert next_prime(2**64 - 59) == 2**64 + 13
    with pytest.raises(ValueError, match="below 2\\^64"):
        PrimeSeq.parse(str(2**64 + 13))
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(10**30)


def test_next_prime_steps():
    assert next_prime(2) == 3
    assert next_prime(11) == 13
    assert next_prime(13) == 17


def test_first_and_default():
    assert tuple(PrimeSeq.first(5)) == (2, 3, 5, 7, 11)
    assert len(PrimeSeq.default()) == 16
    assert tuple(PrimeSeq.default())[:3] == (2, 3, 5)


def test_parse_and_accessors():
    seq = PrimeSeq.parse("2, 3,5")
    assert tuple(seq) == (2, 3, 5)
    assert seq.p(1) == 3
    assert seq.cube(2) == 125
    assert len(seq) == 3


def test_rejects_composite_and_duplicates():
    with pytest.raises(ValueError, match="not prime"):
        PrimeSeq.parse("2,4")
    with pytest.raises(ValueError, match="distinct"):
        PrimeSeq.parse("2,3,3")


def test_primes_are_plain_integers():
    seq = PrimeSeq((np.int64(2), np.int32(3)))
    assert seq.primes == (2, 3) and all(type(p) is int for p in seq.primes)
    for bad, entry in (((2.0, 3.0), "2.0"), ((2, 3.5), "3.5"), (("2",), "'2'"),
                       ((2, Fraction(3)), "Fraction(3, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"primes must be integers, got {entry}")):
            PrimeSeq(bad)
    # refused as configuration, not as a failure of every orbits row
    with pytest.raises(ValueError, match="primes must be integers, got 2.0"):
        SuiteConfig(primes=[2.0, 3.0])


def test_unconfigured_index_raises():
    seq = PrimeSeq.parse("2,3")
    with pytest.raises(IndexError, match="prime index 2"):
        seq.p(2)


def test_tower_accepts_a_prime_list_string():
    assert tuple(Tower("2,3").primes) == (2, 3)
    assert tuple(Tower("7").primes) == (7,)
    assert tuple(as_prime_seq(" 2, 5 ")) == (2, 5)
    with pytest.raises(ValueError, match="not prime"):
        Tower("2,4")


def test_as_prime_seq_accepts_iterables():
    assert tuple(as_prime_seq([2, 3])) == (2, 3)
    seq = PrimeSeq.parse("2,3")
    assert as_prime_seq(seq) is seq
