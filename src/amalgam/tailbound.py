"""Truncated trace products and the mean-deviation bound on a product space.

Each coordinate block contributes a two-point probability space whose
small atom has mass p_n^{-3}; the product over an index window models the
commutative algebra generated by the block projections.  `tail_trace` is
the exact mass of the all-large-atoms point, `epsilon_defect` its gap to
one, and `deviation_bound_check` verifies that any unit-sup-norm function
on the product space deviates from its mean by at most 4 * sqrt(epsilon)
in the 2-norm.  All pass/fail decisions are made in exact rational
arithmetic; floats appear only in the reported readings.  The deviation
check sums integers: atom masses M_i over D = prod p_n^3 and values V_i
over their common denominator B give, with S1 = sum M_i V_i and
S2 = sum M_i V_i^2, mean = S1 / (D B) and, as sum M_i = D, squared
deviation (D S2 - S1^2) / (D B)^2.  Each value is read as a (numerator,
denominator) pair, straight off an `int` or a `Fraction`, and a `Fraction`
is built only for the mean and the squared deviation it returns.  The
per-window constants, the numerators M_i, D, 16 epsilon and its square
root, are cached by the primes of the window, for the 64 most
recently used windows.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .primes import PrimeSeq, next_prime
from . import primes as _primes_mod

__all__ = [
    "tail_trace",
    "epsilon_defect",
    "tail_remainder_bound",
    "atom_points",
    "atom_mass",
    "DeviationReport",
    "deviation_bound_check",
]


def _window(primes: PrimeSeq, first: int, last: int) -> range:
    if first < 0:
        raise ValueError(f"first index must be >= 0, got {first}")
    if last < first:
        raise ValueError(f"last index {last} must be >= first index {first}")
    primes.p(last)  # raises if the window runs past the configured prefix
    return range(first, last + 1)


def tail_trace(primes: PrimeSeq, first: int, last: int) -> Fraction:
    """Exact product of (1 - p_n^{-3}) over the inclusive index window."""
    seq = _primes_mod.as_prime_seq(primes)
    out = Fraction(1)
    for n in _window(seq, first, last):
        out *= 1 - Fraction(1, seq.cube(n))
    return out


def epsilon_defect(primes: PrimeSeq, first: int, last: int) -> Fraction:
    """Exact gap 1 - tail_trace over the same window."""
    return 1 - tail_trace(primes, first, last)


def tail_remainder_bound(primes: PrimeSeq, last: int) -> Fraction:
    """Upper bound on the sum of p_n^{-3} over every index beyond `last`.

    Configured indices beyond the window are summed exactly.  Unconfigured
    ones are assumed to be distinct primes exceeding every configured one,
    so their cube-reciprocal sum is below the integral bound 1/(2(q-1)^2)
    with q the next prime after the configured maximum.
    """
    seq = _primes_mod.as_prime_seq(primes)
    if last < 0:
        raise ValueError(f"last index must be >= 0, got {last}")
    exact = sum(
        (Fraction(1, seq.cube(n)) for n in range(last + 1, len(seq))),
        Fraction(0),
    )
    q = next_prime(max(seq))
    return exact + Fraction(1, 2 * (q - 1) ** 2)


def atom_points(count: int) -> tuple[tuple[int, ...], ...]:
    """Lex-ordered points of the product of `count` two-point spaces.

    Bit 1 selects the small atom of mass p_n^{-3}; bit 0 its complement.
    """
    if count < 0:
        raise ValueError(f"factor count must be >= 0, got {count}")
    return tuple(itertools.product((0, 1), repeat=count))


def atom_mass(primes: PrimeSeq, first: int, bits: Sequence[int]) -> Fraction:
    """Exact mass of one product atom starting at block index `first`."""
    seq = _primes_mod.as_prime_seq(primes)
    mass = Fraction(1)
    for offset, bit in enumerate(bits):
        small = Fraction(1, seq.cube(first + offset))
        if bit not in (0, 1):
            raise ValueError(f"atom bits must be 0 or 1, got {bit!r}")
        mass *= small if bit else 1 - small
    return mass


def _as_ratio(value) -> tuple[int, int]:
    """Lowest-terms (numerator, denominator) of an exact real value."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is Fraction:
        return value.numerator, value.denominator
    if isinstance(value, Rational):
        return int(value.numerator), int(value.denominator)
    if isinstance(value, float):
        return value.as_integer_ratio()
    raise TypeError(f"function values must be real rationals or floats, got {type(value).__name__}")


@lru_cache(maxsize=64)
def _atom_numerators(primes: tuple[int, ...]) -> tuple[tuple[int, ...], int, Fraction, float]:
    """The window constants of `primes`: lex atom masses as integer numerators
    over their denominator d = prod p^3, then 16 epsilon and its square root."""
    cubes = [p**3 for p in primes]
    masses = tuple(map(math.prod, itertools.product(*((q - 1, 1) for q in cubes))))
    d = math.prod(cubes)
    bound_squared = Fraction(16 * (d - masses[0]), d)  # masses[0] / d is the tail trace
    return masses, d, bound_squared, math.sqrt(bound_squared)


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one mean-deviation check, with exact and float readings."""

    passed: bool
    lhs: float
    bound: float
    lhs_squared: Fraction
    bound_squared: Fraction
    mean: Fraction


def deviation_bound_check(
    primes: PrimeSeq,
    first: int,
    last: int,
    values: Mapping[tuple[int, ...], object] | Sequence[object],
) -> DeviationReport:
    """Check ||a - mean(a)||_2 <= 4 sqrt(epsilon) for a unit-sup-norm function.

    `values` gives the function on the product space for the inclusive
    window, either as a mapping from atom bit-tuples or as a sequence over
    the lex atom order.  The comparison is decided exactly on squares.
    """
    seq = _primes_mod.as_prime_seq(primes)
    window = _window(seq, first, last)
    if isinstance(values, Mapping):
        points = atom_points(len(window))
        missing = [pt for pt in points if pt not in values]
        if missing:
            raise ValueError(f"function is missing {len(missing)} atoms, first {missing[0]}")
        table = [_as_ratio(values[pt]) for pt in points]
    else:
        table = [_as_ratio(v) for v in values]
        if len(table) != 1 << len(window):
            raise ValueError(f"expected {1 << len(window)} atom values, got {len(table)}")
    for num, den in table:
        if abs(num) > den:
            raise ValueError(f"sup-norm exceeds 1 at value {Fraction(num, den)}")
    masses, d, bound_squared, bound = _atom_numerators(seq.primes[first : last + 1])
    scale = math.lcm(*(den for _, den in table))
    ints = [num * (scale // den) for num, den in table]
    weighted = list(map(operator.mul, masses, ints))
    s1, s2 = sum(weighted), sum(map(operator.mul, weighted, ints))
    lhs_squared = Fraction(d * s2 - s1 * s1, (d * scale) ** 2)
    return DeviationReport(
        passed=lhs_squared <= bound_squared,
        lhs=math.sqrt(lhs_squared),
        bound=bound,
        lhs_squared=lhs_squared,
        bound_squared=bound_squared,
        mean=Fraction(s1, d * scale),
    )
