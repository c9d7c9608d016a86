"""Tail traces, defect budgets, and the deviation inequality."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.tailbound import (
    DeviationReport,
    atom_mass,
    atom_points,
    deviation_bound_check,
    epsilon_defect,
    tail_remainder_bound,
    tail_trace,
)
from amalgam.words import Tower

PRIMES = PrimeSeq.parse("2,3,5,7,11")


def test_tail_trace_closed_form():
    # Frozen oracle: (1 - 1/8)(1 - 1/27)(1 - 1/125) = 2821/3375.
    assert tail_trace(PRIMES, 0, 2) == Fraction(2821, 3375)
    assert tail_trace(PRIMES, 0, 0) == Fraction(7, 8)
    assert tail_trace(PRIMES, 1, 1) == Fraction(26, 27)
    assert tail_trace(PRIMES, 2, 2) == Fraction(124, 125)


def test_tail_trace_multiplies_independent_windows():
    assert tail_trace(PRIMES, 0, 2) == tail_trace(PRIMES, 0, 1) * tail_trace(PRIMES, 2, 2)


def test_window_validation():
    with pytest.raises(ValueError):
        tail_trace(PRIMES, -1, 0)
    with pytest.raises(ValueError):
        tail_trace(PRIMES, 2, 1)
    with pytest.raises(IndexError):
        tail_trace(PRIMES, 0, 99)


def test_epsilon_defect_complement():
    eps = epsilon_defect(PRIMES, 0, 2)
    assert eps == Fraction(554, 3375)
    assert eps + tail_trace(PRIMES, 0, 2) == 1
    assert abs(float(eps) - 0.16415) < 1e-4


def test_remainder_bound_dominates_actual_tails():
    # The bound at cutoff `last` must dominate every finite continuation
    # of the configured sequence.
    bound = tail_remainder_bound(PRIMES, 2)
    actual = sum(Fraction(1, PRIMES.cube(n)) for n in (3, 4))
    assert bound >= actual
    assert tail_remainder_bound(PRIMES, 4) > 0


def test_atom_points_and_masses():
    pts = atom_points(3)
    assert len(pts) == 8
    assert pts[0] == (0, 0, 0)
    assert pts[-1] == (1, 1, 1)
    total = sum(atom_mass(PRIMES, 0, bits) for bits in pts)
    assert total == 1
    # the all-zeros atom carries the window trace
    assert atom_mass(PRIMES, 0, (0, 0, 0)) == Fraction(2821, 3375)
    assert atom_mass(PRIMES, 0, (1, 0, 0)) == Fraction(1, 8) * Fraction(26, 27) * Fraction(124, 125)


def test_deviation_report_exactness():
    values = {bits: Fraction(1) for bits in atom_points(3)}
    report = deviation_bound_check(PRIMES, 0, 2, values)
    assert isinstance(report, DeviationReport)
    assert report.passed
    assert report.lhs_squared == 0  # constants deviate by nothing
    assert report.mean == 1
    assert report.bound_squared == 16 * Fraction(554, 3375)


def test_flip_atom_closed_form():
    # Putting -1 on a single atom of mass T and +1 elsewhere gives
    # lhs^2 = 4 T (1 - T) exactly.
    for flip in ((0, 0, 0), (1, 1, 0)):
        values = {bits: Fraction(-1 if bits == flip else 1) for bits in atom_points(3)}
        report = deviation_bound_check(PRIMES, 0, 2, values)
        T = atom_mass(PRIMES, 0, flip)
        assert report.lhs_squared == 4 * T * (1 - T)


def test_sign_extremes_all_pass():
    # All 2^8 sign patterns satisfy the inequality: the worst case over
    # +-1 values is 4 mu (1 - mu) <= 4 eps < 16 eps.
    eps = epsilon_defect(PRIMES, 0, 2)
    worst = Fraction(0)
    for mask in range(256):
        values = {
            bits: Fraction(1 if (mask >> i) & 1 == 0 else -1)
            for i, bits in enumerate(atom_points(3))
        }
        report = deviation_bound_check(PRIMES, 0, 2, values)
        assert report.passed
        worst = max(worst, report.lhs_squared)
    assert worst <= 4 * eps


def test_random_unit_ball_passes():
    tower = Tower(PRIMES)
    sampler = Sampler(tower, seed=55)
    for _ in range(300):
        values = sampler.unit_ball_values(8)
        report = deviation_bound_check(PRIMES, 0, 2, values)
        assert report.passed
        assert report.lhs == math.sqrt(report.lhs_squared)
        assert report.bound == math.sqrt(report.bound_squared)


def test_rejects_out_of_ball_values():
    values = [Fraction(2)] + [Fraction(1)] * 7
    with pytest.raises(ValueError, match="sup"):
        deviation_bound_check(PRIMES, 0, 2, values)
    # the message names the offending value as an exact fraction
    with pytest.raises(ValueError, match=r"sup-norm exceeds 1 at value 3/2"):
        deviation_bound_check(PRIMES, 0, 0, [0.25, 1.5])
    with pytest.raises(ValueError, match=r"sup-norm exceeds 1 at value -7/5"):
        deviation_bound_check(PRIMES, 0, 0, {(0,): Fraction(-7, 5), (1,): 0})
    with pytest.raises(TypeError, match="real rationals or floats, got complex"):
        deviation_bound_check(PRIMES, 0, 0, [0.5, 1j])


def test_rejects_wrong_atom_count():
    with pytest.raises(ValueError):
        deviation_bound_check(PRIMES, 0, 2, [Fraction(1)] * 7)
    with pytest.raises(ValueError):
        deviation_bound_check(PRIMES, 0, 2, {(0, 0, 0): Fraction(1)})


def test_sequence_input_matches_mapping_input():
    rng = random.Random(3)
    seq = [Fraction(rng.randrange(-9, 10), 10) for _ in range(8)]
    mapping = dict(zip(atom_points(3), seq))
    a = deviation_bound_check(PRIMES, 0, 2, seq)
    b = deviation_bound_check(PRIMES, 0, 2, mapping)
    assert (a.lhs, a.bound) == (b.lhs, b.bound)


def _per_atom_reference(primes, first, last, values) -> DeviationReport:
    """The deviation check written atom by atom in Fractions."""
    points = atom_points(last - first + 1)
    raw = [values[pt] for pt in points] if isinstance(values, dict) else list(values)
    table = [Fraction(v) for v in raw]
    masses = [atom_mass(primes, first, pt) for pt in points]
    mean = sum((m * v for m, v in zip(masses, table)), Fraction(0))
    lhs_squared = sum((m * (v - mean) ** 2 for m, v in zip(masses, table)), Fraction(0))
    bound_squared = 16 * epsilon_defect(primes, first, last)
    return DeviationReport(
        passed=lhs_squared <= bound_squared,
        lhs=math.sqrt(lhs_squared),
        bound=math.sqrt(bound_squared),
        lhs_squared=lhs_squared,
        bound_squared=bound_squared,
        mean=mean,
    )


@pytest.mark.parametrize("window", [(0, 0), (3, 3), (0, 2), (1, 3), (2, 4), (0, 4)])
def test_common_denominator_matches_per_atom_fractions(window):
    first, last = window
    rng = random.Random(100 * first + last)
    count = 2 ** (last - first + 1)
    draws = {
        "rational": lambda: Fraction(rng.randint(-97, 97), rng.randint(97, 200)),
        "int": lambda: rng.choice((-1, 0, 1)),
        "float": lambda: rng.uniform(-1, 1),
        "mixed": lambda: rng.choice(
            (Fraction(rng.randint(-9, 9), 9), rng.choice((-1, 1)), rng.uniform(-1, 1))
        ),
    }
    for kind, draw in draws.items():
        for _ in range(8):
            seq = [draw() for _ in range(count)]
            expected = _per_atom_reference(PRIMES, first, last, seq)
            for values in (seq, dict(zip(atom_points(last - first + 1), seq))):
                report = deviation_bound_check(PRIMES, first, last, values)
                assert report == expected, kind
                assert type(report.lhs_squared) is Fraction and type(report.mean) is Fraction



# --- the integer sums against the check done Fraction by Fraction ---

DEFAULT = PrimeSeq.default()


def _fraction_reference(primes, first, last, values) -> DeviationReport:
    """The deviation check with each value a Fraction and every sum a Fraction
    sum, raising what the check raises, in the same order."""
    points = atom_points(last - first + 1)
    if isinstance(values, dict):
        missing = [pt for pt in points if pt not in values]
        if missing:
            raise ValueError(f"function is missing {len(missing)} atoms, first {missing[0]}")
        raw = [values[pt] for pt in points]
    else:
        raw = list(values)
    table = []
    for v in raw:
        if isinstance(v, Rational):
            table.append(Fraction(int(v.numerator), int(v.denominator)))
        elif isinstance(v, float):
            table.append(Fraction(v))
        else:
            raise TypeError(
                f"function values must be real rationals or floats, got {type(v).__name__}"
            )
    if len(table) != len(points):
        raise ValueError(f"expected {len(points)} atom values, got {len(table)}")
    for v in table:
        if abs(v) > 1:
            raise ValueError(f"sup-norm exceeds 1 at value {v}")
    masses = [atom_mass(primes, first, pt) for pt in points]
    mean = sum((m * v for m, v in zip(masses, table)), Fraction(0))
    lhs_squared = sum((m * (v - mean) ** 2 for m, v in zip(masses, table)), Fraction(0))
    bound_squared = 16 * (1 - tail_trace(primes, first, last))
    return DeviationReport(
        passed=lhs_squared <= bound_squared,
        lhs=math.sqrt(lhs_squared),
        bound=math.sqrt(bound_squared),
        lhs_squared=lhs_squared,
        bound_squared=bound_squared,
        mean=mean,
    )


_UNIT_VALUES = st.one_of(
    st.integers(-1, 1),
    st.booleans(),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.floats(-1, 1),
    st.integers(-1, 1).map(np.int64),
)
_FAULTS = ("missing", "length", "sup", "non-real")


@st.composite
def _deviation_inputs(draw):
    first = draw(st.integers(0, len(DEFAULT) - 1))
    last = draw(st.integers(first, min(first + 3, len(DEFAULT) - 1)))
    points = atom_points(last - first + 1)
    values = draw(st.lists(_UNIT_VALUES, min_size=len(points), max_size=len(points)))
    fault = draw(st.sampled_from((None,) * 4 + _FAULTS))
    at = draw(st.integers(0, len(points) - 1))
    if fault == "sup":
        values[at] = draw(st.sampled_from((2, -2, Fraction(3, 2), -1.5, np.int64(7))))
    elif fault == "non-real":
        values[at] = draw(st.sampled_from((1j, "1", None, np.float64(0.5) * 1j)))
    elif fault == "length":
        values = values[:at] if draw(st.booleans()) else values + [0]
    as_mapping = draw(st.booleans())
    if as_mapping:
        values = dict(zip(points, values))
        if fault == "missing":
            del values[points[at]]
    return first, last, values


def _outcome(check, *args):
    try:
        return check(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(_deviation_inputs())
def test_integer_sums_match_the_fraction_by_fraction_check(case):
    got = _outcome(deviation_bound_check, DEFAULT, *case)
    expected = _outcome(_fraction_reference, DEFAULT, *case)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert (got.passed, got.mean, got.lhs_squared, got.bound_squared) == (
        expected.passed, expected.mean, expected.lhs_squared, expected.bound_squared
    )
    assert (got.lhs.hex(), got.bound.hex()) == (expected.lhs.hex(), expected.bound.hex())
    assert type(got.mean) is type(got.lhs_squared) is type(got.bound_squared) is Fraction
