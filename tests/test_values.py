"""The value classes: immutable slotted objects with one trusted constructor each.

`LambdaMatrix`, `KVector`, `G0Element` and `GroupWord` were frozen
dataclasses; these tests pin what callers could rely on then, for
objects built by the validating constructors and by the trusted ones
alike: fields cannot be assigned or deleted, equality, hash and repr
read as the dataclass made them, and copies and pickles round-trip.
"""
from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.grammar import parse_element
from amalgam.matrices import LambdaMatrix, _trusted
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.semidirect import G0Element, KVector, _g0, _kvec
from amalgam.words import GroupWord, Tower, _word
from timelimit import time_limit

PRIMES = PrimeSeq.parse("2,3,5")
ROWS = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
ITEMS = ((0, (1, 0, 0)), (2, (0, 3, 4)))

FIELDS = {
    LambdaMatrix: ("rows",),
    KVector: ("items",),
    G0Element: ("k", "lam"),
    GroupWord: ("tower", "level", "g0", "factors", "exponents"),
}


def _dataclass_hash(x) -> int:
    """The hash each class had as a dataclass: of the tuple of compared fields."""
    if isinstance(x, GroupWord):
        return hash((x.level, x.g0, x.factors, x.exponents))
    if isinstance(x, G0Element):
        return hash((x.k, x.lam))
    return hash((getattr(x, FIELDS[type(x)][0]),))


def _values():
    """Each class built through its validating and its trusted constructor."""
    tw = Tower(PRIMES)
    lam, k = LambdaMatrix(ROWS), KVector(ITEMS)
    word = tw.g0(G0Element(k, lam))
    return [
        ("LambdaMatrix(rows)", lam),
        ("_trusted", _trusted(ROWS)),
        ("LambdaMatrix product", lam * lam),
        ("KVector(items)", k),
        ("KVector.single", KVector.single(PRIMES, 1, (1, 2, 0))),
        ("_kvec", _kvec(ITEMS)),
        ("G0Element(k, lam)", G0Element(k, lam)),
        ("_g0", _g0(k, lam)),
        ("Tower.h", tw.h(1, (1, 2, 0))),
        ("parse_element", parse_element(tw, "t(2) * h(0;1,0,0) * t(2)^-1")),
        ("_word", _word(tw, 0, _g0(k, lam))),
        ("Tower.mul", tw.mul(word, tw.stable(1))),
    ]


VALUES = _values()
IDS = [name for name, _ in VALUES]


@pytest.mark.parametrize("x", [x for _, x in VALUES], ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(x):
    assert type(x) in FIELDS
    for name in FIELDS[type(x)] + ("_hash", "_inv", "extra", "__class__"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", [x for _, x in VALUES], ids=IDS)
def test_hash_is_the_dataclass_hash(x):
    assert hash(x) == _dataclass_hash(x)
    assert hash(x) == hash(x)  # a cached hash reads the same


@pytest.mark.parametrize("x", [x for _, x in VALUES], ids=IDS)
def test_pickle_and_copies_round_trip(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
    assert copy.copy(x) is x  # immutable, as a tuple


def test_a_shallow_copy_of_the_identity_is_the_identity():
    tw = Tower(PRIMES)
    e, t = copy.copy(tw.identity()), tw.stable(1)
    assert e.is_identity
    assert tw.mul(e, t).format() == tw.mul(t, e).format() == "t(1)"


def test_copies_of_a_tower_keep_its_one_identity_word():
    tw = Tower(PRIMES)
    for copied in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        e = copied(tw.identity())
        assert e.is_identity and e == tw.identity()
        other = copied(tw)
        letter = other.stable(1)
        assert other.identity().is_identity and other.mul(other.identity(), letter) is letter
        t = copied(tw.stable(1))
        assert t.factors[0].is_identity and t.tower.mul(t, t.tower.inv(t)).is_identity


def test_equality_needs_the_same_class():
    lam, k = LambdaMatrix(ROWS), KVector(ITEMS)
    assert lam == _trusted(ROWS) and lam != ROWS and lam.__eq__(ROWS) is NotImplemented
    assert k == _kvec(ITEMS) and k != ITEMS and k.__eq__(ITEMS) is NotImplemented
    g = G0Element(k, lam)
    assert g == _g0(_kvec(ITEMS), _trusted(ROWS)) and g != (k, lam)
    assert g != G0Element(k, LambdaMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_words_compare_the_representation_not_the_tower():
    one, two = Tower(PRIMES), Tower(PRIMES)
    a, b = one.h(1, (1, 2, 0)), two.h(1, (1, 2, 0))
    assert a == b and hash(a) == hash(b)
    assert a != one.h(1, (1, 2, 1)) and a.__eq__(a.g0) is NotImplemented


def test_repr_is_unchanged():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    k = KVector(((0, (1, 0, 0)),))
    assert repr(k) == repr(_kvec(k.items)) == "KVector(items=((0, (1, 0, 0)),))"
    assert repr(LambdaMatrix(identity)) == "LambdaMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))"
    expected = ("G0Element(k=KVector(items=((0, (1, 0, 0)),)), "
                "lam=LambdaMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))")
    assert repr(G0Element(k, LambdaMatrix(identity))) == expected
    assert repr(_g0(k, _trusted(identity))) == expected
    tw = Tower(PRIMES)
    assert repr(tw.mul(tw.stable(2), tw.h(0, (1, 0, 0)))) == "<word t(2) * h(0;1,0,0)>"


def _parts(x):
    """x and every value object inside it."""
    yield x
    if isinstance(x, GroupWord):
        if x.g0 is not None:
            yield from _parts(x.g0)
        for f in x.factors:
            yield from _parts(f)
    elif isinstance(x, G0Element):
        yield x.k
        yield x.lam


def _check_public(x) -> None:
    for part in _parts(x):
        assert type(part) in FIELDS, type(part)
        if isinstance(part, LambdaMatrix):
            twin = LambdaMatrix(part.rows)
            assert _trusted(part.rows) == twin == part
            assert hash(_trusted(part.rows)) == hash(twin) == hash(part)
        elif isinstance(part, KVector):
            twin = KVector(part.items)
            assert _kvec(part.items) == twin == part
            assert hash(_kvec(part.items)) == hash(twin) == hash(part)
        elif isinstance(part, G0Element):
            twin = G0Element(part.k, part.lam)
            assert _g0(part.k, part.lam) == twin == part
            assert hash(_g0(part.k, part.lam)) == hash(twin) == hash(part)


# every result of the arithmetic is an instance of its public class, all
# the way down: an object left as its unguarded twin would be mutable and
# would compare unequal to its public equal
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1))
def test_results_are_public_classes(seed: int):
    tw = Tower(PRIMES)
    rng = random.Random(seed)
    sampler = Sampler(tw, seed=seed)

    def draw() -> GroupWord:
        level = rng.randint(0, 3)
        if level and rng.random() < 0.5:
            return sampler.reduced_word(level, syllables=rng.randint(1, 3))
        return sampler.word(rng.randint(1, 6), level_cap=level)

    with time_limit(10.0):
        for _ in range(6):
            a, b = draw(), draw()
            results = [a, b, tw.mul(a, b), tw.inv(a), tw.conj(a, b), tw.key(a),
                       parse_element(tw, a.format()), a ** rng.choice((-3, -2, 2, 3))]
            for x in results:
                assert type(x) is GroupWord
                _check_public(x)
