"""Unimodular 3x3 integer matrices and their word-metric balls."""
from __future__ import annotations

import random

import numpy as np
import pytest

from amalgam.grammar import ElementSyntaxError, parse_element
from amalgam.matrices import (
    ELEMENTARY_GENERATORS,
    IDENTITY_MATRIX,
    LambdaMatrix,
    elementary,
    generator_ball,
)
from amalgam.words import Tower

# Frozen oracle: generator-ball sizes at radii 0..3, recomputed below by an
# independent breadth-first search for radii 0..2.
BALL_SIZES = (1, 13, 121, 883)


def test_identity_and_validation():
    assert IDENTITY_MATRIX.is_identity
    with pytest.raises(ValueError, match="^matrix determinant must be 1, got 2$"):
        LambdaMatrix(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="3x3"):
        LambdaMatrix(((1, 0), (0, 1)))


def test_matrix_entries_must_be_integers():
    # a float of determinant 1 is refused, not kept with an inverse holding -0.5
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^matrix entries must be integers, got {bad!r}$"):
            LambdaMatrix(((1, bad, 0), (0, 1, 0), (0, 0, 1)))
    m = LambdaMatrix(np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64))
    assert m == elementary(0, 1, 2) and all(type(e) is int for r in m.rows for e in r)


def test_elementary_slots_and_inverses():
    for i in range(3):
        for j in range(3):
            if i == j:
                with pytest.raises(ValueError, match="off-diagonal"):
                    elementary(i, j, 1)
                continue
            m = elementary(i, j, 1)
            assert (m * elementary(i, j, -1)).is_identity
            assert m.inverse() == elementary(i, j, -1)


def test_generator_set_shape():
    assert len(ELEMENTARY_GENERATORS) == 12
    assert len(set(ELEMENTARY_GENERATORS)) == 12
    assert {g.inverse() for g in ELEMENTARY_GENERATORS} == set(ELEMENTARY_GENERATORS)


def test_mul_transpose_inverse_random():
    rng = random.Random(7)
    for _ in range(40):
        a = IDENTITY_MATRIX
        for _ in range(rng.randrange(1, 5)):
            a = a * rng.choice(ELEMENTARY_GENERATORS)
        assert (a * a.inverse()).is_identity
        assert a.transpose().transpose() == a
        assert a.inverse().transpose() == a.transpose().inverse()


def test_apply_reduces_mod_modulus():
    m = elementary(0, 2, 3)
    assert m.apply((1, 1, 1), 100) == (4, 1, 1)
    assert m.apply((1, 1, 1), 2) == (0, 1, 1)
    assert IDENTITY_MATRIX.apply((5, 2, 7), 11) == (5, 2, 7)
    assert elementary(0, 1, -1).apply((0, 1, 0), 3) == (2, 1, 0)


def test_mod_reduces_entries():
    m = elementary(1, 2, 7)
    assert m.mod(5)[1][2] == 2


def _bfs_ball(radius: int) -> set[LambdaMatrix]:
    seen = {IDENTITY_MATRIX}
    frontier = [IDENTITY_MATRIX]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for g in ELEMENTARY_GENERATORS:
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def test_ball_sizes_match_independent_bfs():
    for radius in range(3):
        assert len(generator_ball(radius)) == len(_bfs_ball(radius))


def test_ball_sizes_frozen_values():
    for radius, size in enumerate(BALL_SIZES):
        assert len(generator_ball(radius)) == size


def test_ball_nesting_and_inverse_closure():
    b1, b2 = set(generator_ball(1)), set(generator_ball(2))
    assert b1 <= b2
    assert all(m.inverse() in b2 for m in b2)
    with pytest.raises(ValueError, match="radius"):
        generator_ball(-1)


# ----------------------------------------------------------------------
# the unrolled kernel against reference formulas, on matrices with big
# entries: products of up to 20 elementary matrices with amounts up to 1e6

def _random_matrix(rng: random.Random) -> LambdaMatrix:
    m = IDENTITY_MATRIX
    for _ in range(rng.randint(1, 20)):
        i, j = rng.sample(range(3), 2)
        m = m * elementary(i, j, rng.randint(-10**6, 10**6))
    return m


def _random_matrices(seed: int, count: int = 60) -> list[LambdaMatrix]:
    rng = random.Random(seed)
    return [_random_matrix(rng) for _ in range(count)]


def _ref_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def test_mul_matches_triple_sum():
    ms = _random_matrices(11)
    assert max(abs(e) for m in ms for row in m.rows for e in row) > 2**64
    for a, b in zip(ms, ms[1:] + ms[:1]):
        prod = a * b
        assert prod.rows == _ref_mul(a.rows, b.rows)
        # the unvalidated product still satisfies the boundary's checks
        assert LambdaMatrix(prod.rows) == prod


def test_inverse_is_two_sided_and_cached_both_ways():
    for m in _random_matrices(12):
        inv = m.inverse()
        assert (m * inv).is_identity and (inv * m).is_identity
        assert m.inverse() is inv
        assert inv.inverse() is m
        fresh = LambdaMatrix(m.rows)
        assert fresh.inverse() == inv
        assert fresh.inverse().inverse() == m


def test_transpose_matches_reference():
    for m in _random_matrices(13, 20):
        t = m.transpose()
        assert t.rows == tuple(tuple(m.rows[j][i] for j in range(3)) for i in range(3))
        assert LambdaMatrix(t.rows) == t


def test_apply_matches_reference_with_negative_entries():
    rng = random.Random(14)
    ms = _random_matrices(14, 20) + [elementary(0, 1, -5), elementary(2, 0, -1)]
    for modulus in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        for m in ms:
            v = tuple(rng.randint(-10**4, 10**4) for _ in range(3))
            want = tuple(sum(m.rows[i][k] * v[k] for k in range(3)) % modulus for i in range(3))
            got = m.apply(v, modulus)
            assert got == want
            assert all(0 <= c < modulus for c in got)


def test_equal_matrices_hash_equally_cached_or_not():
    for m in _random_matrices(15, 20):
        hashed = LambdaMatrix(m.rows)
        hash(hashed)  # caches its hash; `fresh` has none cached yet
        fresh = LambdaMatrix(m.rows)
        assert hashed == fresh == m
        assert hash(hashed) == hash(fresh) == hash(m) == hash((m.rows,))
        assert len({hashed, fresh, m}) == 1


def test_boundary_constructors_still_validate():
    tower = Tower((2, 3))
    with pytest.raises(ValueError, match="determinant"):
        tower.lam([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="3x3"):
        tower.lam([[1, 0], [0, 1]])
    with pytest.raises(ElementSyntaxError, match="determinant"):
        parse_element(tower, "L[1,1,0;1,1,0;0,0,1]")
    assert tower.lam([[1, 2, 0], [0, 1, 0], [0, 0, 1]]).g0.lam == elementary(0, 1, 2)


def test_lam_refuses_non_integer_entries():
    # 2.9 was once cast to 2
    tower = Tower((2, 3))
    with pytest.raises(ValueError, match="matrix entries must be integers, got 2.9"):
        tower.lam(((1, 2.9, 0), (0, 1, 0), (0, 0, 1)))
    assert tower.lam(np.eye(3, dtype=np.int32)).is_identity
