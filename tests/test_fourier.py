"""Blockwise duality: functions on a block vs group-algebra coefficients."""
from __future__ import annotations

import contextlib
import importlib
import random
from fractions import Fraction

import numpy as np
import pytest

from amalgam.fourier import (
    GroupAlgebraElement,
    check_intertwiner,
    fourier,
    inverse_fourier,
    projection_en,
    transform_matrix,
)
from amalgam.matrices import ELEMENTARY_GENERATORS, elementary
from amalgam.primes import PrimeSeq
from amalgam.semidirect import G0Element, KVector, block_points, codes, image_table, point_array
from amalgam.words import Tower

PRIMES = PrimeSeq.parse("2,3,5")
TOL = 1e-9


@pytest.fixture(scope="module")
def tw() -> Tower:
    return Tower(PRIMES)


def _random_function(rng: random.Random, p: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p**3)])


def test_transform_matrix_inverts_against_characters():
    for p in (2, 3):
        F = transform_matrix(p)
        pts = np.array(block_points(p))
        characters = np.exp(2j * np.pi * ((pts @ pts.T) % p) / p)
        assert np.max(np.abs(characters.T @ F - np.eye(p**3))) < TOL


def test_transform_tables_match_direct_formula():
    # both transforms gather from a table of p roots of unity; the bytes
    # must equal the elementwise formula over <x,y> mod p
    tower = Tower(PrimeSeq.parse("2,3,5,7,11"))
    rng = np.random.default_rng(3)
    for n, p in enumerate((2, 3, 5, 7, 11)):
        pts = point_array(p)
        pairing = (pts @ pts.T) % p
        F = transform_matrix(p)
        for rows in range(0, p**3, 256):  # the formula in row chunks keeps memory small
            chunk = pairing[rows : rows + 256]
            direct = np.exp(-2j * np.pi * chunk / p) / p**3
            assert F[rows : rows + 256].tobytes() == direct.tobytes()
        del F
        coeff = rng.uniform(-1, 1, p**3) + 1j * rng.uniform(-1, 1, p**3)
        el = GroupAlgebraElement(tower, dict(zip(tower.block(n), coeff.tolist())))
        characters = np.exp(2j * np.pi * pairing / p)
        assert inverse_fourier(el, n).tobytes() == (characters.T @ coeff).tobytes()


def test_round_trip_all_blocks(tw: Tower):
    rng = random.Random(4)
    for n in range(3):
        p = PRIMES.p(n)
        f = _random_function(rng, p)
        back = inverse_fourier(fourier(tw, n, f), n)
        assert float(np.max(np.abs(back - f))) < TOL


def test_fourier_accepts_mapping_input(tw: Tower):
    el = fourier(tw, 0, {(0, 0, 0): 1.0})
    arr = np.zeros(8, dtype=complex)
    arr[0] = 1.0
    assert el.equals(fourier(tw, 0, arr))
    with pytest.raises(ValueError, match="8 values"):
        fourier(tw, 0, np.zeros(7))


def test_trace_is_mean_of_function(tw: Tower):
    rng = random.Random(6)
    f = _random_function(rng, 3)
    el = fourier(tw, 1, f)
    assert abs(complex(el.trace()) - complex(np.mean(f))) < TOL


def test_plancherel(tw: Tower):
    rng = random.Random(9)
    for n in (0, 1):
        p = PRIMES.p(n)
        f = _random_function(rng, p)
        el = fourier(tw, n, f)
        norm_fun = np.sqrt(np.sum(np.abs(f) ** 2) / p**3)
        norm_coeff = np.sqrt(sum(abs(c) ** 2 for c in el.coeffs.values()))
        assert abs(norm_fun - norm_coeff) < TOL


def test_plancherel_through_the_vector_norm(tw: Tower):
    # a transform is also an l^2 vector: its squared norm is the mean of |f|^2
    rng = random.Random(10)
    for n in range(len(PRIMES)):
        f = _random_function(rng, PRIMES.p(n))
        el = fourier(tw, n, f)
        assert el.norm_squared() == pytest.approx(float(np.mean(np.abs(f) ** 2)), rel=1e-12)
        assert el.norm() ** 2 == pytest.approx(el.inner(el).real, rel=1e-12)


def test_pointwise_product_becomes_convolution(tw: Tower):
    rng = random.Random(12)
    p, n = 3, 1
    f, g = _random_function(rng, p), _random_function(rng, p)
    lhs = fourier(tw, n, f * g)
    rhs = fourier(tw, n, f).mul(fourier(tw, n, g))
    for w in set(lhs.coeffs) | set(rhs.coeffs):
        assert abs(complex(lhs.coefficient(w)) - complex(rhs.coefficient(w))) < TOL


def test_intertwiner_exact_for_generators(tw: Tower):
    for n in range(3):
        for g in ELEMENTARY_GENERATORS:
            assert check_intertwiner(tw, g, n) <= TOL


def test_intertwiner_slices_match_dense_defect(tw: Tower, monkeypatch):
    # valid matrices give a zero defect, so break the relabelling: with
    # random permutations the column-sliced defect must equal the dense one
    rng = np.random.default_rng(11)
    perms: dict = {}
    monkeypatch.setattr(
        importlib.import_module("amalgam.fourier"),  # the package attribute is the function
        "image_table",
        lambda q, g: perms.setdefault((q, g), rng.permutation(q**3)),
    )
    for n in (1, 2):
        p = PRIMES.p(n)
        F = transform_matrix(p)
        for g in ELEMENTARY_GENERATORS[:4]:
            got = check_intertwiner(tw, g, n)
            dense = F[:, perms[p, g]] - F[perms[p, g.transpose()], :]
            assert got == float(np.linalg.norm(dense, axis=0).max()) > 1e-2


def test_intertwiner_rejects_wrong_relabel(tw: Tower):
    # The relabel must use the inverse transpose; a plain transpose pairs
    # wrongly and the deviation is macroscopic, not rounding-sized.
    g = elementary(0, 1, 1)
    p = PRIMES.p(1)
    F = transform_matrix(p)
    lhs = F[:, image_table(p, g)]
    wrong = F[image_table(p, g.inverse()), :]  # relabel by g^-1 instead of g^T
    assert float(np.linalg.norm(lhs - wrong, axis=0).max()) > 1e-2


def test_action_permutation_is_permutation():
    # the block-point codec: encode/decode round-trips, and each generator's
    # image table is a permutation of codes that agrees with the matrix
    # action point by point and composes like the matrices
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7):
        pts = point_array(p)
        assert [tuple(x) for x in pts.tolist()] == list(block_points(p))
        assert codes(pts, p).tolist() == list(range(p**3))
        sample = rng.integers(0, p, size=(50, 3))
        assert np.array_equal(pts[codes(sample, p)], sample)
        tables = {g: image_table(p, g) for g in ELEMENTARY_GENERATORS}
        for g, perm in tables.items():
            assert sorted(perm.tolist()) == list(range(p**3))
            assert [block_points(p)[c] for c in perm.tolist()] == [
                g.apply(x, p) for x in block_points(p)
            ]
            for h, other in tables.items():
                assert np.array_equal(image_table(p, g * h), perm[other])


def test_projection_identities_exact(tw: Tower):
    for n in range(3):
        p = PRIMES.p(n)
        en = projection_en(tw, n)
        assert en.support_size == p**3
        assert all(c == Fraction(1, p**3) for c in en.coeffs.values())
        assert en.mul(en).equals(en)
        assert en.star().equals(en)
        assert en.trace() == Fraction(1, p**3)


def test_projection_matches_transform_of_indicator(tw: Tower):
    for n in range(2):
        p = PRIMES.p(n)
        indicator = np.zeros(p**3, dtype=complex)
        indicator[0] = 1.0
        alpha = fourier(tw, n, indicator)
        en = projection_en(tw, n)
        diff = alpha.sub(en)
        assert all(abs(complex(c)) < TOL for c in diff.coeffs.values())


def test_exact_convolution_matches_generic(tw: Tower):
    rng = random.Random(21)
    words = [tw.h(1, (rng.randrange(3), rng.randrange(3), rng.randrange(3))) for _ in range(6)]
    a = GroupAlgebraElement(tw, {w: Fraction(rng.randrange(-3, 4), 7) for w in words})
    b = GroupAlgebraElement(tw, {w: Fraction(rng.randrange(-3, 4), 5) for w in words})
    exact = a.mul(b)  # rational fast path
    floaty = GroupAlgebraElement(tw, {w: complex(c) for w, c in a.coeffs.items()}).mul(b)
    assert exact.is_exact()
    assert not floaty.is_exact()
    for w in set(exact.coeffs) | set(floaty.coeffs):
        assert abs(complex(exact.coefficient(w)) - complex(floaty.coefficient(w))) < TOL


def test_algebra_operations(tw: Tower):
    u = GroupAlgebraElement.basis(tw.h(0, (1, 0, 0)))
    v = GroupAlgebraElement.basis(tw.h(0, (0, 1, 0)), Fraction(1, 2))
    s = u.add(v)
    assert s.support_size == 2
    assert s.scale(2).coefficient(tw.h(0, (0, 1, 0))) == Fraction(1)
    assert s.sub(s).support_size == 0
    # convolution of basis vectors follows the group law
    prod = u.mul(u)
    assert prod.coefficient(tw.identity()) == Fraction(1)  # order-2 element squares to e
    # the adjoint inverts the word and conjugates the coefficient
    w = tw.stable(1)
    el = GroupAlgebraElement(tw, {w: 2 + 1j})
    assert el.star().coefficient(tw.inv(w)) == 2 - 1j


def test_add_sub_inner_reject_mismatched_towers():
    ours, theirs = Tower(PrimeSeq.parse("2,3")), Tower(PrimeSeq.parse("2,5"))
    a = GroupAlgebraElement.basis(ours.h(1, (1, 0, 0)))
    b = GroupAlgebraElement.basis(theirs.h(1, (1, 0, 0)))
    for op in (a.add, a.sub, a.inner, b.add, b.sub, b.inner):
        with pytest.raises(ValueError, match="tower"):
            op(b if op.__self__ is a else a)
    # the same primes are the same group
    same = GroupAlgebraElement.basis(Tower(PrimeSeq.parse("2,3")).h(1, (1, 0, 0)))
    assert a.add(same).coefficient(ours.h(1, (1, 0, 0))) == 2
    assert a.sub(same).support_size == 0
    assert a.inner(same) == 1


def test_mul_rejects_mismatched_towers(tw: Tower):
    other = Tower(PrimeSeq.parse("2,3"))
    a = GroupAlgebraElement.basis(tw.identity())
    b = GroupAlgebraElement.basis(other.identity())
    with pytest.raises(ValueError, match="tower"):
        a.mul(b)
    # complex operands on one block each, which the block path must not take
    a = GroupAlgebraElement(tw, {tw.h(0, x): 1j for x in block_points(2)})
    b = GroupAlgebraElement(other, {other.h(0, x): 1j for x in block_points(2)})
    with pytest.raises(ValueError, match="tower"):
        a.mul(b)


# --- exact one-block convolution against the pair loop over Tower.mul ---

BLOCK_PRIMES = PrimeSeq.parse("2,3,5,7")


@pytest.fixture(scope="module")
def tw7() -> Tower:
    return Tower(BLOCK_PRIMES)


def _reference_product(a: GroupAlgebraElement, b: GroupAlgebraElement) -> dict:
    """The pair loop over Tower.mul, each sum started from its first product."""
    out: dict = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            key = a.tower.mul(wa, wb)
            out[key] = ca * cb if key not in out else out[key] + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def _bits(coeffs: dict) -> list:
    """Keys in order with the repr of each coefficient: every float's bits, -0.0 included."""
    return [(w, repr(c)) for w, c in coeffs.items()]


@contextlib.contextmanager
def _counted_tower_mul(tower: Tower):
    """Count the Tower.mul calls made inside the block (the generic pair loop)."""
    calls = []
    plain = tower.mul

    def counting(a, b):
        calls.append(None)
        return plain(a, b)

    tower.mul = counting
    try:
        yield calls
    finally:
        del tower.mul


def _random_block_element(rng: random.Random, tower: Tower, n: int, size: int, scale: int):
    p = tower.primes.p(n)
    coeffs = {}
    for x in rng.sample(block_points(p), size):
        num = rng.randint(1, scale) * rng.choice((-1, 1))
        coeffs[tower.h(n, x)] = Fraction(num, rng.randint(1, 30))
    return GroupAlgebraElement(tower, coeffs)


def _random_complex_element(rng: random.Random, tower: Tower, n: int, size: int):
    # units and signed zeros in the parts produce -0.0 products
    special = (1j, -1j, 1 + 0j, -1 + 0j, complex(-0.0, 1.0), complex(1.0, -0.0))
    coeffs = {}
    for x in rng.sample(block_points(tower.primes.p(n)), size):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[tower.h(n, x)] = rng.choice(special) if rng.random() < 0.3 else c
    return GroupAlgebraElement(tower, coeffs)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("seed", range(12))
def test_one_block_convolution_matches_pair_loop(tw7: Tower, n: int, seed: int):
    rng = random.Random(1000 * n + seed)
    p = BLOCK_PRIMES.p(n)
    cap = min(p**3, 40)
    scale = rng.choice((10, 2**28, 2**40))  # both accumulator widths
    a = _random_block_element(rng, tw7, n, rng.randint(1, cap), scale)
    b = _random_block_element(rng, tw7, n, rng.randint(1, cap), scale)
    with _counted_tower_mul(tw7) as calls:
        product = a.mul(b)
    assert product.coeffs == _reference_product(a, b)
    pairs = a.support_size * b.support_size
    assert len(calls) == (0 if pairs >= p**3 else pairs)


@pytest.mark.parametrize("n", range(4))
def test_projection_square_matches_pair_loop(tw7: Tower, n: int):
    en = projection_en(tw7, n)
    with _counted_tower_mul(tw7) as calls:
        square = en.mul(en)
    assert not calls
    assert square.coeffs == _reference_product(en, en) == en.coeffs


def _block_sum(tower: Tower, n: int, *extra) -> GroupAlgebraElement:
    """Every point of block n plus `extra` words, with mixed-sign coefficients."""
    words = [tower.h(n, x) for x in block_points(tower.primes.p(n))] + list(extra)
    return GroupAlgebraElement(
        tower, {w: Fraction(i % 5 - 2 or 3, i % 3 + 1) for i, w in enumerate(words)}
    )


def test_off_block_operands_take_pair_loop(tw7: Tower):
    sheared = tw7.g0(G0Element(KVector.single(BLOCK_PRIMES, 1, (0, 1, 0)), elementary(0, 1, 1)))
    cases = {
        "keys on two blocks": (_block_sum(tw7, 1, tw7.h(2, (1, 0, 0))), _block_sum(tw7, 1)),
        "key spanning two blocks": (
            _block_sum(tw7, 1, tw7.k_vector({1: (1, 0, 0), 2: (0, 1, 0)})),
            _block_sum(tw7, 1),
        ),
        "non-identity matrix": (_block_sum(tw7, 1), _block_sum(tw7, 1, sheared)),
        "level-1 key": (
            _block_sum(tw7, 1, tw7.mul(tw7.stable(1), tw7.h(1, (0, 0, 1)))),
            _block_sum(tw7, 1),
        ),
        "blocks 0 and 1": (_block_sum(tw7, 0), _block_sum(tw7, 1)),
    }
    # complex operands take the block path only when every coefficient is a
    # Python complex and every key lies on one block
    rng = random.Random(17)
    full = _random_complex_element(rng, tw7, 1, 27)
    level_one = tw7.mul(tw7.stable(1), tw7.h(1, (0, 0, 1)))
    cases.update({
        "complex x Fraction": (full, _random_block_element(rng, tw7, 1, 27, 10)),
        "float": (
            GroupAlgebraElement(tw7, {w: c.real or 0.5 for w, c in full.coeffs.items()}),
            GroupAlgebraElement(tw7, {w: c.imag or 0.5 for w, c in full.coeffs.items()}),
        ),
        "numpy complex": (
            GroupAlgebraElement(tw7, {w: np.complex128(c) for w, c in full.coeffs.items()}),
            full,
        ),
        "complex keys on two blocks": (
            GroupAlgebraElement(tw7, {**full.coeffs, tw7.h(2, (1, 0, 0)): 0.5j}),
            full,
        ),
        "complex level-1 key": (
            full,
            GroupAlgebraElement(tw7, {**full.coeffs, level_one: 1j}),
        ),
    })
    for label, (a, b) in cases.items():
        with _counted_tower_mul(tw7) as calls:
            product = a.mul(b)
        # level >= 1 products recurse through Tower.mul, so count at least one per pair
        assert len(calls) >= a.support_size * b.support_size, label
        assert _bits(product.coeffs) == _bits(_reference_product(a, b)), label


def test_one_block_convolution_exact_beyond_int64(tw7: Tower):
    rng = random.Random(7)
    # numerators near 2^40: a single product leaves int64
    a = _random_block_element(rng, tw7, 3, 40, 2**40)
    b = _random_block_element(rng, tw7, 3, 40, 2**40)
    # integers just below 2^31.5: every product fits in int64, a sum of two does not
    c = GroupAlgebraElement(tw7, {w: rng.randint(2_900_000_000, 3_000_000_000) for w in a.coeffs})
    d = GroupAlgebraElement(tw7, {w: rng.randint(2_900_000_000, 3_000_000_000) for w in b.coeffs})
    for x, y in ((a, b), (c, d)):
        product = x.mul(y)
        assert product.coeffs == _reference_product(x, y)
        denom = max(v.denominator for v in product.coeffs.values())
        assert max(abs(v) * denom for v in product.coeffs.values()) >= 2**63


# --- complex one-block convolution against the pair loop, bit for bit ---

@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("seed", range(6))
def test_complex_convolution_matches_pair_loop_bitwise(tw7: Tower, n: int, seed: int):
    rng = random.Random(5000 + 100 * n + seed)
    p = BLOCK_PRIMES.p(n)
    # one full product at p=7: its reference alone makes 118k Tower.mul calls
    full = p**3 if p < 7 or seed == 0 else 60
    sizes = [(full, full), (p**3, 1), (rng.randint(1, full), rng.randint(1, full))]
    for size_a, size_b in sizes:
        a = _random_complex_element(rng, tw7, n, size_a)
        b = _random_complex_element(rng, tw7, n, size_b)
        with _counted_tower_mul(tw7) as calls:
            product = a.mul(b)
        assert _bits(product.coeffs) == _bits(_reference_product(a, b))
        pairs = a.support_size * b.support_size
        assert len(calls) == (0 if pairs >= p**3 else pairs)


def test_complex_convolution_keeps_negative_zero(tw7: Tower):
    # i * (-1) = (-0.0, -1.0) in CPython; a sum started from +0.0 would lose the sign
    a = GroupAlgebraElement(tw7, {tw7.h(0, x): 1j for x in block_points(2)})
    b = GroupAlgebraElement(tw7, {tw7.h(0, (1, 0, 1)): -1 + 0j})
    with _counted_tower_mul(tw7) as calls:
        product = a.mul(b)
    assert not calls
    assert product.support_size == 8
    assert all(np.signbit(c.real) and c.imag == -1 for c in product.coeffs.values())
    assert _bits(product.coeffs) == _bits(_reference_product(a, b))
