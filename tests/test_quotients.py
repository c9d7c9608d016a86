"""Finite quotients of the tower: an oracle independent of the normal form.

By the amalgam's universal property (Serre, Trees I.1), a homomorphism on
G_{L-1} extends to G_L = G_{L-1} *_{K_{L-1}} (K_{L-1} x <t(L)>) by any
image of t(L) that commutes with the image of K_{L-1}.  The maps below are
evaluated on a word's syllables with arithmetic of their own, reading only
the word's level, factors, exponents and level-0 parts, so they check that
`mul`, `inv`, `key`, `eq` and `conj` denote the right group elements
without the rewriting rules they test:

- the affine quotients phi_j: G_L -> AGL(3, Z/p_j), (k, lambda) |->
  (x |-> lambda x + k_j).  For j >= L-1 block j lies in K_{L-1}, whose
  image is every translation, so t(L) goes to a translation; for j < L-1
  K_{L-1} goes to the identity, and t(L) goes to an affine map whose
  linear part is unipotent, so it commutes with almost no translation;
- the retraction rho: G_L -> G_0, which deletes the stable letters;
- the exponent sums: for each level, the sum of the exponents of t(L).
"""
from __future__ import annotations

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.words import GroupWord, Tower

PRIMES = PrimeSeq.parse("2,3,5,7,11")
LEVELS = 3
TW = Tower(PRIMES)
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ZERO = (0, 0, 0)

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate))


# integer 3x3 matrices and triples, reduced mod p only where p is given

def _mat_mul(a, b, p=None):
    out = tuple(tuple(sum(a[i][m] * b[m][j] for m in range(3)) for j in range(3)) for i in range(3))
    return out if p is None else tuple(tuple(e % p for e in row) for row in out)


def _apply(a, v, p):
    return tuple(sum(a[i][m] * v[m] for m in range(3)) % p for i in range(3))


def _add(u, v, p):
    return tuple((x + y) % p for x, y in zip(u, v))


def _adjugate(a):
    # the inverse of a determinant-1 matrix, over the integers
    return tuple(tuple(a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
                       - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3]
                       for j in range(3)) for i in range(3))


class Quotient:
    """A homomorphism out of the tower, by its images of G_0 and of t(L)."""

    def __init__(self, name, base, stable, mul, inv, one):
        self.name, self.base, self.stable = name, base, stable
        self.mul, self.inv, self.one = mul, inv, one

    def __repr__(self) -> str:
        return self.name

    def of(self, w: GroupWord):
        if w.level == 0:
            return self.base(w.g0.k.items, w.g0.lam.rows)
        out = self.of(w.factors[0])
        for m, x in zip(w.exponents, w.factors[1:]):
            out = self.mul(self.mul(out, self.power(self.stable(w.level), m)), self.of(x))
        return out

    def power(self, x, m: int):
        base = self.inv(x) if m < 0 else x
        out = self.one
        for _ in range(abs(m)):
            out = self.mul(out, base)
        return out


def affine(j: int) -> Quotient:
    p = PRIMES.p(j)

    def mul(a, b):
        return _mat_mul(a[0], b[0], p), _add(_apply(a[0], b[1], p), a[1], p)

    def inv(a):
        lam = tuple(tuple(e % p for e in row) for row in _adjugate(a[0]))
        return lam, tuple(-e % p for e in _apply(lam, a[1], p))

    def base(items, rows):
        return tuple(tuple(e % p for e in row) for row in rows), dict(items).get(j, ZERO)

    def stable(level):
        if j >= level - 1:
            return IDENTITY, (1, level % p, 1)
        unipotent = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        if level % 2:
            unipotent = tuple(zip(*unipotent))
        return unipotent, (0, 1, level % p)

    return Quotient(f"phi_{j}", base, stable, mul, inv, (IDENTITY, ZERO))


def _vec_add(u, v):
    out = dict(u)
    for n, c in v:
        out[n] = _add(out.get(n, ZERO), c, PRIMES.p(n))
    return tuple(sorted((n, c) for n, c in out.items() if c != ZERO))


def _vec_act(lam, v):
    return tuple((n, _apply(lam, c, PRIMES.p(n))) for n, c in v)


def _rho_inv(a):
    lam = _adjugate(a[1])
    return tuple((n, tuple(-e % PRIMES.p(n) for e in c)) for n, c in _vec_act(lam, a[0])), lam


RHO = Quotient(
    "rho",
    base=lambda items, rows: (tuple(items), rows),
    stable=lambda level: ((), IDENTITY),
    mul=lambda a, b: (_vec_add(a[0], _vec_act(a[1], b[0])), _mat_mul(a[1], b[1])),
    inv=_rho_inv,
    one=((), IDENTITY),
)

SIGMA = Quotient(
    "exponent sums",
    base=lambda items, rows: (0,) * LEVELS,
    stable=lambda level: tuple(int(i == level - 1) for i in range(LEVELS)),
    mul=lambda a, b: tuple(x + y for x, y in zip(a, b)),
    inv=lambda a: tuple(-x for x in a),
    one=(0,) * LEVELS,
)

QUOTIENTS = (*(affine(j) for j in range(len(PRIMES))), RHO, SIGMA)


def _word(sampler: Sampler, level: int, shape: int) -> GroupWord:
    # letter products, words reduced by construction, and their powers
    if level and shape % 3 == 1:
        return sampler.reduced_word(level, syllables=1 + shape % 2)
    w = sampler.word(1 + shape % 6, level_cap=level, block_cap=5)
    return w ** (shape % 5 - 2) if shape % 3 == 2 else w


words = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, LEVELS), st.integers(0, LEVELS),
                  st.integers(0, 29))


@SETTINGS
@given(words)
def test_quotients_are_homomorphisms_of_the_engine(case):
    seed, level_a, level_b, shape = case
    sampler = Sampler(TW, seed=seed)
    a, b = _word(sampler, level_a, shape), _word(sampler, level_b, shape // 3)
    ab, a_inv, key = TW.mul(a, b), TW.inv(a), TW.key(a)
    assert TW.eq(TW.mul(ab, TW.inv(b)), a)
    # words the quotients tell apart are not equal
    assert TW.eq(a, b) <= all(q.of(a) == q.of(b) for q in QUOTIENTS), (a, b)
    for q in QUOTIENTS:
        qa, qb = q.of(a), q.of(b)
        assert q.of(ab) == q.mul(qa, qb), (q, a, b)
        assert q.of(a_inv) == q.inv(qa), (q, a)
        assert q.of(key) == qa, (q, a)
        assert q.mul(qa, q.inv(qa)) == q.one, (q, a)


@SETTINGS
@given(words)
def test_conj_is_conjugation_in_every_quotient(case):
    seed, level, other, shape = case
    sampler = Sampler(TW, seed=seed)
    h = _word(sampler, level, shape)
    # lattice targets inside K_{level-1}, across it and below it, and a word
    targets = (sampler.lattice_word(range(len(PRIMES))),
               sampler.lattice_word_in(max(level - 1, 0) + other % 2),
               sampler.lattice_word_escaping(max(level - 1, 1)),
               _word(sampler, other, shape // 3))
    for q in QUOTIENTS:
        qh = q.of(h)
        qh_inv = q.inv(qh)
        for g in targets:
            assert q.of(TW.conj(g, h)) == q.mul(q.mul(qh, q.of(g)), qh_inv), (q, g, h)


def test_the_affine_images_of_each_stable_letter_commute_with_its_glued_subgroup():
    # the condition that makes each phi_j well defined: t(L)'s image commutes
    # with the image of every unit vector of every block at or above L-1,
    # and with the generators' images below, which are trivial
    for q in QUOTIENTS[:len(PRIMES)]:
        for level in range(1, LEVELS + 1):
            t = q.stable(level)
            for n in range(level - 1, len(PRIMES)):
                for e in IDENTITY:
                    k = q.base(((n, e),), IDENTITY)
                    assert q.mul(t, k) == q.mul(k, t), (q, level, n)
    # and the quotients see past the glued subgroup: t(3) does not commute
    # with block 0 in phi_0, so a fold of block 0 across it would show
    t, k = QUOTIENTS[0].stable(3), QUOTIENTS[0].base(((0, (0, 1, 0)),), IDENTITY)
    assert QUOTIENTS[0].mul(t, k) != QUOTIENTS[0].mul(k, t)
