"""Acceptance gate: the library's headline guarantees, each under a time budget.

Each test prints one pass/fail line (visible with -v as the test verdict,
and with -s as a detail line), checks the mathematical statement at its
tolerance — exact where exactness is promised — and asserts the
wall-clock budget.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import time
from fractions import Fraction

import pytest

from amalgam.cli import main
from amalgam.fourier import GroupAlgebraElement, check_intertwiner, projection_en
from amalgam.matrices import ELEMENTARY_GENERATORS
from amalgam.orbits import (
    diagonal_orbits,
    fixed_point_dimension,
    partitions_agree,
    zero_pattern_partition,
)
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.tailbound import (
    atom_mass,
    atom_points,
    deviation_bound_check,
    epsilon_defect,
    tail_trace,
)
from amalgam.witness import (
    block_stabilized,
    check_xi_invariance,
    orthogonality_inequality_check,
    search_invariance_violation,
    xi,
    xi_overlap_squared,
)
from amalgam.words import Tower

TOL = 1e-9


def _line(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    in_budget = elapsed < budget
    verdict = "PASS" if ok and in_budget else "FAIL"
    print(f"[{verdict}] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert in_budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_group_axioms():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5"))
    sampler = Sampler(tower, seed=2026)
    checks = failures = 0
    e = tower.identity()
    while checks < 10_000:
        a = sampler.word(8, level_cap=3)
        b = sampler.word(8, level_cap=3)
        c = sampler.word(8, level_cap=3)
        if not tower.eq(tower.mul(tower.mul(a, b), c), tower.mul(a, tower.mul(b, c))):
            failures += 1
        if not tower.mul(a, tower.inv(a)).is_identity:
            failures += 1
        if not (tower.eq(tower.mul(a, e), a) and tower.eq(tower.mul(e, b), b)):
            failures += 1
        checks += 4
    elapsed = time.perf_counter() - started
    _line(
        "criterion-01 group-axioms", failures == 0, elapsed, 30,
        f"{checks} associativity/inverse/identity checks, {failures} failures",
    )


def test_criterion_02_reduced_word_soundness():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5"))
    sampler = Sampler(tower, seed=7)
    failures = 0
    count = 1_000
    for i in range(count):
        level = 1 + i % 3
        syllables = 1 + i % 3
        w = sampler.reduced_word(level, syllables)
        if w.is_identity or w.level != level or tower.in_gn(w, level - 1):
            failures += 1
        if not tower.mul(w, tower.inv(w)).is_identity:
            failures += 1
    elapsed = time.perf_counter() - started
    _line(
        "criterion-02 reduced-word-soundness", failures == 0, elapsed, 10,
        f"{count} nontrivial reduced words stayed outside the lower levels, {failures} failures",
    )


def test_criterion_03_conjugate_growth_panel():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5"))
    sampler = Sampler(tower, seed=5)
    lam = tower.lam(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    panel = {
        "matrix": [
            lam,
            tower.lam(((1, 0, 0), (0, 1, 0), (1, 0, 1))),
            tower.lam(((1, 0, 1), (0, 1, 0), (0, 0, 1))),
        ],
        "mixed-base": [
            tower.mul(tower.h(0, (1, 0, 0)), lam),
            tower.mul(tower.h(1, (0, 2, 0)), tower.lam(((1, 0, 0), (0, 1, 1), (0, 0, 1)))),
        ],
        "lattice": [
            tower.h(0, (1, 0, 0)),
            tower.h(1, (1, 2, 0)),
            tower.k_vector({0: (1, 1, 0), 2: (0, 0, 4)}),
        ],
        "level-1": [sampler.reduced_word(1, 1), sampler.reduced_word(1, 2)],
        "level-2": [sampler.reduced_word(2, 1), sampler.reduced_word(2, 2)],
    }
    elements = [g for group in panel.values() for g in group]
    assert len(elements) == 12
    failures = []
    frozen = {0: (1, 7, 40, 204), 5: (1, 3, 6, 7)}  # panel indices with known profiles
    for idx, g in enumerate(elements):
        profile = tower.conjugate_growth_profile(g, 3)
        monotone = all(x <= y for x, y in zip(profile, profile[1:]))
        if not (profile[0] == 1 and monotone and profile[3] >= 5):
            failures.append((idx, profile))
        if idx in frozen and profile != frozen[idx]:
            failures.append((idx, profile, frozen[idx]))
    elapsed = time.perf_counter() - started
    _line(
        "criterion-03 conjugate-growth", not failures, elapsed, 60,
        f"12 elements over 5 regions grew monotonically to >= 5 conjugates {failures or ''}",
    )


def test_criterion_04_orbit_classification():
    started = time.perf_counter()
    primes = PrimeSeq.parse("2,3,5")
    expected = {
        (0,): (1, 7),
        (0, 1): (1, 7, 26, 182),
        (0, 1, 2): (1, 7, 26, 124, 182, 868, 3224, 22568),
    }
    ok = True
    for indices, sizes in expected.items():
        part = diagonal_orbits(primes, indices)
        agree = partitions_agree(part, zero_pattern_partition(primes, indices))
        total = math.prod(primes.cube(n) for n in indices)
        ok = ok and tuple(sorted(part.block_sizes)) == sizes and agree
        ok = ok and sum(part.block_sizes) == total
    elapsed = time.perf_counter() - started
    _line(
        "criterion-04 orbit-classification", ok, elapsed, 10,
        "orbit partitions equal zero-pattern partitions with frozen sizes on 1-3 blocks",
    )


def test_criterion_05_fixed_point_dimension():
    started = time.perf_counter()
    primes = PrimeSeq.parse("2,3,5")
    ok = True
    for count in (1, 2, 3):
        indices = tuple(range(count))
        dim = fixed_point_dimension(primes, indices)
        ok = ok and dim == 2**count
        ok = ok and dim == diagonal_orbits(primes, indices).block_count
    elapsed = time.perf_counter() - started
    _line(
        "criterion-05 fixed-point-dimension", ok, elapsed, 10,
        "invariant-function dimension is 2^N on N blocks, N = 1..3",
    )


def test_criterion_06_intertwining():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5,7"))
    worst = 0.0
    for n in range(4):
        for g in ELEMENTARY_GENERATORS:
            worst = max(worst, check_intertwiner(tower, g, n))
    elapsed = time.perf_counter() - started
    _line(
        "criterion-06 intertwining", worst <= TOL, elapsed, 10,
        f"transform/action defect <= {worst:.2e} over 12 generators x 4 blocks (tol 1e-9)",
    )


def test_criterion_07_projection_identities():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5,7"))
    ok = True
    for n in range(4):
        p = tower.primes.p(n)
        en = projection_en(tower, n)
        ok = ok and en.mul(en).equals(en)
        ok = ok and en.star().equals(en)
        ok = ok and en.trace() == Fraction(1, p**3)
        ok = ok and en.support_size == p**3
        ok = ok and all(c == Fraction(1, p**3) for c in en.coeffs.values())
    elapsed = time.perf_counter() - started
    _line(
        "criterion-07 projection-identities", ok, elapsed, 1,
        "averaging idempotents are exactly self-adjoint projections of trace 1/p^3",
    )


def test_criterion_08_witness_overlap_and_invariance():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5,7,11"))
    ok = True
    detail = []
    # exact overlap of the block-uniform state with the identity
    for n in range(4):
        p = tower.primes.p(n)
        overlap = xi(tower, n).coefficient(tower.identity())
        ok = ok and xi_overlap_squared(tower, n) == Fraction(1, p**3)
        ok = ok and abs(overlap - p**-1.5) < 1e-15
    # invariance with zero tolerance for conjugators up to length 4:
    # exhaustive single letters (products of invariant letters stay
    # invariant, so this covers every length), exhaustive length 2 over
    # the full alphabet, exhaustive length 3 over the matrix-and-stable
    # core, and a seeded random sweep at length <= 4.
    sampler = Sampler(tower, seed=31)
    pairs = [(N, n) for N in (0, 1, 2) for n in (N + 1, N + 2)]
    for N, n in pairs:
        letters = tower.alphabet(N)
        ok = ok and all(check_xi_invariance(tower, N, n, g) for g in letters)
        ok = ok and all(
            block_stabilized(tower, n, tower.mul(a, b))
            for a in letters
            for b in letters
        )
        core = tower.alphabet(N, block_cap=0)
        for length in (3,):
            for combo in itertools.product(core, repeat=length):
                if not block_stabilized(tower, n, tower.reduce(combo)):
                    ok = False
        for _ in range(250):
            w = tower.identity()
            for _ in range(sampler.rng.randint(1, 4)):
                w = tower.mul(w, sampler.rng.choice(letters))
            if not block_stabilized(tower, n, w):
                ok = False
        detail.append(f"({N},{n})")
    # boundary probes: a mover of block n first appears at level n + 2
    probes = {(1, 0): False, (1, 1): False, (2, 0): True, (2, 1): False, (3, 0): True, (3, 1): True}
    for (N, n), expected in probes.items():
        g = search_invariance_violation(tower, N, n, max_length=2)
        if expected:
            ok = ok and g is not None and not block_stabilized(tower, n, g)
        else:
            ok = ok and g is None
    elapsed = time.perf_counter() - started
    _line(
        "criterion-08 witness-invariance", ok, elapsed, 60,
        f"exact overlap and zero-tolerance invariance on pairs {' '.join(detail)}",
    )


def test_criterion_09_disjointness():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5,7,11"))
    sampler = Sampler(tower, seed=13)
    failures = 0
    per_cutoff = 1_000
    for cutoff in (1, 2, 3):
        t = tower.stable(cutoff + 1)
        for _ in range(per_cutoff):
            escaping = sampler.lattice_word_escaping(cutoff)
            image = tower.conj(escaping, t)
            if tower.in_k(image):
                failures += 1
            fixed = sampler.lattice_word_in(cutoff)
            image2 = tower.conj(fixed, t)
            if not (tower.in_k(image2) and tower.eq(image2, fixed)):
                failures += 1
    elapsed = time.perf_counter() - started
    _line(
        "criterion-09 disjointness", failures == 0, elapsed, 30,
        f"{3 * per_cutoff} escaping conjugates left the lattice and "
        f"{3 * per_cutoff} high-block words were fixed, {failures} failures",
    )


def test_criterion_10_orthogonality():
    started = time.perf_counter()
    tower = Tower(PrimeSeq.parse("2,3,5,7,11"))
    sampler = Sampler(tower, seed=17)
    failures = 0
    per_cutoff = 500
    for cutoff in (1, 2):
        for _ in range(per_cutoff):
            y = GroupAlgebraElement(
                tower,
                {
                    sampler.lattice_word_escaping(cutoff): sampler.rational_unit(),
                    sampler.lattice_word_in(cutoff): sampler.rational_unit(),
                },
            )
            report = orthogonality_inequality_check(y, cutoff)
            if not (report.passed and report.disjoint_supports):
                failures += 1
            if report.lhs_squared != 2 * report.rhs_squared:
                failures += 1
    elapsed = time.perf_counter() - started
    _line(
        "criterion-10 orthogonality", failures == 0, elapsed, 30,
        f"{2 * per_cutoff} vectors satisfied the norm inequality with disjoint "
        f"summands and exact doubling, {failures} failures",
    )


def test_criterion_11_tail_trace_and_deviation_bound():
    started = time.perf_counter()
    primes = PrimeSeq.parse("2,3,5,7,11")
    tower = Tower(primes)
    ok = tail_trace(primes, 0, 2) == Fraction(2821, 3375)
    # independent per-factor recomputation over two windows
    for first, last in ((0, 2), (1, 3)):
        independent = Fraction(1)
        for n in range(first, last + 1):
            independent *= Fraction(primes.cube(n) - 1, primes.cube(n))
        ok = ok and tail_trace(primes, first, last) == independent
    eps = epsilon_defect(primes, 0, 2)
    ok = ok and eps == Fraction(554, 3375)
    ok = ok and abs(4 * math.sqrt(eps) - 1.6206) < 1e-3
    # all 2^8 extreme sign patterns
    points = atom_points(3)
    worst = Fraction(0)
    for mask in range(2 ** len(points)):
        values = {
            bits: Fraction(1 if (mask >> i) & 1 == 0 else -1)
            for i, bits in enumerate(points)
        }
        report = deviation_bound_check(primes, 0, 2, values)
        ok = ok and report.passed
        worst = max(worst, report.lhs_squared)
    ok = ok and worst <= 4 * eps
    # the flip-atom closed form pins the extreme values exactly
    flip = {bits: Fraction(-1 if bits == (1, 0, 0) else 1) for bits in points}
    T = atom_mass(primes, 0, (1, 0, 0))
    ok = ok and deviation_bound_check(primes, 0, 2, flip).lhs_squared == 4 * T * (1 - T)
    # random unit-ball values
    sampler = Sampler(tower, seed=23)
    for _ in range(1_000):
        report = deviation_bound_check(primes, 0, 2, sampler.unit_ball_values(8))
        ok = ok and report.passed
    elapsed = time.perf_counter() - started
    _line(
        "criterion-11 deviation-bound", ok, elapsed, 30,
        "frozen tail trace 2821/3375, 256 sign extremes, and 1000 random "
        "unit-ball vectors under the 16-epsilon budget",
    )


_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def test_criterion_12_cli_determinism_and_exit_codes(capsys, tmp_path):
    started = time.perf_counter()
    args = [
        "verify", "all", "--primes", "2,3", "--samples", "15", "--level", "2",
        "--seed", "11",
    ]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    out_a = capsys.readouterr().out
    code_b = main(args + ["--out", str(tmp_path / "b")])
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0
    ok = ok and _ELAPSED.sub("0", out_a) == _ELAPSED.sub("0", out_b)
    suites = []
    for path in sorted((tmp_path / "a").glob("*.json")):
        twin = tmp_path / "b" / path.name
        same = _ELAPSED.sub("0", path.read_text()) == _ELAPSED.sub("0", twin.read_text())
        ok = ok and same and json.loads(path.read_text())["passed"]
        suites.append(path.stem)
    ok = ok and suites == ["bound", "disjoint", "fourier", "icc", "orbits", "xi"]
    # exit code 1: an impossible tolerance makes float checks genuinely fail
    code_fail = main(
        ["verify", "fourier", "--primes", "2,3", "--tolerance", "1e-30", "--samples", "5"]
    )
    ok = ok and code_fail == 1
    # exit code 2: unusable configuration
    code_cfg = main(["verify", "bound", "--primes", "2,4"])
    ok = ok and code_cfg == 2
    code_elem = main(["elem", "reduce", "h(0;1,2)"])
    ok = ok and code_elem == 2
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    _line(
        "criterion-12 cli-contract", ok, elapsed, 60,
        "two same-seed runs byte-identical modulo timing fields; exit codes 0/1/2",
    )
