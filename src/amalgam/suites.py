"""Named verification suites with deterministic, diffable JSON reports.

Each suite is one declared table of (check, parameters, function) rows,
built from the config alone.  A check is a module-level function whose
keyword arguments are its report parameters: `run_suite` calls it as
fn(context, **parameters), in table order, where the context holds the
config, a fresh tower and one seeded sampler whose stream is the suite's
only randomness.  So two runs with the same config are byte-identical
apart from the elapsed_s timing fields.  Outcomes are "pass", "fail", or
"skip" (skips carry a reason and never fail a run); the process-level
contract is exit 0 when nothing failed, 1 otherwise, and 2 for unusable
configuration.  An exception raised inside a check is that check's
failure, never a configuration error.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fourier import check_intertwiner, fourier, inverse_fourier, projection_en
from .grammar import UnconfiguredPrimeError, parse_element
from .matrices import ELEMENTARY_GENERATORS, generator_ball
from .orbits import (
    DEFAULT_SIZE_GUARD, SizeGuardExceeded, diagonal_orbits, fixed_point_dimension,
    partitions_agree, zero_pattern_partition,
)
from .primes import PrimeSeq
from . import primes as _primes_mod
from .sampling import Sampler
from .tailbound import (
    atom_points, deviation_bound_check, epsilon_defect, tail_remainder_bound, tail_trace,
)
from .witness import (
    block_stabilized, check_xi_invariance, conditional_expectation,
    orthogonality_inequality_check, search_invariance_violation, xi, xi_overlap_squared,
)
from .words import Tower

__all__ = ["SUITE_NAMES", "SuiteConfig", "Report", "run_suite", "run_all"]

SUITE_NAMES = ("icc", "orbits", "fourier", "xi", "disjoint", "bound")


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite; defaults match the documented budgets."""

    primes: PrimeSeq = field(default_factory=PrimeSeq.default)
    seed: int = 0
    tolerance: float = 1e-9
    radius: int = 3
    level: int = 3
    samples: int | None = None
    size_guard: int = DEFAULT_SIZE_GUARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", _primes_mod.as_prime_seq(self.primes))
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.size_guard < 1:
            raise ValueError(f"size guard must be >= 1, got {self.size_guard}")

    def payload(self) -> dict:
        return {
            "primes": list(self.primes),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "radius": self.radius,
            "level": self.level,
            "samples": self.samples,
            "size_guard": self.size_guard,
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "format"):
        return value.format()
    return repr(value)


@dataclass
class Report:
    """One suite's outcome: ordered check records plus summary counts."""

    suite: str
    config: SuiteConfig
    checks: list[dict]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(c["outcome"] != "fail" for c in self.checks)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c["outcome"]] += 1
        return out

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.payload(),
            "passed": self.passed,
            "counts": self.counts,
            "checks": [_jsonable(c) for c in self.checks],
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            outcome = c["outcome"].upper()
            key = "reason" if "reason" in c else "error"
            reason = f"  ({c[key]})" if key in c else ""
            lines.append(f"[{outcome}] {self.suite}:{c['check']}{reason}")
        return lines


@dataclass(frozen=True)
class _Context:
    """What the checks of one suite run share."""

    config: SuiteConfig
    tower: Tower
    sampler: Sampler  # its rng is the suite's one seeded stream


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ----------------------------------------------------------------------
# icc: group law, reduced-word soundness, conjugate growth
def _group_axioms(ctx: _Context, max_length: int, level_cap: int):
    tower, sampler = ctx.tower, ctx.sampler
    target = ctx.config.samples or 10000
    triples = -(-target // 3)
    failures = 0
    e = tower.identity()
    for _ in range(triples):
        a = sampler.word(max_length, level_cap)
        b = sampler.word(max_length, level_cap)
        c = sampler.word(max_length, level_cap)
        if not tower.eq(tower.mul(tower.mul(a, b), c), tower.mul(a, tower.mul(b, c))):
            failures += 1
        if not tower.mul(a, tower.inv(a)).is_identity:
            failures += 1
        if not (tower.eq(tower.mul(a, e), a) and tower.eq(tower.mul(e, a), a)):
            failures += 1
    return _verdict(failures == 0), {"checks": 3 * triples, "failures": failures}


def _reduced_word_soundness(ctx: _Context, level_cap: int, syllables: str):
    tower = ctx.tower
    low, high = map(int, syllables.split(".."))
    target = ctx.config.samples or 1000
    failures = 0
    for i in range(target):
        w = ctx.sampler.reduced_word(1 + i % level_cap, low + i % (high - low + 1))
        if tower.eq(w, tower.identity()):
            failures += 1
        if not tower.mul(w, tower.inv(w)).is_identity:
            failures += 1
    return _verdict(failures == 0), {"words": target, "failures": failures}


def _matrix_ball_sizes(ctx: _Context, radius: int):
    expected = [1, 13, 121, 883][: radius + 1]
    got = [len(generator_ball(r)) for r in range(radius + 1)]
    return _verdict(got == expected), {"sizes": got, "expected": expected}


# (region, element); the block-1 entries need a second configured prime
_GROWTH_PANEL = (
    ("matrix", "L[1,1,0;0,1,0;0,0,1]"),
    ("matrix", "L[1,1,1;0,1,1;0,0,1]"),
    ("mixed-base", "h(0;1,0,0) * L[1,1,0;0,1,0;0,0,1]"),
    ("lattice", "h(0;1,0,0)"),
    ("lattice", "h(1;1,2,0)"),
    ("lattice", "h(0;1,1,0) * h(1;0,0,1)"),
    ("level-1", "t(1)"),
    ("level-1", "t(1) * L[1,1,0;0,1,0;0,0,1]"),
    ("level-1", "t(1)^2 * h(0;1,0,0)"),
    ("level-2", "t(2)"),
    ("level-2", "t(2) * h(0;1,0,0)"),
    ("level-2", "t(2) * t(1)"),
)


def _conjugate_growth(ctx: _Context, element: str, region: str):
    # `region` only labels the record
    try:
        g = parse_element(ctx.tower, element)
    except UnconfiguredPrimeError:
        return "skip", {"reason": "block 1 not configured: needs at least 2 primes"}
    radius = ctx.config.radius
    profile = ctx.tower.conjugate_growth_profile(g, radius)
    monotone = all(a <= b for a, b in zip(profile, profile[1:]))
    rich = profile[3] >= 5 if radius >= 3 else True
    return _verdict(monotone and rich), {"profile": list(profile)}


def _icc_checks(config: SuiteConfig) -> list:
    level_cap = min(3, config.level)
    return [
        ("group-axioms", {"max_length": 8, "level_cap": level_cap}, _group_axioms),
        ("reduced-word-soundness", {"level_cap": level_cap, "syllables": "1..3"},
         _reduced_word_soundness),
        ("matrix-ball-sizes", {"radius": min(config.radius, 3)}, _matrix_ball_sizes),
    ] + [
        ("conjugate-growth", {"element": element, "region": region}, _conjugate_growth)
        for region, element in _GROWTH_PANEL
    ]


# ----------------------------------------------------------------------
# orbits: diagonal action blocks and fixed-point dimension
_FROZEN_BLOCK_SIZES = {
    (2,): (1, 7),
    (2, 3): (1, 7, 26, 182),
    (2, 3, 5): (1, 7, 26, 124, 182, 868, 3224, 22568),
}


def _diagonal_orbit_blocks(ctx: _Context, primes: list[int]):
    # `primes` is the configured prefix the diagonal action runs on
    seq, guard, count = ctx.config.primes, ctx.config.size_guard, len(primes)
    indices = tuple(range(count))
    part = diagonal_orbits(seq, indices, size_guard=guard)
    predicted = zero_pattern_partition(seq, indices, size_guard=guard)
    agree = partitions_agree(part, predicted)
    expected_sizes = sorted(
        math.prod(1 if bit == 0 else p**3 - 1 for bit, p in zip(bits, primes))
        for bits in itertools.product((0, 1), repeat=count)
    )
    sizes = sorted(part.block_sizes)
    ok = (
        agree
        and part.block_count == 2**count
        and sizes == expected_sizes
        and sum(sizes) == math.prod(p**3 for p in primes)
    )
    extra = {"block_sizes": sizes, "zero_pattern_agrees": agree}
    frozen = _FROZEN_BLOCK_SIZES.get(tuple(primes))
    if frozen is not None:
        ok = ok and sizes == sorted(frozen)
        extra["frozen_expected"] = sorted(frozen)
    return _verdict(ok), extra


def _fixed_point_dimension(ctx: _Context, primes: list[int]):
    count = len(primes)
    dim = fixed_point_dimension(
        ctx.config.primes, tuple(range(count)), size_guard=ctx.config.size_guard
    )
    return _verdict(dim == 2**count), {"dimension": dim, "expected": 2**count}


def _orbits_checks(config: SuiteConfig) -> list:
    rows = []
    for count in range(1, min(3, len(config.primes)) + 1):
        used = [config.primes.p(n) for n in range(count)]
        rows += [
            ("diagonal-orbit-blocks", {"primes": used}, _diagonal_orbit_blocks),
            ("fixed-point-dimension", {"primes": used}, _fixed_point_dimension),
        ]
    return rows


# ----------------------------------------------------------------------
# fourier: duality, intertwining, projections
def _random_function(ctx: _Context, p: int) -> np.ndarray:
    rng = ctx.sampler.rng
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p**3)])


def _max_coefficient_gap(a, b) -> float:
    dev = 0.0
    for w in set(a.coeffs) | set(b.coeffs):
        dev = max(dev, abs(complex(a.coefficient(w)) - complex(b.coefficient(w))))
    return dev


def _intertwining(ctx: _Context, p: int, n: int):
    worst = 0.0
    for g in ELEMENTARY_GENERATORS:
        worst = max(worst, check_intertwiner(ctx.tower, g, n))
    return _verdict(worst <= ctx.config.tolerance), {"max_deviation": worst, "generators": 12}


def _transform_round_trip(ctx: _Context, p: int, n: int):
    tol = ctx.config.tolerance
    f = _random_function(ctx, p)
    coeffs = fourier(ctx.tower, n, f)
    back = inverse_fourier(coeffs, n)
    dev = float(np.max(np.abs(back - f)))
    mean = complex(np.mean(f))
    trace_dev = abs(complex(coeffs.trace()) - mean)
    norm_fun = math.sqrt(float(np.sum(np.abs(f) ** 2)) / p**3)
    norm_coeff = math.sqrt(sum(abs(c) ** 2 for c in coeffs.coeffs.values()))
    plancherel_dev = abs(norm_fun - norm_coeff)
    ok = dev <= tol and trace_dev <= tol and plancherel_dev <= tol
    return _verdict(ok), {
        "round_trip_deviation": dev,
        "trace_deviation": trace_dev,
        "plancherel_deviation": plancherel_dev,
    }


def _pointwise_to_convolution(ctx: _Context, p: int, n: int):
    tower = ctx.tower
    f = _random_function(ctx, p)
    g = _random_function(ctx, p)
    lhs = fourier(tower, n, f * g)
    rhs = fourier(tower, n, f).mul(fourier(tower, n, g))
    dev = _max_coefficient_gap(lhs, rhs)
    return _verdict(dev <= ctx.config.tolerance), {"max_deviation": dev}


def _projection_identities(ctx: _Context, p: int, n: int):
    en = projection_en(ctx.tower, n)
    idempotent = en.mul(en).equals(en)
    trace_ok = en.trace() == Fraction(1, p**3)
    adjoint_ok = en.star().equals(en)
    uniform = en.support_size == p**3 and all(
        c == Fraction(1, p**3) for c in en.coeffs.values()
    )
    ok = idempotent and trace_ok and adjoint_ok and uniform
    return _verdict(ok), {
        "idempotent": idempotent,
        "trace": Fraction(1, p**3) if trace_ok else en.trace(),
        "self_adjoint": adjoint_ok,
        "support": en.support_size,
    }


def _projection_matches_transform(ctx: _Context, p: int, n: int):
    en = projection_en(ctx.tower, n)
    indicator = np.zeros(p**3, dtype=complex)
    indicator[0] = 1.0
    dev = _max_coefficient_gap(en, fourier(ctx.tower, n, indicator))
    return _verdict(dev <= ctx.config.tolerance), {"max_deviation": dev}


def _fourier_checks(config: SuiteConfig) -> list:
    rows = []
    for n in range(min(4, len(config.primes))):
        params = {"p": config.primes.p(n), "n": n}
        rows += [
            ("intertwining", params, _intertwining),
            ("transform-round-trip", params, _transform_round_trip),
            ("pointwise-to-convolution", params, _pointwise_to_convolution),
            ("projection-identities", params, _projection_identities),
            ("projection-matches-transform", params, _projection_matches_transform),
        ]
    return rows


# ----------------------------------------------------------------------
# xi: overlaps, exact invariance, violation probes
def _identity_overlap(ctx: _Context, n: int):
    tower = ctx.tower
    p = tower.primes.p(n)
    v = xi(tower, n)
    ok = (
        xi_overlap_squared(tower, n) == Fraction(1, p**3)
        and v.support_size == p**3
        and v.coefficient(tower.identity()) == p**-1.5
        and abs(v.norm_squared() - 1.0) <= ctx.config.tolerance
    )
    return _verdict(ok), {"squared_overlap": Fraction(1, p**3), "support": p**3}


def _invariance_letters(ctx: _Context, cutoff: int, n: int):
    # full key-set comparison on every letter; products of letters stay
    # invariant because setwise stabilizers are closed under products and
    # inverses, and the alphabet is inverse-closed
    tower = ctx.tower
    letters = tower.alphabet(cutoff)
    bad = [g.format() for g in letters if not check_xi_invariance(tower, cutoff, n, g)]
    return _verdict(not bad), {"letters": len(letters), "violations": bad}


def _invariance_length_2(ctx: _Context, cutoff: int, n: int):
    tower = ctx.tower
    letters = tower.alphabet(cutoff)
    bad = sum(not block_stabilized(tower, n, tower.mul(a, b)) for a in letters for b in letters)
    return _verdict(bad == 0), {"words": len(letters) ** 2, "violations": bad}


def _invariance_core_length_3(ctx: _Context, cutoff: int, n: int):
    tower = ctx.tower
    core = tower.alphabet(cutoff, block_cap=0)

    def extend(words):
        # `tower.reduce` of the itertools.product tuples one letter longer,
        # in their order, without rebuilding every prefix
        return (tower.mul(w, c) for w in words for c in core)

    singles = list(extend([tower.identity()]))
    doubles = list(extend(singles))
    words = itertools.chain(singles, doubles, extend(doubles))
    stable = [block_stabilized(tower, n, w) for w in words]
    bad = stable.count(False)
    return _verdict(bad == 0), {"words": len(stable), "violations": bad}


def _invariance_random_length_4(ctx: _Context, cutoff: int, n: int):
    tower, rng = ctx.tower, ctx.sampler.rng
    letters = tower.alphabet(cutoff)
    target = ctx.config.samples or 250
    bad = 0
    for _ in range(target):
        w = tower.identity()
        for _ in range(rng.randint(1, 4)):
            w = tower.mul(w, rng.choice(letters))
        if not block_stabilized(tower, n, w):
            bad += 1
    return _verdict(bad == 0), {"words": target, "max_length": 4, "violations": bad}


def _violation_search(ctx: _Context, cutoff: int, n: int):
    g = search_invariance_violation(ctx.tower, cutoff, n, max_length=2)
    expected = cutoff >= n + 2
    if g is None:
        if expected:
            return "fail", {"witness": None, "note": "expected a witness in range"}
        return "skip", {"reason": "no violating conjugator at search radius 2; inconclusive"}
    moved = not block_stabilized(ctx.tower, n, g)
    return _verdict(moved and expected), {"witness": g.format()}


def _xi_checks(config: SuiteConfig) -> list:
    count = len(config.primes)
    rows = [("identity-overlap", {"n": n}, _identity_overlap) for n in range(min(4, count))]
    for cutoff in range(min(3, config.level + 1)):
        for n in (cutoff + 1, cutoff + 2):
            if n < count:
                params = {"cutoff": cutoff, "n": n}
                rows += [
                    ("invariance-letters", params, _invariance_letters),
                    ("invariance-length-2", params, _invariance_length_2),
                    ("invariance-core-length-3", params, _invariance_core_length_3),
                    ("invariance-random-length-4", params, _invariance_random_length_4),
                ]
    return rows + [
        ("violation-search", {"cutoff": cutoff, "n": n}, _violation_search)
        for cutoff in range(1, min(4, config.level + 1))
        for n in (0, 1)
        if n <= cutoff and n < count
    ]


# ----------------------------------------------------------------------
# disjoint: conjugates of lattice elements and the orthogonality inequality
def _conjugate_escapes_lattice(ctx: _Context, cutoff: int):
    tower = ctx.tower
    g = tower.stable(cutoff + 1)
    target = ctx.config.samples or 1000
    failures = sum(
        tower.membership(tower.conj(ctx.sampler.lattice_word_escaping(cutoff), g), "K")
        for _ in range(target)
    )
    return _verdict(failures == 0), {"samples": target, "failures": failures}


def _conjugate_fixes_high_blocks(ctx: _Context, cutoff: int):
    tower = ctx.tower
    g = tower.stable(cutoff + 1)
    target = ctx.config.samples or 1000
    failures = 0
    for _ in range(target):
        k = ctx.sampler.lattice_word_in(cutoff)
        moved = tower.conj(k, g)
        if not (tower.membership(moved, "K") and tower.eq(moved, k)):
            failures += 1
    return _verdict(failures == 0), {"samples": target, "failures": failures}


def _orthogonality_inequality(ctx: _Context, cutoff: int):
    target = (ctx.config.samples or 1000) // 2
    blocks = range(min(3, len(ctx.config.primes)))
    failures = 0
    doubling = 0
    for _ in range(target):
        y = ctx.sampler.lattice_vector(blocks)
        rep = orthogonality_inequality_check(y, cutoff)
        if not (rep.passed and rep.disjoint_supports):
            failures += 1
        if rep.lhs_squared != 2 * rep.rhs_squared:
            doubling += 1
    return _verdict(failures == 0 and doubling == 0), {
        "samples": target,
        "failures": failures,
        "doubling_failures": doubling,
    }


def _expectation_projection(ctx: _Context, cutoff: int):
    e = ctx.tower.identity()
    blocks = range(min(3, len(ctx.config.primes)))
    failures = 0
    trials = 100
    for _ in range(trials):
        v = ctx.sampler.lattice_vector(blocks)
        ev = conditional_expectation(v, cutoff)
        if not conditional_expectation(ev, cutoff).equals(ev):
            failures += 1
        if ev.norm_squared() > v.norm_squared():
            failures += 1
        if ev.coefficient(e) != v.coefficient(e):
            failures += 1
    return _verdict(failures == 0), {"samples": trials, "failures": failures}


def _disjoint_checks(config: SuiteConfig) -> list:
    count = len(config.primes)
    rows = []
    for cutoff in range(1, min(4, count)):
        rows += [
            ("conjugate-escapes-lattice", {"cutoff": cutoff}, _conjugate_escapes_lattice),
            ("conjugate-fixes-high-blocks", {"cutoff": cutoff}, _conjugate_fixes_high_blocks),
        ]
    for cutoff in range(1, min(3, count - 1)):
        rows += [
            ("orthogonality-inequality", {"cutoff": cutoff}, _orthogonality_inequality),
            ("expectation-projection", {"cutoff": cutoff}, _expectation_projection),
        ]
    return rows


# ----------------------------------------------------------------------
# bound: truncated trace products and the mean-deviation inequality
def _truncated_trace_product(ctx: _Context, first: int, last: int):
    primes = ctx.config.primes
    got = tail_trace(primes, first, last)
    independent = Fraction(1)
    for n in range(first, last + 1):
        p = primes.p(n)
        independent *= Fraction(p**3 - 1, p**3)
    eps = epsilon_defect(primes, first, last)
    ok = got == independent and eps == 1 - got and 0 < got <= 1
    if (first, last) == (0, 2) and tuple(primes)[:3] == (2, 3, 5):
        ok = ok and got == Fraction(2821, 3375) and eps == Fraction(554, 3375)
    return _verdict(ok), {
        "trace": got,
        "trace_float": float(got),
        "epsilon": eps,
        "bound_4_sqrt_eps": 4 * math.sqrt(eps) if eps else 0.0,
        "remainder_bound": tail_remainder_bound(primes, last),
    }


def _deviation_extreme_points(ctx: _Context, factors: int):
    primes, last = ctx.config.primes, factors - 1
    points = atom_points(factors)
    failures = sum(
        not deviation_bound_check(primes, 0, last, list(signs)).passed
        for signs in itertools.product((-1, 1), repeat=len(points))
    )
    trace = tail_trace(primes, 0, last)
    flip = {pt: (-1 if pt == points[0] else 1) for pt in points}
    rep = deviation_bound_check(primes, 0, last, flip)
    ok = failures == 0 and rep.lhs_squared == 4 * trace * (1 - trace) and rep.passed
    return _verdict(ok), {
        "sign_patterns": 2 ** len(points),
        "failures": failures,
        "flip_atom_lhs_squared": rep.lhs_squared,
    }


def _deviation_random_unit_ball(ctx: _Context, factors: int):
    target = ctx.config.samples or 1000
    failures = 0
    for _ in range(target):
        values = ctx.sampler.unit_ball_values(2**factors)
        rep = deviation_bound_check(ctx.config.primes, 0, factors - 1, values)
        if not (rep.passed and (rep.lhs <= rep.bound) == rep.passed):
            failures += 1
    return _verdict(failures == 0), {"samples": target, "failures": failures}


def _bound_checks(config: SuiteConfig) -> list:
    last = len(config.primes) - 1
    windows = sorted({(0, 0), (0, min(2, last)), (0, last), (min(1, last), last)})
    factors = min(2, last) + 1
    return [
        ("truncated-trace-product", {"first": first, "last": wlast}, _truncated_trace_product)
        for first, wlast in windows
    ] + [
        ("deviation-extreme-points", {"factors": factors}, _deviation_extreme_points),
        ("deviation-random-unit-ball", {"factors": factors}, _deviation_random_unit_ball),
    ]


# ----------------------------------------------------------------------
_SUITES = {
    "icc": _icc_checks,
    "orbits": _orbits_checks,
    "fourier": _fourier_checks,
    "xi": _xi_checks,
    "disjoint": _disjoint_checks,
    "bound": _bound_checks,
}


def _run_checks(suite: str, config: SuiteConfig) -> list[dict]:
    """Record each row's fn(context, **parameters) -> (outcome, extra), in order.

    A skip carries its reason in extra as {"reason": ...}, and the size
    guard maps to a skip.  Any other exception is recorded as the check's
    failure, with an `error` field "<Type>: <message>" and the traceback
    on stderr, so the suite runs its remaining checks.
    """
    tower = Tower(config.primes)
    context = _Context(config, tower, Sampler(tower, config.seed))
    checks = []
    for check, parameters, fn in _SUITES[suite](config):
        started = time.perf_counter()
        try:
            outcome, extra = fn(context, **parameters)
        except SizeGuardExceeded as exc:
            outcome, extra = "skip", {"reason": str(exc)}
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            outcome, extra = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        checks.append({
            "suite": suite,
            "check": check,
            "parameters": dict(parameters),
            "outcome": outcome,
            "elapsed_s": round(time.perf_counter() - started, 6),
            **extra,
        })
    return checks


def run_suite(name: str, config: SuiteConfig | None = None) -> Report:
    """Run one named suite (or 'all' for every suite, concatenated)."""
    config = config or SuiteConfig()
    started = time.perf_counter()
    if name == "all":
        checks = [c for suite in SUITE_NAMES for c in _run_checks(suite, config)]
    elif name in _SUITES:
        checks = _run_checks(name, config)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return Report(name, config, checks, round(time.perf_counter() - started, 6))


def run_all(config: SuiteConfig | None = None) -> dict[str, Report]:
    """Run every suite, returning one report per suite name."""
    config = config or SuiteConfig()
    return {name: run_suite(name, config) for name in SUITE_NAMES}
