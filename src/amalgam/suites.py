"""Named verification suites with deterministic, diffable JSON reports.

Each suite runs a fixed list of checks in a fixed order, drawing any
randomness from one seeded stream, so two runs with the same config are
byte-identical apart from the elapsed_s timing fields.  Outcomes are
"pass", "fail", or "skip" (skips carry a reason and never fail a run);
the process-level contract is exit 0 when nothing failed, 1 otherwise,
and 2 for unusable configuration.  An exception raised inside a check
is that check's failure, never a configuration error.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fourier import (
    check_intertwiner,
    fourier,
    inverse_fourier,
    projection_en,
)
from .matrices import ELEMENTARY_GENERATORS, generator_ball
from .orbits import (
    DEFAULT_SIZE_GUARD,
    SizeGuardExceeded,
    diagonal_orbits,
    fixed_point_dimension,
    partitions_agree,
    zero_pattern_partition,
)
from .primes import PrimeSeq
from . import primes as _primes_mod
from .sampling import Sampler
from .tailbound import (
    atom_points,
    deviation_bound_check,
    epsilon_defect,
    tail_remainder_bound,
    tail_trace,
)
from .witness import (
    block_stabilized,
    check_xi_invariance,
    conditional_expectation,
    orthogonality_inequality_check,
    search_invariance_violation,
    xi,
    xi_overlap_squared,
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


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[dict] = []

    def run(self, check: str, parameters: dict, fn) -> None:
        """Record fn() -> (outcome, extra), the size guard mapped to a skip.

        A skip carries its reason in extra as {"reason": ...}.  Any other
        exception is recorded as the check's failure, with an `error`
        field "<Type>: <message>" and the traceback on stderr, so the
        suite runs its remaining checks.
        """
        started = time.perf_counter()
        try:
            outcome, extra = fn()
        except SizeGuardExceeded as exc:
            outcome, extra = "skip", {"reason": str(exc)}
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            outcome, extra = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        self.checks.append({
            "suite": self.suite,
            "check": check,
            "parameters": parameters,
            "outcome": outcome,
            "elapsed_s": round(time.perf_counter() - started, 6),
            **extra,
        })


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ----------------------------------------------------------------------
# icc: group law, reduced-word soundness, conjugate growth
def _suite_icc(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("icc")
    tower = Tower(config.primes)
    sampler = Sampler(tower, config.seed)
    level_cap = min(3, config.level)

    def axioms():
        target = config.samples or 10000
        triples = -(-target // 3)
        failures = 0
        e = tower.identity()
        for _ in range(triples):
            a = sampler.word(8, level_cap)
            b = sampler.word(8, level_cap)
            c = sampler.word(8, level_cap)
            if not tower.eq(tower.mul(tower.mul(a, b), c), tower.mul(a, tower.mul(b, c))):
                failures += 1
            if not tower.mul(a, tower.inv(a)).is_identity:
                failures += 1
            if not (tower.eq(tower.mul(a, e), a) and tower.eq(tower.mul(e, a), a)):
                failures += 1
        return _verdict(failures == 0), {"checks": 3 * triples, "failures": failures}

    rec.run("group-axioms", {"max_length": 8, "level_cap": level_cap}, axioms)

    def soundness():
        target = config.samples or 1000
        failures = 0
        for i in range(target):
            level = 1 + (i % level_cap)
            syllables = 1 + (i % 3)
            w = sampler.reduced_word(level, syllables)
            if tower.eq(w, tower.identity()):
                failures += 1
            if not tower.mul(w, tower.inv(w)).is_identity:
                failures += 1
        return _verdict(failures == 0), {"words": target, "failures": failures}

    rec.run("reduced-word-soundness", {"level_cap": level_cap, "syllables": "1..3"}, soundness)

    def ball_sizes():
        expected = (1, 13, 121, 883)
        radius = min(config.radius, 3)
        got = tuple(len(generator_ball(r)) for r in range(radius + 1))
        return _verdict(got == expected[: radius + 1]), {
            "sizes": list(got),
            "expected": list(expected[: radius + 1]),
        }

    rec.run("matrix-ball-sizes", {"radius": min(config.radius, 3)}, ball_sizes)

    e12 = tower.lam(ELEMENTARY_GENERATORS[0])
    e21 = tower.lam(ELEMENTARY_GENERATORS[6])
    # entries on block 1 need a second configured prime; without one the
    # panel holds their element text and records a skip
    two_blocks = len(config.primes) > 1
    panel = [
        ("matrix", e12),
        ("matrix", tower.mul(e12, e21)),
        ("mixed-base", tower.mul(tower.h(0, (1, 0, 0)), e12)),
        ("lattice", tower.h(0, (1, 0, 0))),
        ("lattice", tower.h(1, (1, 2, 0)) if two_blocks else "h(1;1,2,0)"),
        ("lattice", tower.mul(tower.h(0, (1, 1, 0)), tower.h(1, (0, 0, 1)))
         if two_blocks else "h(0;1,1,0) * h(1;0,0,1)"),
        ("level-1", tower.stable(1)),
        ("level-1", tower.mul(tower.stable(1), e12)),
        ("level-1", tower.mul(tower.h(0, (1, 0, 0)), tower.stable(1, 2))),
        ("level-2", tower.stable(2)),
        ("level-2", tower.mul(tower.stable(2), tower.h(0, (1, 0, 0)))),
        ("level-2", tower.mul(tower.stable(2), tower.stable(1))),
    ]
    for region, g in panel:
        def growth(g=g):
            if isinstance(g, str):
                return "skip", {"reason": "block 1 not configured: needs at least 2 primes"}
            profile = tower.conjugate_growth_profile(g, config.radius)
            monotone = all(a <= b for a, b in zip(profile, profile[1:]))
            rich = profile[min(3, config.radius)] >= 5 if config.radius >= 3 else True
            return _verdict(monotone and rich), {"profile": list(profile)}

        element = g if isinstance(g, str) else g.format()
        rec.run("conjugate-growth", {"element": element, "region": region}, growth)
    return rec.checks


# ----------------------------------------------------------------------
# orbits: diagonal action blocks and fixed-point dimension
def _suite_orbits(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("orbits")
    primes = config.primes
    frozen = {
        (2,): (1, 7),
        (2, 3): (1, 7, 26, 182),
        (2, 3, 5): (1, 7, 26, 124, 182, 868, 3224, 22568),
    }
    for count in (1, 2, 3):
        if count > len(primes):
            break
        indices = tuple(range(count))
        used = tuple(primes.p(n) for n in indices)

        def blocks(indices=indices, used=used):
            part = diagonal_orbits(primes, indices, size_guard=config.size_guard)
            predicted = zero_pattern_partition(primes, indices, size_guard=config.size_guard)
            agree = partitions_agree(part, predicted)
            expected_sizes = sorted(
                math.prod(1 if bit == 0 else p**3 - 1 for bit, p in zip(bits, used))
                for bits in itertools.product((0, 1), repeat=count)
            )
            sizes = sorted(part.block_sizes)
            ok = (
                agree
                and part.block_count == 2**count
                and sizes == expected_sizes
                and sum(sizes) == math.prod(p**3 for p in used)
            )
            extra = {"block_sizes": sizes, "zero_pattern_agrees": agree}
            if used in frozen:
                ok = ok and sizes == sorted(frozen[used])
                extra["frozen_expected"] = sorted(frozen[used])
            return _verdict(ok), extra

        rec.run("diagonal-orbit-blocks", {"primes": list(used)}, blocks)

        def fixed_dim(indices=indices, count=count):
            dim = fixed_point_dimension(primes, indices, size_guard=config.size_guard)
            return _verdict(dim == 2**count), {"dimension": dim, "expected": 2**count}

        rec.run("fixed-point-dimension", {"primes": list(used)}, fixed_dim)
    return rec.checks


# ----------------------------------------------------------------------
# fourier: duality, intertwining, projections
def _suite_fourier(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("fourier")
    tower = Tower(config.primes)
    rng = random.Random(config.seed)
    tol = config.tolerance
    block_count = min(4, len(config.primes))

    def random_function(p: int) -> np.ndarray:
        return np.array(
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p**3)]
        )

    for n in range(block_count):
        p = tower.primes.p(n)

        def intertwining(n=n, p=p):
            worst = 0.0
            for g in ELEMENTARY_GENERATORS:
                worst = max(worst, check_intertwiner(tower, g, n))
            return _verdict(worst <= tol), {"max_deviation": worst, "generators": 12}

        rec.run("intertwining", {"p": p, "n": n}, intertwining)

        def round_trip(n=n, p=p):
            f = random_function(p)
            coeffs = fourier(tower, n, f)
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

        rec.run("transform-round-trip", {"p": p, "n": n}, round_trip)

        def multiplicativity(n=n, p=p):
            f = random_function(p)
            g = random_function(p)
            lhs = fourier(tower, n, f * g)
            rhs = fourier(tower, n, f).mul(fourier(tower, n, g))
            dev = 0.0
            for w in set(lhs.coeffs) | set(rhs.coeffs):
                dev = max(dev, abs(complex(lhs.coefficient(w)) - complex(rhs.coefficient(w))))
            return _verdict(dev <= tol), {"max_deviation": dev}

        rec.run("pointwise-to-convolution", {"p": p, "n": n}, multiplicativity)

        def projection(n=n, p=p):
            en = projection_en(tower, n)
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

        rec.run("projection-identities", {"p": p, "n": n}, projection)

        def projection_vs_transform(n=n, p=p):
            en = projection_en(tower, n)
            indicator = np.zeros(p**3, dtype=complex)
            indicator[0] = 1.0
            alpha = fourier(tower, n, indicator)
            dev = 0.0
            for w in set(en.coeffs) | set(alpha.coeffs):
                dev = max(dev, abs(complex(en.coefficient(w)) - complex(alpha.coefficient(w))))
            return _verdict(dev <= tol), {"max_deviation": dev}

        rec.run("projection-matches-transform", {"p": p, "n": n}, projection_vs_transform)
    return rec.checks


# ----------------------------------------------------------------------
# xi: overlaps, exact invariance, violation probes
def _suite_xi(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("xi")
    tower = Tower(config.primes)
    rng = random.Random(config.seed)

    for n in range(min(4, len(config.primes))):
        def overlap(n=n):
            p = tower.primes.p(n)
            v = xi(tower, n)
            ok = (
                xi_overlap_squared(tower, n) == Fraction(1, p**3)
                and v.support_size == p**3
                and v.coefficient(tower.identity()) == p**-1.5
                and abs(v.norm_squared() - 1.0) <= config.tolerance
            )
            return _verdict(ok), {"squared_overlap": Fraction(1, p**3), "support": p**3}

        rec.run("identity-overlap", {"n": n}, overlap)

    pairs = [
        (N, n)
        for N in range(min(3, config.level + 1))
        for n in (N + 1, N + 2)
        if n < len(config.primes)
    ]
    for N, n in pairs:
        letters = tower.alphabet(N)

        def exhaustive_letters(N=N, n=n, letters=letters):
            # full key-set comparison on every letter; products of letters
            # stay invariant because setwise stabilizers are closed under
            # products and inverses, and the alphabet is inverse-closed
            bad = [g.format() for g in letters if not check_xi_invariance(tower, N, n, g)]
            return _verdict(not bad), {"letters": len(letters), "violations": bad}

        rec.run("invariance-letters", {"cutoff": N, "n": n}, exhaustive_letters)

        def exhaustive_pairs(N=N, n=n, letters=letters):
            bad = 0
            for a in letters:
                for b in letters:
                    if not block_stabilized(tower, n, tower.mul(a, b)):
                        bad += 1
            return _verdict(bad == 0), {"words": len(letters) ** 2, "violations": bad}

        rec.run("invariance-length-2", {"cutoff": N, "n": n}, exhaustive_pairs)

        def exhaustive_core_triples(N=N, n=n):
            core = tower.alphabet(N, block_cap=0)

            def extend(words):
                # `tower.reduce` of the itertools.product tuples one letter
                # longer, in their order, without rebuilding every prefix
                return (tower.mul(w, c) for w in words for c in core)

            singles = list(extend([tower.identity()]))
            doubles = list(extend(singles))
            bad = 0
            count = 0
            for w in itertools.chain(singles, doubles, extend(doubles)):
                count += 1
                if not block_stabilized(tower, n, w):
                    bad += 1
            return _verdict(bad == 0), {"words": count, "violations": bad}

        rec.run("invariance-core-length-3", {"cutoff": N, "n": n}, exhaustive_core_triples)

        def random_words(N=N, n=n, letters=letters):
            target = config.samples or 250
            bad = 0
            for _ in range(target):
                w = tower.identity()
                for _ in range(rng.randint(1, 4)):
                    w = tower.mul(w, rng.choice(letters))
                if not block_stabilized(tower, n, w):
                    bad += 1
            return _verdict(bad == 0), {"words": target, "max_length": 4, "violations": bad}

        rec.run("invariance-random-length-4", {"cutoff": N, "n": n}, random_words)

    probes = [
        (N, n)
        for N in range(1, min(4, config.level + 1))
        for n in (0, 1)
        if n <= N and n < len(config.primes)
    ]
    for N, n in probes:
        def probe(N=N, n=n):
            g = search_invariance_violation(tower, N, n, max_length=2)
            expected = N >= n + 2
            if g is None:
                if expected:
                    return "fail", {"witness": None, "note": "expected a witness in range"}
                return "skip", {"reason": "no violating conjugator at search radius 2; inconclusive"}
            moved = not block_stabilized(tower, n, g)
            return _verdict(moved and expected), {"witness": g.format()}

        rec.run("violation-search", {"cutoff": N, "n": n}, probe)
    return rec.checks


# ----------------------------------------------------------------------
# disjoint: conjugates of lattice elements and the orthogonality inequality
def _suite_disjoint(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("disjoint")
    tower = Tower(config.primes)
    sampler = Sampler(tower, config.seed)

    for cutoff in (1, 2, 3):
        if cutoff >= len(config.primes):
            break
        g = tower.stable(cutoff + 1)

        def escape(cutoff=cutoff, g=g):
            target = config.samples or 1000
            failures = 0
            for _ in range(target):
                k = sampler.lattice_word_escaping(cutoff)
                if tower.membership(tower.conj(k, g), "K"):
                    failures += 1
            return _verdict(failures == 0), {"samples": target, "failures": failures}

        rec.run("conjugate-escapes-lattice", {"cutoff": cutoff}, escape)

        def stay(cutoff=cutoff, g=g):
            target = config.samples or 1000
            failures = 0
            for _ in range(target):
                k = sampler.lattice_word_in(cutoff)
                moved = tower.conj(k, g)
                if not (tower.membership(moved, "K") and tower.eq(moved, k)):
                    failures += 1
            return _verdict(failures == 0), {"samples": target, "failures": failures}

        rec.run("conjugate-fixes-high-blocks", {"cutoff": cutoff}, stay)

    for cutoff in (1, 2):
        if cutoff + 1 >= len(config.primes):
            break

        def orthogonality(cutoff=cutoff):
            target = (config.samples or 1000) // 2
            blocks = range(min(3, len(config.primes)))
            failures = 0
            doubling = 0
            for _ in range(target):
                y = sampler.lattice_vector(blocks)
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

        rec.run("orthogonality-inequality", {"cutoff": cutoff}, orthogonality)

        def expectation_props(cutoff=cutoff):
            blocks = range(min(3, len(config.primes)))
            failures = 0
            trials = 100
            for _ in range(trials):
                v = sampler.lattice_vector(blocks)
                ev = conditional_expectation(v, cutoff)
                if not conditional_expectation(ev, cutoff).equals(ev):
                    failures += 1
                if ev.norm_squared() > v.norm_squared():
                    failures += 1
                if ev.coefficient(tower.identity()) != v.coefficient(tower.identity()):
                    failures += 1
            return _verdict(failures == 0), {"samples": trials, "failures": failures}

        rec.run("expectation-projection", {"cutoff": cutoff}, expectation_props)
    return rec.checks


# ----------------------------------------------------------------------
# bound: truncated trace products and the mean-deviation inequality
def _suite_bound(config: SuiteConfig) -> list[dict]:
    rec = _Recorder("bound")
    primes = config.primes
    sampler = Sampler(Tower(primes), config.seed)
    last = len(primes) - 1
    windows = sorted({(0, 0), (0, min(2, last)), (0, last), (min(1, last), last)})

    for first, wlast in windows:
        def product(first=first, wlast=wlast):
            got = tail_trace(primes, first, wlast)
            independent = Fraction(1)
            for n in range(first, wlast + 1):
                p = primes.p(n)
                independent *= Fraction(p**3 - 1, p**3)
            eps = epsilon_defect(primes, first, wlast)
            ok = got == independent and eps == 1 - got and 0 < got <= 1
            if (first, wlast) == (0, 2) and tuple(primes)[:3] == (2, 3, 5):
                ok = ok and got == Fraction(2821, 3375) and eps == Fraction(554, 3375)
            return _verdict(ok), {
                "trace": got,
                "trace_float": float(got),
                "epsilon": eps,
                "bound_4_sqrt_eps": 4 * math.sqrt(eps) if eps else 0.0,
                "remainder_bound": tail_remainder_bound(primes, wlast),
            }

        rec.run("truncated-trace-product", {"first": first, "last": wlast}, product)

    window_last = min(2, last)
    factor_count = window_last + 1

    def extremes():
        points = atom_points(factor_count)
        failures = 0
        for signs in itertools.product((-1, 1), repeat=len(points)):
            rep = deviation_bound_check(primes, 0, window_last, list(signs))
            if not rep.passed:
                failures += 1
        trace = tail_trace(primes, 0, window_last)
        flip = {pt: (-1 if pt == points[0] else 1) for pt in points}
        rep = deviation_bound_check(primes, 0, window_last, flip)
        closed_form = 4 * trace * (1 - trace)
        ok = failures == 0 and rep.lhs_squared == closed_form and rep.passed
        return _verdict(ok), {
            "sign_patterns": 2 ** len(points),
            "failures": failures,
            "flip_atom_lhs_squared": rep.lhs_squared,
        }

    rec.run("deviation-extreme-points", {"factors": factor_count}, extremes)

    def random_ball():
        target = config.samples or 1000
        count = 2 ** factor_count
        failures = 0
        for _ in range(target):
            rep = deviation_bound_check(primes, 0, window_last, sampler.unit_ball_values(count))
            if not (rep.passed and (rep.lhs <= rep.bound) == rep.passed):
                failures += 1
        return _verdict(failures == 0), {"samples": target, "failures": failures}

    rec.run("deviation-random-unit-ball", {"factors": factor_count}, random_ball)
    return rec.checks


# ----------------------------------------------------------------------
_SUITE_FNS = {
    "icc": _suite_icc,
    "orbits": _suite_orbits,
    "fourier": _suite_fourier,
    "xi": _suite_xi,
    "disjoint": _suite_disjoint,
    "bound": _suite_bound,
}


def run_suite(name: str, config: SuiteConfig | None = None) -> Report:
    """Run one named suite (or 'all' for every suite, concatenated)."""
    config = config or SuiteConfig()
    started = time.perf_counter()
    if name == "all":
        checks = [c for suite in SUITE_NAMES for c in _SUITE_FNS[suite](config)]
    elif name in _SUITE_FNS:
        checks = _SUITE_FNS[name](config)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return Report(name, config, checks, round(time.perf_counter() - started, 6))


def run_all(config: SuiteConfig | None = None) -> dict[str, Report]:
    """Run every suite, returning one report per suite name."""
    config = config or SuiteConfig()
    return {name: run_suite(name, config) for name in SUITE_NAMES}
