"""The benchmark's workloads, driven only through the public `amalgam` API.

The `amalgam` package is passed in by the caller (`run.py` imports it
from the checkout's `src/`); only `setup_probe`, which runs in a fresh
interpreter, imports it itself.

* verify workloads: one pass runs a fixed list of suites with
  `run_suite(name, SuiteConfig(seed=seed))`, the library call behind
  `amalgam verify <suite>`.  The pass, one verification sweep, is the
  timed operation; the correctness gate counts checks: each check
  record's (suite, check, parameters, outcome) must equal the recorded
  list, and each check is one attempted, possibly failed, operation.
* elem-requests: one pass serves a batch of element requests generated
  from the seed, one at a time (a closed loop, one client, no think
  time), through `parse_element`, a `Tower` method and `format_element`
  on a fresh `Tower`.  Every pass of a run serves the same batch.

The request mix follows the only requests the package documents, the
five `amalgam elem` lines of README.md's CLI section and the element
texts of demos/01_group_arithmetic.py: one request per operation, words
of one to three atoms over h, L and t(1), t(2), exponents of +-1.  The
constants below are that mix, plus one named assumption (POWER_EVERY).
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_OUTCOMES = HERE / "expected_outcomes.json"

VERIFY_SUITES = {
    "verify-words": ("icc", "xi", "disjoint"),
    "verify-blocks": ("orbits", "fourier", "bound"),
}
WORKLOADS = tuple(VERIFY_SUITES) + ("elem-requests",)

# Requests per elem-requests pass: enough that each pass's p99 has 100
# requests beyond it and that batches of different seeds have tails of
# about the same weight, few enough that a run serves the batch ten times
# or more.
BATCH = 10000
# README.md lists reduce, mul, inv, conj and member once each; eq is the
# comparison the demo and the library's own checks use.  All six are drawn
# equally often.
OPS = ("reduce", "mul", "inv", "conj", "eq", "member")
# Levels of the words built, by weight: of README.md's five requests three
# are at level 0, one at level 1 (reduce) and one at level 2 (member);
# level 3, the deepest the verification suites use, gets level 2's weight.
LEVEL_WEIGHTS = (3, 1, 1, 1)
MAX_ATOMS = 3  # README.md's words have one to three atoms
# The documented texts only carry exponents of +-1.  An assumption of this
# benchmark, not a documented mix: every POWER_EVERY-th atom drawn carries
# a power m with |m| log-uniform on [2, MAX_POWER] ("a few hundred").
# That puts a power in about one request in twenty, so GroupWord.__pow__,
# which takes time linear in m, sets op_p99_ms and not op_p50_ms.  The
# powers are stratified (each run of POWER_STRATA powers takes one value
# from each of that many equal slices of [log 2, log MAX_POWER]), so that
# batches of different seeds hold about the same powers and op_p99_ms
# measures the code, not the luck of the draw.
POWER_EVERY = 50
POWER_STRATA = 10
MAX_POWER = 300


# ----------------------------------------------------------------------
# verify workloads

def outcome_key(record: dict) -> list:
    """The part of a check record that must not change between runs."""
    return [record["suite"], record["check"],
            json.dumps(record["parameters"], sort_keys=True), record["outcome"]]


def mismatches(got: list, want: list) -> int:
    """Checks that differ from the recorded list, position by position."""
    return sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))


def load_expected() -> dict[str, list]:
    return json.loads(EXPECTED_OUTCOMES.read_text())


@dataclass
class PassResult:
    wall_s: float
    attempted: int              # checks or requests
    failed: int
    outcomes: list              # outcome keys, or request answers
    suite_s: dict[str, float] = field(default_factory=dict)  # report elapsed_s (verify)
    p50_ms: float = 0.0         # request latency percentiles (elem)
    p99_ms: float = 0.0
    speed: float = 1.0          # the machine's mean speed during the pass (speed.py)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def no_pause(start_ns: int, end_ns: int) -> int:
    return 0


def verify_pass(am, workload: str, config, expected: dict, tracer=None,
                paused_ns=no_pause) -> PassResult:
    """Run the workload's suites once and compare every check with `expected`.

    `paused_ns(start, end)` gives the nanoseconds spent outside the
    workload (speed samples) between two `time.perf_counter_ns` readings;
    the pass's time leaves them out.
    """
    outcomes, suite_s = [], {}
    attempted = failed = 0
    start = time.perf_counter_ns()
    for suite in VERIFY_SUITES[workload]:
        want = expected[suite]
        try:
            if tracer is None:
                report = am.run_suite(suite, config)
            else:
                with tracer.span("suite", suite) as span:
                    report = am.run_suite(suite, config)
        except Exception as exc:  # a crash counts against every check of the suite
            print(f"suite {suite} raised {type(exc).__name__}: {exc}", flush=True)
            attempted += len(want)
            failed += len(want)
            continue
        checks = report.payload()["checks"]
        got = [outcome_key(c) for c in checks]
        attempted += max(len(got), len(want))
        failed += mismatches(got, want)
        outcomes.extend(got)
        suite_s[suite] = report.elapsed_s
        if tracer is not None:
            for c in checks:
                tracer.add_leaf_span(span, "check", c["check"], c["elapsed_s"],
                                     parameters=c["parameters"], outcome=c["outcome"])
    end = time.perf_counter_ns()
    return PassResult((end - start - paused_ns(start, end)) / 1e9, attempted, failed,
                      outcomes, suite_s)


# ----------------------------------------------------------------------
# elem-requests: generator

@dataclass(frozen=True)
class Request:
    op: str
    texts: tuple[str, ...]
    expect: str | None = None   # known answer for eq and member
    check: tuple[str, ...] = ()  # texts the answer is checked against


def _letters(level: int) -> list[str]:
    """The tower alphabet up to `level`, written in the element grammar."""
    out = []
    for i in range(3):
        for j in range(3):
            if i != j:
                for s in (1, -1):
                    rows = [[int(a == b) for b in range(3)] for a in range(3)]
                    rows[i][j] = s
                    out.append("L[" + ";".join(",".join(map(str, r)) for r in rows) + "]")
    out += [f"t({n})" for n in range(1, level + 1)]
    for n in range(3):
        for axis in range(3):
            for s in (1, -1):
                c = [0, 0, 0]
                c[axis] = s
                out.append(f"h({n};{c[0]},{c[1]},{c[2]})")
    return out


def _text(atoms) -> str:
    return " * ".join(a if m == 1 else f"{a}^{m}" for a, m in atoms)


def _inverse(atoms) -> list:
    return [(a, -m) for a, m in reversed(atoms)]


class RequestGenerator:
    """Seeded element texts: words at levels 0-3 over the tower alphabet."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"elem-requests:{seed}")
        self.alphabets = [_letters(level) for level in range(4)]
        self.drawn = self.rng.randrange(POWER_EVERY)  # atoms so far, from a seeded phase
        self.strata: list[int] = []

    def exponent(self) -> int:
        rng = self.rng
        sign = rng.choice((-1, 1))
        self.drawn += 1
        if self.drawn % POWER_EVERY:
            return sign
        if not self.strata:
            self.strata = list(range(POWER_STRATA))
            rng.shuffle(self.strata)
        lo, hi = math.log(2), math.log(MAX_POWER)
        slice_ = (self.strata.pop() + rng.random()) / POWER_STRATA
        return sign * round(math.exp(lo + (hi - lo) * slice_))

    def level(self) -> int:
        return self.rng.choices(range(len(LEVEL_WEIGHTS)), LEVEL_WEIGHTS)[0]

    def atoms(self, level: int, pool=None) -> list:
        """One to MAX_ATOMS atoms; a word at level >= 1 holds t(level)."""
        pool = pool or self.alphabets[level]
        atoms = [(self.rng.choice(pool), self.exponent())
                 for _ in range(self.rng.randint(1, MAX_ATOMS))]
        if level and not any(a.startswith(f"t({level})") for a, _ in atoms):
            atoms[self.rng.randrange(len(atoms))] = (f"t({level})", self.exponent())
        return atoms

    def request(self, op: str, level: int) -> Request:
        rng = self.rng
        a = self.atoms(level)
        if op in ("reduce", "inv"):
            return Request(op, (_text(a),))
        if op in ("mul", "conj"):
            b = self.atoms(self.level())
            return Request(op, (_text(a), _text(b)), check=(_text(_inverse(b)),))
        if op == "eq":
            letter = (rng.choice(self.alphabets[level]), rng.choice((-1, 1)))
            if rng.random() < 0.5:
                at = rng.randrange(len(a) + 1)
                b = a[:at] + [letter, (letter[0], -letter[1])] + a[at:]
                return Request(op, (_text(a), _text(b)), expect="true")
            return Request(op, (_text(a), _text(a + [letter])), expect="false")
        # member: built at `level`, so in G<level>; a conjugate of t(level)^m
        # by a lower word is never in G<level-1>
        if level == 0:
            kind = rng.choice(("K", "Lambda"))
            pool = [x for x in self.alphabets[0] if x[0] == ("h" if kind == "K" else "L")]
            return Request(op, (_text(self.atoms(0, pool)), kind), expect="true")
        if rng.random() < 0.5:
            return Request(op, (_text(a), f"G{level}"), expect="true")
        c = self.atoms(level - 1)
        w = c + [(f"t({level})", self.exponent())] + _inverse(c)
        return Request(op, (_text(w), f"G{level - 1}"), expect="false")

    def batch(self, count: int) -> list[Request]:
        # every operation equally often and every level at its weight, in
        # seeded order, so that batches differ in their words but not in
        # their mix
        levels = [lv for lv, w in enumerate(LEVEL_WEIGHTS) for _ in range(w)]
        plan = [(OPS[i % len(OPS)], levels[i // len(OPS) % len(levels)]) for i in range(count)]
        self.rng.shuffle(plan)
        return [self.request(op, level) for op, level in plan]


def make_batch(seed: int, count: int = BATCH) -> list[Request]:
    return RequestGenerator(seed).batch(count)


# ----------------------------------------------------------------------
# elem-requests: serving and checking

def serve(am, tower, req: Request) -> str:
    """One request: parse the operands, run the operation, format the answer.

    An exception is the request's answer, which then fails its check.
    """
    try:
        return _serve(am, tower, req)
    except Exception as exc:  # the request boundary keeps serving
        return f"error {type(exc).__name__}: {exc}"


def _serve(am, tower, req: Request) -> str:
    if req.op == "member":
        return "true" if tower.membership(am.parse_element(tower, req.texts[0]),
                                          req.texts[1]) else "false"
    args = [am.parse_element(tower, t) for t in req.texts]
    if req.op == "eq":
        return "true" if tower.eq(*args) else "false"
    if req.op == "reduce":
        result = tower.reduce(args[0])
    elif req.op == "mul":
        result = tower.mul(*args)
    elif req.op == "inv":
        result = tower.inv(args[0])
    else:
        result = tower.conj(*args)
    return am.format_element(result)


def answer_ok(am, tower, req: Request, answer: str) -> bool:
    """Check an answer with an identity the generator knows."""
    if req.expect is not None:
        return answer == req.expect
    parse = lambda text: am.parse_element(tower, text)  # noqa: E731
    got = parse(answer)
    if req.op == "reduce":       # parse(format(w)) eq w
        return tower.eq(got, parse(req.texts[0]))
    if req.op == "inv":          # x * x^-1 = e
        return tower.mul(parse(req.texts[0]), got).is_identity
    if req.op == "mul":          # (a b) b^-1 eq a, with b^-1 written by the generator
        return tower.eq(tower.mul(got, parse(req.check[0])), parse(req.texts[0]))
    # conj: h^-1 (h g h^-1) h eq g
    h, h_inv = parse(req.texts[1]), parse(req.check[0])
    return tower.eq(tower.mul(tower.mul(h_inv, got), h), parse(req.texts[0]))


def elem_pass(am, tower, requests: list[Request], tracer=None,
              paused_ns=no_pause) -> PassResult:
    """Serve a batch one request at a time; `check_elem` judges the answers.

    Time counted by `paused_ns` (see `verify_pass`) is left out of the
    pass and of each request's latency.
    """
    clock = time.perf_counter_ns
    answers, latencies = [], []
    start = clock()
    for req in requests:
        t0 = clock()
        if tracer is None:
            answers.append(serve(am, tower, req))
        else:
            with tracer.span("request", req.op):
                answers.append(serve(am, tower, req))
        t1 = clock()
        latencies.append((t1 - t0 - paused_ns(t0, t1)) / 1e6)
    end = clock()
    return PassResult((end - start - paused_ns(start, end)) / 1e9, len(requests), 0, answers,
                      p50_ms=percentile(latencies, 0.50), p99_ms=percentile(latencies, 0.99))


def check_elem(am, tower, requests: list[Request], answers: list[str]) -> int:
    """Number of answers that fail the identity their request was built with."""
    failed = 0
    for req, answer in zip(requests, answers):
        try:
            ok = answer_ok(am, tower, req, answer)
        except ValueError:  # an answer that does not parse
            ok = False
        failed += not ok
    return failed + abs(len(requests) - len(answers))


# ----------------------------------------------------------------------
# set-up probe, run in a fresh interpreter

# Speed samples during a set-up of about 0.1 s: often enough for ten of
# them, each left out of the set-up's time.
SETUP_SAMPLE_INTERVAL_S = 0.01


def setup_probe(src: str, workload: str, seed: int) -> tuple[float, float]:
    """Seconds from `import amalgam` to the end of the first operation, and
    the machine's mean speed meanwhile (speed.py)."""
    import sys

    from speed import SpeedSampler

    sampler = SpeedSampler(SETUP_SAMPLE_INTERVAL_S)
    with sampler.running():
        start = time.perf_counter_ns()
        sys.path.insert(0, src)
        import amalgam as am

        if workload == "elem-requests":
            tower = am.Tower()
            am.format_element(am.parse_element(tower, "t(1) * h(0;1,0,0)"))
        else:
            config = am.SuiteConfig(seed=seed)
            tower = am.Tower(config.primes)
            tower.mul(tower.stable(1), tower.h(0, (1, 0, 0)))
        end = time.perf_counter_ns()
    return (end - start - sampler.paused_ns(start, end)) / 1e9, sampler.speed(start, end)
