"""Benchmark of the `amalgam` package: verification sweeps and element requests.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-words --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* verify-words   the icc, xi and disjoint suites, default 16 primes
* verify-blocks  the orbits, fourier and bound suites, default 16 primes
* elem-requests  element requests served one at a time through the grammar

A run repeats passes of its workload for as long as `--seconds` allows
(at least one pass).  A pass runs the suites once, or serves the run's
batch of requests; every pass does the same work, from a cold start: a
fresh `Tower` per elem pass, fresh suites per verify pass, and the
module-level cache of `matrices.generator_ball` emptied before each
pass, so that no pass reuses what an earlier one computed.  The median
over the run's passes stands for the run.  `--trace 0` runs nothing
wrapped and prints the end-to-end metrics.  Every time among them is
scaled by the machine's speed measured while it ran (speed.py), so that
a shared host's slow phases do not show as changes of the program; the
unscaled median times and the median speeds are printed on the line
before the metrics.

* setup_s      median over fresh interpreters of the time from `import
               amalgam` to the end of the first operation, half of them
               started before the timed passes and half after
* run_s        median time of a pass
* ops_per_s    operations of a pass over run_s; an operation is one
               request, or one whole verification sweep (a pass)
* op_p50_ms,   elem-requests: each pass's nearest-rank percentiles of
  op_p99_ms    its 10000 request latencies (100 beyond the p99), the
               median over the run's passes; a verify run holds a
               handful of sweeps at most, too few for a tail, so for
               the verify workloads both are the median sweep, run_s
               in ms
* peak_rss_mb  peak resident memory of the benchmark process

OpenBLAS, which numpy's transforms in the fourier suite call, is held
to one thread in this process and the set-up interpreters it starts, so
that the benchmark's work runs on one core and the transforms' times do
not depend on whether a second core is free.

Single suites are too short or too few per run to be steady end-to-end
figures; their median elapsed_s goes to the per-layer suites.<suite>.s.

`attempted` and `failed` count checks (verify) or requests.  `--trace 1`
runs passes untraced for half the time, then one more pass traced, and
prints the per-layer metrics of that one pass, so that its counts repeat
exactly from run to run (layers.json says which end-to-end metric each
should move); it also writes every span and counter to
`perfbench/out/trace-<workload>-<seed>.json`.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The package is imported from `src/` of the current directory and
nowhere else; without it the run exits with a nonzero status and prints
no result.  `expected_outcomes.json` holds every check's outcome key
(`workloads.outcome_key`) from `run_suite(name, SuiteConfig(seed=0))`,
recorded when the benchmark was written; the keys do not depend on the
seed.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is first imported, here or in a set-up interpreter
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import LAYER_NAMES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 12

SUITE_NAMES = tuple(s for suites in workloads.VERIFY_SUITES.values() for s in suites)


def import_amalgam(root: Path):
    """Import the package from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "amalgam" / "__init__.py").is_file():
        raise SystemExit(f"no amalgam package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import amalgam

    if Path(amalgam.__file__).resolve().parent != (src / "amalgam").resolve():
        raise SystemExit(f"imported amalgam from {amalgam.__file__}, not from {src}")
    return amalgam


def measure_setup(root: Path, workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(set-up seconds, machine speed) of `count` fresh interpreters, one after another."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(*workloads.setup_probe(sys.argv[2], sys.argv[3], int(sys.argv[4])))"
    )
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, str(HERE), str(root / "src"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, speed = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(speed)))
    return samples


class PassRunner:
    """Runs passes of one workload and keeps their results."""

    def __init__(self, am, workload: str, seed: int):
        self.am, self.workload = am, workload
        # the original, kept before any tracing wraps the module binding
        self.generator_ball = importlib.import_module("amalgam.matrices").generator_ball
        if workload == "elem-requests":
            self.requests = workloads.make_batch(seed)
            self.answers = None  # of the first pass, once checked
        else:
            self.config = am.SuiteConfig(seed=seed)
            self.expected = workloads.load_expected()

    def run_pass(self, index: int, tracer=None, sampler=None) -> workloads.PassResult:
        if tracer is not None:
            with tracer.span("pass", str(index)):
                return self._run(tracer, workloads.no_pause)
        if sampler is None:
            return self._run(None, workloads.no_pause)
        start = time.perf_counter_ns()
        result = self._run(None, sampler.paused_ns)
        result.speed = sampler.speed(start, time.perf_counter_ns())
        return result

    def _run(self, tracer, paused_ns):
        self.generator_ball.cache_clear()  # a one-shot sweep builds its balls
        if self.workload == "elem-requests":
            tower = self.am.Tower()
            return workloads.elem_pass(self.am, tower, self.requests, tracer, paused_ns)
        return workloads.verify_pass(self.am, self.workload, self.config, self.expected, tracer,
                                     paused_ns)

    def check(self, result: workloads.PassResult) -> None:
        """Judge a finished pass, outside its timing and any tracing.

        The first pass's answers are checked against the identities their
        requests were built with; every later pass must repeat them.  The
        answers are then replaced by a hash, which still tells passes of
        this process apart, so that what is kept per pass is only its
        times.
        """
        if self.workload != "elem-requests":
            return
        if self.answers is None:
            result.failed = workloads.check_elem(
                self.am, self.am.Tower(), self.requests, result.outcomes)
            self.answers = result.outcomes
        else:
            result.failed = workloads.mismatches(result.outcomes, self.answers)
        result.outcomes = [hash(tuple(result.outcomes))]

    def run_for(self, seconds: float, tracer=None, count: int | None = None, sampler=None):
        """Exactly `count` passes, or as many as fit in `seconds` (at least one).

        Untraced passes are checked as they finish, so memory stays flat;
        traced ones are left for the caller to check once tracing is off.
        With a running `sampler`, each pass's time leaves its samples out
        and the pass records the machine's speed.
        """
        results = []
        start = time.perf_counter()
        while True:
            results.append(self.run_pass(len(results), tracer, sampler))
            if tracer is None:
                self.check(results[-1])
            if count is not None:
                if len(results) == count:
                    return results
            elif time.perf_counter() + results[-1].wall_s - start > seconds:
                return results  # the next pass would not fit


def end_to_end(passes: list, setup: list, per_request: bool) -> dict:
    """The end-to-end metrics, every time scaled by the machine's speed (speed.py)."""
    pass_s = statistics.median(r.wall_s * r.speed for r in passes)
    if per_request:
        ops = passes[0].attempted
        p50 = statistics.median(r.p50_ms * r.speed for r in passes)
        p99 = statistics.median(r.p99_ms * r.speed for r in passes)
    else:
        ops, p50, p99 = 1, 1000.0 * pass_s, 1000.0 * pass_s
    return {
        "setup_s": (statistics.median(s * v for s, v in setup), "s"),
        "run_s": (pass_s, "s"),
        "ops_per_s": (ops / pass_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p99_ms": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, plain, traced) -> dict:
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_ns.get(name, 0) / 1e9, "s")
    for suite in SUITE_NAMES:  # from the untraced passes
        out[f"suites.{suite}.s"] = (statistics.median(r.suite_s.get(suite, 0.0) for r in plain), "s")

    calls, counts, edges = tracer.calls, tracer.counts, tracer.edges
    candidates = edges.get(("words.growth", "words.conj"), 0)
    terms = counts.get("fourier.convolution.terms", 0)
    out.update({
        "words.eq.structural_ratio": (
            ratio(counts.get("words.eq.structural", 0), calls.get("words.eq", 0)), "ratio"),
        "words.growth.candidates": (candidates, "count"),
        "words.growth.eq_per_candidate": (
            ratio(edges.get(("words.growth", "words.eq"), 0), candidates), "ratio"),
        "words.alphabet.build_ratio": (
            ratio(len(tracer.alphabet_keys), calls.get("words.alphabet", 0)), "ratio"),
        "matrices.inverse.distinct_ratio": (
            ratio(len(tracer.inverted), calls.get("matrices.inverse", 0)), "ratio"),
        "semidirect.g0_mul.identity_lam_ratio": (
            ratio(counts.get("semidirect.g0_mul.identity_lam", 0),
                  calls.get("semidirect.g0_mul", 0)), "ratio"),
        "fourier.convolution.terms": (terms, "count"),
        "fourier.convolution.keys_ratio": (
            ratio(counts.get("fourier.convolution.keys", 0), terms), "ratio"),
    })
    plain_s = statistics.median(r.wall_s for r in plain)
    traced_s = statistics.median(r.wall_s for r in traced)
    traced_total = sum(r.wall_s for r in traced)
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.uncovered_share"] = (ratio(tracer.uncovered_ns(), int(traced_total * 1e9)), "ratio")
    out["trace.hooks_s"] = (tracer.hook_ns / 1e9, "s")
    return out


def write_trace(tracer: Tracer, workload: str, seed: int, metrics: dict) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layers": {n: {"calls": tracer.calls[n], "self_s": tracer.self_ns[n] / 1e9}
                   for n in sorted(tracer.calls)},
        "callers": [[p, c, n] for (p, c), n in sorted(tracer.edges.items())],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    am = import_amalgam(root)
    runner = PassRunner(am, args.workload, args.seed)

    if args.trace == 0:
        # half the set-up samples before the timed passes and half after, so
        # that their median does not rest on one moment of a shared machine;
        # the first start, which may compile bytecode, is dropped
        half = SETUP_SAMPLES // 2
        setup = measure_setup(root, args.workload, args.seed, half + 1)[1:]
        sampler = SpeedSampler()
        with sampler.running():
            results = runner.run_for(args.seconds, sampler=sampler)
        setup += measure_setup(root, args.workload, args.seed, SETUP_SAMPLES - half)
        metrics = end_to_end(results, setup, args.workload == "elem-requests")
        passes = results
        note = (f"; median of {len(results)} pass(es) reported; unscaled: pass "
                f"{statistics.median(r.wall_s for r in results):.6g} s at machine speed "
                f"{statistics.median(r.speed for r in results):.4g}, set-up "
                f"{statistics.median(s for s, _ in setup):.6g} s at speed "
                f"{statistics.median(v for _, v in setup):.4g}")
    else:
        plain = runner.run_for(args.seconds / 2)
        tracer = Tracer()
        with tracer.install():
            traced = runner.run_for(0, tracer, count=1)
        for r in traced:
            runner.check(r)
        for p, t in zip(plain, traced):
            if p.outcomes != t.outcomes:  # tracing must not change any answer
                print("a traced pass gave other outcomes than its untraced twin", flush=True)
                t.failed += 1
        metrics = per_layer(tracer, plain, traced)
        print(f"trace written to {write_trace(tracer, args.workload, args.seed, metrics)}")
        passes = plain + traced
        note = ""

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed{note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
