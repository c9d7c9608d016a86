"""Tests of the benchmark's own parts: tracer arithmetic, gates, determinism.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import amalgam as am  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_NS, SpeedSampler  # noqa: E402
from tracing import LAYER_NAMES, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(10))

    def mid_body():
        clock.advance(5)
        leaf()
        clock.advance(3)
        leaf()
        clock.advance(2)

    mid = tr.wrap("mid", mid_body)
    with tr.span("pass", "0") as outer:
        clock.advance(7)
        mid()                      # 30 ns: 10 own, 20 in two leaves
        with tr.span("request", "mul") as inner:
            clock.advance(1)
            leaf()
            clock.advance(4)       # 15 ns: 5 own
        clock.advance(6)

    assert tr.calls == {"leaf": 3, "mid": 1, "pass:0": 1, "request:mul": 1}
    assert tr.self_ns["leaf"] == 30
    assert tr.self_ns["mid"] == 10
    assert inner["self_ns"] == 5 and inner["end_ns"] - inner["start_ns"] == 15
    assert outer["self_ns"] == 13 and outer["end_ns"] - outer["start_ns"] == 58
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    # the boundary spans' own time is exactly what no layer span covers
    assert tr.uncovered_ns() == 58 - 30 - 10
    assert tr.edges[("mid", "leaf")] == 2 and tr.edges[("request:mul", "leaf")] == 1
    assert tr.hook_ns == 0


def test_hook_time_is_no_ones_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(10),
                   before=lambda *_: clock.advance(4), after=lambda *_: clock.advance(2))
    with tr.span("request", "eq") as outer:
        clock.advance(1)
        leaf()
    assert tr.self_ns["leaf"] == 10 and tr.hook_ns == 6
    assert outer["self_ns"] == 1 and tr.uncovered_ns() == 1


def test_install_restores_every_original():
    from amalgam import words

    before = (words.Tower.mul, am.parse_element, am.suites.check_xi_invariance)
    tr = Tracer()
    with tr.install():
        assert words.Tower.mul is not before[0]
        assert am.suites.check_xi_invariance is not before[2]
        tower = am.Tower((2, 3, 5))
        am.parse_element(tower, "t(1) * h(0;1,0,0)")
    assert (words.Tower.mul, am.parse_element, am.suites.check_xi_invariance) == before
    assert tr.calls["grammar.parse"] == 1 and tr.calls["words.mul.l1"] >= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain = workloads.PassResult(1.0, 1, 0, [])
    traced = workloads.PassResult(2.0, 1, 0, [])
    layer = run.per_layer(Tracer(), [plain], [traced])
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert [layer[m["name"]][1] for m in spec["per_layer"]] == [m["unit"] for m in spec["per_layer"]]
    passes = [workloads.PassResult(s, 2, 0, [], p50_ms=1.0, p99_ms=p99)
              for s, p99 in ((0.5, 3.0), (0.4, 2.0), (0.6, 9.0))]
    e2e = run.end_to_end(passes, [(0.1, 1.0), (0.2, 1.0)], per_request=True)
    assert e2e["run_s"][0] == 0.5 and e2e["ops_per_s"][0] == 4.0 and e2e["op_p99_ms"][0] == 3.0
    assert run.end_to_end(passes[:2], [(0.1, 1.0)], per_request=False)["op_p50_ms"][0] == 450.0
    assert [(k, u) for k, (_, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]


def test_speed_scaling_and_paused_time():
    clock = FakeClock()
    sampler = SpeedSampler(clock=clock)
    # two samples inside [100, 10_000], one at a quarter of the reference
    # speed; one before the window and one that starts inside but ends after it
    sampler.samples = [(50, 90, 0.1), (1000, 1000 + REFERENCE_NS, 1.0),
                       (5000, 5000 + 4 * REFERENCE_NS, 0.25), (9_999_000, 10_001_000, 0.5)]
    assert sampler.speed(100, 5 * REFERENCE_NS) == 0.625
    assert sampler.paused_ns(100, 5 * REFERENCE_NS) == 5 * REFERENCE_NS
    assert sampler.paused_ns(100, 10_000_000) == 5 * REFERENCE_NS
    assert sampler.paused_ns(6 * REFERENCE_NS, 7 * REFERENCE_NS) == 0
    assert sampler.speed(91, 99) == 0.1  # no sample inside: the last one before

    # each pass and set-up time is scaled by the speed measured with it
    passes = [workloads.PassResult(2.0, 4, 0, [], p50_ms=1.0, p99_ms=8.0, speed=0.5),
              workloads.PassResult(1.0, 4, 0, [], p50_ms=0.5, p99_ms=4.0, speed=1.0)]
    e2e = run.end_to_end(passes, [(0.2, 0.5), (0.1, 1.0), (0.3, 0.5)], per_request=True)
    assert e2e["run_s"][0] == 1.0 and e2e["op_p99_ms"][0] == 4.0 and e2e["setup_s"][0] == 0.1


def test_sampled_time_is_left_out_of_a_pass():
    sampler = SpeedSampler(interval_s=0.005)
    requests = workloads.make_batch(6, 200)
    with sampler.running():
        result = workloads.elem_pass(am, am.Tower(), requests, paused_ns=sampler.paused_ns)
    assert sampler.samples and result.failed == 0
    assert workloads.check_elem(am, am.Tower(), requests, result.outcomes) == 0
    assert 0 < result.p50_ms <= result.p99_ms


def test_tracer_records_only_listed_layer_names():
    tr = Tracer()
    with tr.install():
        workloads.elem_pass(am, am.Tower(), workloads.make_batch(3, 60))
        am.run_suite("bound", am.SuiteConfig(primes=(2, 3, 5), samples=2))
    assert set(tr.calls) <= set(LAYER_NAMES)
    assert "grammar.parse" in tr.calls and "tailbound.deviation_bound_check" in tr.calls


def test_same_seed_gives_same_request_texts():
    first = workloads.make_batch(7, 300)
    assert first == workloads.make_batch(7, 300)
    assert first != workloads.make_batch(8, 300)
    assert {r.op for r in first} == set(workloads.OPS)


def test_request_mix_keeps_powers_rare_and_bounded():
    batch = workloads.make_batch(4, 3000)
    powers = [[abs(int(m)) for m in re.findall(r"\^(-?\d+)", " ".join(r.texts))] for r in batch]
    assert all(m == 1 or 2 <= m <= workloads.MAX_POWER for ms in powers for m in ms)
    powered = sum(any(m > 1 for m in ms) for ms in powers) / len(batch)
    assert 0.02 < powered < 0.1  # above the 1% beyond op_p99_ms, far below its median


SMALL = dict(primes=(2, 3, 5), radius=2, level=2, samples=5)


@pytest.mark.parametrize("workload", ["verify-words", "verify-blocks"])
def test_traced_and_untraced_verify_outcomes_agree(workload):
    config = am.SuiteConfig(seed=3, **SMALL)
    suites = workloads.VERIFY_SUITES[workload]
    plain = workloads.verify_pass(am, workload, config, {s: [] for s in suites})
    expected = {s: [k for k in plain.outcomes if k[0] == s] for s in suites}
    tr = Tracer()
    with tr.install():
        traced = workloads.verify_pass(am, workload, config, expected, tr)
    assert traced.outcomes == plain.outcomes and traced.failed == 0
    assert [s["name"] for s in tr.spans if s["kind"] == "suite"] == list(suites)

    # the gate counts each differing, missing or extra check as one failure
    want = expected[suites[0]]
    flipped = [list(k) for k in want]
    flipped[0][3] = "fail"
    assert workloads.mismatches(flipped, want) == 1
    assert workloads.mismatches(want[:-1], want) == 1
    assert workloads.mismatches(want + want[:2], want) == 2


def test_traced_and_untraced_elem_answers_agree():
    requests = workloads.make_batch(11, 120)
    plain = workloads.elem_pass(am, am.Tower(), requests)
    tr = Tracer()
    with tr.install():
        traced = workloads.elem_pass(am, am.Tower(), requests, tr)
    assert traced.outcomes == plain.outcomes
    assert sum(s["kind"] == "request" for s in tr.spans) == len(requests)
    assert 0 < plain.p50_ms <= plain.p99_ms
    assert workloads.check_elem(am, am.Tower(), requests, plain.outcomes) == 0


def test_elem_gate_rejects_wrong_answers():
    tower = am.Tower()
    requests = workloads.make_batch(5, 60)
    answers = workloads.elem_pass(am, tower, requests).outcomes
    wrong = {"true": "false", "false": "true"}
    answers = [wrong.get(a, a + " * t(1)") for a in answers]
    answers[:3] = ["error ValueError: x", "t(1", ""]
    assert workloads.check_elem(am, tower, requests, answers) == len(requests)
    assert workloads.check_elem(am, tower, requests, answers[:-1]) == len(requests)


def test_each_pass_starts_with_an_empty_generator_ball_cache():
    from amalgam import matrices

    matrices.generator_ball(1)
    runner = run.PassRunner(am, "elem-requests", 2)
    runner.requests = runner.requests[:20]
    runner.check(runner.run_pass(0))
    assert matrices.generator_ball.cache_info().currsize == 0
