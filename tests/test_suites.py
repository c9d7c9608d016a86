"""Named verification suites and their JSON reports."""
from __future__ import annotations

import hashlib
import importlib
import json
import re
from functools import lru_cache

import pytest

from amalgam import suites
from amalgam.grammar import parse_element
from amalgam.primes import PrimeSeq
from amalgam.suites import SUITE_NAMES, Report, SuiteConfig, run_all, run_suite
from amalgam.words import Tower

SMALL = SuiteConfig(primes=PrimeSeq.parse("2,3,5,7,11"), seed=3, samples=40)
TINY = SuiteConfig(primes=PrimeSeq.parse("2,3"), seed=1, samples=15, level=2)

# by import path: the package attribute `amalgam.fourier` is the transform function
fourier_module = importlib.import_module("amalgam.fourier")

_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def _stable(text: str) -> str:
    return _ELAPSED.sub('"elapsed_s": 0', text)


@lru_cache(maxsize=None)
def _small_report(name: str) -> Report:
    return run_suite(name, SMALL)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_on_small_config(name):
    report = _small_report(name)
    assert report.suite == name
    assert report.passed, [c for c in report.checks if c["outcome"] == "fail"]
    assert report.counts["fail"] == 0
    assert report.counts["pass"] >= 1


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_declared_table_lists_the_reported_checks(name):
    # the table names every check and its parameters without running it
    rows = [(check, params) for check, params, _ in suites._SUITES[name](SMALL)]
    assert rows == [(c["check"], c["parameters"]) for c in _small_report(name).checks]


def test_growth_panel_texts_round_trip():
    tower = Tower(PrimeSeq.default())
    for _, text in suites._GROWTH_PANEL:
        assert parse_element(tower, text).format() == text


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", SMALL)


def test_all_concatenates_in_declared_order():
    report = run_suite("all", TINY)
    assert report.passed
    order = [c["suite"] for c in report.checks]
    boundaries = [order.index(name) for name in SUITE_NAMES]
    assert boundaries == sorted(boundaries)


def test_config_validation():
    with pytest.raises(ValueError, match="tolerance"):
        SuiteConfig(tolerance=0)
    with pytest.raises(ValueError, match="level"):
        SuiteConfig(level=0)
    with pytest.raises(ValueError, match="samples"):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError, match="not prime"):
        SuiteConfig(primes=(4, 5))


def test_report_json_shape():
    report = _small_report("bound")
    payload = json.loads(report.to_json())
    assert payload["suite"] == "bound"
    assert payload["passed"] is True
    assert payload["config"]["primes"] == [2, 3, 5, 7, 11]
    assert payload["counts"]["fail"] == 0
    # exact rationals serialize as num/denom strings
    assert '"2821/3375"' in report.to_json()


def test_reports_deterministic_modulo_timing():
    for name in ("bound", "orbits", "disjoint"):
        a = run_suite(name, SMALL).to_json()
        b = run_suite(name, SMALL).to_json()
        assert _stable(a) == _stable(b), name


# sha256 of the SMALL reports with every elapsed_s blanked.  The word
# suites' digests were recorded before the matrix kernel skipped
# re-validation and cached inverses; the orbits and bound digests before
# the block points moved onto one integer codec.  Those changes must leave
# the reports byte-identical.  fourier is left out: its float deviations
# depend on the BLAS kernel.
GOLDEN_DIGESTS = {
    "icc": "9c4d9f7c49319abf0b64aa3d513b2a5016fcd15bb5cac7bdb0631986406f74d7",
    "xi": "8e08200ba280ad81476b5ae9d8a1de3057135c872e8f13a506c84244cae4a5a2",
    "disjoint": "2a53e8800a400bed085cc705f47d3dd5ebd60e25fabc641373db5ca215d7555f",
    "orbits": "85d8f0b8da64d77237165f15e19803ded7b5ba5362a5a8bc465c03cf8a42a955",
    "bound": "0024ad1f616e2f5d01ba9f49d765671e9ef7881207a11c6ebeee295c2f48dfdb",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_word_suite_reports_match_golden_digest(name):
    text = _stable(_small_report(name).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]


# The same digests for one configured prime, recorded before the suites
# became declared tables.  They cover the skip paths the SMALL config never
# reaches: icc's two block-1 panel entries, xi's inconclusive probe, and
# disjoint's early stops that leave its report empty.
ONE_PRIME = SuiteConfig(primes=(2,), seed=1, samples=15)
ONE_PRIME_DIGESTS = {
    "icc": "803560d3210f5841f1a106ef4f86a6d43efce62c2195613afae1fe896fa55230",
    "xi": "2882cd7975a9717b7158fafd8a918bcf204ab927644dc2468af50650f3acf4f4",
    "disjoint": "2a8d747c69ab01cc189b3f75f54bd657723a1a0d2643c3558f91c797c2a968eb",
    "orbits": "7c47c077b603b347b9dc78f842c72aa713d42078b569d3c88cd9088ec665d89f",
    "bound": "9021e5bfb3cb7c840456f141210c128161ea60f99cc21aae8b51016aaeca7dff",
}


@pytest.mark.parametrize("name", sorted(ONE_PRIME_DIGESTS))
def test_one_prime_reports_match_golden_digest(name):
    text = _stable(run_suite(name, ONE_PRIME).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == ONE_PRIME_DIGESTS[name]


def test_fourier_report_same_without_complex_block_path(monkeypatch):
    # the fourier digest depends on the BLAS kernel, so the complex block
    # convolution is pinned against the pair loop within one run instead:
    # with complex operands sent to the pair loop the report is unchanged
    plain = fourier_module._convolve_block
    calls = []

    def exact_only(tower, n, left, right):
        if any(isinstance(c, complex) for _, c in left + right):
            calls.append(n)
            return None
        return plain(tower, n, left, right)

    monkeypatch.setattr(fourier_module, "_convolve_block", exact_only)
    without = run_suite("fourier", SMALL).to_json()
    assert sorted(set(calls)) == [0, 1, 2, 3]  # every block's product was declined
    monkeypatch.undo()
    assert _stable(without) == _stable(_small_report("fourier").to_json())


def test_seed_changes_sampled_payloads():
    other = SuiteConfig(primes=PrimeSeq.parse("2,3,5,7,11"), seed=4, samples=40)
    a = _small_report("icc").to_json()
    b = run_suite("icc", other).to_json()
    assert _stable(a) != _stable(b)


def test_summary_lines_format():
    report = _small_report("xi")
    lines = report.summary_lines()
    assert len(lines) == len(report.checks)
    assert all(line.startswith(("[PASS]", "[FAIL]", "[SKIP]")) for line in lines)
    skips = [line for line in lines if line.startswith("[SKIP]")]
    assert skips and all("(" in line for line in skips)  # skips carry a reason


def test_xi_suite_records_expected_skips():
    report = _small_report("xi")
    probes = [c for c in report.checks if c["check"] == "violation-search"]
    outcomes = {
        (c["parameters"]["cutoff"], c["parameters"]["n"]): c["outcome"] for c in probes
    }
    assert outcomes[(2, 0)] == "pass"
    assert outcomes[(3, 0)] == "pass"
    assert outcomes[(3, 1)] == "pass"
    assert outcomes[(1, 0)] == "skip"
    assert outcomes[(1, 1)] == "skip"
    assert outcomes[(2, 1)] == "skip"


def test_size_guard_maps_to_skip():
    guarded = SuiteConfig(primes=PrimeSeq.parse("2,3,5,7,11"), samples=20, size_guard=50)
    report = run_suite("orbits", guarded)
    assert report.passed  # skips never fail a run
    assert report.counts["skip"] >= 1
    reasons = [c["reason"] for c in report.checks if c["outcome"] == "skip"]
    assert all("guard" in r for r in reasons)


def test_run_all_returns_report_per_suite():
    reports = run_all(TINY)
    assert tuple(reports) == SUITE_NAMES
    assert all(isinstance(r, Report) for r in reports.values())
    assert all(r.passed for r in reports.values())
