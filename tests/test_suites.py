"""Named verification suites and their JSON reports."""
from __future__ import annotations

import hashlib
import importlib
import json
import re
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from amalgam import suites
from amalgam.fourier import transform_matrix
from amalgam.grammar import parse_element
from amalgam.matrices import ELEMENTARY_GENERATORS, LambdaMatrix
from amalgam.orbits import DEFAULT_SIZE_GUARD, WORD_ENTRIES, SizeGuardExceeded
from amalgam.primes import PrimeSeq
from amalgam.sampling import Sampler
from amalgam.semidirect import image_table
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
def _small_run(name: str) -> tuple[Report, str]:
    """The SMALL report of one suite, and the sha256 of its sampler's final state."""
    made = []

    def sampler(*args):
        made.append(Sampler(*args))
        return made[-1]

    with mock.patch.object(suites, "Sampler", sampler):
        report = run_suite(name, SMALL)
    (only,) = made
    return report, hashlib.sha256(repr(only.rng.getstate()).encode()).hexdigest()


def _small_report(name: str) -> Report:
    return _small_run(name)[0]


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
    rows = [(check, params) for check, params, *_ in suites._SUITES[name](SMALL)]
    assert rows == [(c["check"], c["parameters"]) for c in _small_report(name).checks]


def test_growth_panel_texts_round_trip():
    tower = Tower(PrimeSeq.default())
    for _, text, _ in suites._GROWTH_PANEL:
        assert parse_element(tower, text).format() == text


def test_unknown_suite_rejected():
    # every suite runs through `run_all` or the CLI's loop, not as a suite "all"
    for name in ("nope", "all"):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(name, SMALL)


def test_config_validation():
    with pytest.raises(ValueError, match="tolerance"):
        SuiteConfig(tolerance=0)
    for tolerance in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            SuiteConfig(tolerance=tolerance)
    with pytest.raises(ValueError, match="level"):
        SuiteConfig(level=0)
    with pytest.raises(ValueError, match="samples"):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError, match="not prime"):
        SuiteConfig(primes=(4, 5))


def test_config_counts_must_be_integers():
    # samples=2.5 was once accepted and failed bound's unit-ball check with a TypeError,
    # and seed=2.5 was reported as "seed": 2.5
    for name in ("seed", "radius", "level", "samples", "size_guard"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
            SuiteConfig(**{name: 2.5})
    assert SuiteConfig(samples=None).samples is None
    config = SuiteConfig(seed=np.int64(4), radius=np.int64(2), level=np.int8(2),
                         samples=np.int32(3), size_guard=np.int64(10**6))
    payload = json.loads(json.dumps(config.payload()))
    assert (payload["seed"], payload["samples"]) == (4, 3)


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


# sha256 of the repr of each suite's `Sampler.rng.getstate()` after its
# SMALL run.  The reports record counts, not draws, so a change that draws
# a different number of values (one more uniform in fourier's
# `_random_function`, say) can leave every report byte-identical; this
# table catches it.
SAMPLER_STREAM_DIGESTS = {
    "icc": "399399b3157b39cfd67fc2942920b4f7a7ba15a87e3c6db44cf6d4fbf486537c",
    "orbits": "1ff13511b14f0c2d85f17bca527d63dfa1a8333f22f76f1aa0904d72377ea531",
    "fourier": "ae347182081f0a96b8e41f69a32b6bdd431a6c09171bc2adc5c223ee3f4da01e",
    "xi": "7b767bd0429d0559875f667383c0de82f4806127934791c29a71941a9b4fd7b9",
    "disjoint": "0250ad97d704c790f7fd7ad2f8a47b363f36abac94ac4184e586ae1b5f1dfca6",
    "bound": "a97f367603301c3bde0bf27f7b92e46a86f8c5dcc9a110a357af3eb78335c1ea",
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_small_runs_end_the_sampler_stream_where_frozen(name):
    assert _small_run(name)[1] == SAMPLER_STREAM_DIGESTS[name]


# The same digests for one configured prime, recorded before the suites
# became declared tables.  They cover the skip paths the SMALL config never
# reaches: xi's inconclusive probe and the rows that need more primes (the
# digests re-recorded when those rows, once left out of the report or
# skipped with a reason of their own, became skips of `run_suite`).
ONE_PRIME = SuiteConfig(primes=(2,), seed=1, samples=15)
ONE_PRIME_DIGESTS = {
    "icc": "f6814e881080330472380af3298e1900613cf5c02a4e12aa09fe9b41a67509ba",
    "xi": "7143b19f6ce175fb9d49d58ef8c6b35aa1851ed9ee30015893023f86728f5278",
    "disjoint": "dc8a29e6a1df06fbd528afce5cb138e70a3769fe7c60d263b6086f52388f4be6",
    "orbits": "a8669b4c1fcee0866c3e5e623686c5e6271d2d542c9dcd052667cedce8854ea6",
    "bound": "9021e5bfb3cb7c840456f141210c128161ea60f99cc21aae8b51016aaeca7dff",
}


@pytest.mark.parametrize("name", sorted(ONE_PRIME_DIGESTS))
def test_one_prime_reports_match_golden_digest(name):
    text = _stable(run_suite(name, ONE_PRIME).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == ONE_PRIME_DIGESTS[name]


def test_one_prime_disjoint_report_records_a_skip_per_row():
    report = run_suite("disjoint", ONE_PRIME)
    assert report.passed and report.counts == {"pass": 0, "fail": 0, "skip": 10}
    got = [(c["check"], c["parameters"], c["reason"]) for c in report.checks]
    assert got == [
        ("conjugate-escapes-lattice", {"cutoff": 1}, "needs at least 2 primes"),
        ("conjugate-fixes-high-blocks", {"cutoff": 1}, "needs at least 2 primes"),
        ("conjugate-escapes-lattice", {"cutoff": 2}, "needs at least 3 primes"),
        ("conjugate-fixes-high-blocks", {"cutoff": 2}, "needs at least 3 primes"),
        ("conjugate-escapes-lattice", {"cutoff": 3}, "needs at least 4 primes"),
        ("conjugate-fixes-high-blocks", {"cutoff": 3}, "needs at least 4 primes"),
        ("orthogonality-inequality", {"cutoff": 1}, "needs at least 3 primes"),
        ("expectation-projection", {"cutoff": 1}, "needs at least 3 primes"),
        ("orthogonality-inequality", {"cutoff": 2}, "needs at least 4 primes"),
        ("expectation-projection", {"cutoff": 2}, "needs at least 4 primes"),
    ]


def test_one_prime_xi_rows_that_run_match_the_report_without_skips():
    # the digest of the one-prime xi report from before its rows on
    # unconfigured blocks were recorded as skips
    report = run_suite("xi", ONE_PRIME)
    skipped = [c for c in report.checks if c.get("reason", "").startswith("needs at least")]
    assert [c["reason"] for c in skipped if c["parameters"]["n"] == 1] == ["needs at least 2 primes"] * 8
    ran = [c for c in report.checks if c not in skipped]
    assert [c["check"] for c in ran] == ["identity-overlap"] + ["violation-search"] * 3
    text = _stable(Report("xi", ONE_PRIME, ran, 0).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2882cd7975a9717b7158fafd8a918bcf204ab927644dc2468af50650f3acf4f4")


def test_one_prime_icc_and_orbits_rows_that_run_match_the_reports_before_the_rule():
    # the digests of the one-prime reports from before every table declared
    # all its rows: orbits left its multi-prime rows out, and icc skipped its
    # two block-1 panel entries with a reason of its own
    before = {
        "icc": "803560d3210f5841f1a106ef4f86a6d43efce62c2195613afae1fe896fa55230",
        "orbits": "7c47c077b603b347b9dc78f842c72aa713d42078b569d3c88cd9088ec665d89f",
    }
    for name, digest in before.items():
        checks = []
        for c in run_suite(name, ONE_PRIME).checks:
            if c.get("reason", "").startswith("needs at least"):
                if name == "orbits":
                    continue
                c = {**c, "reason": "block 1 not configured: " + c["reason"]}
            checks.append(c)
        text = _stable(Report(name, ONE_PRIME, checks, 0).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


_TOO_FEW = re.compile(r"needs at least (\d+) primes")


@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), None],
                         ids=["2", "2,3", "2,3,5", "default"])
@pytest.mark.parametrize("name", ["icc", "orbits", "fourier", "xi", "disjoint"])
def test_every_prime_count_lists_the_rows_of_the_default(name, primes):
    # a row that needs more primes than are configured is a skip, whose
    # parameters name no unconfigured prime; bound's windows follow the count
    config = SuiteConfig(primes=primes or PrimeSeq.default(), seed=1, samples=15, radius=1)
    default = [row[0] for row in suites._SUITES[name](SuiteConfig(radius=1))]
    checks = run_suite(name, config).checks
    assert [c["check"] for c in checks] == default
    configured = set(config.primes)
    for c in checks:
        params = c["parameters"]
        assert params.get("p") is None or params["p"] in configured
        assert set(params.get("primes") or ()) <= configured
        if "primes" in c.get("reason", ""):
            m = _TOO_FEW.fullmatch(c["reason"])
            assert m and int(m.group(1)) > len(config.primes), c["reason"]
    rows = [(c["check"], json.dumps(c["parameters"], sort_keys=True)) for c in checks]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("name, primes, runs", [
    ("xi", (2, 3, 5), 21), ("disjoint", (2, 3, 5), 6), ("fourier", (2, 3, 5), 15), ("orbits", (2,), 2),
], ids=["xi", "disjoint", "fourier", "orbits"])
def test_too_few_primes_skips_draw_nothing_from_the_sampler(monkeypatch, name, primes, runs):
    # the rows that run report the same without the skipped rows, and the
    # sampler's stream ends where it does without them
    made = []

    def sampler(*args):
        made.append(Sampler(*args))
        return made[-1]

    monkeypatch.setattr(suites, "Sampler", sampler)
    config = SuiteConfig(primes=primes, seed=1, samples=15)
    ran = [c for c in run_suite(name, config).checks
           if not _TOO_FEW.fullmatch(c.get("reason", ""))]
    kept = [(c["check"], c["parameters"]) for c in ran]
    table = suites._SUITES[name]
    monkeypatch.setitem(suites._SUITES, name,
                        lambda config: [row for row in table(config) if row[:2] in kept])
    alone = run_suite(name, config).checks
    assert len(ran) == runs and len(alone) == runs
    for c in ran + alone:
        del c["elapsed_s"]
    assert alone == ran
    assert made[0].rng.getstate() == made[1].rng.getstate()


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


def _dense_intertwiner(tower, g, n):
    """`check_intertwiner` before it compared the integer pairing: the float
    defect of every 64-column slice of the dense transform matrix."""
    p = tower.primes.p(n)
    F = transform_matrix(p)
    cols, rows = image_table(p, g), image_table(p, g.transpose())
    worst = 0.0
    for start in range(0, p**3, 64):
        part = slice(start, start + 64)
        defect = F[:, cols[part]] - F[rows, part]
        worst = max(worst, float(np.linalg.norm(defect, axis=0).max()))
    return worst


def test_fourier_report_same_with_the_dense_intertwiner(monkeypatch):
    # like the complex block path above, pinned within one run: the report
    # is unchanged with the float check over every column put back
    monkeypatch.setattr(suites, "check_intertwiner", _dense_intertwiner)
    dense = run_suite("fourier", SMALL).to_json()
    monkeypatch.undo()
    assert _stable(dense) == _stable(_small_report("fourier").to_json())


def test_wrong_relabel_fails_the_intertwining_rows(monkeypatch):
    # relabelling by g^-1 where g^T belongs must fail every intertwining
    # row, with the size of the dense defect
    monkeypatch.setattr(LambdaMatrix, "transpose", LambdaMatrix.inverse)
    rows = [c for c in run_suite("fourier", SMALL).checks if c["check"] == "intertwining"]
    assert [c["parameters"]["p"] for c in rows] == [2, 3, 5, 7]
    tower = Tower(SMALL.primes)
    for c in rows:
        n = c["parameters"]["n"]
        dense = max(_dense_intertwiner(tower, g, n) for g in ELEMENTARY_GENERATORS)
        assert c["outcome"] == "fail"
        assert c["max_deviation"] == dense > 1e-2


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
    for suite in ("orbits", "fourier", "xi"):
        report = run_suite(suite, guarded)
        assert report.passed  # skips never fail a run
        assert report.counts["skip"] >= 1
        reasons = [c["reason"] for c in report.checks if c["outcome"] == "skip"]
        assert all("guard" in r for r in reasons)


def test_growing_rows_skip_before_the_guard_in_words():
    # growth charges WORD_ENTRIES per reachable word before each radius, so
    # under a guard G a growing row conjugates at most G / WORD_ENTRIES
    # words before its skip: 312,500 at the default guard, shown here at a
    # guard of 2,000 words, where each row trips within a few radii
    assert DEFAULT_SIZE_GUARD // WORD_ENTRIES == 312_500
    words = 2000
    for region, text, _ in suites._GROWTH_PANEL:
        if region == "lattice":  # lattice profiles saturate
            continue
        tower = Tower(PrimeSeq.default())
        conj, made = tower.conj, []
        tower.conj = lambda w, g: made.append(w) or conj(w, g)
        with pytest.raises(SizeGuardExceeded, match="may hold"):
            tower.conjugate_growth_profile(parse_element(tower, text), 40,
                                           size_guard=WORD_ENTRIES * words)
        assert 0 < len(made) < words, text


def test_xi_rows_under_the_guard_keep_the_suite_tower_under_it():
    # the rows that build block n (`xi`) declare WORD_ENTRIES * p_n^3, and the
    # suite's one tower keeps one block at a time, so rows that each fit the
    # guard never make the tower hold more, however many blocks the suite
    # visits; `block_stabilized` builds none, so block 4 (11^3) never is.
    # The guard admits exactly the largest row, the level-3 violation search:
    # 36 letters and their 36^2 products, one word more than block 4's 11^3
    config = SuiteConfig(primes=PrimeSeq.parse("7,5,3,2,11"), samples=5,
                         size_guard=WORD_ENTRIES * 36 * 37)
    block, held = Tower.block, []

    def spy(self, n):
        out = block(self, n)
        held.append(sum(map(len, self._block_cache.values())))
        return out

    with mock.patch.object(Tower, "block", spy):
        report = run_suite("xi", config)
    assert report.passed
    assert not [c for c in report.checks if "guard" in c.get("reason", "")]
    assert set(held) == {7**3, 5**3, 3**3, 2**3}
    assert 11**3 not in held
    assert WORD_ENTRIES * max(held) <= config.size_guard


def test_orbits_suite_keeps_no_block_table_after_it_returns():
    # block 0 mod 47 has 103,823 points: the rows' image tables are built
    # per call above p = 11, so nothing of the block stays resident
    config = SuiteConfig(primes=PrimeSeq.parse("47"))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run_suite("orbits", config).passed
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert kept < 1 << 20, kept


def test_orbits_rows_at_two_primes_peak_under_50_mb():
    # blocks (0, 1) at 47,2,3 are 830,584 points, and the three-prime rows
    # skip at the guard: the orbit partition holds one generator's image
    # table at a time, so its row peaks where the dimension's row does
    # (47.4 MB; 101.5 MB while all twelve tables were held at once)
    config = SuiteConfig(primes=PrimeSeq.parse("47,2,3"))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = run_suite("orbits", config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    rows = [c for c in report.checks if c["parameters"]["primes"] == [47, 2]]
    assert [c["check"] for c in rows] == ["diagonal-orbit-blocks", "fixed-point-dimension"]
    assert all(c["outcome"] == "pass" for c in rows)
    assert peak < 50_000_000, peak


def test_run_all_returns_report_per_suite():
    reports = run_all(TINY)
    assert tuple(reports) == SUITE_NAMES
    assert all(isinstance(r, Report) for r in reports.values())
    assert all(r.passed for r in reports.values())
