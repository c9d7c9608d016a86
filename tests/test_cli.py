"""Command line interface: element arithmetic and verification runs."""
from __future__ import annotations

import json
import re

import pytest

from amalgam import cli, suites
from amalgam.cli import main
from amalgam.suites import SUITE_NAMES
from amalgam.words import Tower
from timelimit import run_bounded, time_limit

_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def _stable(text: str) -> str:
    return _ELAPSED.sub('"elapsed_s": 0', text)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_elem_reduce(capsys):
    code, out, _ = run(capsys, "elem", "reduce", "t(1) * h(0;1,0,0) * t(1)^-1")
    assert code == 0
    assert out.strip() == "h(0;1,0,0)"


def test_elem_reduce_identity(capsys):
    code, out, _ = run(capsys, "elem", "reduce", "h(0;1,0,0)^2")
    assert code == 0
    assert out.strip() == "e"


def test_elem_mul_and_inv(capsys):
    code, out, _ = run(capsys, "elem", "mul", "h(1;1,0,0)", "h(1;2,1,0)")
    assert code == 0
    assert out.strip() == "h(1;0,1,0)"
    code, out, _ = run(capsys, "elem", "inv", "h(1;1,2,0)")
    assert code == 0
    assert out.strip() == "h(1;2,1,0)"


def test_elem_conj(capsys):
    # conj g by h computes h g h^-1; the matrix sends e0 to e0 + e1
    code, out, _ = run(capsys, "elem", "conj", "h(1;1,0,0)", "L[1,0,0;1,1,0;0,0,1]")
    assert code == 0
    assert out.strip() == "h(1;1,1,0)"


def test_elem_member(capsys):
    code, out, _ = run(capsys, "elem", "member", "h(1;1,0,0)", "K1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "elem", "member", "h(1;1,0,0)", "K2")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "elem", "member", "t(2)", "G1")
    assert code == 0 and out.strip() == "false"


def test_primes_flag_positions(capsys):
    before = run(capsys, "--primes", "2,3", "elem", "reduce", "h(1;1,1,1)")
    after = run(capsys, "elem", "reduce", "--primes", "2,3", "h(1;1,1,1)")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]


def test_bad_grammar_exits_2(capsys):
    code, _, err = run(capsys, "elem", "reduce", "h(0;1,2)")
    assert code == 2
    assert "error:" in err


def test_oversized_power_exits_2(capsys):
    for exponent in ("20000", "100000000"):
        code, out, err = run(capsys, "elem", "reduce", f"L[2,1,0;1,1,0;0,0,1]^{exponent}")
        assert code == 2 and out == ""
        assert "element too large" in err


def test_integer_past_the_digit_limit_exits_2(capsys, default_digit_limit):
    code, out, err = run(capsys, "elem", "reduce", "t(" + "1" * (default_digit_limit + 700) + ")")
    assert code == 2 and out == ""
    assert err == "error: integer has too many digits (at offset 2)\n"


def test_bad_primes_exit_2(capsys):
    code, _, err = run(capsys, "elem", "reduce", "--primes", "2,4", "e")
    assert code == 2
    assert "not prime" in err


def test_unconfigured_block_exits_2(capsys):
    code, _, err = run(capsys, "elem", "reduce", "--primes", "2,3", "h(5;1,0,0)")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("elem", "reduce", "h(16;1,0,0)"),
        ("elem", "mul", "h(2;1,0,0)", "h(3;1,0,0)", "--primes", "2,3,5"),
    ],
)
def test_unconfigured_index_is_refused_when_read(capsys, argv):
    # vector arithmetic trusts its indices, so the parser must check them
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "not configured" in err


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "bound", "--primes", "2,3,5", "--samples", "25"
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS:")
    assert "[PASS] bound:" in out


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_runs_on_one_prime(capsys, suite):
    # icc used to draw block 1 in the sampler and build h(1;...) in its panel
    code, out, err = run(capsys, "verify", suite, "--primes", "2", "--samples", "20")
    assert code == 0, err
    assert out.splitlines()[-1].startswith("PASS:")
    # every row that needs more primes is a skip that says how many
    too_few = [line for line in out.splitlines() if line.startswith("[SKIP]") and "prime" in line]
    for line in too_few:
        k = re.fullmatch(r"\[SKIP\] \S+  \(needs at least (\d+) primes\)", line)
        assert k and int(k.group(1)) > 1, line
    assert bool(too_few) == (suite != "bound")


def test_verify_bad_tolerance_exits_2(capsys):
    code, _, err = run(capsys, "verify", "bound", "--tolerance", "-1")
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_verify_non_finite_tolerance_exits_2(capsys, tolerance):
    # nan compares false with every deviation (every float check failed,
    # exit 1) and inf passed every one: neither is a tolerance
    code, out, err = run(capsys, "verify", "fourier", "--primes", "2,3", "--tolerance", tolerance)
    assert code == 2
    assert "tolerance must be finite" in err
    assert out == ""


def test_verify_impossible_tolerance_exits_1(capsys):
    code, out, _ = run(
        capsys, "verify", "fourier", "--primes", "2,3", "--tolerance", "1e-30",
        "--samples", "10",
    )
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL:")
    assert "[FAIL]" in out


def test_verify_writes_single_report(capsys, tmp_path):
    out_file = tmp_path / "bound.json"
    code, _, _ = run(
        capsys, "verify", "bound", "--primes", "2,3,5", "--samples", "25",
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["suite"] == "bound"
    assert payload["passed"] is True


def test_verify_all_writes_one_file_per_suite(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys, "verify", "all", "--primes", "2,3", "--samples", "15",
        "--level", "2", "--out", str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert names == ["bound.json", "disjoint.json", "fourier.json", "icc.json", "orbits.json", "xi.json"]
    assert out.splitlines()[-1].startswith("PASS:")


@pytest.mark.parametrize("suite, destination", [
    ("all", "taken"), ("bound", "taken/bound.json"),
], ids=["all", "bound"])
def test_unusable_out_exits_2_before_any_suite_runs(capsys, monkeypatch, tmp_path, suite,
                                                    destination):
    # an existing file cannot be the reports' directory, nor their parent
    (tmp_path / "taken").write_text("")
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, config: ran.append(name))
    code, out, err = run(capsys, "verify", suite, "--primes", "2",
                         "--out", str(tmp_path / destination))
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ")


def test_large_growth_radius_skips_the_rows_past_the_size_guard(capsys, tmp_path):
    # a short input may not ask for hours: each conjugate-growth row that
    # would pass the guard is a skip, and the saturating lattice rows pass
    out_file = tmp_path / "icc.json"
    with time_limit(30.0):
        code, out, _ = run(
            capsys, "verify", "icc", "--radius", "40", "--size-guard", "320000",
            "--out", str(out_file),
        )
    assert code == 0
    assert out.splitlines()[-1] == "PASS: 6 passed, 0 failed, 9 skipped"
    growth = [c for c in json.loads(out_file.read_text())["checks"]
              if c["check"] == "conjugate-growth"]
    assert len(growth) == len(suites._GROWTH_PANEL)
    for c in growth:
        if c["parameters"]["region"] == "lattice":
            assert c["outcome"] == "pass" and len(c["profile"]) == 41
            assert c["profile"][-1] == c["profile"][-2]
        else:
            assert c["outcome"] == "skip"
            assert re.fullmatch(r"conjugates to radius \d+ may hold \d+ entries, "
                                r"above the guard of 320000", c["reason"])


@pytest.mark.parametrize("args, guarded", [
    (("xi", "--primes", "211,3,5,7,11", "--samples", "5"), 1),
    (("fourier", "--primes", "23"), 5),
    (("xi", "--primes", "2,3,211", "--samples", "5"), 1),
], ids=["xi", "fourier", "xi-third"])
def test_large_first_prime_runs_inside_two_gib(args, guarded):
    # a block mod 211 has 9.4M words and mod 23 a 148M-entry table: the
    # rows that build them are skips at the default guard, before anything
    # is built, and every other row runs (the other xi rows hold only their
    # conjugators, so only identity-overlap skips)
    result = run_bounded(("verify", *args), seconds=120, address_space=2 << 30)
    assert result.returncode == 0, result.stderr
    over = re.findall(r"\[SKIP\] .*\(holds \d+ entries, above the guard of 10000000\)",
                      result.stdout)
    assert len(over) == guarded
    assert result.stdout.splitlines()[-1].startswith("PASS:")


def test_orbits_at_a_large_first_prime_runs_inside_384_mib():
    # block 0 mod 101 has 1.03M points: each row builds its image tables
    # per call, and no row keeps a table or a decoded block for the next
    result = run_bounded(("verify", "orbits", "--primes", "101"), seconds=120,
                         address_space=384 << 20)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("PASS:")


def test_verify_reports_deterministic(capsys, tmp_path):
    args = (
        "verify", "all", "--primes", "2,3", "--samples", "15", "--level", "2",
        "--seed", "9",
    )
    first = run(capsys, *args, "--out", str(tmp_path / "a"))
    second = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert first[0] == second[0] == 0
    assert _stable(first[1]) == _stable(second[1])
    for name in ("icc", "orbits", "fourier", "xi", "disjoint", "bound"):
        a = (tmp_path / "a" / f"{name}.json").read_text()
        b = (tmp_path / "b" / f"{name}.json").read_text()
        assert _stable(a) == _stable(b), name


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_verify_bad_primes_exit_2(capsys):
    code, _, err = run(capsys, "verify", "bound", "--primes", "2,4")
    assert code == 2
    assert "not prime" in err


def test_error_inside_a_check_fails_that_check_and_exits_1(capsys, monkeypatch, tmp_path):
    # an internal IndexError is not bad input: the check fails, the run goes on
    def broken(*args, **kwargs):
        raise IndexError("prime index 7 not configured")

    monkeypatch.setattr(suites, "tail_remainder_bound", broken)
    out_file = tmp_path / "bound.json"
    code, out, err = run(
        capsys, "verify", "bound", "--primes", "2,3,5", "--samples", "5", "--out", str(out_file)
    )
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL:")
    assert "[FAIL] bound:truncated-trace-product  (IndexError: prime index 7" in out
    assert "Traceback" in err
    checks = json.loads(out_file.read_text())["checks"]
    broken_checks = [c for c in checks if c["check"] == "truncated-trace-product"]
    assert broken_checks
    for c in broken_checks:
        assert c["outcome"] == "fail"
        assert c["error"] == "IndexError: prime index 7 not configured"
    assert [c["outcome"] for c in checks if c not in broken_checks] == ["pass", "pass"]


def test_error_while_computing_an_element_is_not_bad_input(monkeypatch):
    # parsing succeeded, so an IndexError from the arithmetic is a fault to
    # surface, not exit code 2
    def broken(self, g, h):
        raise IndexError("prime index 7 not configured")

    monkeypatch.setattr(Tower, "conj", broken)
    with pytest.raises(IndexError, match="prime index 7"):
        main(["elem", "conj", "h(1;1,0,0)", "L[1,0,0;1,1,0;0,0,1]"])
