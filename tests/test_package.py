"""The package surface: its public names, and the demos that use them."""
from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import amalgam

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Frozen public API.  A name leaves or joins it only on purpose, with a
# CHANGES.md line saying so.
PUBLIC_NAMES = [
    "DEFAULT_SIZE_GUARD",
    "DeviationReport",
    "ELEMENTARY_GENERATORS",
    "ElementSyntaxError",
    "G0Element",
    "GroupAlgebraElement",
    "GroupWord",
    "IDENTITY_MATRIX",
    "InvarianceDomainError",
    "KVector",
    "LambdaMatrix",
    "OrbitPartition",
    "OrthogonalityReport",
    "PrimeSeq",
    "Report",
    "SUITE_NAMES",
    "Sampler",
    "SizeGuardExceeded",
    "SuiteConfig",
    "Tower",
    "UnconfiguredPrimeError",
    "adjoint_apply",
    "atom_mass",
    "atom_points",
    "block_stabilized",
    "check_intertwiner",
    "check_xi_invariance",
    "conditional_expectation",
    "delta",
    "deviation_bound_check",
    "diagonal_orbits",
    "elementary",
    "epsilon_defect",
    "fixed_point_dimension",
    "format_element",
    "fourier",
    "inverse_fourier",
    "orthogonality_inequality_check",
    "parse_element",
    "partitions_agree",
    "projection_en",
    "run_all",
    "run_suite",
    "search_invariance_violation",
    "tail_remainder_bound",
    "tail_trace",
    "xi",
    "xi_overlap_squared",
    "zero_pattern_partition",
]


def test_public_api_frozen():
    assert sorted(amalgam.__all__) == PUBLIC_NAMES
    assert all(hasattr(amalgam, name) for name in PUBLIC_NAMES)


def test_module_level_caches_are_bounded():
    # an unbounded per-prime cache keeps every block a process has seen;
    # generator balls are keyed by radius, not by prime
    caches = {}
    for info in pkgutil.iter_modules(amalgam.__path__):
        module = importlib.import_module(f"amalgam.{info.name}")
        for attr, obj in vars(module).items():
            # each cache once, in the module that defines it
            if (callable(getattr(obj, "cache_parameters", None))
                    and obj.__module__ == module.__name__):
                caches[f"{info.name}.{attr}"] = obj.cache_parameters()["maxsize"]
    unbounded = sorted(name for name, size in caches.items() if size is None)
    assert unbounded == ["matrices.generator_ball"]
    assert "semidirect._cached_image_table" in caches  # the walk finds the caches


# README's `amalgam elem` requests and their answers
README_ELEM = (
    (["elem", "reduce", "t(1) * h(0;1,0,0) * t(1)^-1"], "h(0;1,0,0)"),
    (["elem", "mul", "h(1;1,0,0)", "h(1;2,1,0)"], "h(1;0,1,0)"),
    (["elem", "inv", "h(1;1,2,0)"], "h(1;2,1,0)"),
    (["elem", "conj", "h(1;1,0,0)", "L[1,0,0;1,1,0;0,0,1]"], "h(1;1,1,0)"),
    (["elem", "member", "t(2)", "G1"], "false"),
)

COLD_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import amalgam
from amalgam import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(args) for args in json.loads(sys.argv[2])]
config = amalgam.SuiteConfig(primes="2,3", samples=2)
passed = [amalgam.run_suite(name, config).passed for name in ("icc", "xi", "disjoint", "bound")]
cold = "numpy" in sys.modules
tower = amalgam.Tower(config.primes)
dimension = amalgam.fixed_point_dimension(config.primes, (0, 1))
delta = amalgam.fourier(tower, 0, [1] + [0] * 7)
coefficients = sorted(map(str, delta.coeffs.values()))
print(json.dumps([codes, out.getvalue().splitlines(), passed, cold,
                  dimension, delta.support_size, coefficients, "numpy" in sys.modules]))
"""


def test_element_work_never_loads_numpy():
    # numpy serves only block computations; a fresh interpreter doing
    # README's elem requests and the suites without blocks never loads it
    requests = json.dumps([args for args, _ in README_ELEM])
    result = subprocess.run([sys.executable, "-I", "-c", COLD_PROBE, str(ROOT / "src"), requests],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    codes, lines, passed, cold, dimension, support, coefficients, warm = json.loads(result.stdout)
    assert codes == [0] * len(README_ELEM)
    assert lines == [answer for _, answer in README_ELEM]
    assert passed == [True] * 4
    assert cold is False
    # the block layer loads it on first use, with the answers it always gave
    assert (dimension, support, set(coefficients)) == (4, 8, {"(0.125+0j)"})
    assert warm is True


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
