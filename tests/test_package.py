"""The package surface: its public names, and the demos that use them."""
from __future__ import annotations

import importlib
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
