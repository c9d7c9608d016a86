"""The package surface: its public names, and the demos that use them."""
from __future__ import annotations

import os
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
    "L2Vector",
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
