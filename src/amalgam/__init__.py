"""Exact arithmetic in an inductive tower of amalgamated products.

The base group is a restricted direct sum of mod-p coordinate blocks
acted on by integer matrices of determinant one; each next level glues
in a new commuting letter along the high-index part of the lattice.
Everything downstream — orbit enumeration, block Fourier duality,
invariant witness vectors, trace products, and deviation bounds — is
verified with exact arithmetic wherever the identities are exact.
"""
from __future__ import annotations

from .fourier import (
    GroupAlgebraElement,
    check_intertwiner,
    fourier,
    inverse_fourier,
    projection_en,
)
from .grammar import ElementSyntaxError, UnconfiguredPrimeError, format_element, parse_element
from .matrices import ELEMENTARY_GENERATORS, IDENTITY_MATRIX, LambdaMatrix, elementary
from .orbits import (
    DEFAULT_SIZE_GUARD,
    OrbitPartition,
    SizeGuardExceeded,
    diagonal_orbits,
    fixed_point_dimension,
    partitions_agree,
    zero_pattern_partition,
)
from .primes import PrimeSeq
from .sampling import Sampler
from .semidirect import G0Element, KVector
from .suites import SUITE_NAMES, Report, SuiteConfig, run_all, run_suite
from .tailbound import (
    DeviationReport,
    atom_mass,
    atom_points,
    deviation_bound_check,
    epsilon_defect,
    tail_remainder_bound,
    tail_trace,
)
from .witness import (
    InvarianceDomainError,
    L2Vector,
    OrthogonalityReport,
    adjoint_apply,
    block_stabilized,
    check_xi_invariance,
    conditional_expectation,
    delta,
    orthogonality_inequality_check,
    search_invariance_violation,
    xi,
    xi_overlap_squared,
)
from .words import GroupWord, Tower

__version__ = "0.1.0"

__all__ = [
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
