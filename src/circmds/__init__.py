"""Circulant matrix analysis over GF(2^m).

Decides MDS, involutory, orthogonal, semi-involutory and semi-orthogonal
properties of matrices over binary extension fields, recovers the diagonal
pairs behind the semi-properties, and verifies the trace relations between
those diagonals and the MDS property by exhaustive and seeded-random scans.
"""

from .circulant import build, interleaved_sums, is_circulant, is_singular_row
from .field import GF2m, get_field
from .matgf import det, diag_trace, identity, inverse, mat_mul, sandwich, submatrix, transpose
from .props import (
    Classification,
    DiagonalPair,
    MdsVerdict,
    Properties,
    circulant_semi_pair,
    classify,
    diagonal_scaling_solve,
    is_involutory,
    is_mds,
    is_nonperiodic,
    is_orthogonal,
    power_scalar,
)
from .verify import (
    ScanConfig,
    ScanReport,
    run_suite,
    verification_plan,
    verify_example,
)

__version__ = "0.1.0"

__all__ = [
    "GF2m", "get_field",
    "build", "is_circulant", "interleaved_sums", "is_singular_row",
    "mat_mul", "transpose", "identity", "inverse", "det", "submatrix",
    "diag_trace", "sandwich",
    "MdsVerdict", "DiagonalPair", "Classification", "Properties",
    "is_mds", "is_involutory", "is_orthogonal",
    "diagonal_scaling_solve", "circulant_semi_pair",
    "power_scalar", "is_nonperiodic", "classify",
    "ScanConfig", "ScanReport", "run_suite", "verify_example", "verification_plan",
]
