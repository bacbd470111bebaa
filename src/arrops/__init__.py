"""arrops: exact free bases and exponents for arrangement operator modules.

A central hyperplane arrangement in 2 or 3 variables determines, for every
order m, a module of differential operators preserving the ideal of the
defining polynomial.  This package constructs explicit free bases of those
modules for 3-arrangements at order m >= n - 2 (and for all orders in the
rank <= 2 case), certifies them with exact determinant certificates,
computes the exponent multisets in closed form from the rank-2 flats, and
cross-checks everything against an independent exact dimension oracle.

All arithmetic is exact over the rationals; all iteration orders are
deterministic, so identical inputs give byte-identical outputs.
"""

from .arrangement import Arrangement, Hyperplane, parse_arrangement
from .diffop import DiffOp
from .errors import ArropsError
from .exponents import ExponentMultiset, exp_2arr, exp_3arr_closed, exp_for_arrangement
from .extension import ExtendedArrangement, extend, flat_profiles, generic_hyperplane
from .flats import Flat1
from .freebasis import DualPair, FreeBasis, basis_3arr, basis_nonessential, build_basis, dual_pair
from .linalg import det_poly_matrix
from .polynomial import Poly
from .verify import OracleReport, SaitoCertificate, check_identities, hilbert_check, is_member, oracle_dim, oracle_dims, saito_check

__all__ = [
    "Arrangement",
    "ArropsError",
    "DiffOp",
    "DualPair",
    "ExponentMultiset",
    "ExtendedArrangement",
    "Flat1",
    "FreeBasis",
    "Hyperplane",
    "OracleReport",
    "Poly",
    "SaitoCertificate",
    "basis_3arr",
    "basis_nonessential",
    "build_basis",
    "check_identities",
    "det_poly_matrix",
    "dual_pair",
    "exp_2arr",
    "exp_3arr_closed",
    "exp_for_arrangement",
    "extend",
    "flat_profiles",
    "generic_hyperplane",
    "hilbert_check",
    "is_member",
    "oracle_dim",
    "oracle_dims",
    "parse_arrangement",
    "saito_check",
]

__version__ = "0.1.0"
