"""Exact analysis of polynomial mappings of complex affine space.

The package decides, at desk scale (n <= 3, modest degrees), the questions
one asks about a candidate polynomial automorphism: is the Jacobian
determinant a nonzero constant, what is the geometric degree, where does the
map fail to be proper, which curves witness asymptotic critical values, and
which certificates (global inversion, hyperplane clearance) follow.

Symbolic layers run over exact Gaussian-rational coefficients; floating
point enters only in root finding, Newton refinement, and singular values.
"""

from .scalar import GaussianRational
from .poly import LaurentPoly, Polynomial
from .parser import ParseError, parse_laurent, parse_path, parse_polynomial
from .polymap import (
    NonsingularityVerdict,
    PolyMap,
    PolyMatrix,
    load_map_file,
    parse_map_text,
    verify_inverse,
)
from .elimination import (
    eliminate,
    exact_div,
    gcd_poly,
    normalized,
    poly_matrix_det,
    resultant,
    squarefree_part,
)
from .numlin import RootSet, smallest_singular_value, univariate_roots
from .solver import (
    DegreeEstimate,
    FiberSolution,
    PositiveDimensionalFiberError,
    bezout_bound,
    fiber_count,
    geometric_degree,
    solve_fiber,
)
from .nonproper import (
    Certificate,
    ClearanceVerdict,
    Hypersurface,
    automorphism_from_empty_locus,
    fiber_count_diagnostic,
    hyperplane_clearance,
    is_cylinder,
    nonproperness_set,
    target_variables,
)
from .rabier import (
    ImageLimit,
    LaurentPath,
    RabierWitness,
    Rejection,
    check_rabier_witness,
    image_limit,
    path_diverges,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Polynomial",
    "LaurentPoly",
    "ParseError",
    "parse_polynomial",
    "parse_laurent",
    "parse_path",
    "PolyMap",
    "PolyMatrix",
    "NonsingularityVerdict",
    "parse_map_text",
    "load_map_file",
    "verify_inverse",
    "eliminate",
    "exact_div",
    "gcd_poly",
    "normalized",
    "poly_matrix_det",
    "resultant",
    "squarefree_part",
    "RootSet",
    "smallest_singular_value",
    "univariate_roots",
    "DegreeEstimate",
    "FiberSolution",
    "PositiveDimensionalFiberError",
    "bezout_bound",
    "fiber_count",
    "geometric_degree",
    "solve_fiber",
    "Certificate",
    "ClearanceVerdict",
    "Hypersurface",
    "automorphism_from_empty_locus",
    "fiber_count_diagnostic",
    "hyperplane_clearance",
    "is_cylinder",
    "nonproperness_set",
    "target_variables",
    "ImageLimit",
    "LaurentPath",
    "RabierWitness",
    "Rejection",
    "check_rabier_witness",
    "image_limit",
    "path_diverges",
    "__version__",
]
