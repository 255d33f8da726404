"""Diagonal factors of Cartan-embedded symmetric-space points.

For the five classical compact families, this package builds tangent
matrices from free coordinates, pushes them through the Cayley map, and
computes the diagonal term of the unpivoted LDU factorization by several
independent routes that cross check each other.  It also enumerates the
sign-vector representatives of the connected components of the generic
stratum and drives the scaling limits that exhibit them.
"""

from .bruhat import (
    DiagonalReport,
    Draw,
    LDUFactorization,
    NonGenericError,
    check_draw,
    cross_check,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_fredholm,
    diagonal_via_gauss,
    diagonal_via_minors,
    ldu,
    max_cross_gap,
)
from .cayley import cayley, verify_image
from .components import (
    ComponentRep,
    LimitReport,
    construct_witness,
    enumerate_components,
    limit_check,
)
from .linalg import (
    ExpansionLimitError,
    antitranspose,
    matrix_from_json,
    matrix_to_json,
)
from .repcompat import (
    conjugator,
    symplectic_conjugator,
    verify_conjugacy,
)
from .spaces import (
    Coordinates,
    SpaceSpec,
    ViolationReport,
    aiii,
    bdi,
    build_tangent,
    ci,
    cii,
    coordinates_from_json,
    coordinates_to_json,
    diii,
    involution_apply,
    involution_matrix,
    layout,
    random_coordinates,
    validate_tangent,
    zero_coordinates,
)

__version__ = "0.1.0"
