"""Exact construction and verification of serendipity elements on cubes.

The package builds, for any dimension n and degree r within practical
bounds, the serendipity polynomial space on [-1, 1]^n together with its
face-moment degrees of freedom, proves unisolvence by an exact
certificate on the pairing of DOFs with face bubbles (the paper's
proof), constructs the nodal basis, splits the space into
bubble-function components attached to the faces of the cube, and
demonstrates inter-element continuity on a two-element patch.  The
tensor-product space of the same degree is available for comparison.
All core arithmetic uses exact rationals; floats appear only in the
optional sampling exports.
"""

from .exactpoly import Polynomial, superlinear_degree
from .cubegeom import (
    Face,
    all_faces,
    enumerate_faces,
    full_cube,
    restrict_to_face,
)
from .spaces import (
    SpaceBasis,
    basis_P,
    basis_Q,
    basis_S,
    check_inclusions,
    dim_P,
    dim_Q,
    dim_S_formula,
)
from .dofs import (
    DofFunctional,
    SingularMatrixError,
    check_unisolvence,
    dof_layout,
    dofs_Q,
    dofs_S,
    nodal_basis,
)
from .decomp import (
    FaceComponent,
    bubble,
    decompose,
    facet_kernel_check,
    recompose,
    verify_direct_sum,
)
from .assembly import (
    ContinuityReport,
    ElementPair,
    check_continuity,
    interpolate,
    shared_dof_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "superlinear_degree",
    "Face",
    "all_faces",
    "enumerate_faces",
    "full_cube",
    "restrict_to_face",
    "SpaceBasis",
    "basis_P",
    "basis_Q",
    "basis_S",
    "check_inclusions",
    "dim_P",
    "dim_Q",
    "dim_S_formula",
    "DofFunctional",
    "SingularMatrixError",
    "check_unisolvence",
    "dof_layout",
    "dofs_Q",
    "dofs_S",
    "nodal_basis",
    "FaceComponent",
    "bubble",
    "decompose",
    "facet_kernel_check",
    "recompose",
    "verify_direct_sum",
    "ContinuityReport",
    "ElementPair",
    "check_continuity",
    "interpolate",
    "shared_dof_pairs",
    "__version__",
]
