"""Spectral geometry of elliptic operators on symmetric matrices.

Library surface: the symmetric-matrix kernel, a catalog of spectrally
defined operators with sublevel-set membership, convex bodies with body
cone apertures and the dominative minimality bound, signed distances to
elliptic sets, asymptotic-cone inclusion tests, and radial fundamental
solutions with Sobolev-threshold verification.
"""

from .acdo import (
    AcdoRoot,
    EllipticSetOracle,
    StructureFlags,
    acdo_eval,
    acdo_root,
    acdo_roots,
    check_downward_closure,
    check_lipschitz,
    check_nondegeneracy,
    check_structure,
    oracle_from_operator,
)
from .aperture import (
    ApertureResult,
    ConvexBody,
    PermutationDecomposition,
    body_cone_aperture,
    bound_certificate,
    dominative_body,
    dominative_weights,
    minimal_bound_check,
    perc_weights,
    pucci_body,
)
from .cones import (
    InclusionReport,
    boundary_sample,
    check_inclusion,
    conjugate_oracle,
)
from .errors import (
    ApertureInconsistencyError,
    DimensionMismatchError,
    DomconeError,
    InputError,
    InvalidBodyError,
    InvalidMatrixError,
    NonProperSetError,
    NumericalFailureError,
    PreconditionError,
)
from .fundsol import (
    FundamentalSolution,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    sobolev_threshold,
    surface_measure,
    verify_annihilation,
    viscosity_grid_check,
    w_gradient,
    w_hessian,
    w_value,
)
from .operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    EvalResult,
    ExampleEq,
    LinearTrace,
    OperatorSpec,
    Pucci,
    Shifted,
    closed_form_distance,
    eval_dominative,
    eval_example,
    eval_pucci,
    eval_support,
    spec_from_dict,
    spec_to_dict,
)
from .symmat import (
    InvertibleMap,
    SymMatrix,
    congruence,
    eigh_sym,
    eigvals_sym,
    inf_norm,
    inner,
)

__version__ = "0.1.0"
