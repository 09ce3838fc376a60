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
    dominative_body,
    dominative_weights,
    generator_aperture_lower_bound,
    minimal_bound_check,
    perc_weights,
    pucci_body,
)
from .cones import (
    ConeSample,
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
    RadialProfile,
    example_radial_check,
    example_radial_profile,
    operator_aperture,
    radial_hessian_eigs,
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
    check_nesting,
    closed_form_distance,
    eval_dominative,
    eval_example,
    eval_pucci,
    eval_support,
    spec_from_dict,
    spec_to_dict,
    sublevel_member,
)
from .symmat import (
    InvertibleMap,
    SymMatrix,
    congruence,
    eigh_sym,
    eigvals_sym,
    inf_norm,
    inner,
    loewner_leq,
    one_norm,
)

__version__ = "0.1.0"
