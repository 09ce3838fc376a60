"""Spectral geometry of elliptic operators on symmetric matrices.

Library surface: the symmetric-matrix kernel, a catalog of spectrally
defined operators with sublevel-set membership, convex bodies with body
cone apertures and the dominative minimality bound, signed distances to
elliptic sets, asymptotic-cone inclusion tests, and radial fundamental
solutions with Sobolev-threshold verification.

``import domcone`` loads no submodule: each public name (and each
submodule) is imported on first access, through the module-level
``__getattr__`` of PEP 562, so a command pays only for the modules it
uses.
"""

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "acdo": (
        "AcdoRoot",
        "EllipticSetOracle",
        "acdo_eval",
        "acdo_root",
        "acdo_roots",
        "check_downward_closure",
        "check_lipschitz",
        "check_nondegeneracy",
        "check_structure",
        "oracle_from_operator",
    ),
    "aperture": (
        "ApertureResult",
        "ConvexBody",
        "PermutationDecomposition",
        "body_cone_aperture",
        "bound_certificate",
        "dominative_body",
        "dominative_weights",
        "minimal_bound_check",
        "perc_weights",
        "pucci_body",
    ),
    "cones": (
        "InclusionReport",
        "boundary_sample",
        "check_inclusion",
        "conjugate_oracle",
    ),
    "errors": (
        "ApertureInconsistencyError",
        "DimensionMismatchError",
        "DomconeError",
        "InputError",
        "InvalidBodyError",
        "InvalidMatrixError",
        "NonProperSetError",
        "NumericalFailureError",
        "PreconditionError",
    ),
    "fundsol": (
        "FundamentalSolution",
        "example_radial_check",
        "sobolev_diverges",
        "sobolev_integral",
        "sobolev_integral_quadrature",
        "surface_measure",
        "verify_annihilation",
        "viscosity_grid_check",
        "w_gradient",
        "w_hessian",
        "w_value",
    ),
    "operators": (
        "Conjugated",
        "DominativeP",
        "EnsembleSupport",
        "EvalResult",
        "ExampleEq",
        "LinearTrace",
        "OperatorSpec",
        "Pucci",
        "Shifted",
        "eval_dominative",
        "eval_example",
        "eval_pucci",
        "eval_support",
        "spec_from_dict",
        "spec_to_dict",
    ),
    "rules": ("StructureFlags", "sobolev_threshold"),
    "symmat": (
        "InvertibleMap",
        "SymMatrix",
        "congruence",
        "eigh_sym",
        "eigvals_sym",
        "inf_norm",
        "inner",
    ),
}

_SUBMODULES = frozenset(_EXPORTS) | {"cli", "sampling", "suite"}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def _submodule(name: str):
    # The import statement's machinery, not importlib.import_module, which
    # -X importtime does not time: each lazily loaded module keeps its line.
    return getattr(__import__(f"{__name__}.{name}"), name)


def __getattr__(name):
    # Not cached: the name always reads the defining module's current object.
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
