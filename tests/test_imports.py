"""What each entry point loads, and the package's lazy public namespace.

``import domcone`` loads no submodule, and each CLI command imports only
the modules its handler uses, so a one-shot command does not pay for the
rest.  Each footprint is taken in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import domcone

SRC = os.path.dirname(os.path.dirname(domcone.__file__))

#: The modules ``import domcone.cli`` loads: its parser's defaults and input
#: rules come from ``rules``, its matrix arguments from ``symmat``.
_CLI = {"cli", "errors", "rules", "symmat"}

#: Modules no one-shot command but ``suite`` may load.
_LIGHT = {"numpy.polynomial", "scipy"}

_ACDO = {"acdo", "operators", "sampling"}

#: CLI command -> (its arguments, the domcone submodules it loads beyond
#: ``_CLI``); the command must exit 0.
COMMANDS = {
    "eval": (["--op", "dominative:n=2,p=3", "--X", "tests/data/example_below_edge.json"], {"operators"}),
    "aperture": (["--body", "dominative:n=3,p=inf"], {"aperture", "operators", "sampling"}),
    "acdo": (["--op", "pucci:n=2,lam=1,Lam=3", "--X", "tests/data/identity2.json"], _ACDO),
    "check-inclusion": (["--op", "dominative:n=2,p=3", "--p", "3", "--count", "5"], _ACDO | {"cones"}),
    "fundsol": (["--p", "3", "--at=1,2"], {"fundsol"}),
    "sobolev": (["--n", "3", "--p", "3", "--q", "2", "--eps", "0.01"], {"fundsol"}),
    "example": (["--c", "1"], {"fundsol", "operators"}),
    "verify": (["--op", "dominative:n=2,p=3", "--samples", "10"], _ACDO),
    "suite": (["--groups", "permutation_lemma"], _ACDO | {"aperture", "cones", "fundsol", "suite"}),
}

#: name -> (code run in a fresh process, the domcone submodules it loads,
#: other modules it must not load).
FOOTPRINTS = {
    "import domcone": ("import domcone", set(), {"numpy"}),
    "import domcone.rules": ("import domcone.rules", {"errors", "rules"}, _LIGHT),
    "import domcone.cli": ("import domcone.cli", _CLI, _LIGHT),
    **{
        f"cli {command}": (
            f"from domcone import cli; assert cli.main({[command, *argv]!r}) == 0",
            _CLI | modules,
            {"scipy"} if command == "suite" else _LIGHT,
        )
        for command, (argv, modules) in COMMANDS.items()
    },
}

_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    {code}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code)],
        cwd=os.path.dirname(SRC),
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("name", list(FOOTPRINTS))
def test_an_entry_point_loads_only_its_modules(name):
    code, submodules, absent = FOOTPRINTS[name]
    loaded = _loaded(code)
    assert {m[len("domcone.") :] for m in loaded if m.startswith("domcone.")} == submodules
    assert not absent & loaded


# ---------------------------------------------------------------------------
# The lazy namespace

#: Every public name of ``domcone``, by its defining submodule.
EXPORTS = {
    "acdo": (
        "AcdoRoot EllipticSetOracle acdo_eval acdo_root acdo_roots "
        "check_downward_closure check_lipschitz check_nondegeneracy check_structure "
        "oracle_from_operator"
    ),
    "aperture": (
        "ApertureResult ConvexBody PermutationDecomposition body_cone_aperture "
        "bound_certificate dominative_body dominative_weights minimal_bound_check "
        "perc_weights pucci_body"
    ),
    "cones": "InclusionReport boundary_sample check_inclusion conjugate_oracle",
    "errors": (
        "ApertureInconsistencyError DimensionMismatchError DomconeError InputError "
        "InvalidBodyError InvalidMatrixError NonProperSetError NumericalFailureError "
        "PreconditionError"
    ),
    "fundsol": (
        "FundamentalSolution example_radial_check sobolev_diverges sobolev_integral "
        "sobolev_integral_quadrature surface_measure "
        "verify_annihilation viscosity_grid_check w_gradient w_hessian w_value"
    ),
    "operators": (
        "Conjugated DominativeP EnsembleSupport EvalResult ExampleEq LinearTrace "
        "OperatorSpec Pucci Shifted eval_dominative eval_example eval_pucci "
        "eval_support spec_from_dict spec_to_dict"
    ),
    "rules": "StructureFlags sobolev_threshold",
    "symmat": "InvertibleMap SymMatrix congruence eigh_sym eigvals_sym inf_norm inner",
}

_HOME = [(name, module) for module, names in EXPORTS.items() for name in names.split()]


def test_all_lists_every_export():
    assert len(_HOME) == 68
    assert sorted(domcone.__all__) == sorted(name for name, _ in _HOME)
    assert domcone.__version__ == "0.1.0"


@pytest.mark.parametrize("name, module", _HOME, ids=[name for name, _ in _HOME])
def test_an_export_is_the_defining_modules_object(name, module):
    assert getattr(domcone, name) is getattr(importlib.import_module(f"domcone.{module}"), name)


def test_dir_and_star_import_give_every_export():
    assert {name for name, _ in _HOME} <= set(dir(domcone))
    namespace = {}
    exec("from domcone import *", namespace)
    for name, module in _HOME:
        assert namespace[name] is getattr(importlib.import_module(f"domcone.{module}"), name)


def test_a_submodule_is_an_attribute_of_the_package():
    for module in (*EXPORTS, "cli", "sampling", "suite"):
        assert getattr(domcone, module) is importlib.import_module(f"domcone.{module}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        domcone.no_such_name
    with pytest.raises(ImportError):
        exec("from domcone import no_such_name", {})
