"""Each input rule is defined once and called wherever its value enters
the library, so one mistake raises one error class from every caller:
dimension agreement, Pucci's constants, the exponent, the Sobolev
arguments, finite entries and the wire format's numbers."""

import math

import numpy as np
import pytest

from domcone.acdo import acdo_eval, acdo_root, acdo_roots, oracle_from_operator
from domcone.aperture import ConvexBody, dominative_body, dominative_weights, pucci_body
from domcone.errors import DimensionMismatchError, InputError, InvalidMatrixError, PreconditionError
from domcone.fundsol import (
    FundamentalSolution,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    verify_annihilation,
)
from domcone.operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    eval_dominative,
    eval_example,
    eval_pucci,
    eval_support,
    spec_from_dict,
)
from domcone.rules import dim_from_json, num_from_json, sobolev_threshold
from domcone.symmat import InvertibleMap, SymMatrix, congruence, congruence_stack, inner

# ---------------------------------------------------------------------------
# Dimension agreement


def _specs():
    """One spec of each kind by name; all but the model equation live on S(3)."""
    i3 = SymMatrix.identity(3)
    plain = ConvexBody(n=3, generators=(i3,), rot_closed=False)
    return {
        "DominativeP": DominativeP(n=3, p=3.0),
        "Pucci": Pucci(n=3, lam=1.0, Lam=2.0),
        "LinearTrace": LinearTrace(A=i3, m=0.0),
        "EnsembleSupport": EnsembleSupport(dominative_body(3, 3.0)),
        "EnsembleSupport.plain": EnsembleSupport(plain),
        "ExampleEq": ExampleEq(),
        "Shifted": Shifted(DominativeP(n=3, p=3.0), i3),
        "Conjugated": Conjugated(Pucci(n=3, lam=1.0, Lam=2.0), InvertibleMap.identity(3)),
    }


def _wrong_sizes(n):
    """Dimensions next to n, in the supported range [2, 16]."""
    return [m for m in (n - 1, n + 1) if m >= 2]


def _spec_calls():
    calls = []
    for name, spec in _specs().items():
        for m in _wrong_sizes(spec.n):
            x = SymMatrix.identity(m)
            calls.append((f"{name}.value-{m}", lambda s=spec, x=x: s.value(x)))
            calls.append((f"{name}.value_stack-{m}", lambda s=spec, x=x: s.value_stack(x.a[None])))
            if spec.distance is not None:
                calls.append((f"{name}.distance-{m}", lambda s=spec, x=x: s.distance(x)))
            oracle = oracle_from_operator(spec)
            calls.append((f"{name}.acdo_root-{m}", lambda o=oracle, x=x: acdo_root(o, x)))
            calls.append((f"{name}.acdo_eval-{m}", lambda o=oracle, x=x: acdo_eval(o, x)))
    return calls


_I2, _I3, _I4 = (SymMatrix.identity(n) for n in (2, 3, 4))

DIMENSION_CALLS = _spec_calls() + [
    ("Shifted-2", lambda: Shifted(DominativeP(n=3, p=3.0), _I2)),
    ("Shifted-4", lambda: Shifted(DominativeP(n=3, p=3.0), _I4)),
    ("Conjugated-2", lambda: Conjugated(DominativeP(n=3, p=3.0), InvertibleMap.identity(2))),
    ("Conjugated-4", lambda: Conjugated(DominativeP(n=3, p=3.0), InvertibleMap.identity(4))),
    ("congruence-2", lambda: congruence(_I3, InvertibleMap.identity(2))),
    ("congruence-4", lambda: congruence(_I3, np.eye(4))),
    ("congruence-nonsquare", lambda: congruence(_I3, np.ones((3, 2)))),
    ("add", lambda: _I3 + _I2),
    ("sub", lambda: _I2 - _I3),
    ("inner", lambda: inner(_I3, _I4)),
    ("eval_example", lambda: eval_example(_I3)),
    ("eval_support", lambda: eval_support(_I2, dominative_body(3, 3.0))),
    ("verify_annihilation-2", lambda: verify_annihilation(dominative_body(2, 3.0), FundamentalSolution(3, 3.0))),
    ("verify_annihilation-4", lambda: verify_annihilation(dominative_body(4, 3.0), FundamentalSolution(3, 3.0))),
]


@pytest.mark.parametrize("call", [c for _, c in DIMENSION_CALLS], ids=[i for i, _ in DIMENSION_CALLS])
def test_a_dimension_mismatch_raises_one_error(call):
    with pytest.raises(DimensionMismatchError, match="does not match"):
        call()


# ---------------------------------------------------------------------------
# Pucci's constants and the exponent


_BAD_CONSTANTS = [(3.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
_PUCCI_ENTRIES = [
    lambda lam, Lam: Pucci(n=2, lam=lam, Lam=Lam),
    lambda lam, Lam: eval_pucci(SymMatrix.identity(2), lam, Lam),
    lambda lam, Lam: pucci_body(2, lam, Lam),
]


@pytest.mark.parametrize("entry", _PUCCI_ENTRIES, ids=["Pucci", "eval_pucci", "pucci_body"])
def test_pucci_constants_have_one_rule(entry):
    for lam, Lam in _BAD_CONSTANTS:
        with pytest.raises(PreconditionError, match=r"require 0 < lam <= Lam < inf"):
            entry(lam, Lam)
    entry(2.0, 2.0)  # lam == Lam is a multiple of the Laplacian


#: Every entry of a raw exponent; the spectral rule ``dominative_from_eigs``
#: takes a checked one.
_EXPONENT_ENTRIES = {
    "eval_dominative": lambda p: eval_dominative(SymMatrix.identity(2), p),
    "DominativeP": lambda p: DominativeP(n=2, p=p),
    "dominative_body": lambda p: dominative_body(2, p),
    "dominative_weights": lambda p: dominative_weights(2, p),
    "FundamentalSolution": lambda p: FundamentalSolution(n=2, p=p),
    "sobolev_threshold": lambda p: sobolev_threshold(2, p),
    "sobolev_diverges": lambda p: sobolev_diverges(2, p, 1.0),
    "sobolev_integral": lambda p: sobolev_integral(2, p, 1.0, 0.1),
    "sobolev_integral_quadrature": lambda p: sobolev_integral_quadrature(2, p, 1.0, 0.1),
}


@pytest.mark.parametrize("entry", _EXPONENT_ENTRIES.values(), ids=_EXPONENT_ENTRIES)
@pytest.mark.parametrize("p", [1.5, 1.0, 0.5, -math.inf, math.nan])
def test_an_exponent_below_two_is_rejected_wherever_it_enters(entry, p):
    with pytest.raises(PreconditionError, match="exponent p must lie in"):
        entry(p)


# ---------------------------------------------------------------------------
# The Sobolev arguments


_SOBOLEV = [sobolev_integral, sobolev_integral_quadrature]


@pytest.mark.parametrize("integral", _SOBOLEV, ids=["closed-form", "quadrature"])
@pytest.mark.parametrize(
    "p, q, eps, message",
    [
        (1.0, 1.0, 0.1, "exponent p"),
        (math.inf, 1.0, 0.1, "exponent p"),
        (3.0, 0.0, 0.1, "gradient exponent q"),
        (3.0, -1.0, 0.1, "gradient exponent q"),
        (3.0, math.inf, 0.1, "gradient exponent q"),
        (3.0, math.nan, 0.1, "gradient exponent q"),
        (3.0, 1.0, 1.0, "eps must lie"),
        (3.0, 1.0, 0.0, "eps must lie"),
        (3.0, 1.0, math.nan, "eps must lie"),
    ],
)
def test_both_sobolev_integrals_check_their_arguments_alike(integral, p, q, eps, message):
    with pytest.raises(PreconditionError, match=message):
        integral(2, p, q, eps)


# ---------------------------------------------------------------------------
# Finite entries


def _overflowing_congruence():
    # the product passes the float range with no numpy warning (an error here)
    return congruence_stack(np.eye(2)[None], np.diag([1e200, 1.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: SymMatrix([[1.0, 0.0], [0.0, math.inf]]),
        lambda: SymMatrix([[1.0, math.inf], [-math.inf, 1.0]]),
        lambda: InvertibleMap([[1.0, math.nan], [0.0, 1.0]]),
        _overflowing_congruence,
        lambda: congruence(SymMatrix.identity(2), InvertibleMap(np.eye(2) * 1e160)),
        lambda: acdo_roots(oracle_from_operator(DominativeP(n=2, p=3.0)), np.full((1, 2, 2), -math.inf)),
    ],
    ids=["SymMatrix", "SymMatrix.opposite-infinities", "InvertibleMap", "congruence_stack", "congruence", "acdo_roots"],
)
def test_a_non_finite_entry_raises_one_error(call):
    with pytest.raises(InvalidMatrixError, match="matrix entries must be finite"):
        call()


#: Finite entries whose sum a_ij + a_ji passes the float range.
_HUGE = [[1e308, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SymMatrix(_HUGE),
        lambda: SymMatrix.from_dict({"n": 2, "entries": _HUGE}),
        lambda: congruence_stack(np.array(_HUGE)[None], np.eye(2)),
    ],
    ids=["SymMatrix", "from_dict", "congruence_stack"],
)
def test_a_symmetric_part_past_the_float_range_raises_one_error(call):
    # by the finiteness rule, and with no overflow warning (an error here)
    with pytest.raises(InvalidMatrixError, match=r"entries are finite, but their symmetric part \(A \+ A\^T\) / 2 is not"):
        call()


def test_an_asymmetry_past_the_float_range_is_rejected_without_a_warning():
    with pytest.raises(InvalidMatrixError, match="asymmetric beyond tolerance"):
        SymMatrix.from_dict({"n": 2, "entries": [[1.0, 1e308], [-1e308, 1.0]]})


@pytest.mark.parametrize(
    "entries",
    [[[8e307, 8e307], [8e307, -8e307]], [[5e-324, 1e-310], [3e-310, -2.5e-308]]],
    ids=["largest", "subnormal"],
)
def test_symmetrization_keeps_the_bits_of_every_accepted_matrix(entries):
    a = np.array(entries)
    assert SymMatrix(a).a.tobytes() == (0.5 * (a + a.T)).tobytes()


# ---------------------------------------------------------------------------
# The wire format's numbers


@pytest.mark.parametrize("v", [2.7, True, False, 1, 17, "2.5"])
def test_a_dimension_is_an_integer_in_range(v):
    with pytest.raises(ValueError):
        dim_from_json(v)


@pytest.mark.parametrize("n", [2.7, True])
@pytest.mark.parametrize("reader", [SymMatrix.from_dict, InvertibleMap.from_dict])
def test_a_matrix_file_reads_its_dimension_by_the_one_rule(reader, n):
    with pytest.raises(InvalidMatrixError):
        reader({"n": n, "entries": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize("v", [True, False])
def test_a_boolean_is_not_a_number(v):
    with pytest.raises(InputError, match="expected a number"):
        num_from_json(v)


_IDENTITY = {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "pucci", "n": 2, "lam": True, "Lam": 3.0},
        {"type": "pucci", "n": 2, "lam": 1.0, "Lam": True},
        {"type": "dominative", "n": 2, "p": True},
        {"type": "linear", "A": _IDENTITY, "m": False},
    ],
    ids=["lam", "Lam", "p", "m"],
)
def test_a_boolean_spec_field_is_an_input_error(spec):
    with pytest.raises(InputError) as excinfo:
        spec_from_dict(spec)
    assert excinfo.value.code == "input"
