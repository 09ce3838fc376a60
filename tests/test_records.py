"""The one JSON rule of the result records: ``Record.to_dict`` gives each
record the dict its own hand-written method used to give.  The expected
dicts below are those methods' bodies, written out against the record's
fields; the comparison goes through strict JSON, the form the CLI prints."""

import json
import math

import pytest

from domcone.acdo import AcdoRoot, EllipticSetOracle, acdo_root, oracle_from_operator
from domcone.aperture import ApertureResult, body_cone_aperture, dominative_body
from domcone.cones import InclusionReport, check_inclusion
from domcone import suite
from domcone.errors import InputError
from domcone.operators import DominativeP, EvalResult
from domcone.rules import Record
from domcone.symmat import SymMatrix, eigvals_sym

RADII = (1e2, 1e4, 1e6)


def as_json(record):
    return json.loads(json.dumps(record.to_dict(), allow_nan=False))


def acdo_root_dict(r):
    return {
        "value": r.value,
        "bracket": list(r.bracket),
        "iterations": r.iterations,
        "probes": r.probes,
        "method": r.method,
    }


def test_no_record_writes_its_own_json():
    for cls in (AcdoRoot, ApertureResult, EvalResult, InclusionReport):
        assert issubclass(cls, Record) and cls.to_dict is Record.to_dict


def test_acdo_root_closed_form():
    # F_3 on S(2) at diag(1, -3): (tr X + lambda_2) / 3 = -1/3
    r = acdo_root(oracle_from_operator(DominativeP(n=2, p=3.0)), SymMatrix.diag([1.0, -3.0]))
    got = as_json(r)
    assert got == acdo_root_dict(r)
    assert got == {
        "value": -1.0 / 3.0,
        "bracket": [-1.0 / 3.0, -1.0 / 3.0],
        "iterations": 0,
        "probes": 1,
        "method": "closed-form",
    }
    assert list(r.to_dict()) == list(acdo_root_dict(r))


def test_acdo_root_bisection():
    eye = SymMatrix.identity(2)
    top = EllipticSetOracle(
        member=lambda x: eigvals_sym(x)[-1] <= 0.0,
        n=2,
        inside_witness=eye * -1.0,
        outside_witness=eye,
    )
    r = acdo_root(top, SymMatrix.diag([1.0, -3.0]))
    got = as_json(r)
    assert got == acdo_root_dict(r)
    assert got["method"] == "bisection" and got["iterations"] > 0
    assert isinstance(got["bracket"], list) and len(got["bracket"]) == 2
    assert abs(got["value"] - 1.0) <= 1e-9


def test_aperture_result_at_p_inf():
    r = body_cone_aperture(dominative_body(3, math.inf))
    got = as_json(r)
    assert got == {"alpha": r.alpha, "p": "inf", "argmin_index": r.argmin_index, "c": r.c}
    assert got["alpha"] == 1.0 and got["argmin_index"] == 0


def test_eval_result_with_neg_inf_value_and_no_hint():
    got = as_json(EvalResult(value=-math.inf, boundary_distance_hint=None))
    assert got == {"value": "-inf", "boundary_distance_hint": None}
    got = as_json(EvalResult(value=2.5, boundary_distance_hint=math.inf))
    assert got == {"value": 2.5, "boundary_distance_hint": "inf"}


def inclusion_dict(rep, hi):
    return {
        "p": "inf" if rep.p == math.inf else rep.p,
        "radii": rep.radii,
        "worst_fp_per_radius": rep.worst_fp_per_radius,
        "trend_slope": rep.trend_slope,
        "decay_exponent": -rep.trend_slope,
        "verdict": rep.verdict,
        "count": rep.count,
        "seed": rep.seed,
        "q_interval": {"lo": 0.0, "hi": hi, "conditional_on": "asymptotic-cone inclusion"},
    }


def test_inclusion_report_at_p_inf_keeps_the_sign_of_a_zero_slope():
    # Theta_inf inside Theta_inf: every worst value is numerically zero, so
    # the fit has no points and the slope is 0.0; the decay exponent is
    # +0.0, not the signed zero -0.0 that a plain negation gives.
    rep = check_inclusion(oracle_from_operator(DominativeP(n=3, p=math.inf)), None, math.inf, RADII, count=10)
    got = as_json(rep)
    assert got == inclusion_dict(rep, "inf")
    assert list(rep.to_dict()) == list(inclusion_dict(rep, "inf"))
    assert got["q_interval"]["hi"] == "inf"
    assert got["trend_slope"] == 0.0
    assert math.copysign(1.0, got["decay_exponent"]) == 1.0
    assert got["verdict"] == "consistent"


def test_inclusion_report_at_finite_p():
    rep = check_inclusion(oracle_from_operator(DominativeP(n=3, p=3.0)), None, 4.0, RADII, count=10)
    got = as_json(rep)
    assert got == inclusion_dict(rep, 3 * 3.0 / 2.0)
    assert got["verdict"] == "violated" and got["decay_exponent"] == -got["trend_slope"]


def test_run_suite_pass_rule(monkeypatch):
    # a group returns its details; run_suite names it and passes it when
    # its failures list is empty, and passes the suite when every group does
    bad = {"max_err": 1.5e-12, "failures": [{"n": 3}]}
    good = {"max_err": 0.0, "failures": []}
    monkeypatch.setattr(suite, "GROUPS", {"bad": lambda seed: bad, "good": lambda seed: good})
    got = suite.run_suite(["good", "bad"], seed=7)
    assert [list(g) for g in got["groups"]] == [["name", "passed", "details"]] * 2
    assert got["groups"] == [
        {"name": "good", "passed": True, "details": good},
        {"name": "bad", "passed": False, "details": bad},
    ]
    assert (got["seed"], got["passed"]) == (7, False)
    assert suite.run_suite(["good"])["passed"] is True
    with pytest.raises(InputError, match="no suite group"):
        suite.run_suite([])
