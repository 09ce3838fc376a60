"""Failure records of the ``minimal_bound``, ``example_equation``,
``annihilation``, ``pucci_nonintegrability`` and ``permutation_lemma``
suite groups replay from the report alone: a bound violation carries the
body, the aperture's p and c and the violating X, and ``eval`` gives back
its margin; a radial violation carries c, r and the residual, and
``example_radial_check`` gives back the residual; an annihilation or grid
violation carries the body or spec and the point x, and ``fundsol`` gives
the Hessian on which ``eval`` gives back the residual or value; a
permutation-lemma failure carries n, p and the drawn vector a, and
``perc_weights`` gives back its error.

Failures are forced by a negative tolerance, which flags checks that
pass, or by a patched step of the check.  Records go through strict JSON
first, as the CLI prints them."""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import domcone.aperture as aperture_mod
from domcone import cli, suite
from domcone.aperture import ConvexBody, bound_certificate, dominative_weights, minimal_bound_check, perc_weights
from domcone.fundsol import example_radial_check, verify_annihilation, viscosity_grid_check
from domcone.rules import num_from_json


def _failures(monkeypatch, group, **patches):
    for name, fn in patches.items():
        monkeypatch.setattr(suite, name, fn)
    details = json.loads(json.dumps(group(0), allow_nan=False))
    return details["failures"]


def _cli(argv):
    """``result`` of ``domcone <argv>``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())["result"]


def _cli_eval(tmp_path, spec, x):
    """``value`` of ``domcone eval --op <spec> --X <x>``."""
    op, xf = tmp_path / "op.json", tmp_path / "x.json"
    op.write_text(json.dumps(spec))
    xf.write_text(json.dumps(x))
    return _cli(["eval", "--op", str(op), "--X", str(xf)])["value"]


def _cli_fundsol(p, x):
    """``result`` of ``domcone fundsol --p <p> --at <x>``: alpha, the
    Hessian and more."""
    return _cli(["fundsol", "--p", str(p), "--at=" + ",".join(map(repr, x))])


def test_passing_groups_have_no_failure_record():
    assert suite.run_minimal_bound(0)["failures"] == []
    assert suite.run_example_equation(0)["failures"] == []
    assert suite.run_annihilation(0)["failures"] == []
    assert suite.run_pucci_nonintegrability(0)["failures"] == []


def test_minimal_bound_record_replays(monkeypatch, tmp_path):
    # margins below 1e-3 are flagged: at least the sharpness probes, where
    # both sides vanish
    forced = lambda body, samples, seed, tol: minimal_bound_check(body, samples, seed, tol=-1e-3)
    failures = _failures(monkeypatch, suite.run_minimal_bound, minimal_bound_check=forced)
    records = [r for r in failures if "violations" in r]
    assert len(records) == suite.run_minimal_bound(0)["bodies"]
    for record in records:
        assert set(record) == {"body", "p", "c", "violations"}
        n = ConvexBody.from_dict(record["body"]).n
        assert record["violations"]
        for v in record["violations"][:3]:
            g = _cli_eval(tmp_path, {"type": "ensemble", "body": record["body"]}, v["X"])
            f = _cli_eval(tmp_path, {"type": "dominative", "n": n, "p": record["p"]}, v["X"])
            assert (g, record["c"] * f) == (v["rhs"], v["lhs"])
            assert g - record["c"] * f == v["margin"] < 1e-3


def test_minimal_bound_fails_on_a_bad_certificate(monkeypatch):
    # an aperture whose c is 1% too large: the certificate fails on every
    # body, and each record replays through bound_certificate
    true_aperture = aperture_mod.body_cone_aperture

    def wrong_c(body):
        ap = true_aperture(body)
        return replace(ap, c=1.01 * ap.c)

    monkeypatch.setattr(aperture_mod, "body_cone_aperture", wrong_c)
    details = json.loads(json.dumps(suite.run_minimal_bound(0), allow_nan=False))
    records = [r for r in details["failures"] if "certificate" in r]
    assert len(records) == details["bodies"]
    assert details["worst_certificate"] == min(r["certificate"]["min_suffix_sum"] for r in records) < -1e-9
    for record in records:
        assert set(record) == {"body", "p", "c", "certificate"}
        body, index = ConvexBody.from_dict(record["body"]), record["certificate"]["index"]
        assert bound_certificate(body, index, record["c"], float(record["p"])) == record["certificate"]


def test_example_equation_record_replays(monkeypatch):
    forced = lambda c, r_grid, tol: example_radial_check(c, r_grid, tol=-1.0)
    failures = _failures(monkeypatch, suite.run_example_equation, example_radial_check=forced)
    records = [r for r in failures if "c" in r]
    assert [r["c"] for r in records] == [1.0, 1.5, 2.0]
    for record in records:
        residuals = [v for v in record["violations"] if "residual" in v]
        assert len(residuals) == 19
        for v in residuals:
            assert set(v) == {"r", "residual"}
            assert example_radial_check(record["c"], [v["r"]]).max_deviation == v["residual"]


def test_annihilation_record_replays(monkeypatch, tmp_path):
    forced = lambda body, fs, sample_count, seed, tol: verify_annihilation(body, fs, sample_count, seed, tol=-1.0)
    failures = _failures(monkeypatch, suite.run_annihilation, verify_annihilation=forced)
    assert len(failures) == suite.run_annihilation(0)["operators"]
    for record in failures:
        assert set(record) == {"body", "p", "violations"}
        assert len(record["violations"]) == 500
        for v in record["violations"][:3]:
            assert set(v) == {"x", "residual", "scaled"}
            fs = _cli_fundsol(record["p"], v["x"])
            g = _cli_eval(tmp_path, {"type": "ensemble", "body": record["body"]}, fs["hessian"])
            assert g == v["residual"]
            assert abs(g) * np.linalg.norm(v["x"]) ** fs["alpha"] == pytest.approx(v["scaled"], rel=1e-12)


def test_pucci_grid_record_replays(monkeypatch, tmp_path):
    forced = lambda op, field, grid, tol: viscosity_grid_check(op, field, grid, tol=-1.0)
    failures = _failures(monkeypatch, suite.run_pucci_nonintegrability, viscosity_grid_check=forced)
    (record,) = failures
    assert set(record) == {"spec", "violations"}
    assert len(record["violations"]) == suite.run_pucci_nonintegrability(0)["grid_points"]
    p = suite.run_pucci_nonintegrability(0)["p"]
    for v in record["violations"][:10]:
        assert set(v) == {"x", "value"}
        assert _cli_eval(tmp_path, record["spec"], _cli_fundsol(p, v["x"])["hessian"]) == v["value"]


def _lemma_inputs(record):
    """The vectors a and p_vec a permutation-lemma record was drawn with."""
    return np.array(record["a"]), dominative_weights(record["n"], num_from_json(record["p"]))


def test_permutation_lemma_error_record_replays(monkeypatch):
    # a reconstruction 1e-9 off in its first entry fails every sample; the
    # record alone rebuilds the error through perc_weights
    true_reconstruct = aperture_mod.PermutationDecomposition.reconstruct

    def off(self, a):
        out = true_reconstruct(self, a)
        out[0] += 1e-9
        return out

    monkeypatch.setattr(aperture_mod.PermutationDecomposition, "reconstruct", off)
    failures = _failures(monkeypatch, suite.run_permutation_lemma)
    assert len(failures) == 100
    for record in failures:
        assert set(record) == {"n", "p", "a", "error"}
        a, p_vec = _lemma_inputs(record)
        assert float(np.max(np.abs(perc_weights(a, p_vec).reconstruct(a) - p_vec))) == record["error"]


def test_permutation_lemma_permutation_record_replays(monkeypatch):
    # permutations read backwards move the last index, and the reconstruction
    # fails with them
    def backwards(a, p_vec):
        decomp = perc_weights(a, p_vec)
        return replace(decomp, permutations=tuple(perm[::-1] for perm in decomp.permutations))

    failures = _failures(monkeypatch, suite.run_permutation_lemma, perc_weights=backwards)
    records = [r for r in failures if "kind" in r]
    assert len(records) == 100
    for record in records:
        assert set(record) == {"n", "p", "a", "kind"}
        a, p_vec = _lemma_inputs(record)
        assert any(perm[-1] != record["n"] - 1 for perm in backwards(a, p_vec).permutations)
