"""Failure records of the ``minimal_bound`` and ``example_equation`` suite
groups replay from the report alone: a bound violation carries the body,
the aperture's p and c and the violating X, and ``eval`` gives back its
margin; a radial violation carries c, r and the residual, and
``example_radial_check`` gives back the residual.

Failures are forced by a negative tolerance, which flags checks that
pass.  Records go through strict JSON first, as the CLI prints them."""

import contextlib
import io
import json

from domcone import cli, suite
from domcone.aperture import ConvexBody, minimal_bound_check
from domcone.fundsol import example_radial_check


def _failures(monkeypatch, group, **patches):
    for name, fn in patches.items():
        monkeypatch.setattr(suite, name, fn)
    details = json.loads(json.dumps(group(0).to_dict(), allow_nan=False))["details"]
    return details["failures"]


def _cli_eval(tmp_path, spec, x):
    """``value`` of ``domcone eval --op <spec> --X <x>``."""
    op, xf = tmp_path / "op.json", tmp_path / "x.json"
    op.write_text(json.dumps(spec))
    xf.write_text(json.dumps(x))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", "--op", str(op), "--X", str(xf)]) == 0
    return json.loads(out.getvalue())["result"]["value"]


def test_passing_groups_have_no_failure_record():
    assert suite.run_minimal_bound(0).details["failures"] == []
    assert suite.run_example_equation(0).details["failures"] == []


def test_minimal_bound_record_replays(monkeypatch, tmp_path):
    # margins below 1e-3 are flagged: at least the sharpness probes, where
    # both sides vanish
    forced = lambda body, samples, seed, tol: minimal_bound_check(body, samples, seed, tol=-1e-3)
    failures = _failures(monkeypatch, suite.run_minimal_bound, minimal_bound_check=forced)
    records = [r for r in failures if "violations" in r]
    assert len(records) == suite.run_minimal_bound(0).details["bodies"]
    for record in records:
        assert set(record) == {"body", "p", "c", "violations"}
        n = ConvexBody.from_dict(record["body"]).n
        assert record["violations"]
        for v in record["violations"][:3]:
            g = _cli_eval(tmp_path, {"type": "ensemble", "body": record["body"]}, v["X"])
            f = _cli_eval(tmp_path, {"type": "dominative", "n": n, "p": record["p"]}, v["X"])
            assert (g, record["c"] * f) == (v["rhs"], v["lhs"])
            assert g - record["c"] * f == v["margin"] < 1e-3


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
            assert example_radial_check(record["c"], [v["r"]]).max_residual == v["residual"]
