"""Failure records of the ``acdo_fidelity`` suite group replay from the
report alone: each carries the spec and the matrix X (with tau or Y), and
running ``acdo`` (and ``eval``) on them gives back the recorded error.

Failures are forced by bisecting at a loose tolerance (the distance
checks) or at a negative one, which flags every shift or Lipschitz check.
Records go through strict JSON first, as the CLI prints them."""

import contextlib
import functools
import io
import json
from dataclasses import replace

import pytest

from domcone import cli, suite
from domcone.acdo import (
    acdo_root,
    acdo_roots,
    check_lipschitz,
    check_nondegeneracy,
    oracle_from_operator,
)
from domcone.operators import (
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    spec_from_dict,
)
from domcone.symmat import SymMatrix, inf_norm

LOOSE = 1e-3


def _failures(monkeypatch, **patches):
    for name, fn in patches.items():
        monkeypatch.setattr(suite, name, fn)
    details = json.loads(json.dumps(suite.run_acdo_fidelity(0), allow_nan=False))
    return details["failures"]


def _cli_value(tmp_path, command, record):
    """``value`` of ``domcone <command> --op <spec> --X <X>`` on a record."""
    op, x = tmp_path / "op.json", tmp_path / "x.json"
    op.write_text(json.dumps(record["spec"]))
    x.write_text(json.dumps(record["X"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, "--op", str(op), "--X", str(x)]) == 0
    return json.loads(out.getvalue())["result"]["value"]


def _bisection(record):
    return replace(oracle_from_operator(spec_from_dict(record["spec"])), distance=None)


@pytest.fixture
def loose_failures(monkeypatch):
    return _failures(monkeypatch, acdo_roots=lambda oracle, stack: acdo_roots(oracle, stack, LOOSE))


def test_a_passing_group_has_no_failure_record():
    assert suite.run_acdo_fidelity(0)["failures"] == []


def test_dominative_record_replays(tmp_path, loose_failures):
    records = [r for r in loose_failures if "p" in r]
    assert len(records) > 100
    for record in records[:20]:
        assert set(record) == {"n", "p", "error", "spec", "X"}
        assert record["spec"] == {"type": "dominative", "n": record["n"], "p": record["p"]}
        x = SymMatrix.from_dict(record["X"])
        bisected = acdo_root(_bisection(record), x, LOOSE).value
        assert abs(bisected - _cli_value(tmp_path, "eval", record)) == record["error"]


@pytest.mark.parametrize(
    "kind", ["halfspace", "pucci", "example", "support_rot_closed", "support_plain", "shifted"]
)
def test_closed_form_record_replays(tmp_path, loose_failures, kind):
    if kind == "halfspace":
        records, error = [r for r in loose_failures if "halfspace_error" in r], "halfspace_error"
    else:
        records, error = [r for r in loose_failures if r.get("closed_form") == kind], "error"
    assert records
    for record in records[:5]:
        assert {"spec", "X", error} <= set(record)
        x = SymMatrix.from_dict(record["X"])
        bisected = acdo_root(_bisection(record), x, LOOSE).value
        assert abs(bisected - _cli_value(tmp_path, "acdo", record)) == record[error]


@pytest.mark.parametrize(
    "spec_type, kinds",
    [
        (LinearTrace, {"halfspace"}),
        (Pucci, {"pucci", "shifted"}),  # a shifted spec here shifts a Pucci spec
        (ExampleEq, {"example"}),
        (EnsembleSupport, {"support_rot_closed", "support_plain"}),
        (Shifted, {"shifted"}),
    ],
)
def test_a_closed_form_off_by_1e_9_fails(tmp_path, monkeypatch, spec_type, kinds):
    # bisection finds the true distance, so every matrix of these kinds
    # fails the 2e-10 gate by about 1e-9, and each record replays
    true_distance = spec_type.distance
    monkeypatch.setattr(spec_type, "distance", lambda self, x: true_distance(self, x) + 1e-9)
    failures = _failures(monkeypatch)
    assert {r.get("closed_form", "halfspace") for r in failures} == kinds
    assert len(failures) == sum(50 if kind == "halfspace" else 25 for kind in kinds)
    for record in failures:
        error = record.get("error", record.get("halfspace_error"))
        assert error == pytest.approx(1e-9, abs=2e-10)
        x = SymMatrix.from_dict(record["X"])
        bisected = acdo_root(_bisection(record), x).value
        assert abs(bisected - _cli_value(tmp_path, "acdo", record)) == error


def test_nondegeneracy_record_replays(monkeypatch):
    # the shift check runs on the closed form, which ignores the tolerance
    forced = functools.partial(check_nondegeneracy, tol=-1e-3)
    failures = _failures(monkeypatch, check_nondegeneracy=forced)
    records = [r for r in failures if r.get("check") == "nondegeneracy"]
    assert len(records) == 160  # 40 samples, four shifts each
    for record in records[:12]:
        assert set(record) == {"check", "spec", "X", "tau", "deviation"}
        oracle, x = oracle_from_operator(spec_from_dict(record["spec"])), SymMatrix.from_dict(record["X"])
        assert oracle.distance is not None
        moved = acdo_root(oracle, x.shift(record["tau"])).value
        assert abs(moved - acdo_root(oracle, x).value - record["tau"]) == record["deviation"]


def _doubled(oracle):
    return replace(oracle, distance=lambda x: 2.0 * oracle.distance(x))


def test_nondegeneracy_fails_on_a_doubled_distance(monkeypatch):
    # 2F(X + tau I) - 2F(X) - tau = tau: every shift check fails, in the
    # check and in the suite group that runs it
    spec = DominativeP(n=3, p=3.0)
    report = check_nondegeneracy(_doubled(oracle_from_operator(spec)), samples=40, seed=5)
    assert [v["deviation"] for v in report.violations] == pytest.approx([10.0, 1.0, 0.1, 7.0] * 40)
    doubled = lambda oracle, **kw: check_nondegeneracy(_doubled(oracle), **kw)
    failures = _failures(monkeypatch, check_nondegeneracy=doubled)
    assert len([r for r in failures if r.get("check") == "nondegeneracy"]) == 160


def test_lipschitz_record_replays(monkeypatch):
    failures = _failures(monkeypatch, check_lipschitz=functools.partial(check_lipschitz, tol=-10.0))
    records = [r for r in failures if r.get("check") == "lipschitz"]
    assert len(records) == 60
    for record in records[:12]:
        assert set(record) == {"check", "spec", "X", "Y", "excess"}
        oracle = _bisection(record)
        x, y = SymMatrix.from_dict(record["X"]), SymMatrix.from_dict(record["Y"])
        gap = abs(acdo_root(oracle, x, -10.0).value - acdo_root(oracle, y, -10.0).value)
        assert gap - inf_norm(x - y) == record["excess"]
