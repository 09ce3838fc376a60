"""Tests of the benchmark's own checkers and tracer.

Each independent check must accept the program's answer and reject a
deliberately wrong one; two traced runs of the same work must give
identical counts.  Run with ``python -m pytest perfbench/tests`` from the
repository root.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CliCommands, SuiteWorkload  # noqa: E402

from domcone.acdo import acdo_eval, oracle_from_operator  # noqa: E402
from domcone.aperture import body_cone_aperture, pucci_body  # noqa: E402
from domcone.cones import check_inclusion  # noqa: E402
from domcone.operators import DominativeP, ExampleEq, eval_dominative, eval_pucci  # noqa: E402
from domcone import suite, symmat  # noqa: E402
from domcone.symmat import SymMatrix  # noqa: E402


def _sym(seed, n):
    g = np.random.default_rng(seed).standard_normal((n, n)) * 2.0
    return 0.5 * (g + g.T)


# -- reference values agree with the program, so a disagreement means a fault


@pytest.mark.parametrize("seed", range(5))
def test_reference_values_match_the_program(seed):
    x3, x2 = _sym(seed, 3), _sym(seed + 100, 2)
    got = acdo_eval(oracle_from_operator(ExampleEq()), SymMatrix(x2))
    assert abs(got - checks.example_distance(x2)) < checks.DIST_TOL
    assert checks.close(eval_dominative(SymMatrix(x3), 3.5), checks.dominative_value(x3, 3.5))
    assert checks.close(eval_pucci(SymMatrix(x3), 0.6, 1.7), checks.pucci_value(x3, 0.6, 1.7))


@pytest.mark.parametrize("n,lam,Lam", [(2, 1.0, 2.0), (3, 0.5, 1.5), (5, 1.0, 1.0)])
def test_pucci_aperture_closed_form(n, lam, Lam):
    got = body_cone_aperture(pucci_body(n, lam, Lam))
    want = checks.pucci_aperture(n, lam, Lam)
    assert checks.close(got.alpha, want["alpha"]) and checks.close(got.c, want["c"])
    assert got.p == want["p"] or checks.close(got.p, want["p"])


# -- the checkers reject wrong answers


def test_verdict_rules():
    assert checks.dominative_verdict(4.0, 3.0) == "consistent"
    assert checks.dominative_verdict(3.0, 3.0) == "consistent"
    assert checks.dominative_verdict(2.5, 3.0) == "violated"
    assert checks.pucci_verdict(1.0, 2.0, 3.0) == "consistent"
    assert checks.pucci_verdict(1.0, 2.0, 3.5) == "violated"
    assert checks.check_verdict({"verdict": "consistent"}, "consistent") is None
    assert checks.check_verdict({"verdict": "violated"}, "consistent")
    assert checks.check_verdict({"verdict": "inconclusive"}, "violated")
    assert checks.check_verdict({"verdict": "consistent"}, "not-consistent")
    for verdict in ("violated", "inconclusive"):
        assert checks.check_verdict({"verdict": verdict}, "not-consistent") is None


def test_exit_code_check():
    assert checks.check_exit(2, 2) is None
    assert checks.check_exit(0, 2) and checks.check_exit(1, 0)


def test_inclusion_field_check_rejects_wrong_interval():
    rep = check_inclusion(
        oracle_from_operator(DominativeP(n=3, p=4.0)), None, 3.0, (1e2, 1e4, 1e6), count=5, seed=1
    ).to_dict()
    assert checks.check_inclusion_fields(rep, 3, 3.0, (1e2, 1e4, 1e6), 5) is None
    bad = copy.deepcopy(rep)
    bad["q_interval"]["hi"] *= 1.0 + 1e-6
    assert checks.check_inclusion_fields(bad, 3, 3.0, (1e2, 1e4, 1e6), 5)


def _perturb(out: str, path, factor: float) -> str:
    rep = json.loads(out)
    node = rep
    for key in path[:-1]:
        node = node[key]
    leaf = node[path[-1]]
    node[path[-1]] = [v * factor for v in leaf] if isinstance(leaf, list) else leaf * factor
    return json.dumps(rep)


@pytest.fixture(scope="module")
def cli_results(tmp_path_factory):
    bench = CliCommands(7, tmp_path_factory.mktemp("cli"))
    return {op.name: (op, op.run()) for op in bench.in_process_ops()}


def test_cli_checks_accept_program_answers(cli_results):
    for name, (op, result) in cli_results.items():
        assert op.check(result) is None, name


@pytest.mark.parametrize(
    "name,path",
    [
        ("eval", ("result", "value")),
        ("acdo", ("result", "value")),
        ("aperture", ("result", "alpha")),
        ("aperture", ("result", "c")),
        ("fundsol", ("result", "value")),
        ("fundsol", ("result", "eigs")),
        ("sobolev", ("result", "value")),
        ("sobolev", ("result", "threshold_q")),
    ],
)
def test_cli_checks_reject_wrong_values(cli_results, name, path):
    op, (code, out) = cli_results["cli.main." + name]
    assert op.check((code, _perturb(out, path, 1.0 + 1e-6)))


@pytest.mark.parametrize("name", ["eval", "exit2.violated", "exit1.asymmetric"])
def test_cli_checks_reject_wrong_exit_codes(cli_results, name):
    op, (code, out) = cli_results["cli.main." + name]
    for wrong in {0, 1, 2} - {code}:
        assert op.check((wrong, out))


def test_cli_check_rejects_wrong_verdict(cli_results):
    op, (code, out) = cli_results["cli.main.exit2.violated"]
    rep = json.loads(out)
    rep["result"]["verdict"] = "consistent"
    assert op.check((code, json.dumps(rep)))


def _fake_suite_report(seed):
    inclusion = {
        "radii": [1e2, 1e4, 1e6],
        "count": 400,
        "q_interval": {"hi": 2.0},
        "worst_fp_per_radius": [0.1, 0.01, 0.001],
    }
    groups = [{"name": g, "passed": True, "details": {}} for g in suite.GROUPS]
    by_name = {g["name"]: g for g in groups}
    by_name["pucci_nonintegrability"]["details"] = {"p": 3.0, "q": 4.0}
    by_name["example_equation"]["details"] = {
        "inclusion_p2": dict(inclusion, verdict="consistent", decay_exponent=0.5),
        "inclusion_p2_5": dict(inclusion, verdict="violated", decay_exponent=0.05),
    }
    return {"schema": 1, "seed": seed, "groups": groups, "passed": True}


def test_suite_check_rejects_nondeterminism_and_failures(tmp_path):
    bench = SuiteWorkload(0, tmp_path)
    check = bench.ops[0].check
    assert check(_fake_suite_report(0)) is None
    assert check(_fake_suite_report(0)) is None
    changed = _fake_suite_report(0)
    changed["groups"][0]["details"]["extra"] = 1
    assert check(changed)  # differs from the first pass

    fresh = SuiteWorkload(0, tmp_path).ops[0].check
    failing = _fake_suite_report(0)
    failing["groups"][1]["passed"] = False
    assert fresh(failing)
    fresh = SuiteWorkload(0, tmp_path).ops[0].check
    slow = _fake_suite_report(0)
    slow["groups"][5]["details"]["inclusion_p2"]["decay_exponent"] = 0.2
    assert fresh(slow)


# -- tracing


def _traced_counts():
    with Tracer() as tracer:
        oracle = oracle_from_operator(DominativeP(n=3, p=3.0))
        suite.run_suite(["aperture_exactness", "annihilation", "pucci_nonintegrability"], seed=0)
        check_inclusion(oracle, None, 4.0, (1e2, 1e4, 1e6), count=10, seed=3)
        metrics = tracer.layer_metrics()
    return {name: value for name, (value, unit) in metrics.items() if unit in ("count", "ratio")}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["suite.eigensolves.aperture_exactness"] == 1486
    assert first["suite.eigensolves.annihilation"] == 5073
    assert first["suite.eigensolves.pucci_nonintegrability"] == 300
    assert first["cones.samples_kept"] == 30
    assert first["acdo.roots"] >= first["cones.projections"] >= 30


def test_tracer_restores_the_package():
    orig, groups = symmat.eigvals_sym, dict(suite.GROUPS)
    with Tracer():
        assert symmat.eigvals_sym is not orig
        assert suite.GROUPS != groups
    assert symmat.eigvals_sym is orig
    assert suite.GROUPS == groups


# -- metrics


def test_op_p50_is_the_median_of_per_operation_means():
    from run import op_p50

    # three operations per round, two rounds: means 2, 4 and 30
    assert op_p50([1.0, 3.0, 10.0, 3.0, 5.0, 50.0], 3) == 4.0
