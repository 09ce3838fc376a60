"""The command-line front end, driven in process through ``cli.main(argv)``:
exit codes, the error report, the options each command declares and
echoes in ``config``, and the JSON shape of the property reports."""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from domcone import cli, suite, symmat
from domcone.fundsol import example_radial_check

#: Options each command reads besides its own arguments.
SHARED = {
    "eval": {"out"},
    "aperture": {"out"},
    "acdo": {"out", "tol_root"},
    "check-inclusion": {"out", "seed", "tol_root", "tol_property"},
    "fundsol": {"out"},
    "sobolev": {"out"},
    "example": {"out"},
    "verify": {"out", "seed", "tol_root"},
    "suite": {"out", "seed"},
}

SHARED_FLAGS = {"out", "seed", "tol_root", "tol_property"}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    sym = d / "sym.json"
    sym.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.5], [0.5, -2.0]]}))
    asym = d / "asym.json"
    asym.write_text(json.dumps({"n": 2, "entries": [[1.0, 1.5], [0.5, -2.0]]}))
    files = {"sym": str(sym), "asym": str(asym), "missing": str(d / "missing.json")}
    for name, m in (("linear_nan", "NaN"), ("linear_inf", "Infinity")):
        spec = d / f"{name}.json"
        spec.write_text('{"type": "linear", "A": {"n": 2, "entries": [[1, 0], [0, 1]]}, "m": %s}' % m)
        files[name] = str(spec)
    # m / tr A = 4e308: the boundary on the identity line is past the float range
    spec = d / "linear_past_range.json"
    spec.write_text('{"type": "linear", "A": {"n": 2, "entries": [[0.25, 0], [0, 0.25]]}, "m": 1e308}')
    files["linear_past_range"] = str(spec)
    return files


@pytest.fixture(scope="module")
def commands(matrix_files):
    """One light, valid invocation of every command."""
    x = matrix_files["sym"]
    return {
        "eval": ["eval", "--op", "pucci:n=2,lam=1,Lam=3", "--X", x],
        "aperture": ["aperture", "--body", "dominative:n=3,p=4"],
        "acdo": ["acdo", "--op", "example", "--X", x],
        "check-inclusion": ["check-inclusion", "--op", "dominative:n=2,p=5", "--p", "4", "--count", "10"],
        "fundsol": ["fundsol", "--p", "3", "--at", "1,2,0.5"],
        "sobolev": ["sobolev", "--n", "3", "--p", "4", "--q", "2", "--eps", "1e-3"],
        "example": ["example", "--c", "1,2", "--r-grid", "0.1:0.5:0.2"],
        "verify": ["verify", "--op", "dominative:n=2,p=3", "--samples", "10"],
        "suite": ["suite", "--groups", "sobolev_dichotomy"],
    }


def _declared(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


# ---------------------------------------------------------------------------
# Exit codes and the error report


def test_every_command_exits_0_on_valid_input(commands):
    for name, argv in commands.items():
        code, _ = run(argv)
        assert code == 0, name


def test_violated_inclusion_exits_2_and_still_reports():
    code, rep = run_json(
        ["check-inclusion", "--op", "dominative:n=3,p=3", "--p", "4", "--count", "30"]
    )
    assert code == 2
    assert rep["result"]["verdict"] == "violated"


def test_failed_property_exits_2_and_still_reports():
    # the model equation's sublevel set is not convex
    code, rep = run_json(["verify", "--op", "example", "--samples", "20", "--flags", "convex"])
    assert code == 2
    assert rep["result"]["passed"] is False
    assert any(not c["passed"] for c in rep["result"]["checks"])


@pytest.mark.parametrize(
    "argv, want",
    [
        (["no-such-command"], "input"),
        # check-inclusion gives the q interval; there is no separate report command
        (["report", "--op", "dominative:n=2,p=3", "--p", "4"], "input"),
        (["eval", "--op", "dominative:n=2,p=3"], "input"),
        (["eval", "--op", "nosuch:n=2", "--X", "{sym}"], "input"),
        (["eval", "--op", "dominative:n=2", "--X", "{sym}"], "input"),
        (["eval", "--op", "dominative:n=2,p=3", "--X", "{missing}"], "input"),
        (["eval", "--op", "dominative:n=2,p=3", "--X", "{asym}"], "invalid-matrix"),
        # json reads NaN and Infinity; the offset of a half-space must be finite
        (["eval", "--op", "{linear_nan}", "--X", "{sym}"], "input"),
        (["eval", "--op", "{linear_inf}", "--X", "{sym}"], "input"),
        (["acdo", "--op", "{linear_inf}", "--X", "{sym}"], "input"),
        (["acdo", "--op", "{linear_past_range}", "--X", "{sym}"], "non-proper-set"),
        (["aperture", "--body", "pucci:n=2,lam=3,Lam=1"], "precondition"),
        (["aperture", "--body", "pucci:n=two,lam=1,Lam=3"], "input"),
        (["aperture", "--body", "pucci:n=2,lam=1,Lam"], "input"),
        (["example", "--c", "0.5"], "precondition"),
        (["suite", "--groups", "no_such_group"], "input"),
        (["suite"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--count", "0"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--count", "-1"], "precondition"),
        (["sobolev", "--n", "1", "--p", "3", "--q", "1", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "1", "--p", "3", "--q-sweep", "1:2:0.5"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-root", "nan"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-property", "nan"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-property", "inf"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-root", "-inf"], "input"),
        (["acdo", "--op", "example", "--X", "{sym}", "--tol-root", "nan"], "input"),
        (["acdo", "--op", "example", "--X", "{sym}", "--tol-root", "0"], "input"),
        (["verify", "--op", "example", "--tol-root", "-1e-10"], "input"),
        (["verify", "--op", "example", "--tol-root", "tiny"], "input"),
        (["verify", "--op", "dominative:n=3,p=3", "--samples", "0"], "precondition"),
        (["verify", "--op", "dominative:n=3,p=3", "--samples", "-4"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "0,1e3,1e6"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii=-1,1e3,1e6"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "-1,1e3,1e6"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "1e2,1e4,inf"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "1,1e3,nan"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q", "nan", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q", "inf", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q-sweep", "1:inf:1"], "input"),
        (["example", "--r-grid", "0.1:nan:0.1"], "input"),
        (["example", "--c", "nan"], "precondition"),
        (["eval", "--op", "pucci:n=2,lam=1,Lam=inf", "--X", "{sym}"], "precondition"),
        (["aperture", "--body", "pucci:n=2,lam=1,Lam=inf"], "precondition"),
        (["sobolev", "--n", "5", "--p", "2", "--q", "1000", "--eps", "1e-6"], "numerical-failure"),
        (["sobolev", "--n", "2", "--p", "3", "--q", "4000", "--eps", "0.1"], "numerical-failure"),
        (["sobolev", "--n", "3", "--p", "3", "--q", "2", "--eps", "abc"], "input"),
        # a check that runs nothing must not pass
        (["suite", "--groups", ","], "input"),
        (["example", "--c", ""], "input"),
        # fundsol takes n from the point, so it declares no --n
        (["fundsol", "--n", "2", "--p", "3", "--at", "1,2"], "input"),
        # |x|^(-alpha) passes the float range, so the Hessian is not finite
        (["fundsol", "--p", "3", "--at=1e-300,0"], "invalid-matrix"),
        (["fundsol", "--p", "2", "--at=1e-300,0,0"], "invalid-matrix"),
        # a non-finite coordinate is rejected before anything is computed
        (["fundsol", "--p", "3", "--at=inf,0"], "input"),
        (["fundsol", "--p", "3", "--at=nan,0"], "input"),
        (["fundsol", "--p", "3", "--at=1,-inf"], "input"),
    ],
)
def test_bad_input_exits_1_with_the_error_report(matrix_files, argv, want):
    argv = [a.format(**matrix_files) for a in argv]
    code, rep = run_json(argv)
    assert code == 1
    assert set(rep) == {"schema", "error"}
    assert rep["schema"] == cli.SCHEMA_VERSION
    assert set(rep["error"]) == {"code", "message"}
    assert rep["error"]["code"] == want
    assert rep["error"]["message"]


def test_fundsol_eigensolve_failure_exits_1_with_the_error_report(monkeypatch):
    # fundsol's eigenvalues come from the package's kernel, so a LAPACK
    # failure there is a numerical-failure report, not a traceback; the stub
    # does what the LAPACK gufunc does then: NaN and the invalid flag
    shapes = []

    def fail(a, signature):
        shapes.append(a.shape)
        return np.sqrt(np.full(a.shape[:-1], -1.0))

    monkeypatch.setattr(symmat, "_eigvalsh_lo", fail)
    code, rep = run_json(["fundsol", "--p", "3", "--at", "1,2,0.5"])
    assert code == 1
    assert rep["error"] == {
        "code": "numerical-failure",
        "message": "symmetric eigensolver failed to converge: Eigenvalues did not converge",
    }
    assert shapes == [(3, 3)]


# ---------------------------------------------------------------------------
# Options: each command declares what it reads, and echoes exactly that


@pytest.mark.parametrize(
    "flag", [["--format", "json"], ["--tol-eigen", "1e-13"], ["--tol-loewner", "1e-9"]]
)
def test_removed_flags_are_rejected(commands, flag):
    for name, argv in commands.items():
        code, rep = run_json(argv + flag)
        assert code == 1, (name, flag)
        assert rep["error"]["code"] == "input"


def test_undeclared_shared_flags_are_rejected(commands):
    values = {"seed": "1", "tol_root": "1e-9", "tol_property": "1e-7"}
    for name, argv in commands.items():
        for dest in sorted(set(values) - SHARED[name]):
            code, rep = run_json(argv + ["--" + dest.replace("_", "-"), values[dest]])
            assert code == 1, (name, dest)
            assert rep["error"]["code"] == "input"


def test_threads_variable_is_not_read(commands, monkeypatch):
    monkeypatch.setenv("DOMCONE_THREADS", "not-a-number")
    code, rep = run_json(commands["eval"])
    assert code == 0
    assert "threads" not in rep["config"]


def test_every_command_has_its_rows(commands):
    # the parser's nine commands, each with its shared options and a valid call
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(cli._HANDLERS) == set(SHARED) == set(commands)
    assert len(SHARED) == 9


def test_config_echoes_exactly_the_declared_options(commands):
    for name, argv in commands.items():
        declared = _declared(name)
        assert declared & SHARED_FLAGS == SHARED[name], name
        code, rep = run_json(argv)
        assert code == 0, name
        assert set(rep["config"]) == declared, name


def test_config_echoes_parsed_values():
    code, rep = run_json(
        ["check-inclusion", "--op", "dominative:n=2,p=5", "--p", "4", "--count", "10",
         "--seed", "3", "--tol-root", "1e-9"]
    )
    assert code == 0
    cfg = rep["config"]
    assert (cfg["seed"], cfg["tol_root"], cfg["tol_property"], cfg["count"]) == (3, 1e-9, 1e-8, 10)
    assert rep["result"]["seed"] == 3


def test_q_sweep_emits_csv():
    code, text = run(["sobolev", "--n", "3", "--p", "4", "--q-sweep", "1:5:1", "--eps", "1e-2,1e-4"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "q,value_eps_0.01,value_eps_0.0001"
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "2.0", "3.0", "4.0", "5.0"]


def test_out_writes_the_report(tmp_path, commands):
    path = tmp_path / "rep.json"
    code, text = run(commands["aperture"] + ["--out", str(path)])
    assert code == 0 and text == ""
    assert json.loads(path.read_text())["command"] == "aperture"


# ---------------------------------------------------------------------------
# Report shapes of the property batteries


def _keys(obj):
    """Nested key structure of a JSON value; lists map to the union of their items."""
    if isinstance(obj, dict):
        return {k: _keys(v) for k, v in obj.items()}
    if isinstance(obj, list):
        merged = {}
        for item in obj:
            sub = _keys(item)
            if isinstance(sub, dict):
                merged.update(sub)
        return [merged] if merged else []
    return None


CHECK_KEYS = {k: None for k in ("checks", "max_deviation", "name", "passed", "samples")}


def test_verify_report_shape():
    code, rep = run_json(
        ["verify", "--op", "dominative:n=3,p=4", "--samples", "30", "--flags", "convex,cone,rot_invariant"]
    )
    assert code == 0
    assert set(rep) == {"schema", "command", "config", "result"}
    assert _keys(rep["result"]) == {"checks": [{**CHECK_KEYS, "violations": []}], "passed": None}
    res = rep["result"]
    assert [c["name"] for c in res["checks"]] == [
        "downward-closure", "nondegeneracy", "lipschitz", "structure"
    ]
    assert [(c["samples"], c["checks"]) for c in res["checks"]] == [
        (30, 30), (10, 40), (30, 30), (30, 120)
    ]
    assert res["checks"][0]["max_deviation"] == 0.0


def test_verify_violation_shape():
    code, rep = run_json(["verify", "--op", "example", "--samples", "20", "--flags", "convex"])
    assert code == 2
    structure = rep["result"]["checks"][-1]
    assert structure["name"] == "structure" and not structure["passed"]
    assert _keys(structure["violations"]) == [
        {"flag": None, "deviation": None, "X": {"n": None, "entries": []}, "Y": {"n": None, "entries": []}}
    ]


def test_example_report_shape():
    # the checks of verify's shape, one per --c value in the order config echoes
    code, rep = run_json(["example", "--c", "2,1"])
    assert code == 0
    assert set(rep) == {"schema", "command", "config", "result"}
    assert rep["schema"] == 3 and rep["config"]["c"] == "2,1"
    assert _keys(rep["result"]) == {"checks": [{**CHECK_KEYS, "violations": []}], "passed": None}
    checks = rep["result"]["checks"]
    # two checks per radius: the residual and the top eigenvalue
    assert [(c["name"], c["samples"], c["checks"], c["passed"]) for c in checks] == [("radial", 19, 38, True)] * 2
    grid = cli._parse_range("0.05:0.95:0.05")
    want = [example_radial_check(c, grid).max_deviation for c in (2.0, 1.0)]
    assert [c["max_deviation"] for c in checks] == want


# ---------------------------------------------------------------------------
# The acdo report says which root-finding path ran


def test_acdo_report_names_the_method(tmp_path, matrix_files):
    code, rep = run_json(["acdo", "--op", "pucci:n=2,lam=1,Lam=3", "--X", matrix_files["sym"]])
    assert code == 0
    res = rep["result"]
    assert res["method"] == "closed-form"
    assert (res["iterations"], res["probes"]) == (0, 1)
    assert res["bracket"] == [res["value"], res["value"]]

    conj = tmp_path / "conj.json"
    conj.write_text(json.dumps({
        "type": "conjugated",
        "inner": {"type": "pucci", "n": 2, "lam": 1.0, "Lam": 3.0},
        "B": {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    code, rep = run_json(["acdo", "--op", str(conj), "--X", matrix_files["sym"], "--tol-root", "1e-12"])
    assert code == 0
    bis = rep["result"]
    assert bis["method"] == "bisection"
    assert bis["iterations"] > 0 and bis["bracket"][1] - bis["bracket"][0] <= 1e-12
    assert abs(bis["value"] - res["value"]) <= 1e-12


# ---------------------------------------------------------------------------
# check-inclusion says whether --tol-root was read


def test_inclusion_reports_name_the_root_method(tmp_path):
    base = ["--op", "dominative:n=2,p=5", "--p", "4", "--count", "10"]
    results = {}
    for tol in ("1e-10", "0.5"):
        code, rep = run_json(["check-inclusion", *base, "--tol-root", tol])
        assert code == 0
        results[tol] = rep["result"]
        assert rep["result"]["root_method"] == "closed-form"
    # the closed form does not read the tolerance
    assert results["1e-10"]["worst_fp_per_radius"] == results["0.5"]["worst_fp_per_radius"]

    b_map = tmp_path / "B.json"
    b_map.write_text(json.dumps({"n": 2, "entries": [[2.0, 0.0], [0.0, 2.0]]}))  # s Q keeps the cone
    code, rep = run_json(["check-inclusion", *base, "--B", str(b_map)])
    assert code == 0
    assert rep["result"]["root_method"] == "bisection"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["fundsol", "--p", "3", "--at", "-1,2"], 0),
        (["fundsol", "--p", "3", "--at", "-.5,-2,1e-3"], 0),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "-1,1e3,1e6"], 1),
    ],
)
def test_a_value_may_start_with_a_minus_sign(argv, want):
    # "--opt value" and "--opt=value" read the same value
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(argv) == run(joined)
    assert run(argv)[0] == want


@pytest.mark.parametrize("p, at", [("2", "1,0"), ("3", "0.6,0.8,0"), ("inf", "0,0")])
def test_fundsol_prints_no_negative_zero(p, at):
    code, rep = run_json(["fundsol", "--p", p, f"--at={at}"])
    value = rep["result"]["value"]
    assert code == 0 and value == 0.0 and math.copysign(1.0, value) == 1.0


# ---------------------------------------------------------------------------
# Extreme but valid inputs give finite values, without a RuntimeWarning


@pytest.mark.parametrize(
    "argv, key, want",
    [
        # w = -2 |x|^(1/2) with |x| = sqrt(2) * 1e+-200
        (["fundsol", "--p", "3", "--at", "1e200,1e200"], "value", -2.0 * 2.0**0.25 * 1e100),
        (["fundsol", "--p", "3", "--at", "1e-200,1e-200"], "value", -2.0 * 2.0**0.25 * 1e-100),
        # Gamma(200) passes the float range; the sphere's measure does not
        (["sobolev", "--n", "400", "--p", "3", "--q", "1", "--eps", "0.1"], "value", None),
    ],
)
def test_extreme_inputs_stay_finite(argv, key, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep = run_json(argv)
    assert code == 0
    value = rep["result"][key]
    assert isinstance(value, float) and math.isfinite(value)
    if want is not None:
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)
    if argv[0] == "fundsol":
        assert all(math.isfinite(v) and v != 0.0 for v in rep["result"]["eigs"])


# ---------------------------------------------------------------------------
# Malformed operator and body files: an error report, never a traceback

_GENERATOR = {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "command, content, want",
    [
        ("eval", {"type": "pucci", "n": 3, "lam": "a", "Lam": 2}, "input"),
        ("eval", {"type": "dominative", "n": "x", "p": 3}, "input"),
        ("eval", {"type": "dominative", "n": 3, "p": None}, "input"),
        ("aperture", {"n": "x", "generators": [_GENERATOR]}, "invalid-body"),
        ("aperture", {"n": 2, "generators": [_GENERATOR], "rot_closed": "false"}, "invalid-body"),
        ("aperture", {"n": 2, "generators": [_GENERATOR], "rot_closed": 0}, "invalid-body"),
        # a dimension is an integer in [2, 16]: no truncation of 3.7 or 2.9,
        # no true as 1
        ("eval", {"type": "dominative", "n": 3.7, "p": 3}, "input"),
        ("eval", {"type": "pucci", "n": True, "lam": 1, "Lam": 2}, "input"),
        ("eval", {"type": "example", "n": 2.5}, "input"),
        ("eval", {"type": "dominative", "n": -3, "p": 3}, "input"),
        ("aperture", {"n": 2.9, "generators": [_GENERATOR]}, "invalid-body"),
        ("aperture", {"n": True, "generators": [{"n": 1, "entries": [[1.0]]}]}, "invalid-body"),
        ("aperture", {"n": 1, "generators": [{"n": 1, "entries": [[1.0]]}]}, "invalid-body"),
    ],
)
def test_malformed_spec_or_body_file_exits_1(tmp_path, matrix_files, command, content, want):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    flag = "--op" if command == "eval" else "--body"
    argv = [command, flag, str(path)] + (["--X", matrix_files["sym"]] if command == "eval" else [])
    code, rep = run_json(argv)
    assert code == 1
    assert set(rep) == {"schema", "error"}
    assert rep["error"]["code"] == want


@pytest.mark.parametrize(
    "op, message",
    [
        ({"type": "dominative", "n": 3.7, "p": 3}, "dimension must be an integer, got 3.7"),
        # a negative dimension used to end in a traceback from numpy
        ({"type": "dominative", "n": -3, "p": 3}, "dimension -3 outside supported range [2, 16]"),
        ("dominative:n=-3,p=3", "dimension -3 outside supported range [2, 16]"),
    ],
    ids=["fractional", "negative", "negative-shorthand"],
)
def test_check_inclusion_rejects_a_bad_dimension(tmp_path, op, message):
    if isinstance(op, dict):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(op))
        op = str(path)
    code, rep = run_json(["check-inclusion", "--op", op, "--p", "4", "--count", "5"])
    assert code == 1
    assert rep["error"]["code"] == "input"
    assert message in rep["error"]["message"]


def test_integral_float_dimension_is_read_as_that_integer(tmp_path, matrix_files):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"type": "dominative", "n": 2.0, "p": 3}))
    assert cli.parse_operator_arg(str(path)).n == 2
    assert run_json(["eval", "--op", str(path), "--X", matrix_files["sym"]])[0] == 0


def test_body_file_rot_closed_false_is_a_plain_hull(tmp_path):
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"n": 2, "generators": [_GENERATOR], "rot_closed": False}))
    assert cli.parse_body_arg(str(path)).rot_closed is False


def test_unknown_suite_group_message_is_not_quoted():
    code, rep = run_json(["suite", "--groups", "nope"])
    assert code == 1
    known = ", ".join(suite.GROUPS)
    assert rep["error"] == {
        "code": "input",
        "message": f"unknown suite group 'nope'; known: {known}",
    }


# ---------------------------------------------------------------------------
# One mistake, one code: each input rule has one definition, so every
# command that takes the input reports the mistake with the same code

_CONJUGATED_N3 = str(Path(__file__).parent / "data" / "conjugated_pucci.json")


def _op_commands(op):
    """Every command that takes ``--op``, with ``op`` and light arguments."""
    return [
        ["eval", "--op", op, "--X", "{sym}"],
        ["acdo", "--op", op, "--X", "{sym}"],
        ["check-inclusion", "--op", op, "--p", "3", "--count", "5"],
        ["verify", "--op", op, "--samples", "5"],
    ]


def _matrix_commands(path):
    """Every command that reads a matrix or map file, with ``path`` as it."""
    return [
        ["eval", "--op", "dominative:n=2,p=3", "--X", path],
        ["acdo", "--op", "dominative:n=2,p=3", "--X", path],
        ["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "3", "--count", "5", "--B", path],
    ]


#: mistake -> (its one code, the invocations that carry it)
MISTAKES = {
    "matrix of the wrong size": ("dimension-mismatch", [
        ["eval", "--op", "dominative:n=3,p=3", "--X", "{sym}"],
        ["acdo", "--op", "dominative:n=3,p=3", "--X", "{sym}"],
        ["eval", "--op", _CONJUGATED_N3, "--X", "{sym}"],
        ["acdo", "--op", _CONJUGATED_N3, "--X", "{sym}"],
        ["check-inclusion", "--op", "dominative:n=3,p=3", "--p", "3", "--count", "5", "--B", "{identity}"],
    ]),
    "bad Pucci constants": ("precondition", [
        *_op_commands("pucci:n=2,lam=3,Lam=1"),
        *_op_commands("{pucci_swapped}"),
        *_op_commands("pucci:n=2,lam=0,Lam=1"),
        ["aperture", "--body", "pucci:n=2,lam=3,Lam=1"],
        ["aperture", "--body", "pucci:n=2,lam=0,Lam=1"],
    ]),
    "exponent below 2": ("precondition", [
        *_op_commands("dominative:n=2,p=1.5"),
        *_op_commands("{dominative_p15}"),
        ["aperture", "--body", "dominative:n=2,p=1.5"],
        ["fundsol", "--p", "1.5", "--at", "1,2"],
        ["sobolev", "--n", "2", "--p", "1.5", "--q", "1", "--eps", "0.1"],
        ["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "1.5", "--count", "5"],
    ]),
    "non-integral n in a matrix file": ("invalid-matrix", _matrix_commands("{n_fraction}")),
    "boolean n in a matrix file": ("invalid-matrix", _matrix_commands("{n_true}")),
    "boolean lam": ("input", _op_commands("{lam_true}")),
    "boolean p": ("input", _op_commands("{p_true}")),
    "boolean m": ("input", _op_commands("{m_false}")),
    "range of too many points": ("input", [
        ["sobolev", "--n", "3", "--p", "4", "--q-sweep=-1e308:1e308:1"],  # (b - a) / step passes the float range
        ["example", "--c", "1", "--r-grid=0.1:0.9:1e-320"],
        ["example", "--c", "1", "--r-grid=0.05:0.95:1e-12"],  # 9e11 points
    ]),
    "count of too many samples": ("precondition", [
        ["check-inclusion", "--op", "dominative:n=3,p=3", "--p", "3", "--count", "1000000000000"],
        ["verify", "--op", "dominative:n=3,p=3", "--samples", "1000000000000"],
    ]),
}


@pytest.fixture(scope="module")
def mistake_files(matrix_files, tmp_path_factory):
    d = tmp_path_factory.mktemp("mistakes")
    contents = {
        "identity": _GENERATOR,
        "pucci_swapped": {"type": "pucci", "n": 2, "lam": 3.0, "Lam": 1.0},
        "dominative_p15": {"type": "dominative", "n": 2, "p": 1.5},
        "n_fraction": {**_GENERATOR, "n": 2.7},
        "n_true": {**_GENERATOR, "n": True},
        "lam_true": {"type": "pucci", "n": 2, "lam": True, "Lam": 3.0},
        "p_true": {"type": "dominative", "n": 2, "p": True},
        "m_false": {"type": "linear", "A": _GENERATOR, "m": False},
    }
    files = dict(matrix_files)
    for name, content in contents.items():
        path = d / f"{name}.json"
        path.write_text(json.dumps(content))
        files[name] = str(path)
    return files


@pytest.mark.parametrize(
    "want, argv",
    [(want, argv) for want, cases in MISTAKES.values() for argv in cases],
    ids=[f"{name}-{i}" for name, (_, cases) in MISTAKES.items() for i in range(len(cases))],
)
def test_a_mistake_gets_one_code_from_every_command(mistake_files, want, argv):
    code, rep = run_json([a.format(**mistake_files) for a in argv])
    assert code == 1
    assert rep["error"]["code"] == want, rep["error"]["message"]


def test_equal_pucci_constants_are_accepted(matrix_files):
    assert run(["eval", "--op", "pucci:n=2,lam=2,Lam=2", "--X", matrix_files["sym"]])[0] == 0
    assert run(["aperture", "--body", "pucci:n=2,lam=2,Lam=2"])[0] == 0
