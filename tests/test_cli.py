"""The command-line front end, driven in process through ``cli.main(argv)``:
exit codes, the error report, the options each command declares and
echoes in ``config``, and the JSON shape of the property reports."""

import contextlib
import io
import json

import pytest

from domcone import cli

#: Options each command reads besides its own arguments.
SHARED = {
    "eval": {"out"},
    "aperture": {"out"},
    "acdo": {"out", "tol_root"},
    "check-inclusion": {"out", "seed", "tol_root", "tol_property"},
    "report": {"out", "seed", "tol_root", "tol_property"},
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
    return {"sym": str(sym), "asym": str(asym), "missing": str(d / "missing.json")}


@pytest.fixture(scope="module")
def commands(matrix_files):
    """One light, valid invocation of every command."""
    x = matrix_files["sym"]
    return {
        "eval": ["eval", "--op", "pucci:n=2,lam=1,Lam=3", "--X", x],
        "aperture": ["aperture", "--body", "dominative:n=3,p=4"],
        "acdo": ["acdo", "--op", "example", "--X", x],
        "check-inclusion": ["check-inclusion", "--op", "dominative:n=2,p=5", "--p", "4", "--count", "10"],
        "report": ["report", "--op", "dominative:n=2,p=5", "--p", "4", "--count", "10"],
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
        (["eval", "--op", "dominative:n=2,p=3"], "input"),
        (["eval", "--op", "nosuch:n=2", "--X", "{sym}"], "input"),
        (["eval", "--op", "dominative:n=2", "--X", "{sym}"], "input"),
        (["eval", "--op", "dominative:n=2,p=3", "--X", "{missing}"], "input"),
        (["eval", "--op", "dominative:n=2,p=3", "--X", "{asym}"], "invalid-matrix"),
        (["aperture", "--body", "pucci:n=2,lam=3,Lam=1"], "precondition"),
        (["aperture", "--body", "pucci:n=two,lam=1,Lam=3"], "input"),
        (["aperture", "--body", "pucci:n=2,lam=1,Lam"], "input"),
        (["example", "--c", "0.5"], "precondition"),
        (["suite", "--groups", "no_such_group"], "input"),
        (["suite"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--count", "0"], "precondition"),
        (["report", "--op", "dominative:n=2,p=3", "--p", "4", "--count", "-1"], "precondition"),
        (["sobolev", "--n", "1", "--p", "3", "--q", "1", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "1", "--p", "3", "--q-sweep", "1:2:0.5"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-root", "nan"], "input"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-property", "nan"], "input"),
        (["report", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-property", "inf"], "input"),
        (["report", "--op", "dominative:n=2,p=3", "--p", "4", "--tol-root", "-inf"], "input"),
        (["acdo", "--op", "example", "--X", "{sym}", "--tol-root", "nan"], "input"),
        (["acdo", "--op", "example", "--X", "{sym}", "--tol-root", "0"], "input"),
        (["verify", "--op", "example", "--tol-root", "-1e-10"], "input"),
        (["verify", "--op", "example", "--tol-root", "tiny"], "input"),
        (["verify", "--op", "dominative:n=3,p=3", "--samples", "0"], "precondition"),
        (["verify", "--op", "dominative:n=3,p=3", "--samples", "-4"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "0,1e3,1e6"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii=-1,1e3,1e6"], "precondition"),
        (["check-inclusion", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "1e2,1e4,inf"], "precondition"),
        (["report", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "1,1e3,nan"], "precondition"),
        (["report", "--op", "dominative:n=2,p=3", "--p", "4", "--radii", "0,1e3,1e6"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q", "nan", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q", "inf", "--eps", "0.1"], "precondition"),
        (["sobolev", "--n", "2", "--p", "3", "--q-sweep", "1:inf:1"], "input"),
        (["example", "--r-grid", "0.1:nan:0.1"], "input"),
        (["example", "--c", "nan"], "precondition"),
        (["eval", "--op", "pucci:n=2,lam=1,Lam=inf", "--X", "{sym}"], "input"),
        (["aperture", "--body", "pucci:n=2,lam=1,Lam=inf"], "precondition"),
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
    code, rep = run_json(["example"])
    assert code == 0
    assert set(rep) == {"schema", "command", "config", "result"}
    keys = {k: None for k in ("c", "max_residual", "passed")}
    assert _keys(rep["result"]) == {
        "checks": [{**keys, "r_values": [], "violations": []}],
        "passed": None,
    }
    checks = rep["result"]["checks"]
    assert [c["c"] for c in checks] == [1.0, 1.5, 2.0]
    assert all(len(c["r_values"]) == 19 and c["passed"] for c in checks)


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
# check-inclusion and report say whether --tol-root was read


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
    code, rep = run_json(["report", *base])
    assert code == 0
    assert rep["result"]["inclusion"]["root_method"] == "closed-form"

    b_map = tmp_path / "B.json"
    b_map.write_text(json.dumps({"n": 2, "entries": [[2.0, 0.0], [0.0, 2.0]]}))  # s Q keeps the cone
    for command in ("check-inclusion", "report"):
        code, rep = run_json([command, *base, "--B", str(b_map)])
        assert code == 0
        res = rep["result"] if command == "check-inclusion" else rep["result"]["inclusion"]
        assert res["root_method"] == "bisection"
