"""Golden outputs: the reports a change to the program must keep, or name.

The golden files under ``tests/data/golden/`` are

- the ``suite --all`` report at seeds 0 and 1;
- the 12 ``check_inclusion`` reports of the benchmark's ``inclusion``
  workload at seed 0 (``perfbench/workloads.py``, read, not changed);
- the overflow band: the bits of each spec's ``value``, ``value_stack``
  and ``distance`` where its formula or pairing passes the float range;
- the outputs of the CLI commands in ``CLI_CASES``.

``manifest.json`` records the numpy version they were made with and each
command's exit code.  ``tests/test_golden.py`` compares current output
with them: byte for byte when numpy's version is the recorded one, and
otherwise strings, ints, bools (so every verdict) exactly and floats to
``REL_TOL`` relative, with ``ABS_TOL`` as the floor for values at
rounding level, since LAPACK builds differ in the last bits.  It also
runs each CLI case in a fresh ``python -W error::RuntimeWarning -m
domcone.cli`` process, whose output must be the in-process bytes and
whose exit code the recorded one.  ``CLI_CASES`` is the one list of the
commands whose bytes and exit codes are the CLI's contract: a new case is
one entry here and a run of this script.

A change that alters output runs this script and names each changed
field in CHANGES.md; the diff of the golden files is its review artifact:

    PYTHONPATH=src python tools/regen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

#: Float tolerance of the comparison when numpy's version differs.
REL_TOL = 1e-6
ABS_TOL = 1e-9

_CONJ = "tests/data/conjugated_pucci.json"

#: name -> argv of ``domcone``; paths are relative to the repository root.
#: ``suite`` passes (exit 0); the congruence image passes ``verify`` but not
#: its rotation-invariance check, and violates the inclusion (exit 2); a
#: half-space far from the origin passes ``verify``, though its distances
#: round by more than 3x the root tolerance; the
#: non-finite results of ``aperture``, ``check-inclusion`` (q* at p = inf)
#: and ``eval`` are strings; the far ``acdo`` probe stops where its midpoint
#: rounds onto an end of its bracket; ``acdo`` on a half-space with a large
#: offset finds witnesses apart;
#: ``fundsol`` on an axis prints no signed zero, and next to the origin and
#: at an infinite point exits 1 with the error report, as ``eval`` does on a
#: finite matrix whose symmetric part overflows and ``acdo`` on a congruence
#: image whose witnesses overflow; ``eval`` gives the finite value and
#: distance of the dominative and Pucci operators where their formulas pass
#: the float range, and so of a linear operator, a generator hull (plain or
#: rotation-closed) and the model equation where a pairing or the
#: difference of two eigenvalues does, and the finite distance of a Pucci
#: operator whose lam is subnormal beside a Lam near the float range's end.
CLI_CASES = {
    "suite.seed0": ["suite", "--all", "--seed", "0"],
    "suite.seed1": ["suite", "--all", "--seed", "1"],
    "cli.verify": ["verify", "--op", _CONJ],
    "cli.verify.structure": ["verify", "--op", _CONJ, "--flags", "convex,cone,rot_invariant"],
    "cli.verify.far-offset": ["verify", "--op", "tests/data/linear_offset_1e12.json", "--flags", "rot_invariant,convex"],
    "cli.check-inclusion": ["check-inclusion", "--op", _CONJ, "--p", "5", "--count", "50"],
    "cli.aperture": ["aperture", "--body", "dominative:n=3,p=inf"],
    "cli.check-inclusion.p-inf": ["check-inclusion", "--op", "dominative:n=3,p=inf", "--p", "inf", "--count", "20"],
    "cli.eval": ["eval", "--op", "example", "--X", "tests/data/example_below_edge.json"],
    "cli.eval.overflow": ["eval", "--op", "dominative:n=2,p=3", "--X", "tests/data/overflow_symmetrization.json"],
    "cli.eval.overflow.dominative": ["eval", "--op", "dominative:n=2,p=3", "--X", "tests/data/overflow_dominative.json"],
    "cli.eval.overflow.pucci": ["eval", "--op", "pucci:n=2,lam=1,Lam=3", "--X", "tests/data/overflow_pucci.json"],
    "cli.eval.overflow.linear": ["eval", "--op", "tests/data/linear_identity3.json", "--X", "tests/data/overflow_diag3.json"],
    "cli.eval.overflow.plain-hull": ["eval", "--op", "tests/data/plain_hull_pucci.json", "--X", "tests/data/overflow_split.json"],
    "cli.eval.overflow.rot-closed": ["eval", "--op", "tests/data/rot_closed_pucci.json", "--X", "tests/data/overflow_split.json"],
    "cli.eval.overflow.example": ["eval", "--op", "example", "--X", "tests/data/overflow_split.json"],
    "cli.eval.pucci.subnormal-lam": ["eval", "--op", "pucci:n=2,lam=5e-324,Lam=1e308", "--X", "tests/data/identity2.json"],
    "cli.acdo.overflow": ["acdo", "--op", "tests/data/conjugated_overflow.json", "--X", "tests/data/identity2.json"],
    "cli.acdo.far": ["acdo", "--op", _CONJ, "--X", "tests/data/far_probe.json"],
    "cli.acdo.far-offset": ["acdo", "--op", "tests/data/linear_far_offset.json", "--X", "tests/data/identity2.json"],
    "cli.example": ["example"],
    "cli.fundsol.axis": ["fundsol", "--p", "2", "--at=1,0"],
    "cli.fundsol.near-origin.n2": ["fundsol", "--p", "3", "--at=1e-300,0"],
    "cli.fundsol.near-origin.n3": ["fundsol", "--p", "2", "--at=1e-300,0,0"],
    "cli.fundsol.inf": ["fundsol", "--p", "3", "--at=inf,0"],
}


def run_cli(argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of ``domcone <argv>``, run in this
    process from the repository root."""
    from domcone import cli

    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue(), code


def inclusion_reports() -> dict[str, str]:
    """The ``inclusion`` workload's reports at seed 0, rendered as the CLI
    renders JSON, by request name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import InclusionWorkload
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory() as tmp:
        ops = InclusionWorkload(0, Path(tmp)).ops
    return {
        "inclusion." + op.name: json.dumps(op.run(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        for op in ops
    }


def band_matrices(n: int) -> np.ndarray:
    """The symmetric ``(k, n, n)`` stack with entries from {+-8e307, 1e-300,
    0}: every such matrix at n = 2 and every fifth at n = 3, which
    ``tests/test_operators.py::TestPairingOverflow`` checks against the exact
    values."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    stack = []
    for picks in list(itertools.product((8e307, -8e307, 1e-300, 0.0), repeat=len(cells)))[:: 1 if n == 2 else 5]:
        a = np.zeros((n, n))
        for (i, j), v in zip(cells, picks):
            a[i, j] = a[j, i] = v
        stack.append(a)
    return np.array(stack)


def overflow_band() -> dict[str, str]:
    """``[value, value_stack, distance]`` of each spec on each matrix of
    :func:`band_matrices`, one matrix a line, by spec: the bits of the
    rescaled results, which the ``cli.eval.overflow*`` cases pin on one
    matrix each."""
    from domcone.aperture import ConvexBody, pucci_body
    from domcone.operators import DominativeP, EnsembleSupport, ExampleEq, LinearTrace, Pucci
    from domcone.rules import num_to_json
    from domcone.symmat import SymMatrix

    specs = {}
    for n in (2, 3):
        body = pucci_body(n, 1.0, 3.0)
        coupled = np.eye(n) + 0.5 * np.eye(n, k=1) + 0.5 * np.eye(n, k=-1)
        specs.update({
            f"dominative n={n} p=3": DominativeP(n, 3.0),
            f"dominative n={n} p=inf": DominativeP(n, math.inf),
            f"pucci n={n} lam=0.5 Lam=2": Pucci(n, 0.5, 2.0),
            f"pucci n={n} lam=0.5 Lam=1e200": Pucci(n, 0.5, 1e200),
            f"rot-closed pucci body n={n} lam=1 Lam=3": EnsembleSupport(body),
            f"plain pucci hull n={n} lam=1 Lam=3": EnsembleSupport(
                ConvexBody(n=n, generators=body.generators, rot_closed=False)
            ),
            f"linear n={n} A=coupled m=-1": LinearTrace(A=SymMatrix(coupled), m=-1.0),
        })
    specs["example n=2"] = ExampleEq()
    blocks = []
    for name, spec in specs.items():
        stack = band_matrices(spec.n)
        rows = [
            json.dumps([num_to_json(v) for v in (spec.value(x), s, spec.distance(x))], allow_nan=False)
            for x, s in zip(map(SymMatrix, stack), spec.value_stack(stack).tolist())
        ]
        blocks.append(f"  {json.dumps(name)}: [\n    " + ",\n    ".join(rows) + "\n  ]")
    return {"overflow.band": "{\n" + ",\n".join(blocks) + "\n}\n"}


def reports() -> dict[str, str]:
    """The golden outputs that are not CLI cases, by name."""
    return {**inclusion_reports(), **overflow_band()}


def manifest() -> dict:
    """The numpy version the golden files were made with, and the exit code
    of each (None for an output that is not a CLI case) by name."""
    return json.loads((GOLDEN / "manifest.json").read_text())


def recorded_numpy() -> str:
    return manifest()["numpy"]


def byte_mode() -> bool:
    """Whether the golden files are compared byte for byte here."""
    return recorded_numpy() == np.__version__


def mode_line() -> str:
    if byte_mode():
        return f"golden outputs compared byte for byte (numpy {np.__version__}, as recorded)"
    return (
        f"golden outputs compared with float tolerance (numpy {np.__version__}, recorded "
        f"{recorded_numpy()}): strings, ints and bools exact, floats to rel {REL_TOL:g}, abs {ABS_TOL:g}"
    )


def same(a, b, path: str = "$") -> str | None:
    """The first place where JSON values ``a`` and ``b`` differ beyond the
    tolerant comparison, or None."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return None
        return f"{path}: {a!r} != {b!r}"
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} {a!r} != {type(b).__name__} {b!r}"
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} != {list(b)}"
        items = ((f"{path}.{k}", a[k], b[k]) for k in a)
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        items = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b)))
    else:
        return None if a == b else f"{path}: {a!r} != {b!r}"
    for where, x, y in items:
        diff = same(x, y, where)
        if diff:
            return diff
    return None


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    outputs = {name: run_cli(argv) for name, argv in CLI_CASES.items()}
    outputs.update({name: (text, None) for name, text in reports().items()})
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, (text, _) in outputs.items():
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    record = {"numpy": np.__version__, "exit_codes": {k: code for k, (_, code) in outputs.items()}}
    (GOLDEN / "manifest.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} golden outputs to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
