"""Hand mutants of the root finder, the property reports, the suite's
stacked checks and their neighbours.

Each mutant is one exact textual edit of a source file.  The script copies
``src/``, ``tests/``, ``tools/`` and ``perfbench/`` of this checkout into a
scratch directory, applies one mutant at a time there (never in the
checkout), runs the tier-1 tests on the copy with ``-x`` and reports
whether they killed it.  It is a
manual check, not a CI step:

    python tools/hand_mutants.py /path/to/scratch/dir

The exit code is the number of surviving mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, file, original text, mutated text); the original must occur once.
MUTANTS = [
    (
        "lockstep: swap the lo/hi update",
        "src/domcone/acdo.py",
        "        lo = np.where(live & inside, mid, lo)\n        hi = np.where(live & ~inside, mid, hi)\n",
        "        lo = np.where(live & ~inside, mid, lo)\n        hi = np.where(live & inside, mid, hi)\n",
    ),
    (
        "lockstep: >= for > in the live mask",
        "src/domcone/acdo.py",
        "live = (hi - lo > tol)",
        "live = (hi - lo >= tol)",
    ),
    (
        "lockstep: drop the mid != lo stop",
        "src/domcone/acdo.py",
        " & (mid != lo) & (mid != hi)",
        " & (mid != hi)",
    ),
    (
        "oracle_from_operator: < for <= in the membership test",
        "src/domcone/acdo.py",
        "member=lambda x: spec.value(x) <= 0.0,",
        "member=lambda x: spec.value(x) < 0.0,",
    ),
    (
        "oracle_from_operator: < for <= in the stacked membership test",
        "src/domcone/acdo.py",
        "member_stack=lambda a: spec.value_stack(a) <= 0.0,",
        "member_stack=lambda a: spec.value_stack(a) < 0.0,",
    ),
    (
        "PropertyReport.record: >= for > against the limit",
        "src/domcone/operators.py",
        "        if deviation > limit:\n",
        "        if deviation >= limit:\n",
    ),
    (
        "PropertyReport.record: min for max",
        "src/domcone/operators.py",
        "self.max_deviation = max(self.max_deviation, deviation)",
        "self.max_deviation = min(self.max_deviation, deviation)",
    ),
    (
        "run_suite: a group always passes",
        "src/domcone/suite.py",
        '"passed": not details["failures"]',
        '"passed": True',
    ),
    (
        "oracle: flip the witness-order check",
        "src/domcone/acdo.py",
        "self.outside_witness.a)[0] >= 0.0:",
        "self.outside_witness.a)[0] < 0.0:",
    ),
    (
        "oracle: > for >= in the witness-order check",
        "src/domcone/acdo.py",
        "self.outside_witness.a)[0] >= 0.0:",
        "self.outside_witness.a)[0] > 0.0:",
    ),
    (
        "witness search: step by 3 instead of 2",
        "src/domcone/acdo.py",
        "t, step = step, 2.0 * step",
        "t, step = step, 3.0 * step",
    ),
    (
        "Pucci: swap lambda and Lambda",
        "src/domcone/operators.py",
        "return Lam * pos + lam * neg",
        "return lam * pos + Lam * neg",
    ),
    (
        "inclusion_verdict: one value above the threshold, at the largest radius",
        "src/domcone/cones.py",
        'return 0.0, "inconclusive" if worst[-1] > zero_thresh else "consistent"',
        'return 0.0, "consistent" if worst[-1] > zero_thresh else "inconclusive"',
    ),
    (
        "Pucci: negate the closed-form distance",
        "src/domcone/operators.py",
        "return float(num / (self.lam * j + self.Lam * (x.n - j)))",
        "return float(-num / (self.lam * j + self.Lam * (x.n - j)))",
    ),
    (
        "minimal_bound_check: drop the radius cycle",
        "src/domcone/aperture.py",
        "    x *= np.resize(_BOUND_RADII, samples)[:, None, None]\n",
        "",
    ),
    (
        "bound_certificate: c 1% too large",
        "src/domcone/aperture.py",
        "- c * dominative_weights(body.n, p)",
        "- 1.01 * c * dominative_weights(body.n, p)",
    ),
    (
        "closed-form cross-check: every row against row 0's closed form",
        "src/domcone/suite.py",
        "abs(root.value - spec.distance(x))) for x, root",
        "abs(root.value - spec.distance(xs[0]))) for x, root",
    ),
    (
        "stacked Hessian: alpha for alpha - 1",
        "src/domcone/fundsol.py",
        "((alpha - 1.0) * proj - ",
        "(alpha * proj - ",
    ),
    (
        "_radius: the plain path up to s = 1e160",
        "src/domcone/fundsol.py",
        "    if s == 0.0 or 1e-150 <= s <= 1e150:\n        return math.sqrt",
        "    if s == 0.0 or 1e-150 <= s <= 1e160:\n        return math.sqrt",
    ),
    (
        "radial_points: divide by the squared norm",
        "src/domcone/sampling.py",
        "np.divide(g[keep], norms[keep, None], ",
        "np.divide(g[keep], norms[keep, None] ** 2, ",
    ),
    (
        "verify_annihilation: stacked G on reversed spectra",
        "src/domcone/fundsol.py",
        "support_from_eigs(spectra, body.generator_spectra)",
        "support_from_eigs(spectra[:, ::-1], body.generator_spectra)",
    ),
    (
        "_spike_matrix: d[0] = a",
        "src/domcone/aperture.py",
        "    d[0] = a - 1.0\n    return SymMatrix._wrap",
        "    d[0] = a\n    return SymMatrix._wrap",
    ),
]


def _copy(dest: Path) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "tools", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _killed(dest: Path) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(cmd, cwd=dest, env=env, capture_output=True).returncode != 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    dest = Path(argv[0]).resolve() / "mutant"
    if ROOT in dest.parents or dest == ROOT:
        raise SystemExit("the scratch directory must lie outside the checkout")
    survivors = 0
    for name, rel, old, new in MUTANTS:
        _copy(dest)
        path = dest / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant {name!r}: its original text occurs {text.count(old)} times in {rel}")
        path.write_text(text.replace(old, new))
        killed = _killed(dest)
        survivors += not killed
        print(f"{'killed ' if killed else 'SURVIVED'}  {name}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed")
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
