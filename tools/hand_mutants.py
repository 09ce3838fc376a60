"""Hand mutants of the root finder, the property reports, the suite's
stacked checks, the eigensolve kernel, the input rules, the shared
formulas, the overflow fallbacks, the per-command imports, the property
checks' gate, the downward-closure check, empty stacks, the boundary
sampler's resume rules and their neighbours.

Each mutant is one exact textual edit of a source file.  The script copies
``src/``, ``tests/``, ``tools/`` and ``perfbench/`` of this checkout into a
scratch directory, applies one mutant at a time there (never in the
checkout), runs the tier-1 tests on the copy with ``-x`` and reports
whether they killed it: a failing run, or one that takes longer than
``TIMEOUT`` seconds (a mutant that never stops), kills it.  It is a
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

#: Seconds a mutant's test run may take: about ten times an unmutated run.
TIMEOUT = 360

#: (name, file, original text, mutated text); the original must occur once.
MUTANTS = [
    (
        "lockstep: swap the lo/hi update",
        "src/domcone/acdo.py",
        "        lo = np.where(inside, mid, lo)\n        hi = np.where(inside, hi, mid)\n",
        "        lo = np.where(inside, lo, mid)\n        hi = np.where(inside, mid, hi)\n",
    ),
    (
        "lockstep: >= for > in the live mask",
        "src/domcone/acdo.py",
        "live = (hi - lo > tol)",
        "live = (hi - lo >= tol)",
    ),
    (
        "acdo_root: bisect at the default tolerance",
        "src/domcone/acdo.py",
        "return acdo_roots(oracle, x.a[None], tol)[0]",
        "return acdo_roots(oracle, x.a[None])[0]",
    ),
    (
        "lockstep: value -a for -mid",
        "src/domcone/acdo.py",
        "AcdoRoot(value=-mid, bracket=(-b, -a)",
        "AcdoRoot(value=-a, bracket=(-b, -a)",
    ),
    (
        "lockstep: the 200-step cap put back",
        "src/domcone/acdo.py",
        "live = (hi - lo > tol) & (mid != lo)",
        "live = (hi - lo > tol) & (iterations < 200) & (mid != lo)",
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
        "PropertyReport.record: < for <= against the limit",
        "src/domcone/rules.py",
        "        if not deviation <= limit:\n",
        "        if not deviation < limit:\n",
    ),
    (
        "PropertyReport.record: back to deviation > limit",
        "src/domcone/rules.py",
        "        if not deviation <= limit:\n",
        "        if deviation > limit:\n",
    ),
    (
        "PropertyReport.record: min for max",
        "src/domcone/rules.py",
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
        "if eigvals_stack(gap)[0] >= 0.0:",
        "if eigvals_stack(gap)[0] < 0.0:",
    ),
    (
        "oracle: > for >= in the witness-order check",
        "src/domcone/acdo.py",
        "if eigvals_stack(gap)[0] >= 0.0:",
        "if eigvals_stack(gap)[0] > 0.0:",
    ),
    (
        "oracle: W_in - W_out past the float range not halved",
        "src/domcone/acdo.py",
        "        if not np.isfinite(gap).all():",
        "        if False:",
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
        "return num / (lam * j + Lam * (n - j))",
        "return -num / (lam * j + Lam * (n - j))",
    ),
    (
        "Pucci distance scan: n - k for n - 1 - k larger eigenvalues",
        "src/domcone/operators.py",
        "(n - 1 - k) * v",
        "(n - k) * v",
    ),
    (
        "Pucci distance: pre-scale fix removed",
        "src/domcone/operators.py",
        "if lam < 2.0**-1022:",
        "if False:",
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
        "support_from_eigs(hessians, spectra, body.generator_spectra)",
        "support_from_eigs(hessians, spectra[:, ::-1], body.generator_spectra)",
    ),
    (
        "_spike_matrix: d[0] = a",
        "src/domcone/aperture.py",
        "    d[0] = a - 1.0\n    return SymMatrix._wrap",
        "    d[0] = a\n    return SymMatrix._wrap",
    ),
    (
        "eigensolve kernel: the upper triangle",
        "src/domcone/symmat.py",
        "_umath_linalg.eigvalsh_lo",
        "_umath_linalg.eigvalsh_up",
    ),
    (
        "eigensolve kernel: nonconvergence ignored",
        "src/domcone/symmat.py",
        'invalid="call"',
        'invalid="ignore"',
    ),
    (
        "finiteness check on isnan only",
        "src/domcone/rules.py",
        "    if not np.isfinite(a).all():\n",
        "    if np.isnan(a).any():\n",
    ),
    (
        "dimension check: < for !=",
        "src/domcone/rules.py",
        "    if n != expected:\n",
        "    if n < expected:\n",
    ),
    (
        "Pucci constants: < for lam <= Lam",
        "src/domcone/rules.py",
        "if not 0.0 < lam <= Lam < math.inf:",
        "if not 0.0 < lam < Lam < math.inf:",
    ),
    (
        "symmetric part: overflow guard removed",
        "src/domcone/symmat.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n        s = 0.5 * (a + a.swapaxes(-1, -2))\n',
        "    s = 0.5 * (a + a.swapaxes(-1, -2))\n",
    ),
    (
        "cli: import suite at module level",
        "src/domcone/cli.py",
        "from .errors import DomconeError, InputError\n",
        "from . import suite  # noqa: F401\nfrom .errors import DomconeError, InputError\n",
    ),
    (
        "fundsol: import operators at module level",
        "src/domcone/fundsol.py",
        "from .errors import NumericalFailureError, PreconditionError\n",
        "from . import operators  # noqa: F401\nfrom .errors import NumericalFailureError, PreconditionError\n",
    ),
    (
        "Sobolev threshold: (n-1)(p-1)/n",
        "src/domcone/rules.py",
        "return n * (p - 1.0) / (n - 1.0)",
        "return (n - 1.0) * (p - 1.0) / n",
    ),
    (
        "dominative weights: last entry p - 2",
        "src/domcone/aperture.py",
        "w[-1] = p - 1.0",
        "w[-1] = p - 2.0",
    ),
    (
        "congruence: M X M^T",
        "src/domcone/symmat.py",
        "m = (mat.T @ a) @ mat",
        "m = (mat @ a) @ mat.T",
    ),
    (
        "spectral rules: the shared range test always passes",
        "src/domcone/operators.py",
        "    if -bound < ev[0] and ev[-1] < bound:\n",
        "    if True:\n",
    ),
    (
        "spectral rules: no stacked row falls back to the scalar value",
        "src/domcone/operators.py",
        "    if np.abs(ev).max(initial=0.0) < bound:\n",
        "    if True:\n",
    ),
    (
        "symmetry tolerance x1e6",
        "src/domcone/symmat.py",
        "asym > SYMMETRY_RTOL * scale",
        "asym > 1e6 * SYMMETRY_RTOL * scale",
    ),
    (
        "pairing rescale: no row is evaluated again",
        "src/domcone/symmat.py",
        "        if not np.isfinite(v).all():\n",
        "        if False:\n",
    ),
    (
        "pairing rescale: rows not scaled back",
        "src/domcone/symmat.py",
        "v[far] = np.ldexp(rule(np.ldexp(a[far], -j[:, None, None]), np.ldexp(m, -jv)), jv)",
        "v[far] = rule(np.ldexp(a[far], -j[:, None, None]), np.ldexp(m, -jv))",
    ),
    (
        "pairing rescale: a row is far only where no value of it is finite",
        "src/domcone/symmat.py",
        "far = np.flatnonzero(~np.isfinite(v.reshape(len(v), -1)).all(-1))",
        "far = np.flatnonzero(~np.isfinite(v.reshape(len(v), -1)).any(-1))",
    ),
    (
        "pairing rescale: j below 0 scales X up",
        "src/domcone/symmat.py",
        "j = np.maximum(e - 1014, 0)",
        "j = e - 1014",
    ),
    (
        "ExampleEq.distance: scaled form removed",
        "src/domcone/operators.py",
        "        if 2.0 * (l2 - l1) < math.inf:\n",
        "        if True:\n",
    ),
    (
        "rotation-closed support: rescale removed",
        "src/domcone/operators.py",
        "    return _spectral(support_from_eigs, x, _support_growth(body), body.generator_spectra)\n",
        "    return float(support_from_eigs(x.a, eigvals_sym(x), body.generator_spectra))\n",
    ),
    (
        "rotation-closed distance: rescale removed",
        "src/domcone/operators.py",
        "return _spectral(_support_root, x, _support_growth(body), body.generator_spectra, body.generator_traces)",
        "return float(_support_root(x.a, eigvals_sym(x), body.generator_spectra, body.generator_traces))",
    ),
    (
        "half-space witnesses: offset 1 at any |m|",
        "src/domcone/acdo.py",
        "        d = max(1.0, spec.n * 2.0**-50 * abs(m))\n",
        "        d = 1.0\n",
    ),
    (
        "property gate: rounding term removed",
        "src/domcone/acdo.py",
        "    return 3.0 * tol * scale + _ROUNDING * max(map(abs, distances))\n",
        "    return 3.0 * tol * scale\n",
    ),
    (
        "property gate: rounding term x1e6",
        "src/domcone/acdo.py",
        "    return 3.0 * tol * scale + _ROUNDING * max(map(abs, distances))\n",
        "    return 3.0 * tol * scale + 1e6 * _ROUNDING * max(map(abs, distances))\n",
    ),
    (
        "property report: passes with no check",
        "src/domcone/rules.py",
        "return self.checks > 0 and not self.violations",
        "return not self.violations",
    ),
    (
        "downward closure: member(X) tested for member(X + N)",
        "src/domcone/acdo.py",
        "bad = ~oracle.member_stack(xs + ns)",
        "bad = ~oracle.member_stack(xs)",
    ),
    (
        "downward closure: outside samples not shifted to the boundary",
        "src/domcone/acdo.py",
        "    xs[out] -= (d + np.maximum(1e-6, _ROUNDING * np.abs(d)))[:, None, None] * np.eye(n)\n",
        "",
    ),
    (
        "downward closure: the margin back to 1e-6",
        "src/domcone/acdo.py",
        "np.maximum(1e-6, _ROUNDING * np.abs(d))",
        "1e-6",
    ),
    (
        "lockstep: the midpoint guard removed",
        "src/domcone/acdo.py",
        "    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)\n",
        "    return mid\n",
    ),
    (
        "boundary_sample: width > coarse in the near rule",
        "src/domcone/cones.py",
        "near = (width > fine)",
        "near = (width > coarse)",
    ),
    (
        "boundary_sample: width > coarse in the final resume",
        "src/domcone/cones.py",
        "todo = width > fine",
        "todo = width > coarse",
    ),
    (
        "trace pairings: reshape with -1 again",
        "src/domcone/symmat.py",
        "reshape(len(x), len(gens), x.shape[-1] ** 2)",
        "reshape(len(x), len(gens), -1)",
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
    try:
        return subprocess.run(cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT).returncode != 0
    except subprocess.TimeoutExpired:
        return True


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
