"""Reference values and output checkers, computed apart from domcone.

Everything here uses numpy and the closed forms of the paper's objects
only; nothing imports the package under test.  Each ``check_*`` function
returns ``None`` for an accepted output and a one-line reason otherwise,
so a deliberately wrong answer can be shown to be rejected.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for closed-form values reported by the CLI.
REL_TOL = 1e-9

#: Absolute tolerance for signed distances; the root finder works to 1e-10.
DIST_TOL = 5e-10


def close(got, want, rel=REL_TOL, abs_tol=0.0) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Operator values and signed distances


def dominative_value(x, p: float) -> float:
    """(tr X + (p-2) lambda_max) / (n+p-2); lambda_max at p = inf."""
    x = np.asarray(x, dtype=float)
    top = float(np.linalg.eigvalsh(x)[-1])
    if p == math.inf:
        return top
    n = x.shape[0]
    return (float(np.trace(x)) + (p - 2.0) * top) / (n + p - 2.0)


def pucci_value(x, lam: float, Lam: float) -> float:
    ev = np.linalg.eigvalsh(np.asarray(x, dtype=float))
    return float(Lam * ev[ev > 0].sum() + lam * ev[ev < 0].sum())


def example_distance(x) -> float:
    """Signed distance to {F <= 0} for the 2-D model equation:
    1 + l2 - s^2 with s = (1 + sqrt(1 + 2 (l2 - l1))) / 2."""
    l1, l2 = np.linalg.eigvalsh(np.asarray(x, dtype=float))
    s = 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * (l2 - l1)))
    return float(1.0 + l2 - s * s)


# ---------------------------------------------------------------------------
# Apertures, fundamental solutions, Sobolev integrals


def pucci_aperture(n: int, lam: float, Lam: float) -> dict:
    """alpha = (n-1) lam/Lam + 1, its dual exponent, and c = tr of the
    minimizing generator diag(Lam, lam, ..., lam)."""
    alpha = (n - 1) * lam / Lam + 1.0
    p = math.inf if alpha - 1.0 <= 1e-12 else (n + alpha - 2.0) / (alpha - 1.0)
    return {"alpha": alpha, "p": p, "c": Lam + (n - 1) * lam}


def fundsol_values(n: int, p: float, point) -> dict:
    """Value, gradient and ascending Hessian eigenvalues of the radial
    fundamental solution at a nonzero point, for finite p != n."""
    x = np.asarray(point, dtype=float)
    r = float(np.linalg.norm(x))
    alpha = (n + p - 2.0) / (p - 1.0)
    value = -(p - 1.0) / (p - n) * r ** ((p - n) / (p - 1.0))
    grad = -(r ** (-(n - 1.0) / (p - 1.0))) * x / r
    eigs = sorted([-(r ** -alpha)] * (n - 1) + [(alpha - 1.0) * r ** -alpha])
    return {"alpha": alpha, "value": value, "gradient": grad.tolist(), "eigs": eigs}


def surface_measure(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sobolev_values(n: int, p: float, q: float, eps: float) -> dict:
    """Integral of |grad w|^q over eps < |x| < 1, the threshold exponent
    q* = n(p-1)/(n-1), and whether the integral diverges as eps -> 0."""
    e = (n - 1.0) - q * (n - 1.0) / (p - 1.0)
    value = surface_measure(n) * (1.0 - eps ** (e + 1.0)) / (e + 1.0)
    q_star = n * (p - 1.0) / (n - 1.0)
    return {"value": value, "threshold_q": q_star, "diverges": q >= q_star}


# ---------------------------------------------------------------------------
# Inclusion verdicts


def dominative_verdict(q: float, p: float) -> str:
    """Theta_q is a cone, so ac(Theta_q) = Theta_q, and Theta_q <= Theta_p
    exactly when q >= p."""
    return "consistent" if q >= p else "violated"


def pucci_verdict(lam: float, Lam: float, p: float) -> str:
    """The Pucci sublevel set lies in Theta_p exactly for p <= Lam/lam + 1,
    by the minimality bound for its aperture."""
    return "consistent" if p <= Lam / lam + 1.0 else "violated"


def check_verdict(report: dict, expect: str) -> str | None:
    """``expect`` is a verdict, or ``"not-consistent"`` for a set whose
    asymptotic cone is known to leave Theta_p."""
    got = report.get("verdict")
    if expect == "not-consistent":
        return None if got in ("violated", "inconclusive") else f"verdict {got!r}, set leaves Theta_p"
    return None if got == expect else f"verdict {got!r}, expected {expect!r}"


def check_inclusion_fields(report: dict, n: int, p: float, radii, count: int) -> str | None:
    q_hi = n * (p - 1.0) / (n - 1.0)
    if report.get("radii") != [float(r) for r in radii] or report.get("count") != count:
        return "radii or count not echoed"
    if not close(report["q_interval"]["hi"], q_hi):
        return f"q_interval hi {report['q_interval']['hi']!r}, expected {q_hi!r}"
    if len(report.get("worst_fp_per_radius", ())) != len(radii):
        return "one worst value per radius expected"
    return None


def check_decay(report: dict, lo: float, hi: float) -> str | None:
    beta = report.get("decay_exponent")
    return None if lo <= beta <= hi else f"decay exponent {beta!r} outside [{lo}, {hi}]"


# ---------------------------------------------------------------------------
# CLI outputs


def check_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def check_number(label: str, got, want, rel=REL_TOL, abs_tol=0.0) -> str | None:
    if got is None or not close(got, want, rel, abs_tol):
        return f"{label} {got!r}, expected {want!r}"
    return None


def check_vector(label: str, got, want, rel=REL_TOL, abs_tol=1e-12) -> str | None:
    if got is None or len(got) != len(want):
        return f"{label} {got!r}, expected {want!r}"
    for g, w in zip(got, want):
        if not close(g, w, rel, abs_tol):
            return f"{label} {got!r}, expected {want!r}"
    return None


def first_error(*results) -> str | None:
    return next((r for r in results if r is not None), None)
