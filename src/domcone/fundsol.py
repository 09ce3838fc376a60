"""Radial fundamental solutions and Sobolev-threshold verification.

The profile attached to exponent p in dimension n is

    w(x) = -((p-1)/(p-n)) |x|^((p-n)/(p-1))   for p != n finite,
           -ln|x|                              at p = n,
           -|x|                                at p = inf,

with w(0) = +inf for p <= n.  Its Hessian diagonalizes to
|x|^(-alpha) * diag(alpha-1, -1, ..., -1) with (alpha-1)(p-1) = n-1,
which every rotation-invariant sublinear elliptic operator of body cone
aperture p annihilates away from the origin.  The weak gradient lies in
L^q_loc exactly for q below n(p-1)/(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .aperture import ConvexBody, _spike_matrix, body_cone_aperture
from .errors import PreconditionError
from .operators import (
    OperatorSpec,
    Report,
    _check_count,
    _check_p,
    eval_example,
    eval_support,
)
from .sampling import log_uniform, make_rng, random_unit_vector
from .symmat import SymMatrix


def _check_n(n: int) -> None:
    # n = 1 has no sphere to integrate over and q* = n (p-1)/(n-1) divides by 0
    if n < 2:
        raise PreconditionError(f"dimension must be at least 2, got {n}")


@dataclass(frozen=True)
class FundamentalSolution:
    """Radial fundamental solution for dimension n and exponent p in [2, inf]."""

    n: int
    p: float

    def __post_init__(self):
        _check_n(self.n)
        _check_p(self.p)

    @property
    def alpha(self) -> float:
        """Dual homogeneity degree: (alpha - 1)(p - 1) = n - 1; 1 at p = inf."""
        if self.p == math.inf:
            return 1.0
        return (self.n + self.p - 2.0) / (self.p - 1.0)


def w_value(fs: FundamentalSolution, x) -> float:
    """Value at a point; +inf at the origin when p <= n."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    n, p = fs.n, fs.p
    if p == math.inf:
        return -r
    if r == 0.0:
        return math.inf if p <= n else 0.0
    if p == n:
        return -math.log(r)
    return -(p - 1.0) / (p - n) * r ** ((p - n) / (p - 1.0))


def w_gradient(fs: FundamentalSolution, x) -> np.ndarray:
    """Gradient -|x|^(-(n-1)/(p-1)) * x/|x| (unit inward slope at p = inf)."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise PreconditionError("the gradient is undefined at the origin")
    xhat = x / r
    if fs.p == math.inf:
        return -xhat
    return -(r ** (-(fs.n - 1.0) / (fs.p - 1.0))) * xhat


def w_hessian(fs: FundamentalSolution, x) -> SymMatrix:
    """Hessian |x|^(-alpha) ((alpha-1) xx^T/|x|^2 - (I - xx^T/|x|^2)).

    Eigenvalues: (alpha-1)|x|^(-alpha) once (along x), -|x|^(-alpha) with
    multiplicity n-1.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise PreconditionError("the Hessian is undefined at the origin")
    xhat = x / r
    proj = np.outer(xhat, xhat)
    alpha = fs.alpha
    h = r ** (-alpha) * ((alpha - 1.0) * proj - (np.eye(fs.n) - proj))
    return SymMatrix(h)


# ---------------------------------------------------------------------------
# Annihilation


@dataclass
class AnnihilationReport(Report):
    operator: str
    n: int
    p: float
    alpha: float
    samples: int
    max_scaled_residual: float = 0.0
    max_scaling_law_error: float = 0.0


def verify_annihilation(
    body: ConvexBody,
    fs: FundamentalSolution,
    sample_count: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    require_aperture_match: bool = True,
) -> AnnihilationReport:
    """Check that the body's support function G vanishes on the fundamental
    solution's Hessian.

    Samples |x| log-uniformly in [1e-2, 1e2] over random directions and
    verifies both the scaled residual |G(Hess w(x))| * |x|^alpha <= tol and
    the homogeneity scaling law G(Hess w(x)) = |x|^(-alpha) G(Lambda_alpha).

    The body's cone aperture (:func:`body_cone_aperture`, so the body must
    be rotation-closed) must equal fs.p — by definition the aperture is the
    unique exponent whose profile G annihilates.  Passing
    ``require_aperture_match=False`` skips that gate so a mismatch's
    nonzero residual can be demonstrated.
    """
    if body.n != fs.n:
        raise PreconditionError(
            f"body dimension {body.n} does not match solution dimension {fs.n}"
        )
    _check_count(sample_count)
    p_op = body_cone_aperture(body).p
    if require_aperture_match:
        both_inf = p_op == math.inf and fs.p == math.inf
        if not both_inf and abs(p_op - fs.p) > 1e-9:
            raise PreconditionError(
                f"aperture mismatch: the body has cone aperture {p_op!r} "
                f"but the solution is built for exponent {fs.p!r}"
            )

    rng = make_rng(seed)
    alpha = fs.alpha
    g_spike = eval_support(_spike_matrix(fs.n, alpha), body)
    report = AnnihilationReport(
        operator=f"support function of {body.summary()}",
        n=fs.n,
        p=fs.p,
        alpha=alpha,
        samples=sample_count,
    )
    for _ in range(sample_count):
        r = log_uniform(rng, 1e-2, 1e2)
        x = r * random_unit_vector(rng, fs.n)
        g = eval_support(w_hessian(fs, x), body)
        scaled = abs(g) * r**alpha
        report.max_scaled_residual = max(report.max_scaled_residual, scaled)
        if scaled > tol:
            report.violations.append({"x": x.tolist(), "residual": g, "scaled": scaled})
        law_err = abs(g - r ** (-alpha) * g_spike) * r**alpha
        report.max_scaling_law_error = max(report.max_scaling_law_error, law_err)
    return report


# ---------------------------------------------------------------------------
# Sobolev integrals


def surface_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise PreconditionError(f"dimension must be positive, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sobolev_threshold(n: int, p: float) -> float:
    """Critical gradient exponent q* = n (p-1) / (n-1)."""
    _check_n(n)
    if p == math.inf:
        return math.inf
    return n * (p - 1.0) / (n - 1.0)


def _radial_exponent(n: int, p: float, q: float) -> float:
    # integrand |grad w|^q r^(n-1) = r^(n-1 - q(n-1)/(p-1))
    return (n - 1.0) - q * (n - 1.0) / (p - 1.0)


def sobolev_integral(n: int, p: float, q: float, eps: float) -> float:
    """Integral of |grad w|^q over the annulus eps < |x| < 1, analytically.

    ``surface_measure(n) * int_eps^1 r^e dr`` with
    ``e = n-1 - q(n-1)/(p-1)``, which is ``(1 - eps^(e+1)) / (e+1)``.  That
    form goes to ``ln(1/eps)`` as e -> -1, the divergence threshold q = q*;
    it is evaluated through ``expm1`` so that it stays accurate when q
    rounds to just beside q*, and takes the log branch only at e = -1 exactly.
    """
    _check_n(n)
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < q < math.inf:
        raise PreconditionError(f"gradient exponent q must be finite and positive, got {q}")
    if math.isnan(p) or p < 2.0 or p == math.inf:
        raise PreconditionError(f"exponent p must lie in [2, inf), got {p}")
    e = _radial_exponent(n, p, q)
    omega = surface_measure(n)
    s = e + 1.0
    if s == 0.0:
        return omega * math.log(1.0 / eps)
    return omega * -math.expm1(s * math.log(eps)) / s


#: 64-node Gauss-Legendre rule on [-1, 1] for the quadrature cross-check.
_GL_NODES, _GL_WEIGHTS = leggauss(64)


def sobolev_integral_quadrature(n: int, p: float, q: float, eps: float) -> float:
    """Gauss-Legendre cross-check of :func:`sobolev_integral`.

    Integrates in log-radius (r = e^u turns the power integrand into a
    smooth exponential), so the near-singular endpoint costs nothing and
    64 nodes reach rounding level over the exponents the suite uses.
    """
    _check_n(n)
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must lie in (0, 1), got {eps}")
    e = _radial_exponent(n, p, q)
    half = -0.5 * math.log(eps)  # half the length of [ln eps, 0]
    u = half * (_GL_NODES - 1.0)
    val = half * float(_GL_WEIGHTS @ np.exp((e + 1.0) * u))
    return surface_measure(n) * val


def sobolev_diverges(n: int, p: float, q: float) -> bool:
    """True when the integral diverges as eps -> 0, i.e. q >= q*."""
    return q >= sobolev_threshold(n, p)


# ---------------------------------------------------------------------------
# The model radial family


@dataclass
class RadialCheckReport(Report):
    c: float
    r_values: list[float]
    max_residual: float = 0.0


def example_radial_check(c: float, r_grid, tol: float = 1e-9) -> RadialCheckReport:
    """Verify the model equation vanishes on its singular radial family
    ``u(r) = -r^2/2 + 2 c r - c^2 ln r`` on the unit disc.

    At each r of the grid the Hessian eigenvalues are u'(r)/r, with
    u'(r) = -r + 2c - c^2/r, and u''(r) = -1 + c^2/r^2 (the larger since
    r < 1 <= c), and the operator value must vanish to ``tol``.  Requires
    a finite c >= 1 and a nonempty grid inside (0, 1).
    """
    if not 1.0 <= c < math.inf:
        raise PreconditionError(f"the radial family needs a finite c >= 1, got {c}")
    r_values = [float(r) for r in r_grid]
    _check_count(len(r_values), "radial grid size")
    if any(not 0.0 < r < 1.0 for r in r_values):
        raise PreconditionError("the radial grid must lie inside (0, 1)")
    report = RadialCheckReport(c=c, r_values=r_values)
    for r in r_values:
        d2u = -1.0 + c * c / (r * r)
        eigs = np.sort([d2u, (-r + 2.0 * c - c * c / r) / r])
        residual = abs(eval_example(SymMatrix.diag(eigs)))
        report.max_residual = max(report.max_residual, residual)
        if residual > tol:
            report.violations.append({"r": r, "residual": residual})
        # the top eigenvalue is the pure second derivative on this family
        if abs(eigs[-1] - d2u) > tol * max(1.0, abs(eigs[-1])):
            report.violations.append({"r": r, "top_eig_mismatch": float(eigs[-1])})
    return report


# ---------------------------------------------------------------------------
# Grid supersolution check


@dataclass
class GridCheckReport(Report):
    points_checked: int
    max_value: float = -math.inf


def viscosity_grid_check(
    op: OperatorSpec,
    hessian_field: Callable[[np.ndarray], SymMatrix],
    grid,
    tol: float,
) -> GridCheckReport:
    """Pointwise supersolution check: F(Hess u(x)) <= tol at every grid point.

    For twice-differentiable u this is exactly the supersolution property of
    the equation F(Hess u) = 0 on the grid, which must be nonempty.
    """
    points = [np.asarray(x, dtype=float) for x in grid]
    _check_count(len(points), "grid size")
    report = GridCheckReport(points_checked=len(points))
    for x in points:
        v = op.value(hessian_field(x))
        report.max_value = max(report.max_value, v)
        if v > tol:
            report.violations.append({"x": x.tolist(), "value": v})
    return report
