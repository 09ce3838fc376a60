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
from functools import cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NumericalFailureError, PreconditionError
from .rules import PropertyReport, _check_count, _check_n, _check_p, _check_sobolev, check_dim, sobolev_threshold
from .symmat import SymMatrix, eigvals_sym

if TYPE_CHECKING:
    from .aperture import ConvexBody
    from .operators import OperatorSpec


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


def _radius(x: np.ndarray) -> float:
    """|x|, rescaled by s = max |x_i| where the plain norm would overflow or
    underflow (s outside [1e-150, 1e150]).  Inside, ``sqrt(x . x)`` in plain
    floats; outside, or where Python's ``max`` meets a NaN first, s from
    numpy, which propagates it: always the value and warnings of the norm."""
    flat = x.ravel(order="K")  # the order np.linalg.norm sums in
    s = max(map(abs, flat.tolist()), default=0.0)
    if s == 0.0 or 1e-150 <= s <= 1e150:
        return math.sqrt(flat.dot(flat))
    s = float(np.max(np.abs(x), initial=0.0))
    return s * float(np.linalg.norm(x / s))


def _power(r: float, e: float) -> float:
    """``r ** e``, but inf where Python's power raises ``OverflowError``."""
    try:
        return r**e
    except OverflowError:
        return math.inf


def w_value(fs: FundamentalSolution, x) -> float:
    """Value at a point; +inf at the origin when p <= n."""
    r = _radius(np.asarray(x, dtype=float))
    n, p = fs.n, fs.p
    if p == math.inf:
        return 0.0 - r  # +0.0 at the origin, not -0.0
    if r == 0.0:
        return math.inf if p <= n else 0.0
    if p == n:
        return 0.0 - math.log(r)  # +0.0 at |x| = 1
    return -(p - 1.0) / (p - n) * _power(r, (p - n) / (p - 1.0))


def w_gradient(fs: FundamentalSolution, x) -> np.ndarray:
    """Gradient -|x|^(-(n-1)/(p-1)) * x/|x| (unit inward slope at p = inf).

    Next to the origin, where |x|^(-(n-1)/(p-1)) passes the float range,
    raises :class:`NumericalFailureError` (with no numpy warning)."""
    x = np.asarray(x, dtype=float)
    r = _radius(x)
    if r == 0.0:
        raise PreconditionError("the gradient is undefined at the origin")
    xhat = x / r
    if fs.p == math.inf:
        return -xhat + 0.0
    scale = _power(r, -(fs.n - 1.0) / (fs.p - 1.0))
    if scale == math.inf:
        raise NumericalFailureError(f"the gradient at |x| = {r:g} exceeds the float range", payload=x)
    return -scale * xhat + 0.0  # + 0.0: no -0.0 on a zero coordinate


def w_hessian(fs: FundamentalSolution, x) -> SymMatrix:
    """Hessian |x|^(-alpha) ((alpha-1) xx^T/|x|^2 - (I - xx^T/|x|^2)).

    Eigenvalues: (alpha-1)|x|^(-alpha) once (along x), -|x|^(-alpha) with
    multiplicity n-1.  The one-row case of :func:`_hessian_stack`,
    checked finite by ``SymMatrix``, so an overflow near the origin raises
    ``InvalidMatrixError`` (with no numpy warning).
    """
    x = np.asarray(x, dtype=float)
    r = _radius(x)
    if r == 0.0:
        raise PreconditionError("the Hessian is undefined at the origin")
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hessian_stack(fs.alpha, x[None], [r])[0]
    return SymMatrix(h)


def _hessian_stack(alpha: float, x: np.ndarray, r: list[float]) -> np.ndarray:
    """(k, n, n) stack of the Hessians of :func:`w_hessian` at the k rows
    of ``x``, with ``r`` their nonzero radii (:func:`_radius`).

    |x|^(-alpha) is taken one radius at a time with Python's power, whose
    bits a numpy power of the stack does not always give."""
    xhat = x / np.array(r)[:, None]
    proj = xhat[:, :, None] * xhat[:, None, :]
    scale = np.array([_power(ri, -alpha) for ri in r])
    return scale[:, None, None] * ((alpha - 1.0) * proj - (np.eye(x.shape[1]) - proj))


# ---------------------------------------------------------------------------
# Annihilation


@dataclass
class AnnihilationReport(PropertyReport):
    max_scaling_law_error: float = 0.0


def verify_annihilation(
    body: ConvexBody,
    fs: FundamentalSolution,
    sample_count: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
) -> AnnihilationReport:
    """Check that the body's support function G vanishes on the fundamental
    solution's Hessian.

    Samples |x| log-uniformly in [1e-2, 1e2] over random directions and
    records the scaled residual |G(Hess w(x))| * |x|^alpha against ``tol``,
    and the homogeneity scaling law G(Hess w(x)) = |x|^(-alpha) G(Lambda_alpha).
    The points come from one :func:`radial_points` call and their Hessians
    from one :func:`_hessian_stack`, each with the bits of :func:`w_hessian`.
    Each Hessian's spectrum is one ``eigvals_sym`` call, and G is one
    ``support_from_eigs`` over all of them, with the bits of ``eval_support``
    per point.  Once the benchmark counts stacked eigensolves (ROADMAP
    item 1) the spectra can be one ``eigvals_stack``.

    The body's cone aperture (:func:`body_cone_aperture`, so the body must
    be rotation-closed) must equal fs.p — by definition the aperture is the
    unique exponent whose profile G annihilates.
    """
    from .aperture import _spike_matrix, body_cone_aperture
    from .operators import eval_support, support_from_eigs
    from .sampling import make_rng, radial_points

    check_dim(body.n, fs.n, "body", "solution")
    _check_count(sample_count)
    p_op = body_cone_aperture(body).p
    both_inf = p_op == math.inf and fs.p == math.inf
    if not both_inf and abs(p_op - fs.p) > 1e-9:
        raise PreconditionError(
            f"aperture mismatch: the body has cone aperture {p_op!r} "
            f"but the solution is built for exponent {fs.p!r}"
        )

    alpha = fs.alpha
    g_spike = eval_support(_spike_matrix(fs.n, alpha), body)
    radii, x = radial_points(make_rng(seed), sample_count, fs.n, 1e-2, 1e2)
    hessians = _hessian_stack(alpha, x, [_radius(row) for row in x])
    spectra = np.array([eigvals_sym(SymMatrix._wrap(h)) for h in hessians])
    g_values = support_from_eigs(hessians, spectra, body.generator_spectra).tolist()
    report = AnnihilationReport(name="annihilation", samples=sample_count)
    for point, r, g in zip(x.tolist(), radii.tolist(), g_values):
        scaled = abs(g) * r**alpha
        report.record(scaled, tol, x=point, residual=g, scaled=scaled)
        law_err = abs(g - r ** (-alpha) * g_spike) * r**alpha
        report.max_scaling_law_error = max(report.max_scaling_law_error, law_err)
    return report


# ---------------------------------------------------------------------------
# Sobolev integrals


def surface_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise PreconditionError(f"dimension must be positive, got {n}")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:  # Gamma(n/2) passes the float range from n = 344 on
        return math.exp(_log_surface_measure(n))


def _log_surface_measure(n: int) -> float:
    return math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)


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
    Where eps^(e+1) passes the float range, the integral is taken in logs,
    to about 1e-13 relative; an integral beyond the float range raises
    :class:`NumericalFailureError`.
    """
    _check_sobolev(n, p, q, eps)
    e = _radial_exponent(n, p, q)
    omega = surface_measure(n)
    s = e + 1.0
    if s == 0.0:
        return omega * math.log(1.0 / eps)
    x = s * math.log(eps)
    try:
        value = omega * -math.expm1(x) / s
    except OverflowError:
        value = math.inf
    if math.isinf(value):  # x > 0, so s < 0 and the integral is omega e^x / -s
        try:
            value = math.exp(_log_surface_measure(n) + x - math.log(-s))
        except OverflowError:
            raise NumericalFailureError(
                f"the integral over eps < |x| < 1 exceeds the float range (eps^(e+1) = exp({x:g}))",
                payload={"n": n, "p": p, "q": q, "eps": eps},
            ) from None
    return value


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on [-1, 1] of the quadrature
    cross-check, built (and ``numpy.polynomial`` imported) on first use."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(64)
    for a in rule:
        a.setflags(write=False)  # one rule, shared by every call
    return rule


def sobolev_integral_quadrature(n: int, p: float, q: float, eps: float) -> float:
    """Gauss-Legendre cross-check of :func:`sobolev_integral`.

    Integrates in log-radius (r = e^u turns the power integrand into a
    smooth exponential), so the near-singular endpoint costs nothing and
    64 nodes reach rounding level over the exponents the suite uses.
    """
    _check_sobolev(n, p, q, eps)
    e = _radial_exponent(n, p, q)
    half = -0.5 * math.log(eps)  # half the length of [ln eps, 0]
    nodes, weights = _gauss_legendre()
    u = half * (nodes - 1.0)
    val = half * float(weights @ np.exp((e + 1.0) * u))
    return surface_measure(n) * val


def sobolev_diverges(n: int, p: float, q: float) -> bool:
    """True when the integral diverges as eps -> 0, i.e. q >= q*."""
    return q >= sobolev_threshold(n, p)


# ---------------------------------------------------------------------------
# The model radial family


def example_radial_check(c: float, r_grid, tol: float = 1e-9) -> PropertyReport:
    """Verify the model equation vanishes on its singular radial family
    ``u(r) = -r^2/2 + 2 c r - c^2 ln r`` on the unit disc.

    At each r of the grid the Hessian eigenvalues are u'(r)/r, with
    u'(r) = -r + 2c - c^2/r, and u''(r) = -1 + c^2/r^2 (the larger since
    r < 1 <= c).  Each r records two checks: the operator value vanishes to
    ``tol``, and the top eigenvalue is u''(r).  Requires a finite c >= 1
    and a nonempty grid inside (0, 1).
    """
    from .operators import eval_example

    if not 1.0 <= c < math.inf:
        raise PreconditionError(f"the radial family needs a finite c >= 1, got {c}")
    r_values = [float(r) for r in r_grid]
    _check_count(len(r_values), "radial grid size")
    if any(not 0.0 < r < 1.0 for r in r_values):
        raise PreconditionError("the radial grid must lie inside (0, 1)")
    report = PropertyReport(name="radial", samples=len(r_values))
    for r in r_values:
        d2u = -1.0 + c * c / (r * r)
        eigs = np.sort([d2u, (-r + 2.0 * c - c * c / r) / r])
        residual = abs(eval_example(SymMatrix.diag(eigs)))
        report.record(residual, tol, r=r, residual=residual)
        # the top eigenvalue is the pure second derivative on this family
        top = float(eigs[-1])
        report.record(abs(top - d2u), tol * max(1.0, abs(top)), r=r, top_eig_mismatch=top)
    return report


# ---------------------------------------------------------------------------
# Grid supersolution check


def viscosity_grid_check(
    op: OperatorSpec,
    hessian_field: Callable[[np.ndarray], SymMatrix],
    grid,
    tol: float,
) -> PropertyReport:
    """Pointwise supersolution check: F(Hess u(x)) <= tol at every grid point.

    For twice-differentiable u this is exactly the supersolution property of
    the equation F(Hess u) = 0 on the grid, which must be nonempty.  Each
    point records its value.
    """
    points = [np.asarray(x, dtype=float) for x in grid]
    _check_count(len(points), "grid size")
    report = PropertyReport(name="grid", samples=len(points))
    for x in points:
        v = op.value(hessian_field(x))
        report.record(v, tol, x=x.tolist(), value=v)
    return report
