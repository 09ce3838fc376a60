"""Asymptotic-cone sampling and the cone-inclusion test.

The asymptotic cone of a set Theta collects the directions of its
boundary at infinity.  There is no finite certificate for a limit
object, so the inclusion test ac(B^T Theta B) <= Theta_p is approximated
by projecting random directions onto the boundary at growing radii and
tracking how fast the worst dominative value of the normalized boundary
directions decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acdo import EllipticSetOracle, acdo_roots
from .errors import NumericalFailureError, PreconditionError
from .operators import DominativeP
from .rules import PROPERTY_TOL, ROOT_TOL, Record, _check_count, num_to_json, sobolev_threshold
from .sampling import goe_stack, make_rng
from .symmat import InvertibleMap, SymMatrix, congruence, congruence_stack, inf_norm_stack


def conjugate_oracle(oracle: EllipticSetOracle, B: InvertibleMap) -> EllipticSetOracle:
    """Oracle of the congruence image B^T Theta B.

    Membership of X in the image is membership of B^-T X B^-1 in Theta;
    ellipticity and properness survive the congruence, and so do the
    witnesses, mapped to B^T W B.  The image's ``member_stack`` maps the
    stack and calls the oracle's own, so it has the bits of ``member``;
    the image has no closed form (see
    :class:`~domcone.operators.Conjugated`).
    """
    inv = B.B_inv

    def member(x: SymMatrix) -> bool:
        return oracle.member(congruence(x, inv))

    def member_stack(a: np.ndarray) -> np.ndarray:
        return oracle.member_stack(congruence_stack(a, inv))

    return EllipticSetOracle(
        member=member,
        n=oracle.n,
        inside_witness=congruence(oracle.inside_witness, B),
        outside_witness=congruence(oracle.outside_witness, B),
        description=f"congruence image of ({oracle.description})",
        member_stack=member_stack,
    )


#: Tolerance per unit of radius of the first, coarse bisection of each
#: boundary root in :func:`boundary_sample`.
_COARSE_TOL = 1e-3


def boundary_sample(
    oracle: EllipticSetOracle,
    R: float,
    count: int,
    seed: int = 0,
    root_tol: float = ROOT_TOL,
    p: float | None = None,
) -> np.ndarray:
    """Directions of ``count`` boundary points at radius R, each scaled to
    infinity norm one, as a ``(count, n, n)`` array.

    Each random unit direction D (GOE, infinity norm one) maps to the
    boundary point ``R*D - dist(R*D) * I`` via the signed distance;
    projections that collapse below R/10 in norm are discarded and
    resampled as degenerate.  A distance is found to ``root_tol * R``, a
    tolerance per unit of radius (or to the last double): a kept point is
    divided by its norm of at least R/10, so an error d in the distance
    moves the direction by at most 20 d / R in the infinity norm, and
    ``root_tol`` bounds the direction's error at every radius.  Each pass
    draws the shortfall as one :func:`goe_stack`, finds its distances with
    one :func:`acdo_roots` call and its norms with one stacked eigensolve,
    and keeps the accepted points in draw order.  So the output, and the
    error after ``50 * count + 100`` draws, are those of drawing,
    projecting and testing one sample at a time.

    Every oracle takes one path.  Its distances are first found to
    ``max(root_tol, _COARSE_TOL) * R``, and a root is resumed to ``root_tol
    * R`` only where the output needs it and its bracket is still wider
    than that; a closed form's bracket (v, v) never is.  A root of bracket
    width w moves the point's norm by at most w/2, so a wide root whose
    norm is NaN or within w/2 (plus rounding) of R/10 is resumed before the
    keep decision, which is therefore the sharp one.  With ``p`` None every
    kept wide root is then resumed, and the output is as above bit for
    bit.  With ``p``, the output is of mixed precision, for a caller that
    only takes the largest F_p over it: a direction of norm v lies within
    e = w / max(v - w/2, R/10) of its sharp one in the infinity norm, and
    F_p, elliptic with F_p(X + tI) = F_p(X) + t, is 1-Lipschitz there.  So,
    when some kept root is wide, only directions with F_p + e at least the
    largest F_p - e can be the worst (or every one, if a value is not
    finite); those are resumed, and the largest F_p over the output, the
    first of its maximisers included, has the bits it has with ``p`` None.
    """
    _check_count(count)
    rng = make_rng(seed)
    n = oracle.n
    eye = np.eye(n)
    coarse, fine = max(root_tol, _COARSE_TOL) * R, root_tol * R
    passes, roots_kept = [], []  # (probes, raw, nrm) kept per pass; their roots
    budget, attempts, kept = 50 * count + 100, 0, 0
    while kept < count:
        if attempts == budget:
            raise NumericalFailureError(
                "boundary sampling kept hitting degenerate projections",
                payload=oracle.description,
            )
        k = min(count - kept, budget - attempts)
        attempts += k
        probes = goe_stack(rng, k, n, [1.0]) * R
        roots = acdo_roots(oracle, probes, coarse)
        raw, nrm = _project(probes, roots, eye)
        width = _widths(roots)
        near = (width > fine) & (np.isnan(nrm) | (np.abs(nrm - R / 10.0) <= 0.5 * width + 1e-12 * R))
        _resume(oracle, probes, roots, raw, nrm, near, fine, eye)
        keep = ~(nrm < R / 10.0)  # a nan norm is not short, so it is kept
        passes.append((probes[keep], raw[keep], nrm[keep]))
        roots_kept.extend(roots[i] for i in np.flatnonzero(keep))
        kept += int(keep.sum())
    probes, raw, nrm = (np.concatenate(column) for column in zip(*passes))
    width = _widths(roots_kept)
    todo = width > fine
    if p is not None and todo.any():
        todo &= _may_be_worst(DominativeP(n, p), raw, nrm, width, R)
    _resume(oracle, probes, roots_kept, raw, nrm, todo, fine, eye)
    return raw * (1.0 / nrm)[:, None, None]


def _project(probes: np.ndarray, roots, eye: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points ``probe.shift(-dist)`` of a stack and their norms."""
    shifts = np.array([-r.value for r in roots])
    raw = probes + shifts[:, None, None] * eye
    return raw, inf_norm_stack(raw)


def _widths(roots) -> np.ndarray:
    """Bracket widths of ``roots``: 0 for a closed form."""
    return np.array([r.bracket[1] - r.bracket[0] for r in roots])


def _resume(oracle, probes, roots, raw, nrm, mask: np.ndarray, tol: float, eye: np.ndarray) -> None:
    """Resume the roots of ``probes`` where ``mask`` holds to ``tol``, and
    write them and their boundary points and norms back in place."""
    todo = np.flatnonzero(mask)
    if not todo.size:
        return
    sharp = acdo_roots(oracle, probes[todo], tol, start=[roots[i] for i in todo])
    raw[todo], nrm[todo] = _project(probes[todo], sharp, eye)
    for i, root in zip(todo.tolist(), sharp):
        roots[i] = root


def _may_be_worst(score: DominativeP, raw, nrm, width, R: float) -> np.ndarray:
    """Which coarse boundary points of bracket widths ``width`` may have
    the largest ``score`` once sharpened (see :func:`boundary_sample`)."""
    f = score.value_stack(raw * (1.0 / nrm)[:, None, None])
    if not np.isfinite(f).all():
        return np.ones(len(f), dtype=bool)
    e = width / np.maximum(nrm - 0.5 * width, R / 10.0) + 1e-12
    return f + e >= np.max(f - e)


@dataclass
class InclusionReport(Record):
    """Decay record of the worst dominative value on boundary directions.

    ``trend_slope`` is the least-squares slope of log(worst) against
    log(R); ``decay_exponent`` is its negation (+0.0 for a zero slope).
    The verdict follows :func:`inclusion_verdict` with the zero threshold
    at 5x the property tolerance.  ``q_interval`` is the guaranteed
    Sobolev exponent interval as JSON: ``{"lo", "hi", "conditional_on"}``.
    """

    p: float
    radii: list[float]
    worst_fp_per_radius: list[float]
    trend_slope: float
    decay_exponent: float
    verdict: str
    count: int
    seed: int
    q_interval: dict


def inclusion_verdict(radii, worst, zero_thresh: float) -> tuple[float, str]:
    """Trend slope and verdict from the worst values at increasing radii.

    Only values above ``zero_thresh`` enter the least-squares fit of
    log(worst) against log(R); the slope is 0 when fewer than two do.

    ==================================================  ==============
    worst values                                        verdict
    ==================================================  ==============
    all at or below ``zero_thresh``                     consistent
    one above it, not at the largest radius             consistent
    one above it, at the largest radius                 inconclusive
    fitted decay exponent (-slope) at least 0.25        consistent
    exponent below 0.1, last one above 10x threshold    violated
    anything else                                       inconclusive
    ==================================================  ==============
    """
    pts = [
        (math.log(r), math.log(w))
        for r, w in zip(radii, worst)
        if w > zero_thresh
    ]
    if len(pts) < 2:
        return 0.0, "inconclusive" if worst[-1] > zero_thresh else "consistent"
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    beta = -slope
    if beta >= 0.25:
        return slope, "consistent"
    if beta < 0.1 and worst[-1] > 10.0 * zero_thresh:
        return slope, "violated"
    return slope, "inconclusive"


def check_inclusion(
    oracle: EllipticSetOracle,
    B: InvertibleMap | None,
    p: float,
    radii,
    count: int = 300,
    seed: int = 0,
    root_tol: float = ROOT_TOL,
    property_tol: float = PROPERTY_TOL,
) -> InclusionReport:
    """Numerical evidence for ac(B^T Theta B) <= Theta_p.

    Requires at least three finite, positive, increasing radii spanning
    three decades.  ``root_tol`` is the bisection tolerance per unit of
    radius (see :func:`boundary_sample`): at every radius each sampled
    direction is within ``20 * root_tol`` of its exact value, so, F_p
    being 1-Lipschitz, each worst value is too.  The samples are drawn
    with ``p``, so only the directions whose F_p may be the largest are
    bisected to that tolerance, and each worst value has the bits it has
    when every direction is.  The guaranteed Sobolev exponent interval
    (0, n(p-1)/(n-1)) is attached to the report, conditional on the
    inclusion actually holding.
    """
    radii = [float(r) for r in radii]
    if any(not 0.0 < r < math.inf for r in radii):
        raise PreconditionError(f"radii must be finite and positive, got {radii}")
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be at least three increasing values")
    if math.log10(radii[-1] / radii[0]) < 3.0 - 1e-9:
        raise PreconditionError("radii must span at least three decades")
    score = DominativeP(oracle.n, p)  # rejects a bad p before any sampling

    target = oracle if B is None else conjugate_oracle(oracle, B)
    worst = []
    for i, r in enumerate(radii):
        directions = boundary_sample(target, r, count, seed=seed + 7919 * i, root_tol=root_tol, p=p)
        worst.append(max(score.value_stack(directions).tolist()))

    slope, verdict = inclusion_verdict(radii, worst, 5.0 * property_tol)
    q_hi = sobolev_threshold(oracle.n, p)
    return InclusionReport(
        p=p,
        radii=radii,
        worst_fp_per_radius=worst,
        trend_slope=slope,
        decay_exponent=0.0 - slope,  # +0.0, not -0.0, for a zero slope
        verdict=verdict,
        count=count,
        seed=seed,
        q_interval={"lo": 0.0, "hi": num_to_json(q_hi), "conditional_on": "asymptotic-cone inclusion"},
    )
