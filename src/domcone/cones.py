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

from .acdo import ROOT_TOL, EllipticSetOracle, acdo_eval
from .errors import NumericalFailureError, PreconditionError
from .operators import _check_count, eval_dominative, num_to_json
from .sampling import goe_matrix, make_rng
from .symmat import InvertibleMap, SymMatrix, congruence, inf_norm

#: Default property tolerance for "numerically zero" worst values.
PROPERTY_TOL = 1e-8


def conjugate_oracle(oracle: EllipticSetOracle, B: InvertibleMap) -> EllipticSetOracle:
    """Oracle of the congruence image B^T Theta B.

    Membership of X in the image is membership of B^-T X B^-1 in Theta;
    ellipticity and properness survive the congruence.
    """
    inv = B.B_inv

    def member(x: SymMatrix) -> bool:
        return oracle.member(congruence(x, inv))

    conj = lambda w: None if w is None else congruence(w, B)
    return EllipticSetOracle(
        member=member,
        n=oracle.n,
        inside_witness=conj(oracle.inside_witness),
        outside_witness=conj(oracle.outside_witness),
        description=f"congruence image of ({oracle.description})",
    )


def boundary_sample(
    oracle: EllipticSetOracle,
    R: float,
    count: int,
    seed: int = 0,
    root_tol: float = ROOT_TOL,
) -> list[SymMatrix]:
    """Directions of ``count`` boundary points at radius R, each scaled to
    infinity norm one.

    Each random unit direction D (GOE, infinity norm one) maps to the
    boundary point ``R*D - dist(R*D) * I`` via the signed distance;
    projections that collapse below R/10 in norm are discarded and
    resampled as degenerate.
    """
    rng = make_rng(seed)
    out: list[SymMatrix] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count + 100:
            raise NumericalFailureError(
                "boundary sampling kept hitting degenerate projections",
                payload=oracle.description,
            )
        d = goe_matrix(rng, oracle.n, radius=1.0)
        probe = d * R
        raw = probe.shift(-acdo_eval(oracle, probe, root_tol))
        nrm = inf_norm(raw)
        if nrm < R / 10.0:
            continue
        out.append(raw * (1.0 / nrm))
    return out


@dataclass
class InclusionReport:
    """Decay record of the worst dominative value on boundary directions.

    ``trend_slope`` is the least-squares slope of log(worst) against
    log(R); the decay exponent is its negation.  The verdict follows
    :func:`inclusion_verdict` with the zero threshold at 5x the property
    tolerance.
    """

    p: float
    radii: list[float]
    worst_fp_per_radius: list[float]
    trend_slope: float
    verdict: str
    count: int
    seed: int
    q_interval: tuple[float, float]

    @property
    def decay_exponent(self) -> float:
        return -self.trend_slope

    def to_dict(self) -> dict:
        return {
            "p": num_to_json(self.p),
            "radii": self.radii,
            "worst_fp_per_radius": self.worst_fp_per_radius,
            "trend_slope": self.trend_slope,
            "decay_exponent": self.decay_exponent,
            "verdict": self.verdict,
            "count": self.count,
            "seed": self.seed,
            "q_interval": {
                "lo": self.q_interval[0],
                "hi": num_to_json(self.q_interval[1]),
                "conditional_on": "asymptotic-cone inclusion",
            },
        }


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
    three decades.  The guaranteed Sobolev exponent interval
    (0, n(p-1)/(n-1)) is attached to the report, conditional on the
    inclusion actually holding.
    """
    _check_count(count)
    radii = [float(r) for r in radii]
    if any(not 0.0 < r < math.inf for r in radii):
        raise PreconditionError(f"radii must be finite and positive, got {radii}")
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be at least three increasing values")
    if math.log10(radii[-1] / radii[0]) < 3.0 - 1e-9:
        raise PreconditionError("radii must span at least three decades")

    target = oracle if B is None else conjugate_oracle(oracle, B)
    worst = []
    for i, r in enumerate(radii):
        directions = boundary_sample(target, r, count, seed=seed + 7919 * i, root_tol=root_tol)
        worst.append(max(eval_dominative(d, p) for d in directions))

    slope, verdict = inclusion_verdict(radii, worst, 5.0 * property_tol)
    n = oracle.n
    q_hi = math.inf if p == math.inf else n * (p - 1.0) / (n - 1.0)
    return InclusionReport(
        p=p,
        radii=radii,
        worst_fp_per_radius=worst,
        trend_slope=slope,
        verdict=verdict,
        count=count,
        seed=seed,
        q_interval=(0.0, q_hi),
    )
