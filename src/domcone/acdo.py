"""Signed distance to the boundary of an elliptic matrix set.

For a proper, downward-closed (elliptic) set Theta in S(n), the value
``-sup{t | X + tI in Theta}`` is the signed distance from X to the
boundary in the matrix infinity norm: negative inside, positive outside,
and ``X - value * I`` sits on the boundary.  The sublevel sets of the
catalog operators have it in closed form (``X + tI`` only shifts the
spectrum), and their oracles carry it.  For any other elliptic set
(a user predicate, a congruence image) membership along the identity
line is monotone, and the distance is found by bisection on the
membership predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NonProperSetError, PreconditionError
from .operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    OperatorSpec,
    Pucci,
    Report,
    Shifted,
    _check_count,
    closed_form_distance,
)
from .sampling import goe_matrix, make_rng, random_nsd, random_orthogonal
from .symmat import SymMatrix, congruence, inf_norm

#: Absolute tolerance of the root finder.
ROOT_TOL = 1e-10

#: Bracket expansion beyond this magnitude declares the set non-proper.
BRACKET_CAP = 1e15

_MAX_BISECT = 200


@dataclass
class EllipticSetOracle:
    """Membership predicate for a proper negative elliptic set.

    The predicate must be pure and re-entrant.  Witnesses are optional;
    when both are present they are verified on construction.  ``distance``
    is an optional closed form of the signed distance; without it
    :func:`acdo_root` bisects on the predicate.  Downward
    closure (membership survives adding any negative semidefinite
    matrix) is a caller contract, testable via
    :func:`check_downward_closure`.
    """

    member: Callable[[SymMatrix], bool]
    n: int
    inside_witness: SymMatrix | None = None
    outside_witness: SymMatrix | None = None
    description: str = ""
    distance: Callable[[SymMatrix], float] | None = None

    def __post_init__(self):
        if self.inside_witness is not None and not self.member(self.inside_witness):
            raise InputError(
                f"inside witness is not a member of the set ({self.description})"
            )
        if self.outside_witness is not None and self.member(self.outside_witness):
            raise InputError(
                f"outside witness is a member of the set ({self.description})"
            )


def oracle_from_operator(spec: OperatorSpec, description: str = "") -> EllipticSetOracle:
    """Sublevel-set membership oracle F(X) <= 0 for a catalog operator,
    with the spec's closed-form distance where it has one."""
    inside, outside = _default_witnesses(spec, spec.n)
    return EllipticSetOracle(
        member=lambda x: spec.value(x) <= 0.0,
        n=spec.n,
        inside_witness=inside,
        outside_witness=outside,
        description=description or f"sublevel set of {type(spec).__name__}",
        distance=closed_form_distance(spec),
    )


def _default_witnesses(spec, n):
    if isinstance(spec, (DominativeP, Pucci, EnsembleSupport, ExampleEq)):
        eye = SymMatrix.identity(n)
        return eye * -2.0, eye * 2.0
    if isinstance(spec, LinearTrace):
        tr_a = float(np.trace(spec.A.a))
        eye = SymMatrix.identity(n)
        return eye * ((spec.m - 1.0) / tr_a), eye * ((spec.m + 1.0) / tr_a)
    if isinstance(spec, Shifted):
        inside, outside = _default_witnesses(spec.inner, n)
        shift = lambda w: None if w is None else w + spec.X0
        return shift(inside), shift(outside)
    if isinstance(spec, Conjugated):
        inside, outside = _default_witnesses(spec.inner, n)
        conj = lambda w: None if w is None else congruence(w, spec.B)
        return conj(inside), conj(outside)
    return None, None


@dataclass(frozen=True)
class AcdoRoot:
    """Root-finding outcome: the signed distance, its final bracket in value
    space, the bisection iteration count, the number of membership probes
    (or spectral evaluations), and the ``method`` that ran: "closed-form"
    (bracket ``(v, v)``, one evaluation, the tolerance unused) or
    "bisection"."""

    value: float
    bracket: tuple[float, float]
    iterations: int
    probes: int
    method: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "probes": self.probes,
            "method": self.method,
        }


def acdo_root(oracle: EllipticSetOracle, x: SymMatrix, tol: float = ROOT_TOL) -> AcdoRoot:
    """Signed distance of ``x`` to the set boundary along the identity line.

    The oracle's closed-form ``distance`` when it has one.  Otherwise
    exponential bracket expansion from t = 0 (steps 1, 2, 4, ... in the
    needed direction), then bisection to absolute width ``tol``.  Either
    way the returned value v satisfies ``member(x - (v+tol) I)`` and
    ``not member(x - (v-tol) I)``, the closed form up to rounding.

    Monotonicity of membership in t is a consequence of ellipticity and is
    enforced by the probing scheme itself: expansion stops at the first
    sign flip and bisection probes strictly inside the bracket, so for any
    re-entrant predicate the observed probes are order-consistent.  A
    non-elliptic oracle yields a well-defined root of *some* crossing, not
    an error; test ellipticity separately via check_downward_closure.
    """
    if x.n != oracle.n:
        raise PreconditionError(
            f"matrix dimension {x.n} does not match oracle dimension {oracle.n}"
        )
    if oracle.distance is not None:
        v = float(oracle.distance(x))
        return AcdoRoot(value=v, bracket=(v, v), iterations=0, probes=1, method="closed-form")
    probes = 0

    def member_at(t: float) -> bool:
        nonlocal probes
        probes += 1
        return bool(oracle.member(x.shift(t)))

    if member_at(0.0):
        lo, step = 0.0, 1.0
        while True:
            if step > BRACKET_CAP:
                raise NonProperSetError(
                    f"no boundary above t = {lo:g}: the set contains the whole "
                    f"identity line through the probe ({oracle.description})",
                    reason="full-line",
                )
            if member_at(step):
                lo = step
                step *= 2.0
            else:
                hi = step
                break
    else:
        hi, step = 0.0, -1.0
        while True:
            if -step > BRACKET_CAP:
                raise NonProperSetError(
                    f"no member below t = {hi:g}: the set is empty along the "
                    f"identity line through the probe ({oracle.description})",
                    reason="empty-line",
                )
            if member_at(step):
                lo = step
                break
            hi = step
            step *= 2.0

    iterations = 0
    while hi - lo > tol and iterations < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if member_at(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1

    t_mid = 0.5 * (lo + hi)
    return AcdoRoot(
        value=-t_mid,
        bracket=(-hi, -lo),
        iterations=iterations,
        probes=probes,
        method="bisection",
    )


def acdo_eval(oracle: EllipticSetOracle, x: SymMatrix, tol: float = ROOT_TOL) -> float:
    """Signed distance value; see :func:`acdo_root` for the contract."""
    return acdo_root(oracle, x, tol).value


# ---------------------------------------------------------------------------
# Property verifiers


@dataclass
class PropertyReport(Report):
    name: str
    samples: int
    checks: int = 0
    max_deviation: float = 0.0


_TAU_GRID = (-10.0, -1.0, 0.1, 7.0)


def check_nondegeneracy(
    oracle: EllipticSetOracle,
    samples: int = 100,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify the identity-shift normalization F(X + tau I) = F(X) + tau."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="nondegeneracy", samples=samples)
    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        base = acdo_eval(oracle, x, tol)
        for tau in _TAU_GRID:
            dev = abs(acdo_eval(oracle, x.shift(tau), tol) - base - tau)
            report.checks += 1
            report.max_deviation = max(report.max_deviation, dev)
            if dev > 3.0 * tol:
                report.violations.append(
                    {"tau": tau, "deviation": dev, "X": x.to_dict()}
                )
    return report


def check_lipschitz(
    oracle: EllipticSetOracle,
    samples: int = 200,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify |F(X) - F(Y)| <= ||X - Y||_inf on sampled pairs."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="lipschitz", samples=samples)
    for i in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        y = goe_matrix(rng, oracle.n, radius=1.0 + (i % 3))
        lhs = abs(acdo_eval(oracle, x, tol) - acdo_eval(oracle, y, tol))
        excess = lhs - inf_norm(x - y)
        report.checks += 1
        report.max_deviation = max(report.max_deviation, excess)
        if excess > 3.0 * tol:
            report.violations.append(
                {"excess": excess, "X": x.to_dict(), "Y": y.to_dict()}
            )
    return report


@dataclass(frozen=True)
class StructureFlags:
    """Structural assertions supplied by the caller about the set; only
    asserted flags are checked, and a violation falsifies the assertion,
    not the distance computation."""

    convex: bool = False
    concave_complement: bool = False
    cone: bool = False
    rot_invariant: bool = False


def check_structure(
    oracle: EllipticSetOracle,
    flags: StructureFlags,
    samples: int = 100,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Check the functional identities implied by asserted set structure:
    midpoint convexity / concavity, positive homogeneity (c in {0.5, 2}),
    and rotation invariance, each to 3x the root tolerance."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="structure", samples=samples)

    def dist(x):
        return acdo_eval(oracle, x, tol)

    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        fx = dist(x)
        if flags.convex or flags.concave_complement:
            y = goe_matrix(rng, oracle.n, radius=1.0)
            fy = dist(y)
            fmid = dist((x + y) * 0.5)
            if flags.convex:
                dev = fmid - 0.5 * (fx + fy)
                report.checks += 1
                report.max_deviation = max(report.max_deviation, dev)
                if dev > 3.0 * tol:
                    report.violations.append(
                        {"flag": "convex", "deviation": dev, "X": x.to_dict(), "Y": y.to_dict()}
                    )
            if flags.concave_complement:
                dev = 0.5 * (fx + fy) - fmid
                report.checks += 1
                report.max_deviation = max(report.max_deviation, dev)
                if dev > 3.0 * tol:
                    report.violations.append(
                        {
                            "flag": "concave_complement",
                            "deviation": dev,
                            "X": x.to_dict(),
                            "Y": y.to_dict(),
                        }
                    )
        if flags.cone:
            for c in (0.5, 2.0):
                dev = abs(dist(x * c) - c * fx)
                report.checks += 1
                report.max_deviation = max(report.max_deviation, dev)
                if dev > 3.0 * tol * max(1.0, c):
                    report.violations.append(
                        {"flag": "cone", "c": c, "deviation": dev, "X": x.to_dict()}
                    )
        if flags.rot_invariant:
            q = random_orthogonal(rng, oracle.n)
            dev = abs(dist(SymMatrix(q.T @ x.a @ q)) - fx)
            report.checks += 1
            report.max_deviation = max(report.max_deviation, dev)
            if dev > 3.0 * tol:
                report.violations.append(
                    {"flag": "rot_invariant", "deviation": dev, "X": x.to_dict()}
                )
    return report


def check_downward_closure(
    oracle: EllipticSetOracle,
    samples: int = 200,
    seed: int = 0,
) -> PropertyReport:
    """Sampled set-ellipticity: member(X) and N <= 0 imply member(X + N)."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="downward-closure", samples=samples)
    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        if not oracle.member(x):
            # pull the sample inside through the boundary projection
            x = x.shift(-acdo_eval(oracle, x) - 1e-6)
            if not oracle.member(x):
                continue
        n_mat = random_nsd(rng, oracle.n, scale=0.5)
        report.checks += 1
        if not oracle.member(x + n_mat):
            report.violations.append({"X": x.to_dict(), "N": n_mat.to_dict()})
    return report
