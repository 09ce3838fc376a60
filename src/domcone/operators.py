"""Catalog of degenerate elliptic operators F: S(n) -> extended reals.

Every operator here is spectrally defined or reduces to one by a shift
or a congruence.  Evaluation is exact per formula; sublevel-set
membership is ``F(X) <= tol``.  Composite specs unwrap so that the
sublevel set of ``Conjugated(F, B)`` is B^T Theta(F) B and the sublevel
set of ``Shifted(F, X0)`` is Theta(F) + {X0}.

Each spec but ``Conjugated`` also has ``distance(x)``, the signed
distance ``-sup{t | F(X + tI) <= 0}`` to the boundary of its sublevel
set in closed form.  ``X + tI`` only shifts the spectrum by t, so one
eigensolve (none for ``LinearTrace``) gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .errors import DimensionMismatchError, InputError, PreconditionError
from .symmat import (
    LOEWNER_TOL,
    InvertibleMap,
    SymMatrix,
    congruence,
    eigvals_sym,
    inner,
)

if TYPE_CHECKING:  # pragma: no cover
    from .aperture import ConvexBody

P_INF = math.inf


def _check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 2.0:
        raise PreconditionError(f"exponent p must lie in [2, inf], got {p}")
    return p


def _check_count(value: int, what: str = "sample count", minimum: int = 1) -> None:
    """Reject a count below ``minimum``: a sampled check that runs no
    sample would pass without evidence."""
    if value < minimum:
        raise PreconditionError(f"{what} must be at least {minimum}, got {value}")


def eval_dominative(x: SymMatrix, p: float) -> float:
    """Normalized dominative operator.

    ``(tr X + (p-2) lambda_n(X)) / (n+p-2)`` for finite p, and the largest
    eigenvalue at p = inf.  Normalized so that F(X + mI) = F(X) + m.
    """
    return float(dominative_from_eigs(eigvals_sym(x), np.trace(x.a), p))


def dominative_from_eigs(ev: np.ndarray, trace, p: float):
    """:func:`eval_dominative` over the trailing axis of ascending spectra
    ``ev`` of shape ``(..., n)``, with ``trace`` their matrices' traces."""
    p = _check_p(p)
    top = ev[..., -1][()]  # [()]: a scalar for one spectrum, not a slower 0-d array
    if p == P_INF:
        return top
    return (trace + (p - 2.0) * top) / (ev.shape[-1] + p - 2.0)


def eval_pucci(x: SymMatrix, lam: float, Lam: float) -> float:
    """Maximal uniformly elliptic operator with ellipticity constants [lam, Lam].

    Equals ``Lam * sum(positive eigenvalues) + lam * sum(negative eigenvalues)``.
    """
    if not 0.0 < lam <= Lam < math.inf:
        raise PreconditionError(f"require 0 < lam <= Lam < inf, got lam={lam}, Lam={Lam}")
    ev = eigvals_sym(x)
    pos = ev[ev > 0.0].sum()
    neg = ev[ev < 0.0].sum()
    return float(Lam * pos + lam * neg)


def eval_support(x: SymMatrix, body) -> float:
    """Support function of a convex body of symmetric matrices: the
    maximum of :func:`_support_pairings` over the generators."""
    return float(_support_pairings(x, body).max())


def _support_pairings(x: SymMatrix, body) -> np.ndarray:
    """Per-generator pairings whose maximum is the support value at ``x``.

    For a rotation-closed body (``body.rot_closed``) the maximum of
    tr(Q A Q^T X) over orthogonal Q is the ascending-sorted eigenvalue dot
    product (von Neumann's trace inequality); for a plain generator hull
    it is the direct pairing ``<A, X>``.  The matmul against ``ev[:, None]``
    sums as :func:`support_from_eigs` does, so both give the same bits.
    """
    if x.n != body.n:
        raise DimensionMismatchError(
            f"matrix dimension {x.n} does not match body dimension {body.n}"
        )
    if body.rot_closed:
        return np.matmul(body.generator_spectra, eigvals_sym(x)[:, None])[:, 0]
    return np.array([inner(a, x) for a in body.generators])


def support_from_eigs(ev: np.ndarray, spectra: np.ndarray):
    """Rotation-closed :func:`eval_support` over the trailing axis of
    ascending spectra ``ev`` of shape ``(..., n)``: the maximum over the
    rows of ``spectra`` (the generators' ascending spectra) of the
    sorted-eigenvalue pairing, von Neumann's trace inequality.

    The pairing is a matmul against ``ev[..., None]``, which gives the
    same bits for one spectrum and for a stack; ``ev @ spectra.T`` and
    ``einsum`` sum in another order and differ in the last digits.
    """
    return np.matmul(spectra, ev[..., None])[..., 0].max(-1)


def eval_example(x: SymMatrix) -> float:
    """Two-dimensional model equation with an unbounded-trace sublevel set.

    Value ``l1 + l2 - 2*sqrt(1 + l2) + 2`` on ordered eigenvalues
    l1 <= l2 when l2 >= -1; -inf below that edge, which is the unique
    extension keeping the sublevel set downward closed.
    """
    if x.n != 2:
        raise DimensionMismatchError(f"example operator is defined on S(2), got n={x.n}")
    l1, l2 = eigvals_sym(x)
    if l2 < -1.0:
        return -math.inf
    return float(l1 + l2 - 2.0 * math.sqrt(max(0.0, 1.0 + l2)) + 2.0)


# ---------------------------------------------------------------------------
# Operator specs


@dataclass(frozen=True)
class DominativeP:
    n: int
    p: float

    def __post_init__(self):
        _check_p(self.p)

    def value(self, x: SymMatrix) -> float:
        _check_op_dim(self, x)
        return eval_dominative(x, self.p)

    def distance(self, x: SymMatrix) -> float:
        """F(X) itself, by the normalization F(X + mI) = F(X) + m."""
        return self.value(x)


@dataclass(frozen=True)
class Pucci:
    n: int
    lam: float
    Lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= self.Lam < math.inf:
            raise InputError(
                f"require 0 < lam <= Lam < inf, got lam={self.lam}, Lam={self.Lam}"
            )

    def value(self, x: SymMatrix) -> float:
        _check_op_dim(self, x)
        return eval_pucci(x, self.lam, self.Lam)

    def distance(self, x: SymMatrix) -> float:
        """Root of the strictly increasing, piecewise-linear t -> F(X + tI).

        Its breakpoints are the ``-lambda_i``, and F(X - lambda_k I) is
        nonnegative for exactly the j smallest k.  On the root's piece the
        j smallest shifted eigenvalues are <= 0 and the others positive, so
        F(X + tI) = lam (S_j + j t) + Lam (T_j + (n-j) t), with S_j and T_j
        the sums of the j smallest and the n-j largest eigenvalues.
        """
        _check_op_dim(self, x)
        ev = eigvals_sym(x)
        gaps = ev[None, :] - ev[:, None]  # gaps[k, i] = lambda_i - lambda_k
        up = np.maximum(gaps, 0.0).sum(axis=1)
        down = np.minimum(gaps, 0.0).sum(axis=1)
        j = int(np.count_nonzero(self.Lam * up + self.lam * down >= 0.0))
        num = self.lam * ev[:j].sum() + self.Lam * ev[j:].sum()
        return float(num / (self.lam * j + self.Lam * (x.n - j)))


@dataclass(frozen=True)
class LinearTrace:
    """Affine half-space operator ``<A, X> - m`` with A >= 0, tr A > 0."""

    A: SymMatrix
    m: float

    def __post_init__(self):
        ev = eigvals_sym(self.A)
        if ev[0] < -LOEWNER_TOL:
            raise InputError(
                f"linear operator matrix must be positive semidefinite "
                f"(lambda_1 = {ev[0]:g})"
            )
        if float(np.trace(self.A.a)) <= 0.0:
            raise InputError("linear operator matrix must have positive trace")

    @property
    def n(self) -> int:
        return self.A.n

    def value(self, x: SymMatrix) -> float:
        _check_op_dim(self, x)
        return inner(self.A, x) - self.m

    def distance(self, x: SymMatrix) -> float:
        """``(<A, X> - m) / tr A``, as <A, X + tI> = <A, X> + t tr A."""
        _check_op_dim(self, x)
        return (inner(self.A, x) - self.m) / float(np.trace(self.A.a))


@dataclass(frozen=True)
class EnsembleSupport:
    body: "ConvexBody"

    @property
    def n(self) -> int:
        return self.body.n

    def value(self, x: SymMatrix) -> float:
        return eval_support(x, self.body)

    def distance(self, x: SymMatrix) -> float:
        """``max_k pairing_k / tr A_k`` over the :func:`_support_pairings`:
        each pairing grows by t tr A_k along X + tI, and ``ConvexBody``
        keeps every tr A_k positive.
        """
        traces = self.body.generator_spectra.sum(axis=1)
        return float(np.max(_support_pairings(x, self.body) / traces))


@dataclass(frozen=True)
class ExampleEq:
    n: int = 2

    def __post_init__(self):
        if self.n != 2:
            raise InputError(f"example operator is defined on S(2), got n={self.n}")

    def value(self, x: SymMatrix) -> float:
        return eval_example(x)

    def distance(self, x: SymMatrix) -> float:
        """``1 + l2 - s^2`` with ``s = (1 + sqrt(1 + 2 (l2 - l1))) / 2``.

        With u = sqrt(1 + l2 + t), F(X + tI) = 2u^2 - 2u - (l2 - l1), which
        is nonpositive up to its larger root u = s; below u = 0 it is -inf.
        """
        _check_op_dim(self, x)
        l1, l2 = eigvals_sym(x)
        s = 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * (l2 - l1)))
        return float(1.0 + l2 - s * s)


@dataclass(frozen=True)
class Shifted:
    inner: "OperatorSpec"
    X0: SymMatrix

    def __post_init__(self):
        if self.inner.n != self.X0.n:
            raise DimensionMismatchError(
                "shift matrix dimension does not match inner operator"
            )

    @property
    def n(self) -> int:
        return self.X0.n

    def value(self, x: SymMatrix) -> float:
        _check_op_dim(self, x)
        return self.inner.value(x - self.X0)

    def distance(self, x: SymMatrix) -> float:
        """The inner spec's distance at X - X0; see :func:`closed_form_distance`
        for when the inner spec has one."""
        _check_op_dim(self, x)
        return self.inner.distance(x - self.X0)


@dataclass(frozen=True)
class Conjugated:
    inner: "OperatorSpec"
    B: InvertibleMap

    def __post_init__(self):
        if self.inner.n != self.B.n:
            raise DimensionMismatchError(
                "conjugating map dimension does not match inner operator"
            )

    @property
    def n(self) -> int:
        return self.B.n

    def value(self, x: SymMatrix) -> float:
        _check_op_dim(self, x)
        # F(B^-T X B^-1): sublevel set becomes B^T Theta B.
        return self.inner.value(congruence(x, self.B.B_inv))


OperatorSpec = Union[
    DominativeP, Pucci, LinearTrace, EnsembleSupport, ExampleEq, Shifted, Conjugated
]


def _check_op_dim(spec, x: SymMatrix) -> None:
    if x.n != spec.n:
        raise DimensionMismatchError(
            f"matrix dimension {x.n} does not match operator dimension {spec.n}"
        )


def closed_form_distance(spec: OperatorSpec) -> Callable[[SymMatrix], float] | None:
    """The spec's ``distance`` method, or None when it has no closed form.

    A congruence image has none: B^-T (X + tI) B^-1 moves along
    B^-T B^-1, not along the identity.  A shift has one when its inner
    spec has.
    """
    if isinstance(spec, Conjugated):
        return None
    if isinstance(spec, Shifted) and closed_form_distance(spec.inner) is None:
        return None
    return spec.distance


@dataclass(frozen=True)
class EvalResult:
    """Evaluation outcome; ``boundary_distance_hint`` is the signed distance
    to the sublevel-set boundary along the identity line when the spec has
    it in closed form (every spec but a congruence image)."""

    value: float
    boundary_distance_hint: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": num_to_json(self.value),
            "boundary_distance_hint": (
                None
                if self.boundary_distance_hint is None
                else num_to_json(self.boundary_distance_hint)
            ),
        }


def evaluate_result(spec: OperatorSpec, x: SymMatrix) -> EvalResult:
    distance = closed_form_distance(spec)
    return EvalResult(
        value=spec.value(x), boundary_distance_hint=None if distance is None else distance(x)
    )


# ---------------------------------------------------------------------------
# JSON wire format


def num_to_json(x: float):
    """Render a float for strict JSON; infinities become strings."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def num_from_json(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(v)
        except ValueError as exc:
            raise InputError(f"cannot parse number {v!r}") from exc
    return float(v)


@dataclass(kw_only=True)
class Report:
    """Base of the sampled property reports.

    A report passes when it records no violation.  Its JSON form is its
    fields plus ``passed``, with float fields rendered by
    :func:`num_to_json` so that infinities survive strict JSON.
    """

    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = num_to_json(v) if isinstance(v, float) else v
        out["passed"] = self.passed
        return out


def spec_to_dict(spec: OperatorSpec) -> dict:
    if isinstance(spec, DominativeP):
        return {"type": "dominative", "n": spec.n, "p": num_to_json(spec.p)}
    if isinstance(spec, Pucci):
        return {"type": "pucci", "n": spec.n, "lam": spec.lam, "Lam": spec.Lam}
    if isinstance(spec, LinearTrace):
        return {"type": "linear", "A": spec.A.to_dict(), "m": spec.m}
    if isinstance(spec, EnsembleSupport):
        return {"type": "ensemble", "body": spec.body.to_dict()}
    if isinstance(spec, ExampleEq):
        return {"type": "example", "n": 2}
    if isinstance(spec, Shifted):
        return {"type": "shifted", "inner": spec_to_dict(spec.inner), "X0": spec.X0.to_dict()}
    if isinstance(spec, Conjugated):
        return {"type": "conjugated", "inner": spec_to_dict(spec.inner), "B": spec.B.to_dict()}
    raise InputError(f"unknown operator spec {spec!r}")


def spec_from_dict(d: dict) -> OperatorSpec:
    from .aperture import ConvexBody  # deferred: avoids a module cycle

    try:
        kind = d["type"]
    except (KeyError, TypeError) as exc:
        raise InputError("operator spec object must carry a 'type' field") from exc
    try:
        if kind == "dominative":
            return DominativeP(n=int(d["n"]), p=num_from_json(d["p"]))
        if kind == "pucci":
            return Pucci(n=int(d["n"]), lam=float(d["lam"]), Lam=float(d["Lam"]))
        if kind == "linear":
            return LinearTrace(A=SymMatrix.from_dict(d["A"]), m=float(d["m"]))
        if kind == "ensemble":
            return EnsembleSupport(body=ConvexBody.from_dict(d["body"]))
        if kind == "example":
            return ExampleEq(n=int(d.get("n", 2)))
        if kind == "shifted":
            return Shifted(inner=spec_from_dict(d["inner"]), X0=SymMatrix.from_dict(d["X0"]))
        if kind == "conjugated":
            return Conjugated(
                inner=spec_from_dict(d["inner"]), B=InvertibleMap.from_dict(d["B"])
            )
    except KeyError as exc:
        raise InputError(f"operator spec of type {kind!r} is missing field {exc}") from exc
    raise InputError(f"unknown operator type {kind!r}")
