"""Catalog of degenerate elliptic operators F: S(n) -> extended reals.

Every operator here is spectrally defined or reduces to one by a shift
or a congruence.  Evaluation is exact per formula; sublevel-set
membership is ``F(X) <= tol``.  Composite specs unwrap so that the
sublevel set of ``Conjugated(F, B)`` is B^T Theta(F) B and the sublevel
set of ``Shifted(F, X0)`` is Theta(F) + {X0}.

Each spec has ``value_stack(a)``, the bits of ``value`` on each matrix
of a ``(k, n, n)`` stack from at most one stacked eigensolve.  Each spec
also has ``distance(x)``, the signed distance ``-sup{t | F(X + tI) <= 0}``
to the boundary of its sublevel set in closed form, or ``distance`` None
where it has none (a congruence image, and a shift of one).  ``X + tI``
only shifts the spectrum by t, so one eigensolve (none for
``LinearTrace``) gives it.

The dominative F_p, Pucci's extremal operator and the support function
of a rotation-closed body are positively homogeneous functions of the
ascending spectrum.  Each is one rule ``rule(a, ev, *args)``, of matrices
``a`` and their spectra ``ev``, that serves one matrix and a stack alike.
:func:`_spectral` runs it on one matrix, rescaled by a power of two where
it would pass the float range; :func:`_stacked` runs it on a stack, whose
rows past that range take the scalar value.  The Pucci distance and the
distance of a rotation-closed body are such rules too.  A ``LinearTrace``
and a plain generator hull are maxima of trace pairings: their ``value``,
``value_stack`` and ``distance`` run one pairing rule on a stack through
:func:`symmat._paired`, which rescales the rows past the float range.  No
spec takes both paths.  ``ExampleEq`` is not homogeneous and takes its
large cases in halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import InputError
from .rules import Record, _check_p, _check_pucci, check_dim, dim_from_json, num_from_json, num_to_json
from .symmat import (
    LOEWNER_TOL,
    InvertibleMap,
    SymMatrix,
    _paired,
    _pairings,
    congruence,
    congruence_stack,
    eigvals_stack,
    eigvals_sym,
)

if TYPE_CHECKING:  # pragma: no cover
    from .aperture import ConvexBody

P_INF = math.inf


#: Where max |lambda_i| times a rule's growth is below this, no
#: intermediate of the rule can pass the float range (see
#: :func:`_spectral`), with a factor 2 to spare for rounding.
_NO_OVERFLOW = 2.0**1015


def _spectral(rule, x: SymMatrix, growth: float, *args) -> float:
    """``rule(x.a, ev, *args)``, for the ascending spectrum ``ev`` of x (one
    eigensolve) and a rule positively homogeneous of degree one in x whose
    intermediates are at most 2^7 ``growth`` max |lambda_i| in size
    (``growth`` >= 1).

    Where max |lambda_i| reaches 2^1015 / ``growth``, it is 2^k rule(2^-k x)
    instead, on 2^-k x and 2^-k ev (solved again only where ev passed the
    float range), with every intermediate below 2^1022.  A power of two
    scales each operation exactly but for subnormal results, far below the
    values these rules turn on; so the value keeps the plain rule's bits
    wherever that one is right, is finite wherever the exact value is in
    the float range, and is +-inf, with no numpy warning, elsewhere.  A
    finite plain value would not do as the test: where the scan of
    :meth:`Pucci.distance` overflows, it miscounts its pieces and stays
    finite.
    """
    ev = eigvals_sym(x)
    bound = _NO_OVERFLOW / growth
    if -bound < ev[0] and ev[-1] < bound:
        return float(rule(x.a, ev, *args))
    with np.errstate(over="ignore", invalid="ignore"):
        # |lambda_i| <= n max|x_ij| <= 2^4 max|x_ij|, so the intermediates
        # of 2^-k x are below 2^(7 + 4) growth 2^(1011 - e(growth)) <= 2^1022
        k = math.frexp(np.abs(x.a).max())[1] + math.frexp(growth)[1] - 1011
        a = np.ldexp(x.a, -k)
        ev = np.ldexp(ev, -k) if np.isfinite(ev).all() else eigvals_sym(SymMatrix._wrap(a))
        return float(np.ldexp(rule(a, ev, *args), k))


def _stacked(rule, a: np.ndarray, growth: float, value, *args) -> np.ndarray:
    """``rule(a, ev, *args)`` of :func:`_spectral` on a ``(k, n, n)`` stack
    ``a`` of spectra ``ev`` (one stacked eigensolve), with each row whose
    spectrum fails the range test of :func:`_spectral` replaced by the
    spec's scalar ``value`` of its matrix, so that a stack has the bits of
    its rows."""
    ev = eigvals_stack(a)
    bound = _NO_OVERFLOW / growth
    if np.abs(ev).max(initial=0.0) < bound:
        return rule(a, ev, *args)
    with np.errstate(over="ignore", invalid="ignore"):
        v = rule(a, ev, *args)
    far = np.flatnonzero(~(np.abs(ev).max(-1) < bound))
    v[far] = [value(SymMatrix._wrap(a[i])) for i in far]
    return v


def eval_dominative(x: SymMatrix, p: float) -> float:
    """Normalized dominative operator.

    ``(tr X + (p-2) lambda_n(X)) / (n+p-2)`` for finite p, and the largest
    eigenvalue at p = inf.  Normalized so that F(X + mI) = F(X) + m.  Where
    the formula passes the float range, :func:`_spectral` rescales X.
    """
    p = _check_p(p)
    return _spectral(dominative_from_eigs, x, 1.0 if p == P_INF else p, p)


def dominative_from_eigs(a: np.ndarray, ev: np.ndarray, p: float):
    """:func:`eval_dominative` of matrices ``a`` of shape ``(..., n, n)``
    and their ascending spectra ``ev`` of shape ``(..., n)``, for an
    exponent ``p`` its caller has checked.  The trace over the last two
    axes has the bits of ``a.trace()`` for one matrix."""
    top = ev[..., -1][()]  # [()]: a scalar for one spectrum, not a slower 0-d array
    if p == P_INF:
        return top
    return (a.trace(axis1=-2, axis2=-1) + (p - 2.0) * top) / (ev.shape[-1] + p - 2.0)


def eval_pucci(x: SymMatrix, lam: float, Lam: float) -> float:
    """Maximal uniformly elliptic operator with ellipticity constants [lam, Lam].

    Equals ``Lam * sum(positive eigenvalues) + lam * sum(negative eigenvalues)``.
    Where that passes the float range, :func:`_spectral` rescales X.
    """
    _check_pucci(lam, Lam)
    return _spectral(pucci_from_eigs, x, max(1.0, Lam), lam, Lam)


def pucci_from_eigs(a: np.ndarray, ev: np.ndarray, lam: float, Lam: float):
    """:func:`eval_pucci` over the trailing axis of spectra ``ev`` of shape
    ``(..., n)`` (of the matrices ``a``, unread), with constants its caller
    has checked.

    The masked ``add.reduce`` sums as ``ev[ev > 0].sum()`` does, for one
    spectrum and per row of a stack; ``np.where(...).sum()`` and
    ``np.maximum(ev, 0).sum()`` add zeros in and differ in the last bit
    from n = 8 on.
    """
    pos = np.add.reduce(ev, -1, where=ev > 0.0)
    neg = np.add.reduce(ev, -1, where=ev < 0.0)
    return Lam * pos + lam * neg


def eval_support(x: SymMatrix, body) -> float:
    """Support function of a convex body of symmetric matrices: the largest
    pairing of X with the body.  For a rotation-closed body that is
    :func:`support_from_eigs`, whose pairings sum terms of at most
    tr A_k max |lambda_i| in size; where they pass the float range,
    :func:`_spectral` rescales X.  For a plain generator hull it is
    :func:`_affine_max`."""
    check_dim(x.n, body.n, against="body")
    if not body.rot_closed:
        return float(_affine_max(x.a[None], body.generator_stack)[0])
    return _spectral(support_from_eigs, x, _support_growth(body), body.generator_spectra)


def _support_growth(body) -> float:
    """The growth of :func:`support_from_eigs` for ``body``: max(1, max tr A_k)."""
    return max(1.0, *body.generator_traces.tolist())


def _affine_max(a: np.ndarray, gens: np.ndarray, t=1.0, m: float = 0.0) -> np.ndarray:
    """``max_k (<A_k, X> - m) / t_k`` over the ``(g, n, n)`` array ``gens``,
    for each matrix X of a ``(k, n, n)`` stack, by :func:`_paired`: a
    ``LinearTrace`` has one A_k, and a plain generator hull m = 0."""
    return _paired(lambda y, m: (_pairings(gens, y) - m) / t, a, np.abs(gens).max(), m).max(-1)


def _sorted_pairings(ev: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Sorted-eigenvalue pairings, shape ``(..., g)``, of ascending spectra
    ``ev`` of shape ``(..., n)`` with each row of ``spectra`` (the
    generators' ascending spectra).

    The pairing is a matmul against ``ev[..., None]``, which gives the
    same bits for one spectrum and for a stack; ``ev @ spectra.T`` and
    ``einsum`` sum in another order and differ in the last digits.
    """
    return np.matmul(spectra, ev[..., None])[..., 0]


def support_from_eigs(a: np.ndarray, ev: np.ndarray, spectra: np.ndarray):
    """Rotation-closed :func:`eval_support` over the trailing axis of
    ascending spectra ``ev`` of shape ``(..., n)`` (of the matrices ``a``,
    unread): the maximum of the :func:`_sorted_pairings` with the rows of
    ``spectra``, von Neumann's trace inequality."""
    return _sorted_pairings(ev, spectra).max(-1)


def _support_root(a: np.ndarray, ev: np.ndarray, spectra: np.ndarray, traces: np.ndarray):
    """Rotation-closed :meth:`EnsembleSupport.distance`: the largest sorted
    pairing over its tr A_k (``traces``), at most max |lambda_i| in size."""
    return (_sorted_pairings(ev, spectra) / traces).max(-1)


def eval_example(x: SymMatrix) -> float:
    """Two-dimensional model equation with an unbounded-trace sublevel set.

    Value ``l1 + l2 - 2*sqrt(1 + l2) + 2`` on ordered eigenvalues
    l1 <= l2 when l2 >= -1; -inf below that edge, which is the unique
    extension keeping the sublevel set downward closed.
    """
    check_dim(x.n, 2)
    return float(example_from_eigs(eigvals_sym(x)))


def example_from_eigs(ev: np.ndarray):
    """:func:`eval_example` over the trailing axis of ascending spectra
    ``ev`` of shape ``(..., 2)``, with the -inf branch below l2 = -1."""
    l1, l2 = ev.T  # two scalars for one spectrum, two columns for a stack
    value = l1 + l2 - 2.0 * np.sqrt(np.maximum(0.0, 1.0 + l2)) + 2.0
    return np.where(l2 < -1.0, -math.inf, value)


# ---------------------------------------------------------------------------
# Operator specs


@dataclass(frozen=True)
class DominativeP:
    n: int
    p: float

    def __post_init__(self):
        _check_p(self.p)

    def value(self, x: SymMatrix) -> float:
        check_dim(x.n, self.n)
        return eval_dominative(x, self.p)

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        """:meth:`value` of each matrix of a ``(k, n, n)`` symmetric stack, bit
        for bit; every spec's ``value_stack`` has this contract."""
        check_dim(a.shape[-1], self.n)
        p = self.p
        return _stacked(dominative_from_eigs, a, 1.0 if p == P_INF else p, self.value, p)

    def distance(self, x: SymMatrix) -> float:
        """F(X) itself, by the normalization F(X + mI) = F(X) + m."""
        return self.value(x)


@dataclass(frozen=True)
class Pucci:
    n: int
    lam: float
    Lam: float

    def __post_init__(self):
        _check_pucci(self.lam, self.Lam)

    def value(self, x: SymMatrix) -> float:
        check_dim(x.n, self.n)
        return eval_pucci(x, self.lam, self.Lam)

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        check_dim(a.shape[-1], self.n)
        return _stacked(pucci_from_eigs, a, max(1.0, self.Lam), self.value, self.lam, self.Lam)

    def distance(self, x: SymMatrix) -> float:
        """Root of the strictly increasing, piecewise-linear t -> F(X + tI).

        Its breakpoints are the ``-lambda_i``, and F(X - lambda_k I) is
        nonnegative for exactly the j smallest k.  On the root's piece the
        j smallest shifted eigenvalues are <= 0 and the others positive, so
        F(X + tI) = lam (S_j + j t) + Lam (T_j + (n-j) t), with S_j and T_j
        the sums of the j smallest and the n-j largest eigenvalues.

        One scan of the ascending spectrum, as Python floats, counts j: with
        the exclusive prefix sum P_k of the k smallest and the total T,
        F(X - lambda_k I) = Lam ((T - P_k - lambda_k) - (n-1-k) lambda_k)
        + lam (P_k - k lambda_k), and no n x n array of gaps is built.
        S_j and T_j stay ``np.add.reduce`` of the spectrum, so the value
        keeps numpy's summation order (Python's ``sum`` compensates from
        3.12 on).  Where the root lies within rounding of a breakpoint, the
        test there may round either way and j be off by one; both pieces
        meet at that breakpoint, so the value moves by about
        eps * max|lambda_i|.  Where the scan passes the float range,
        :func:`_spectral` rescales X.
        """
        check_dim(x.n, self.n)
        lam, Lam = self.lam, self.Lam
        if Lam >= 2.0**1018:  # the root of (c lam, c Lam) is the same; keep n Lam in range
            lam, Lam = lam * 2.0**-8, Lam * 2.0**-8
            if lam < 2.0**-1022:  # lam / Lam < 2^-2032 underflows the scan; the root is lambda_n to rounding
                return eval_dominative(x, P_INF)
        return _spectral(_pucci_root, x, max(1.0, Lam), lam, Lam)


def _pucci_root(a: np.ndarray, ev: np.ndarray, lam: float, Lam: float):
    """The scan of :meth:`Pucci.distance` on the ascending spectrum ``ev``."""
    e = ev.tolist()
    n = len(e)
    pre = list(accumulate(e, initial=0.0))
    tot = pre[-1]
    j = 0
    for k, v in enumerate(e):
        p = pre[k]
        j += Lam * ((tot - p - v) - (n - 1 - k) * v) + lam * (p - k * v) >= 0.0
    num = lam * np.add.reduce(ev[:j]) + Lam * np.add.reduce(ev[j:])
    return num / (lam * j + Lam * (n - j))


@dataclass(frozen=True)
class LinearTrace:
    """Affine half-space operator ``<A, X> - m`` with A >= 0, tr A > 0."""

    A: SymMatrix
    m: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise InputError(f"linear operator offset m must be finite, got {self.m}")
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
        return float(self.value_stack(x.a[None])[0])

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        check_dim(a.shape[-1], self.n)
        return _affine_max(a, self.A.a[None], 1.0, self.m)

    def distance(self, x: SymMatrix) -> float:
        """``(<A, X> - m) / tr A``, as <A, X + tI> = <A, X> + t tr A."""
        check_dim(x.n, self.n)
        return float(_affine_max(x.a[None], self.A.a[None], float(np.trace(self.A.a)), self.m)[0])


@dataclass(frozen=True)
class EnsembleSupport:
    body: "ConvexBody"

    @property
    def n(self) -> int:
        return self.body.n

    def value(self, x: SymMatrix) -> float:
        return eval_support(x, self.body)

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        body = self.body
        check_dim(a.shape[-1], body.n, against="body")
        if body.rot_closed:
            return _stacked(support_from_eigs, a, _support_growth(body), self.value, body.generator_spectra)
        return _affine_max(a, body.generator_stack)

    def distance(self, x: SymMatrix) -> float:
        """``max_k pairing_k / tr A_k``: each pairing of X with a generator
        (sorted, for a rotation-closed body: :func:`_support_root`) grows by
        t tr A_k along X + tI, and ``ConvexBody`` keeps every tr A_k > 0."""
        body = self.body
        check_dim(x.n, body.n, against="body")
        if body.rot_closed:
            return _spectral(_support_root, x, _support_growth(body), body.generator_spectra, body.generator_traces)
        return float(_affine_max(x.a[None], body.generator_stack, body.generator_traces)[0])


@dataclass(frozen=True)
class ExampleEq:
    n: int = 2

    def __post_init__(self):
        if self.n != 2:
            raise InputError(f"example operator is defined on S(2), got n={self.n}")

    def value(self, x: SymMatrix) -> float:
        return eval_example(x)

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        check_dim(a.shape[-1], self.n)
        return example_from_eigs(eigvals_stack(a))

    def distance(self, x: SymMatrix) -> float:
        """``1 + l2 - s^2`` with ``s = (1 + sqrt(1 + 2 (l2 - l1))) / 2``.

        With u = sqrt(1 + l2 + t), F(X + tI) = 2u^2 - 2u - (l2 - l1), which
        is nonpositive up to its larger root u = s; below u = 0 it is -inf.
        Where 2 (l2 - l1) passes the float range, the same value is taken in
        halves, as (1 + l1 + l2) / 2 - sqrt(1/4 + (l2 - l1) / 2).
        """
        check_dim(x.n, self.n)
        l1, l2 = eigvals_sym(x).tolist()
        if 2.0 * (l2 - l1) < math.inf:
            s = 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * (l2 - l1)))
            return 1.0 + l2 - s * s
        return 0.5 * l1 + 0.5 * l2 + 0.5 - math.sqrt(0.25 + (0.5 * l2 - 0.5 * l1))


@dataclass(frozen=True)
class Shifted:
    inner: "OperatorSpec"
    X0: SymMatrix

    def __post_init__(self):
        check_dim(self.X0.n, self.inner.n)
        if self.inner.distance is None:  # no closed form to shift
            object.__setattr__(self, "distance", None)

    @property
    def n(self) -> int:
        return self.X0.n

    def value(self, x: SymMatrix) -> float:
        check_dim(x.n, self.n)
        return self.inner.value(x - self.X0)

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        check_dim(a.shape[-1], self.n)
        return self.inner.value_stack(a - self.X0.a)

    def distance(self, x: SymMatrix) -> float:
        """The inner spec's distance at X - X0; None when the inner spec's is."""
        check_dim(x.n, self.n)
        return self.inner.distance(x - self.X0)


@dataclass(frozen=True)
class Conjugated:
    inner: "OperatorSpec"
    B: InvertibleMap

    #: No closed form: B^-T (X + tI) B^-1 moves along B^-T B^-1, not along
    #: the identity.
    distance = None

    def __post_init__(self):
        check_dim(self.B.n, self.inner.n, "map")

    @property
    def n(self) -> int:
        return self.B.n

    def value(self, x: SymMatrix) -> float:
        check_dim(x.n, self.n)
        # F(B^-T X B^-1): sublevel set becomes B^T Theta B.
        return self.inner.value(congruence(x, self.B.B_inv))

    def value_stack(self, a: np.ndarray) -> np.ndarray:
        check_dim(a.shape[-1], self.n)
        return self.inner.value_stack(congruence_stack(a, self.B.B_inv))


OperatorSpec = Union[
    DominativeP, Pucci, LinearTrace, EnsembleSupport, ExampleEq, Shifted, Conjugated
]


@dataclass(frozen=True)
class EvalResult(Record):
    """Evaluation outcome; ``boundary_distance_hint`` is the signed distance
    to the sublevel-set boundary along the identity line when the spec has
    it in closed form (every spec but a congruence image)."""

    value: float
    boundary_distance_hint: float | None = None


def evaluate_result(spec: OperatorSpec, x: SymMatrix) -> EvalResult:
    distance = spec.distance
    return EvalResult(
        value=spec.value(x), boundary_distance_hint=None if distance is None else distance(x)
    )


# ---------------------------------------------------------------------------
# JSON wire format


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
    try:
        kind = d["type"]
    except (KeyError, TypeError) as exc:
        raise InputError("operator spec object must carry a 'type' field") from exc
    try:
        if kind == "dominative":
            return DominativeP(n=dim_from_json(d["n"]), p=num_from_json(d["p"]))
        if kind == "pucci":
            lam, Lam = num_from_json(d["lam"]), num_from_json(d["Lam"])
            return Pucci(n=dim_from_json(d["n"]), lam=lam, Lam=Lam)
        if kind == "linear":
            return LinearTrace(A=SymMatrix.from_dict(d["A"]), m=num_from_json(d["m"]))
        if kind == "ensemble":
            from .aperture import ConvexBody  # deferred: avoids a module cycle

            return EnsembleSupport(body=ConvexBody.from_dict(d["body"]))
        if kind == "example":
            return ExampleEq(n=dim_from_json(d.get("n", 2)))
        if kind == "shifted":
            return Shifted(inner=spec_from_dict(d["inner"]), X0=SymMatrix.from_dict(d["X0"]))
        if kind == "conjugated":
            return Conjugated(
                inner=spec_from_dict(d["inner"]), B=InvertibleMap.from_dict(d["B"])
            )
    except KeyError as exc:
        raise InputError(f"operator spec of type {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"operator spec of type {kind!r} has a bad field: {exc}") from exc
    raise InputError(f"unknown operator type {kind!r}")
