"""Convex bodies of symmetric matrices and the body cone aperture.

A body is a finite generator ensemble; with ``rot_closed=True`` it
stands for the convex hull of all rotations of the generators, which is
every body the operator catalog needs.  The aperture ``alpha`` is the
minimum of ``tr A / lambda_n(A)`` over the body; its dual exponent p
satisfies ``(alpha - 1)(p - 1) = n - 1``.  The dominative operator with
that exponent is minimal for the body's support function:
``c * F_p <= G`` with ``c`` the trace of the minimizing generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ApertureInconsistencyError,
    InvalidBodyError,
    PreconditionError,
)
from .operators import dominative_from_eigs, eval_support, support_from_eigs
from .rules import Record, Report, _check_count, _check_p, _check_pucci, dim_from_json
from .sampling import make_rng, random_orthogonal
from .symmat import SymMatrix, congruence, eigvals_stack, eigvals_sym

#: Generators must be positive semidefinite within this tolerance.
PSD_TOL = 1e-10

#: Uniform lower bound on generator traces, certifying 0 is not in the body.
TRACE_FLOOR = 1e-8

#: The aperture's two paths must agree to ``_PATH_TOL``; the support root
#: is bisected to ``_ROOT_TOL``.
_PATH_TOL = 1e-8
_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class ConvexBody:
    """Finite generator ensemble for a compact convex body in S(n).

    With ``rot_closed`` the body is conv(rot{generators}); otherwise it is
    the plain convex hull of the generators.  Generators must be positive
    semidefinite (the support function is then elliptic) with trace at
    least ``TRACE_FLOOR`` (bounding the body away from the origin).
    """

    n: int
    generators: tuple[SymMatrix, ...]
    rot_closed: bool = True

    def __post_init__(self):
        if not self.generators:
            raise InvalidBodyError("a convex body needs at least one generator")
        object.__setattr__(self, "generators", tuple(self.generators))
        for i, g in enumerate(self.generators):
            if g.n != self.n:
                raise InvalidBodyError(
                    f"generator {i} has dimension {g.n}, body has {self.n}"
                )
            ev = eigvals_sym(g)
            if ev[0] < -PSD_TOL:
                raise InvalidBodyError(
                    f"generator {i} is not positive semidefinite "
                    f"(lambda_1 = {ev[0]:g})"
                )
            if float(np.trace(g.a)) < TRACE_FLOOR:
                raise InvalidBodyError(
                    f"generator {i} has trace below {TRACE_FLOOR:g}; "
                    "the body is not certified away from 0"
                )

    @cached_property
    def generator_spectra(self) -> np.ndarray:
        """(num_generators, n) array of ascending generator eigenvalues."""
        return np.vstack([eigvals_sym(g) for g in self.generators])

    @cached_property
    def generator_stack(self) -> np.ndarray:
        """(num_generators, n, n) array of the generators' entries."""
        return np.array([g.a for g in self.generators])

    @cached_property
    def generator_traces(self) -> np.ndarray:
        """The generators' traces, as sums of :attr:`generator_spectra`."""
        return self.generator_spectra.sum(axis=1)

    def summary(self) -> str:
        closure = "rot-closed" if self.rot_closed else "plain hull"
        return f"{len(self.generators)} generator(s) in S({self.n}), {closure}"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "generators": [g.to_dict() for g in self.generators],
            "rot_closed": self.rot_closed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConvexBody":
        try:
            n = dim_from_json(d["n"])
            gens = tuple(SymMatrix.from_dict(g) for g in d["generators"])
            rot = d.get("rot_closed", True)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidBodyError(f"malformed body object: {exc}") from exc
        if not isinstance(rot, bool):
            raise InvalidBodyError(f"rot_closed must be true or false, got {rot!r}")
        return cls(n=n, generators=gens, rot_closed=rot)


def dominative_body(n: int, p: float) -> ConvexBody:
    """Body whose support function is the dominative operator with exponent p.

    A single generator suffices under rotation closure: the diagonal of
    :func:`dominative_weights`, ``(I + (p-2) e_n e_n^T) / (n+p-2)`` for
    finite p and the rank-one projector ``e_n e_n^T`` at p = inf.
    """
    return ConvexBody(n=n, generators=(SymMatrix.diag(dominative_weights(n, p)),), rot_closed=True)


def pucci_body(n: int, lam: float, Lam: float) -> ConvexBody:
    """Extreme diagonal generators of the uniform-ellipticity body.

    The n+1 generators ``diag(Lam, ..., Lam, lam, ..., lam)`` with k
    leading copies of Lam, k = 0..n; rotation closure recovers the full
    set {lam*I <= A <= Lam*I}.
    """
    _check_pucci(lam, Lam)
    gens = []
    for k in range(n + 1):
        gens.append(SymMatrix.diag([Lam] * k + [lam] * (n - k)))
    return ConvexBody(n=n, generators=tuple(gens), rot_closed=True)


@dataclass(frozen=True)
class ApertureResult(Record):
    """Aperture alpha in [1, n], dual exponent p, and the minimality data:
    index of the minimizing generator and the bound constant c = tr A'."""

    alpha: float
    p: float
    argmin_index: int
    c: float


def _spike_matrix(n: int, a: float) -> SymMatrix:
    """diag(a-1, -1, ..., -1): the ray on which the support root equals alpha;
    finite and diagonal, so ``SymMatrix.diag``'s checks could not change a bit."""
    d = np.full(n, -1.0)
    d[0] = a - 1.0
    return SymMatrix._wrap(np.diag(d))


def _alpha_by_support_root(body: ConvexBody) -> float:
    """Bisection root of a -> G(diag(a-1, -1, ..., -1)) on [1, n].

    The map is a maximum of affine functions of a with strictly positive
    slopes (the generators' top eigenvalues), hence strictly increasing
    with the aperture as its unique root.
    """
    n = body.n

    def g(a: float) -> float:
        return eval_support(_spike_matrix(n, a), body)

    lo, hi = 1.0, float(n)
    if g(lo) >= 0.0:
        return lo
    if g(hi) <= 0.0:
        return hi
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def body_cone_aperture(body: ConvexBody) -> ApertureResult:
    """Aperture of a rotation-closed body, computed two independent ways.

    Path one minimizes tr/lambda_n over the generators directly; path two
    bisects the support function along the ``diag(a-1, -1, ..., -1)`` ray.
    On a rotation-closed body :func:`eval_support` reads only
    ``generator_spectra``, so path two bisects max_k (a lambda_n(A_k) -
    tr A_k), whose root is path one's minimum, from the same spectra.  A
    disagreement beyond ``_PATH_TOL`` raises: it signals a fault in the
    bisection or in the support rule, not a dishonest ``rot_closed`` flag,
    which neither path can see.

    Ties in the generator minimum break to the lowest index; ``c`` is the
    trace of that generator.
    """
    if not body.rot_closed:
        raise PreconditionError(
            "the aperture is exact only for rotation-closed bodies; "
            "a plain generator hull is refused"
        )
    traces = body.generator_traces
    ratios = traces / body.generator_spectra[:, -1]
    idx = int(np.argmin(ratios))  # argmin resolves ties to the lowest index
    alpha = float(ratios[idx])

    alpha_root = _alpha_by_support_root(body)
    if abs(alpha - alpha_root) > _PATH_TOL:
        raise ApertureInconsistencyError(
            f"aperture paths disagree: generator minimum {alpha!r} vs "
            f"support-root {alpha_root!r}, from the same generator spectra"
        )

    n = body.n
    if alpha - 1.0 <= 1e-12:
        p = math.inf
    else:
        p = (n + alpha - 2.0) / (alpha - 1.0)
    return ApertureResult(alpha=alpha, p=p, argmin_index=idx, c=float(traces[idx]))


# ---------------------------------------------------------------------------
# Minimality of the dominative operator


@dataclass
class MinimalBoundReport(Report):
    """The sampled bound (``violations``, ``worst_margin``, ``tightest``,
    ``sharpness_gap``) and its exact ``certificate``; ``passed`` speaks
    for the sampled bound only."""

    body: str
    alpha: float
    p: float
    c: float
    samples: int
    probes: int
    worst_margin: float = math.inf
    tightest: dict | None = None
    sharpness_gap: float = math.inf
    certificate: dict | None = None


_BOUND_RADII = (0.5, 1.0, 2.0, 10.0)


def bound_certificate(body: ConvexBody, index: int, c: float, p: float) -> dict:
    """Exact certificate of c * F_p <= G from one generator's spectrum.

    With s the ascending spectrum of generator ``index`` and
    l = c * :func:`dominative_weights` (n, p), c * F_p(X) = <l, lambda(X)>
    and G(X) >= <s, lambda(X)> on the ascending spectrum lambda(X), so the
    bound holds for every X when <s - l, lambda> >= 0 for every ascending
    lambda: when the suffix sums sum_{i >= j} (s_i - l_i), j = 2..n, are
    nonnegative and the full sum vanishes (lambda may be shifted by +-tI).
    ``min_suffix_sum`` is the least of those suffix sums and of -|full
    sum|; the certificate holds to ``tol`` when it is at least -tol.  At
    the aperture's argmin generator and c it holds exactly; the j = n sum
    is the equality at the spike ``diag(alpha-1, -1, ..., -1)``.
    """
    d = body.generator_spectra[index] - c * dominative_weights(body.n, p)
    suffix = np.cumsum(d[::-1])[::-1]  # suffix[j] = sum of d[j:]
    return {"index": index, "min_suffix_sum": float(min(suffix[1:].min(), -abs(suffix[0])))}


def minimal_bound_check(
    body: ConvexBody,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
    sharpness_probes: int = 8,
) -> MinimalBoundReport:
    """Sample the minimality bound c * F_p(X) <= G(X) for the body's aperture.

    Records the worst margin ``G(X) - c F_p(X)`` and the tightest sampled X
    (the first one on a tie).  ``sharpness_probes`` targeted evaluations at
    rotations of ``diag(alpha-1, -1, ..., -1)`` witness equality (both
    sides vanish there), tracked as ``sharpness_gap``.  The report also
    carries the exact :func:`bound_certificate` of the aperture's argmin
    generator and c.

    The ``samples`` matrices are symmetrized Gaussian draws
    ``(G + G^T) / 2`` scaled by the radii 0.5, 1, 2, 10 in turn; both
    sides are positively homogeneous of degree 1, so normalizing a draw
    could not change the sign of its margin.  The draws come from one
    ``standard_normal`` call, the probes are drawn after them from the
    same stream, and both sides come from one stacked eigensolve of all
    of them: one eigensolve per matrix, and the report is the one a loop
    of a draw, ``eval_dominative`` and ``eval_support`` per matrix gives,
    bit for bit.  Each violation holds the X it was evaluated on.
    """
    _check_count(samples)
    _check_count(sharpness_probes, "sharpness probe count", minimum=0)
    ap = body_cone_aperture(body)
    rng = make_rng(seed)
    n = body.n
    g = rng.standard_normal((samples, n, n))
    x = 0.5 * (g + g.swapaxes(1, 2))
    x *= np.resize(_BOUND_RADII, samples)[:, None, None]
    spike = _spike_matrix(n, ap.alpha)
    rotations = [random_orthogonal(rng, n) for _ in range(sharpness_probes)]
    probes = [congruence(spike, q).a for q in rotations]
    x = np.concatenate((x, np.reshape(probes, (-1, n, n))))

    ev = eigvals_stack(x)
    lhs = ap.c * dominative_from_eigs(x, ev, ap.p)
    rhs = support_from_eigs(x, ev, body.generator_spectra)
    margin = rhs - lhs
    worst = int(np.argmin(margin))  # the first index on a tie
    return MinimalBoundReport(
        body=body.summary(),
        alpha=ap.alpha,
        p=ap.p,
        c=ap.c,
        samples=samples,
        probes=sharpness_probes,
        violations=[
            {
                "margin": float(margin[i]),
                "X": SymMatrix._wrap(x[i]).to_dict(),
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
            }
            for i in np.flatnonzero(margin < -tol)
        ],
        worst_margin=float(margin[worst]),
        tightest=SymMatrix._wrap(x[worst]).to_dict(),
        sharpness_gap=float(np.abs(margin).min()),
        certificate=bound_certificate(body, ap.argmin_index, ap.c, ap.p),
    )


# ---------------------------------------------------------------------------
# Constructive permutation decomposition


def dominative_weights(n: int, p: float) -> np.ndarray:
    """Eigenvalue vector of the dominative body's generator:
    ``[1, ..., 1, p-1] / (n+p-2)``, or the last basis vector at p = inf."""
    p = _check_p(p)
    if p == math.inf:
        w = np.zeros(n)
        w[-1] = 1.0
        return w
    w = np.ones(n)
    w[-1] = p - 1.0
    return w / (n + p - 2.0)


@dataclass(frozen=True)
class PermutationDecomposition:
    """Convex combination of entry permutations of a vector.

    ``permutations[k]`` is an index tuple sigma with ``(P a)[i] = a[sigma[i]]``;
    every permutation fixes the last index and the weights are uniform
    ``1/(n-1)`` by construction.
    """

    weights: tuple[float, ...]
    permutations: tuple[tuple[int, ...], ...]

    def reconstruct(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        out = np.zeros_like(a)
        for w, perm in zip(self.weights, self.permutations):
            out += w * a[list(perm)]
        return out


_HYP_TOL = 1e-12


def perc_weights(a, p_vec) -> PermutationDecomposition:
    """Constructive witness that ``p_vec`` lies in the permutation hull of ``a``.

    Requires ``sum(a) == sum(p_vec)`` and ``a[-1] == p_vec[-1]`` (each to
    1e-12), with ``p_vec`` a dominative weight vector: first n-1 entries
    equal, summing to one, last entry at least the rest.  The output puts
    weight 1/(n-1) on the powers of the cyclic permutation of the first
    n-1 entries; averaging those cycles flattens the head of ``a`` onto
    the head of ``p_vec`` exactly.
    """
    a = np.asarray(a, dtype=float)
    p_vec = np.asarray(p_vec, dtype=float)
    if a.ndim != 1 or p_vec.shape != a.shape or a.size < 2:
        raise PreconditionError(
            f"expected two equal-length vectors of size >= 2, "
            f"got shapes {a.shape} and {p_vec.shape}"
        )
    n = a.size
    sum_a, sum_p = float(a.sum()), float(p_vec.sum())
    if abs(sum_a - sum_p) > _HYP_TOL:
        raise PreconditionError(
            f"sum equality failed: sum(a) = {sum_a!r} but sum(p) = {sum_p!r}"
        )
    if abs(a[-1] - p_vec[-1]) > _HYP_TOL:
        raise PreconditionError(
            f"last-entry equality failed: a[n] = {a[-1]!r} but p[n] = {p_vec[-1]!r}"
        )
    head = p_vec[:-1]
    if head.size and np.max(np.abs(head - head[0])) > _HYP_TOL:
        raise PreconditionError(
            "target vector is not a dominative weight vector: "
            "its first n-1 entries are not equal"
        )
    if abs(sum_p - 1.0) > _HYP_TOL or p_vec[0] < -_HYP_TOL or p_vec[-1] < p_vec[0] - _HYP_TOL:
        raise PreconditionError(
            "target vector is not a dominative weight vector "
            "(needs sum 1, nonnegative equal head, dominant last entry)"
        )

    # sigma for the block permutation: cyclic shift on the first n-1 indices,
    # last index fixed.
    base = np.empty(n, dtype=int)
    base[0] = n - 2
    base[1 : n - 1] = np.arange(0, n - 2)
    base[n - 1] = n - 1

    perms = []
    cur = base.copy()
    for _ in range(n - 1):
        perms.append(tuple(int(i) for i in cur))
        cur = base[cur]
    weights = tuple([1.0 / (n - 1)] * (n - 1))
    return PermutationDecomposition(weights=weights, permutations=tuple(perms))
