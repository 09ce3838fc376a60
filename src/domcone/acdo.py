"""Signed distance to the boundary of an elliptic matrix set.

For a proper, downward-closed (elliptic) set Theta in S(n), the value
``-sup{t | X + tI in Theta}`` is the signed distance from X to the
boundary in the matrix infinity norm: negative inside, positive outside,
and ``X - value * I`` sits on the boundary.  The sublevel sets of the
catalog operators have it in closed form (``X + tI`` only shifts the
spectrum), and their oracles carry it.  For any other elliptic set
(a user predicate, a congruence image) membership along the identity
line is monotone, and the distance is found by bisection on the
membership predicate.  Every oracle holds a member W_in and a non-member
W_out of its set, found once when it is built if the caller gave none,
and they bracket every root: X + tI is a member for t <= lambda_min(W_in
- X) and is not one for t >= lambda_max(W_out - X), by downward closure,
so the ends take one eigensolve and no membership call.  :func:`acdo_roots`
runs the bisections of a whole stack of matrices in lockstep, one stacked
membership call per step, and resumes them from the roots of an earlier
call at a looser tolerance; it is the one bisection loop, and
:func:`acdo_root` bisects through it as a stack of one; a bisection stops
only where it has converged.  A root's ``probes`` is ``iterations + 1``:
one for the bracket (or the closed form), and one per bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NonProperSetError, PreconditionError
from .operators import Conjugated, LinearTrace, OperatorSpec, Shifted
from .rules import ROOT_TOL, PropertyReport, Record, StructureFlags, _check_count, check_dim
from .sampling import goe_matrix, goe_stack, make_rng, random_nsd, random_orthogonal
from .symmat import SymMatrix, _check_symmetric, congruence, eigvals_stack, inf_norm_stack

#: The search for a missing witness (expansion along tI from t = 0) beyond
#: this magnitude declares the set non-proper.
BRACKET_CAP = 1e15


@dataclass
class EllipticSetOracle:
    """Membership predicate for a proper negative elliptic set.

    The predicate must be pure and re-entrant.  After construction the
    oracle always holds both witnesses and a ``member_stack``:

    - a witness the caller gives is verified; a missing one is found by
      probing tI at t = 0, +-1, +-2, +-4, ... in the direction of the
      boundary, the last member and the first non-member becoming the
      witnesses, and :class:`NonProperSetError` (``full-line`` or
      ``empty-line``) is raised past ``BRACKET_CAP``;
    - a pair with W_in >= W_out (lambda_min(W_in - W_out) >= 0) raises
      :class:`InputError`: an elliptic set would then contain W_out, and
      this is exactly the pair that leaves some X an empty bracket;
    - ``member_stack``, a ``(k, n, n)`` array to k booleans equal to
      ``member`` on each matrix, is a row loop of ``member`` when the
      caller gives none (made again by ``dataclasses.replace``, so that
      it follows a new ``member``).

    ``distance`` is an optional closed form of the signed distance;
    without it :func:`acdo_root` bisects on the predicate.  Downward
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
    member_stack: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.inside_witness is not None and not self.member(self.inside_witness):
            raise InputError(
                f"inside witness is not a member of the set ({self.description})"
            )
        if self.outside_witness is not None and self.member(self.outside_witness):
            raise InputError(
                f"outside witness is a member of the set ({self.description})"
            )
        if self.inside_witness is None or self.outside_witness is None:
            inside, outside = _search_witnesses(self)
            self.inside_witness = inside if self.inside_witness is None else self.inside_witness
            self.outside_witness = outside if self.outside_witness is None else self.outside_witness
        with np.errstate(over="ignore"):
            gap = self.inside_witness.a - self.outside_witness.a
        if not np.isfinite(gap).all():  # halved, a gap past the float range keeps its signs
            gap = 0.5 * self.inside_witness.a - 0.5 * self.outside_witness.a
        if eigvals_stack(gap)[0] >= 0.0:
            raise InputError(
                "inside witness lies above the outside witness, which an elliptic"
                f" set cannot contain ({self.description})"
            )
        if not self.member_stack or getattr(self.member_stack, "__func__", None) is EllipticSetOracle._row_loop:
            self.member_stack = self._row_loop

    def _row_loop(self, a: np.ndarray) -> np.ndarray:
        return np.array([bool(self.member(SymMatrix._wrap(x))) for x in a], dtype=bool)


def _search_witnesses(oracle: EllipticSetOracle) -> tuple[SymMatrix, SymMatrix]:
    """Witnesses t_in I (a member) and t_out I (not one), t_in < t_out, from
    probes at t = 0, then 1, 2, 4, ... up or -1, -2, -4, ... down to the
    first probe on the other side of the boundary."""
    eye = SymMatrix.identity(oracle.n)
    up = bool(oracle.member(eye * 0.0))
    t, step = 0.0, 1.0 if up else -1.0
    while bool(oracle.member(eye * step)) == up:
        t, step = step, 2.0 * step
        if abs(step) > BRACKET_CAP:
            side = "inside" if up else "outside"
            raise NonProperSetError(
                f"no boundary on the identity line: tI is {side} the set up to"
                f" t = {t:g} ({oracle.description})",
                reason="full-line" if up else "empty-line",
            )
    return (eye * t, eye * step) if up else (eye * step, eye * t)


def oracle_from_operator(spec: OperatorSpec) -> EllipticSetOracle:
    """Sublevel-set membership oracle F(X) <= 0 for a catalog operator,
    with its stacked form and the spec's closed-form distance where it
    has one."""
    inside, outside = _default_witnesses(spec)
    return EllipticSetOracle(
        member=lambda x: spec.value(x) <= 0.0,
        n=spec.n,
        inside_witness=inside,
        outside_witness=outside,
        description=f"sublevel set of {type(spec).__name__}",
        distance=spec.distance,
        member_stack=lambda a: spec.value_stack(a) <= 0.0,
    )


def _default_witnesses(spec):
    """The witnesses of a catalog spec's sublevel set.

    Those of a half-space <A, X> <= m are ((m -+ d) / tr A) I, whose values
    are -+d up to a rounding error below (3n + 1) 2^-53 |m|.  So d is 1
    while n 2^-50 |m| <= 1, where that error is below 1/2, and n 2^-50 |m|
    beyond, and the two stay on their sides for any m.  Where
    (m -+ d) / tr A passes the float range, the boundary on the identity
    line lies at or past its end, and the set is reported non-proper.
    """
    eye = SymMatrix.identity(spec.n)
    if isinstance(spec, LinearTrace):
        tr_a, m = float(np.trace(spec.A.a)), spec.m
        d = max(1.0, spec.n * 2.0**-50 * abs(m))
        t_in, t_out = (m - d) / tr_a, (m + d) / tr_a
        if not math.isfinite(t_in) or not math.isfinite(t_out):
            raise NonProperSetError(
                f"no boundary on the identity line in the float range: tI meets the half-space's"
                f" boundary at t = m / tr A = {m:g} / {tr_a:g} ({type(spec).__name__})",
                reason="full-line" if m > 0.0 else "empty-line",
            )
        return eye * t_in, eye * t_out
    if isinstance(spec, Shifted):
        inside, outside = _default_witnesses(spec.inner)
        return inside + spec.X0, outside + spec.X0
    if isinstance(spec, Conjugated):
        inside, outside = _default_witnesses(spec.inner)
        return congruence(inside, spec.B), congruence(outside, spec.B)
    return eye * -2.0, eye * 2.0  # DominativeP, Pucci, EnsembleSupport, ExampleEq


@dataclass(frozen=True)
class AcdoRoot(Record):
    """Root-finding outcome: the signed distance, its final bracket in value
    space, the bisection iteration count, the number of probes, and the
    ``method`` that ran: "closed-form" (bracket ``(v, v)``, one evaluation,
    the tolerance unused) or "bisection".

    ``probes`` counts membership calls, and counts the one stacked
    eigensolve of a closed form or of the witnesses' bracket as one probe.
    So every root is built with ``probes == iterations + 1``."""

    value: float
    bracket: tuple[float, float]
    iterations: int
    probes: int
    method: str


def acdo_root(oracle: EllipticSetOracle, x: SymMatrix, tol: float = ROOT_TOL) -> AcdoRoot:
    """Signed distance of ``x`` to the set boundary along the identity line.

    The oracle's closed-form ``distance`` when it has one.  Otherwise the
    witnesses' bracket lo = lambda_min(W_in - x), hi = lambda_max(W_out -
    x) of t, from one stacked eigensolve counted as one probe, then
    bisection to absolute width ``tol`` or, far from the origin where
    adjacent doubles lie more than ``tol`` apart, until the midpoint
    rounds onto an end of the bracket (within 2,100 steps from any finite
    bracket): the lockstep bisection of :func:`acdo_roots` on a stack of one.
    The ends of the bracket are not probed.  The returned value v
    satisfies ``member(x - (v+e) I)`` and ``not member(x - (v-e) I)`` for
    e the larger of ``tol`` and one ulp of v, the closed form up to
    rounding.

    Monotonicity of membership in t is a consequence of ellipticity;
    bisection probes strictly inside the bracket, so a non-elliptic
    oracle yields a well-defined root of *some* crossing (or an end of
    the witnesses' bracket), not an error; test ellipticity separately
    via check_downward_closure.
    """
    check_dim(x.n, oracle.n, against="oracle")
    if oracle.distance is not None:
        v = float(oracle.distance(x))
        return AcdoRoot(value=v, bracket=(v, v), iterations=0, probes=1, method="closed-form")
    return acdo_roots(oracle, x.a[None], tol)[0]


def _witness_brackets(oracle: EllipticSetOracle, stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Brackets [lo, hi] of t from the oracle's witnesses for each matrix X
    of a ``(k, n, n)`` stack, from one stacked eigensolve.

    X + tI lies below W_in for t <= lo = lambda_min(W_in - X), so it is a
    member, and above W_out for t >= hi = lambda_max(W_out - X), so it is
    not.  lo < hi up to rounding: the oracle rejects W_in >= W_out."""
    k = len(stack)
    inside, outside = oracle.inside_witness.a - stack, oracle.outside_witness.a - stack
    ev = eigvals_stack(np.concatenate([inside, outside]))
    return ev[:k, 0], ev[k:, -1]


def acdo_roots(
    oracle: EllipticSetOracle, stack, tol: float = ROOT_TOL, start: list[AcdoRoot] | None = None
) -> list[AcdoRoot]:
    """:func:`acdo_root` of each matrix of a ``(k, n, n)`` symmetric stack,
    n the oracle's dimension.  Before any eigensolve, distance or
    membership call, any other shape raises :class:`PreconditionError`,
    and a stack with an entry that is not finite, or with a matrix
    asymmetric beyond the tolerance of :meth:`SymMatrix.from_dict`, raises
    :class:`InvalidMatrixError`.

    Without a closed form, the k bisections run in lockstep, whatever k:
    the witnesses' brackets of the whole stack come from one stacked
    eigensolve, and each step probes every unfinished root with one call
    of the oracle's ``member_stack``.  Each root stops where it would
    alone (at width ``tol``, or at a midpoint that rounds onto an end of
    the bracket), so every field of its result is that of a plain one-root
    bisection.  With a closed form it is a loop of :func:`acdo_root`, one
    call per matrix, which a tracer of :func:`acdo_root` counts.

    ``start`` holds the roots of the same stack from an earlier call at a
    looser (or equal) tolerance.  Each bisected root then resumes from its
    bracket and ``iterations``, and a closed-form root comes back as it
    is.  The midpoints and the stopping rule depend only on the bracket,
    the step count and ``tol``, so the result equals that of one call at
    ``tol`` in every field; only the first call's membership calls are
    saved.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.shape[1:] != (oracle.n, oracle.n):
        raise PreconditionError(
            f"stack of shape {stack.shape} is not (k, n, n) for oracle dimension n = {oracle.n}"
        )
    _check_symmetric(stack)
    if start is None:
        if oracle.distance is not None:
            return [acdo_root(oracle, SymMatrix._wrap(x), tol) for x in stack]
        out, todo = [None] * len(stack), list(range(len(stack)))
        lo, hi = _witness_brackets(oracle, stack)
        iterations = np.zeros(len(stack), dtype=int)
    else:
        if len(start) != len(stack):
            raise PreconditionError(f"{len(start)} start roots for a stack of {len(stack)} matrices")
        out, todo = list(start), [i for i, r in enumerate(start) if r.method == "bisection"]
        lo = np.array([-start[i].bracket[1] for i in todo])
        hi = np.array([-start[i].bracket[0] for i in todo])
        iterations = np.array([start[i].iterations for i in todo], dtype=int)
    for i, root in zip(todo, _lockstep(oracle, stack[todo], tol, lo, hi, iterations)):
        out[i] = root
    return out


def _lockstep(oracle, stack, tol, lo, hi, iterations) -> list[AcdoRoot]:
    """The lockstep bisection of :func:`acdo_roots` from brackets [lo, hi]
    of t after ``iterations`` steps.

    Each step works on the unfinished rows alone: when some finish, their
    brackets and counts are written back and the rest are compacted, so a
    step costs what its live rows cost.  Ends whose sum or difference
    passes the float range still bisect: see :func:`_midpoint`."""
    eye = np.eye(oracle.n)
    done_lo, done_hi, done_iterations = lo.copy(), hi.copy(), iterations.copy()
    rows = np.arange(len(stack))
    while True:
        mid = _midpoint(lo, hi)
        with np.errstate(over="ignore"):  # a width past the float range is inf, wider than any tol
            live = (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not live.all():
            end = rows[~live]
            done_lo[end], done_hi[end], done_iterations[end] = lo[~live], hi[~live], iterations[~live]
            rows, stack, lo, hi, mid, iterations = (v[live] for v in (rows, stack, lo, hi, mid, iterations))
        if not rows.size:  # every root has finished, or the stack was empty
            break
        inside = oracle.member_stack(stack + mid[:, None, None] * eye)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
        iterations = iterations + 1
    mid = _midpoint(done_lo, done_hi)
    columns = zip(mid.tolist(), done_lo.tolist(), done_hi.tolist(), done_iterations.tolist())
    return [
        AcdoRoot(value=-mid, bracket=(-b, -a), iterations=i, probes=i + 1, method="bisection")
        for mid, a, b, i in columns
    ]


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """0.5 (lo + hi), and 0.5 lo + 0.5 hi where that sum is not finite:
    so the midpoint of two finite ends is finite past about 9e307, and
    every other midpoint keeps its bits."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def acdo_eval(oracle: EllipticSetOracle, x: SymMatrix, tol: float = ROOT_TOL) -> float:
    """Signed distance value; see :func:`acdo_root` for the contract."""
    return acdo_root(oracle, x, tol).value


# ---------------------------------------------------------------------------
# Property verifiers


_TAU_GRID = (-10.0, -1.0, 0.1, 7.0)

#: Rounding allowance of the property checks, per unit of the largest
#: distance a check compares.  Each distance is within a few ulps of its
#: exact value: a closed form rounds a handful of operations on entries
#: and eigenvalues of its size, and a bisection stops at the latest when
#: its midpoint rounds to an end.  Their differences then round once more,
#: so far from the origin a deviation of a few eps |d| is rounding alone.
#: Half-spaces and shifted dominative, Pucci and rotation-closed sets, at
#: n = 2 to 16 and offsets 1e6 to 1e15, stayed below 4.2 eps max |d| in a
#: nondegeneracy sweep; 16 eps leaves a factor of about 4.
_ROUNDING = 16.0 * 2.0**-52


def _gate(tol: float, *distances: float, scale: float = 1.0) -> float:
    """The limit of one property check on ``distances``: 3 ``tol`` (times
    ``scale``) for the root finder's error, plus the rounding of distances
    as large as the largest of them."""
    return 3.0 * tol * scale + _ROUNDING * max(map(abs, distances))


def check_nondegeneracy(
    oracle: EllipticSetOracle,
    samples: int = 100,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify the identity-shift normalization F(X + tau I) = F(X) + tau,
    each to 3 ``tol`` plus the rounding allowance (16 eps) times the larger
    of |F(X)| and |F(X + tau I)|.

    All ``5 * samples`` distances come from one :func:`acdo_roots` call."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="nondegeneracy", samples=samples)
    n, width = oracle.n, 1 + len(_TAU_GRID)
    xs = goe_stack(rng, samples, n, [1.0])[:, None]
    shifted = xs + np.asarray(_TAU_GRID)[:, None, None] * np.eye(n)  # X + tau I, as x.shift(tau)
    stack = np.concatenate([xs, shifted], axis=1).reshape(-1, n, n)
    values = [r.value for r in acdo_roots(oracle, stack, tol)]
    for i in range(samples):
        base, *moved = values[width * i : width * (i + 1)]
        x = SymMatrix._wrap(xs[i, 0]).to_dict()
        for tau, value in zip(_TAU_GRID, moved):
            dev = abs(value - base - tau)
            report.record(dev, _gate(tol, base, value), tau=tau, deviation=dev, X=x)
    return report


def check_lipschitz(
    oracle: EllipticSetOracle,
    samples: int = 200,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify |F(X) - F(Y)| <= ||X - Y||_inf on sampled pairs, each to
    3 ``tol`` plus the rounding allowance (16 eps) times the larger of
    |F(X)| and |F(Y)|.

    Pair i draws X at radius 1, then Y at radius 1 + i % 3; all ``2 *
    samples`` distances come from one :func:`acdo_roots` call."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="lipschitz", samples=samples)
    pairs = goe_stack(rng, 2 * samples, oracle.n, [1.0, 1.0, 1.0, 2.0, 1.0, 3.0])
    xs, ys = pairs[0::2], pairs[1::2]
    values = [r.value for r in acdo_roots(oracle, pairs, tol)]
    norms = inf_norm_stack(xs - ys).tolist()
    for i in range(samples):
        fx, fy = values[2 * i], values[2 * i + 1]
        excess = abs(fx - fy) - norms[i]
        x, y = SymMatrix._wrap(xs[i]), SymMatrix._wrap(ys[i])
        report.record(excess, _gate(tol, fx, fy), excess=excess, X=x.to_dict(), Y=y.to_dict())
    return report


def check_structure(
    oracle: EllipticSetOracle,
    flags: StructureFlags,
    samples: int = 100,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Check the functional identities implied by asserted set structure:
    midpoint convexity / concavity, positive homogeneity (c in {0.5, 2}),
    and rotation invariance, each to 3 ``tol`` (3 c ``tol`` for the
    homogeneity at c = 2) plus the rounding allowance (16 eps) times the
    largest distance the identity compares.

    Each sample draws X, then Y and Q where a flag needs them; the
    distances of every matrix involved come from one :func:`acdo_roots`
    call."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="structure", samples=samples)
    paired = flags.convex or flags.concave_complement
    rows = []  # per sample: X, then [Y, (X + Y) / 2], [X / 2, 2 X], [Q^T X Q]
    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        row = [x]
        if paired:
            y = goe_matrix(rng, oracle.n, radius=1.0)
            row += [y, (x + y) * 0.5]
        if flags.cone:
            row += [x * 0.5, x * 2.0]
        if flags.rot_invariant:
            q = random_orthogonal(rng, oracle.n)
            row.append(congruence(x, q))
        rows.append(row)
    roots = acdo_roots(oracle, np.array([m.a for row in rows for m in row]), tol)
    values = iter([r.value for r in roots])
    for x, *others in rows:
        fx = next(values)
        if paired:
            fy, fmid = next(values), next(values)
            half = 0.5 * (fx + fy)
            pair = {"X": x.to_dict(), "Y": others[0].to_dict()}
            for flag, dev in (("convex", fmid - half), ("concave_complement", half - fmid)):
                if getattr(flags, flag):
                    report.record(dev, _gate(tol, fx, fy, fmid), flag=flag, deviation=dev, **pair)
        if flags.cone:
            for c in (0.5, 2.0):
                fc = next(values)
                dev = abs(fc - c * fx)
                limit = _gate(tol, fc, c * fx, scale=max(1.0, c))
                report.record(dev, limit, flag="cone", c=c, deviation=dev, X=x.to_dict())
        if flags.rot_invariant:
            fq = next(values)
            dev = abs(fq - fx)
            report.record(dev, _gate(tol, fq, fx), flag="rot_invariant", deviation=dev, X=x.to_dict())
    return report


def check_downward_closure(oracle: EllipticSetOracle, samples: int = 200, seed: int = 0) -> PropertyReport:
    """Sampled set-ellipticity: member(X) and N <= 0 imply member(X + N).

    Sample i draws X_i at radius 1, then N_i <= 0 at scale 1/2.  One
    ``member_stack`` call tests the X's, one :func:`acdo_roots` call gives
    the distance d_i of each outside, one ``member_stack`` call tests their
    shifts X_i - (d_i + m_i) I, and one tests X + N for the samples kept.
    The margin m_i is the larger of 1e-6 and the rounding allowance
    (16 eps) times |d_i|, so it stays above the spacing of doubles near
    d_i far from the origin.  A shift still outside, which the bisection's
    bracket rules out for an elliptic set where it is narrower than 2 m_i,
    skips its sample, so ``samples - checks`` were skipped."""
    _check_count(samples)
    rng, n = make_rng(seed), oracle.n
    draws = [(goe_matrix(rng, n).a, random_nsd(rng, n, scale=0.5).a) for _ in range(samples)]
    xs, ns = (np.array(m) for m in zip(*draws))
    out = np.flatnonzero(~oracle.member_stack(xs))
    d = np.array([r.value for r in acdo_roots(oracle, xs[out])])
    xs[out] -= (d + np.maximum(1e-6, _ROUNDING * np.abs(d)))[:, None, None] * np.eye(n)
    skipped = out[~oracle.member_stack(xs[out])]
    xs, ns = np.delete(xs, skipped, axis=0), np.delete(ns, skipped, axis=0)
    bad = ~oracle.member_stack(xs + ns)
    pairs = zip(xs[bad], ns[bad])
    violations = [{"X": SymMatrix._wrap(x).to_dict(), "N": SymMatrix._wrap(m).to_dict()} for x, m in pairs]
    return PropertyReport(name="downward-closure", samples=samples, checks=len(xs), violations=violations)
