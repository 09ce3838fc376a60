"""Signed distance to the boundary of an elliptic matrix set.

For a proper, downward-closed (elliptic) set Theta in S(n), the value
``-sup{t | X + tI in Theta}`` is the signed distance from X to the
boundary in the matrix infinity norm: negative inside, positive outside,
and ``X - value * I`` sits on the boundary.  The sublevel sets of the
catalog operators have it in closed form (``X + tI`` only shifts the
spectrum), and their oracles carry it.  For any other elliptic set
(a user predicate, a congruence image) membership along the identity
line is monotone, and the distance is found by bisection on the
membership predicate.  The bracket of t comes from the oracle's
witnesses when it has both: X + tI is a member for t <= lambda_min(W_in
- X) and is not one for t >= lambda_max(W_out - X), by downward closure,
so the ends take one eigensolve and no membership call.  Without both
witnesses it is found by expanding from t = 0.  :func:`acdo_roots` runs
the bisections of a whole stack of matrices in lockstep, one stacked
membership call per step, and resumes them from the roots of an earlier
call at a looser tolerance.
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
    Record,
    Report,
    Shifted,
    _check_count,
    closed_form_distance,
)
from .sampling import goe_matrix, goe_stack, make_rng, random_nsd, random_orthogonal
from .symmat import SymMatrix, _eye, congruence, eigvals_stack, inf_norm_stack

#: Absolute tolerance of the root finder.
ROOT_TOL = 1e-10

#: Bracket expansion from t = 0 (run only where the oracle lacks a witness,
#: or its witnesses give an empty bracket) beyond this magnitude declares
#: the set non-proper.  A bracket from both witnesses needs no cap.
BRACKET_CAP = 1e15

_MAX_BISECT = 200


@dataclass
class EllipticSetOracle:
    """Membership predicate for a proper negative elliptic set.

    The predicate must be pure and re-entrant.  Witnesses are optional;
    when both are present they are verified on construction, and they
    bracket every root of :func:`acdo_root` (with neither or one, the
    bracket is found by expansion from t = 0).  ``distance``
    is an optional closed form of the signed distance; without it
    :func:`acdo_root` bisects on the predicate.  ``member_stack`` is an
    optional stacked form of the predicate, a ``(k, n, n)`` array to k
    booleans equal to ``member`` on each matrix; with it and without a
    closed form, :func:`acdo_roots` bisects a stack in lockstep.
    :func:`oracle_from_operator` supplies it for every catalog spec and
    :func:`~domcone.cones.conjugate_oracle` for the image of an oracle
    that has one; a user predicate has none.  Downward
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


def oracle_from_operator(spec: OperatorSpec, description: str = "") -> EllipticSetOracle:
    """Sublevel-set membership oracle F(X) <= 0 for a catalog operator,
    with its stacked form and the spec's closed-form distance where it
    has one."""
    inside, outside = _default_witnesses(spec, spec.n)
    return EllipticSetOracle(
        member=lambda x: spec.value(x) <= 0.0,
        n=spec.n,
        inside_witness=inside,
        outside_witness=outside,
        description=description or f"sublevel set of {type(spec).__name__}",
        distance=closed_form_distance(spec),
        member_stack=lambda a: spec.value_stack(a) <= 0.0,
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
class AcdoRoot(Record):
    """Root-finding outcome: the signed distance, its final bracket in value
    space, the bisection iteration count, the number of probes, and the
    ``method`` that ran: "closed-form" (bracket ``(v, v)``, one evaluation,
    the tolerance unused) or "bisection".

    ``probes`` counts membership calls, and counts the one stacked
    eigensolve of a closed form or of a bracket from the witnesses as one
    probe.  So a bisection bracketed by the witnesses has ``probes ==
    iterations + 1``, and one bracketed by expansion has more: its
    expansion probes are ``probes - iterations - 1``."""

    value: float
    bracket: tuple[float, float]
    iterations: int
    probes: int
    method: str


def acdo_root(oracle: EllipticSetOracle, x: SymMatrix, tol: float = ROOT_TOL) -> AcdoRoot:
    """Signed distance of ``x`` to the set boundary along the identity line.

    The oracle's closed-form ``distance`` when it has one.  Otherwise a
    bracket [lo, hi] of t, then bisection to absolute width ``tol`` or,
    far from the origin where adjacent doubles lie more than ``tol``
    apart, until the midpoint rounds onto an end of the bracket, in at
    most ``_MAX_BISECT`` steps.  With both witnesses the bracket is lo =
    lambda_min(W_in - x), hi = lambda_max(W_out - x), from one stacked
    eigensolve counted as one probe; its ends are not probed.  Without
    both, or where that bracket is empty (lo >= hi, which only a
    non-elliptic predicate gives), it comes from exponential expansion
    from t = 0 (steps 1, 2, 4, ... in the needed direction), which raises
    :class:`NonProperSetError` past ``BRACKET_CAP``.  Either way the
    returned value v satisfies ``member(x - (v+e) I)`` and ``not
    member(x - (v-e) I)`` for e the larger of ``tol`` and one ulp of v,
    the closed form up to rounding.

    Monotonicity of membership in t is a consequence of ellipticity and is
    enforced by the probing scheme itself: expansion stops at the first
    sign flip and bisection probes strictly inside the bracket, so for any
    re-entrant predicate the observed probes are order-consistent.  A
    non-elliptic oracle yields a well-defined root of *some* crossing (or
    an end of the witnesses' bracket), not an error; test ellipticity
    separately via check_downward_closure.
    """
    if x.n != oracle.n:
        raise PreconditionError(
            f"matrix dimension {x.n} does not match oracle dimension {oracle.n}"
        )
    if oracle.distance is not None:
        v = float(oracle.distance(x))
        return AcdoRoot(value=v, bracket=(v, v), iterations=0, probes=1, method="closed-form")
    (lo,), (hi,) = _witness_brackets(oracle, x.a[None])
    if lo < hi:
        return _bisect(oracle, x, float(lo), float(hi), 0, 1, tol)
    probes = 0

    def member_at(t: float) -> bool:
        nonlocal probes
        probes += 1
        return bool(oracle.member(x.shift(t)))

    if member_at(0.0):
        lo, step = 0.0, 1.0
        while True:
            if step > BRACKET_CAP:
                raise _unbracketed(oracle, True, lo)
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
                raise _unbracketed(oracle, False, hi)
            if member_at(step):
                lo = step
                break
            hi = step
            step *= 2.0

    return _bisect(oracle, x, lo, hi, 0, probes, tol)


def _bisect(
    oracle: EllipticSetOracle, x: SymMatrix, lo: float, hi: float, iterations: int, probes: int, tol: float
) -> AcdoRoot:
    """Bisection of :func:`acdo_root` on the bracket [lo, hi] of t, from
    ``iterations`` steps and ``probes`` probes made so far."""
    while hi - lo > tol and iterations < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket cannot shrink
            break
        probes += 1
        if oracle.member(x.shift(mid)):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return AcdoRoot(
        value=-(0.5 * (lo + hi)),
        bracket=(-hi, -lo),
        iterations=iterations,
        probes=probes,
        method="bisection",
    )


def _witness_brackets(oracle: EllipticSetOracle, stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Brackets [lo, hi] of t from the oracle's witnesses for each matrix X
    of a ``(k, n, n)`` stack, from one stacked eigensolve.

    X + tI lies below W_in for t <= lo = lambda_min(W_in - X), so it is a
    member, and above W_out for t >= hi = lambda_max(W_out - X), so it is
    not.  Without both witnesses every bracket is [0, 0].  A bracket with
    lo >= hi is empty: an elliptic set has none, since W_in >= W_out would
    make W_out a member."""
    k = len(stack)
    if oracle.inside_witness is None or oracle.outside_witness is None:
        return np.zeros(k), np.zeros(k)
    inside, outside = oracle.inside_witness.a - stack, oracle.outside_witness.a - stack
    ev = eigvals_stack(np.concatenate([inside, outside]))
    return ev[:k, 0], ev[k:, -1]


def _unbracketed(oracle: EllipticSetOracle, up: bool, t: float) -> NonProperSetError:
    """The error of a bracket expansion that passed ``BRACKET_CAP``, upward
    from the member probe ``t`` or downward from the non-member ``t``."""
    if up:
        head, reason = f"no boundary above t = {t:g}: the set contains the whole", "full-line"
    else:
        head, reason = f"no member below t = {t:g}: the set is empty along the", "empty-line"
    return NonProperSetError(
        f"{head} identity line through the probe ({oracle.description})", reason=reason
    )


# Phases of a root in acdo_roots.
_START, _EXPAND, _BISECT, _DONE = range(4)

#: Fewest bisected roots that acdo_roots runs in lockstep.
_MIN_LOCKSTEP = 3


def acdo_roots(
    oracle: EllipticSetOracle, stack, tol: float = ROOT_TOL, start: list[AcdoRoot] | None = None
) -> list[AcdoRoot]:
    """:func:`acdo_root` of each matrix of a ``(k, n, n)`` symmetric stack.

    With the oracle's ``member_stack`` and without a closed form, the k
    bisections run in lockstep: the witnesses' brackets of the whole stack
    come from one stacked eigensolve, the rows without one (no witnesses,
    or an empty bracket) expand from t = 0 in lockstep too, and each step
    probes every unfinished root with one stacked membership call.  Each
    root sees the probe sequence of :func:`acdo_root` and stops where it
    stops (at width ``tol``, at a midpoint that rounds onto an end of the
    bracket, or at the step cap), so every field of its result is equal,
    and an expansion that passes ``BRACKET_CAP`` raises the
    :class:`NonProperSetError` that a loop of :func:`acdo_root` raises.
    Otherwise (a closed form, no ``member_stack``, or fewer than
    ``_MIN_LOCKSTEP`` matrices, where the bookkeeping of a step costs more
    than the stacked call saves) it is that loop.

    ``start`` holds the roots of the same stack from an earlier call at a
    looser (or equal) tolerance.  Each bisected root then resumes from its
    bracket, ``iterations`` and ``probes``, in lockstep or one at a time by
    the same rule, and a closed-form root comes back as it is.  The
    midpoints and the stopping rule depend only on the bracket, the step
    count and ``tol``, so the result equals that of one call at ``tol``
    in every field, the step cap counted from the first call; only the
    first call's membership calls are saved.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.shape[-1] != oracle.n:
        raise PreconditionError(
            f"matrix dimension {stack.shape[-1]} does not match oracle dimension {oracle.n}"
        )
    if start is not None:
        return _resume(oracle, stack, list(start), tol)
    k = len(stack)
    if oracle.distance is not None or oracle.member_stack is None or k < _MIN_LOCKSTEP:
        return [acdo_root(oracle, SymMatrix._wrap(x), tol) for x in stack]
    lo, hi = _witness_brackets(oracle, stack)
    bracketed = lo < hi  # the other rows start from t = 0, with lo = hi = 0
    phase = np.where(bracketed, _BISECT, _START)
    lo, hi = np.where(bracketed, lo, 0.0), np.where(bracketed, hi, 0.0)
    iterations, probes = np.zeros(k, dtype=int), bracketed.astype(int)
    return _lockstep(oracle, stack, tol, phase, lo, hi, iterations, probes)


def _resume(
    oracle: EllipticSetOracle, stack: np.ndarray, start: list[AcdoRoot], tol: float
) -> list[AcdoRoot]:
    """The ``start`` form of :func:`acdo_roots`."""
    if len(start) != len(stack):
        raise PreconditionError(f"{len(start)} start roots for a stack of {len(stack)} matrices")
    todo = [i for i, r in enumerate(start) if r.method == "bisection"]
    lo = np.array([-start[i].bracket[1] for i in todo])
    hi = np.array([-start[i].bracket[0] for i in todo])
    iterations = np.array([start[i].iterations for i in todo], dtype=int)
    probes = np.array([start[i].probes for i in todo], dtype=int)
    if oracle.member_stack is not None and len(todo) >= _MIN_LOCKSTEP:
        phase = np.full(len(todo), _BISECT)
        roots = _lockstep(oracle, stack[todo], tol, phase, lo, hi, iterations, probes)
    else:
        columns = zip(todo, lo.tolist(), hi.tolist(), iterations.tolist(), probes.tolist())
        roots = [_bisect(oracle, SymMatrix._wrap(stack[i]), *state, tol) for i, *state in columns]
    out = list(start)
    for i, root in zip(todo, roots):
        out[i] = root
    return out


def _lockstep(oracle, stack, tol, phase, lo, hi, iterations, probes) -> list[AcdoRoot]:
    """The lockstep loop of :func:`acdo_roots` from the given state: a root
    at ``_START`` (with lo = hi = 0) first probes t = 0, one at ``_BISECT``
    the midpoint of its bracket [lo, hi]."""
    k = len(stack)
    eye = _eye(oracle.n)
    iterations, probes, step = iterations.copy(), probes.copy(), np.zeros(k)
    up = np.zeros(k, dtype=bool)  # expansion direction, set by the probe at t = 0
    while True:
        mid = 0.5 * (lo + hi)
        shrinks = (hi - lo > tol) & (iterations < _MAX_BISECT) & (mid != lo) & (mid != hi)
        phase[(phase == _BISECT) & ~shrinks] = _DONE
        if not (live := phase != _DONE).any():
            break
        t = np.where(phase == _EXPAND, step, mid)  # mid = 0 at _START
        inside = np.zeros(k, dtype=bool)
        inside[live] = oracle.member_stack(stack[live] + t[live, None, None] * eye)
        probes += live
        lo = np.where(live & inside, t, lo)
        hi = np.where(live & ~inside, t, hi)
        start, expand = phase == _START, phase == _EXPAND
        up[start] = inside[start]
        step[start] = np.where(inside[start], 1.0, -1.0)
        grow = expand & (inside == up)  # still on the probe's side of the boundary
        step[grow] *= 2.0
        iterations += phase == _BISECT
        phase[start] = _EXPAND
        phase[expand & ~grow] = _BISECT

        # Every expansion still running has |step| = 2^j after the same j
        # steps, so all of them pass the cap at once; the first is the one
        # a loop of acdo_root meets first.
        capped = np.flatnonzero((phase == _EXPAND) & (np.abs(step) > BRACKET_CAP))
        if capped.size:
            i = capped[0]
            raise _unbracketed(oracle, bool(up[i]), float(lo[i] if up[i] else hi[i]))
    columns = zip(mid.tolist(), lo.tolist(), hi.tolist(), iterations.tolist(), probes.tolist())
    return [
        AcdoRoot(value=-mid, bracket=(-b, -a), iterations=i, probes=p, method="bisection")
        for mid, a, b, i, p in columns
    ]


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

    def record(self, deviation: float, limit: float, /, **violation) -> None:
        """Count one check; keep ``violation`` when ``deviation`` > ``limit``."""
        self.checks += 1
        self.max_deviation = max(self.max_deviation, deviation)
        if deviation > limit:
            self.violations.append(violation)


_TAU_GRID = (-10.0, -1.0, 0.1, 7.0)


def check_nondegeneracy(
    oracle: EllipticSetOracle,
    samples: int = 100,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify the identity-shift normalization F(X + tau I) = F(X) + tau.

    All ``5 * samples`` distances come from one :func:`acdo_roots` call."""
    _check_count(samples)
    rng = make_rng(seed)
    report = PropertyReport(name="nondegeneracy", samples=samples)
    n, width = oracle.n, 1 + len(_TAU_GRID)
    xs = goe_stack(rng, samples, n, [1.0])[:, None]
    shifted = xs + np.asarray(_TAU_GRID)[:, None, None] * _eye(n)  # X + tau I, as x.shift(tau)
    stack = np.concatenate([xs, shifted], axis=1).reshape(-1, n, n)
    values = [r.value for r in acdo_roots(oracle, stack, tol)]
    for i in range(samples):
        base, *moved = values[width * i : width * (i + 1)]
        x = SymMatrix._wrap(xs[i, 0]).to_dict()
        for tau, value in zip(_TAU_GRID, moved):
            dev = abs(value - base - tau)
            report.record(dev, 3.0 * tol, tau=tau, deviation=dev, X=x)
    return report


def check_lipschitz(
    oracle: EllipticSetOracle,
    samples: int = 200,
    seed: int = 0,
    tol: float = ROOT_TOL,
) -> PropertyReport:
    """Verify |F(X) - F(Y)| <= ||X - Y||_inf on sampled pairs.

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
        excess = abs(values[2 * i] - values[2 * i + 1]) - norms[i]
        x, y = SymMatrix._wrap(xs[i]), SymMatrix._wrap(ys[i])
        report.record(excess, 3.0 * tol, excess=excess, X=x.to_dict(), Y=y.to_dict())
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
    and rotation invariance, each to 3x the root tolerance.

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
            row.append(SymMatrix(q.T @ x.a @ q))
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
                    report.record(dev, 3.0 * tol, flag=flag, deviation=dev, **pair)
        if flags.cone:
            for c in (0.5, 2.0):
                dev = abs(next(values) - c * fx)
                limit = 3.0 * tol * max(1.0, c)
                report.record(dev, limit, flag="cone", c=c, deviation=dev, X=x.to_dict())
        if flags.rot_invariant:
            dev = abs(next(values) - fx)
            report.record(dev, 3.0 * tol, flag="rot_invariant", deviation=dev, X=x.to_dict())
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
