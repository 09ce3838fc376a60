"""Lockstep bisection: ``acdo_roots``, and ``acdo_root`` that bisects
through it as a stack of one, against a plain one-root bisection kept
here, for stacks of any size, fresh and resumed; the shape and entry
checks of the stack; the stacked membership of congruence images against
the scalar one, the stacked spec values against the scalar ones, empty
stacks, and the property checks built on them against their per-sample
form."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcone.acdo import (
    AcdoRoot,
    EllipticSetOracle,
    acdo_eval,
    acdo_root,
    acdo_roots,
    check_downward_closure,
    check_lipschitz,
    check_nondegeneracy,
    check_structure,
    oracle_from_operator,
    _ROUNDING,
    _gate,
    _witness_brackets,
)
from domcone.aperture import ConvexBody
from domcone.cli import parse_operator_arg
from domcone.cones import conjugate_oracle
from domcone.errors import (
    DimensionMismatchError,
    InputError,
    InvalidMatrixError,
    NonProperSetError,
    PreconditionError,
)
from domcone.operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    eval_example,
    eval_pucci,
    spec_from_dict,
)
from domcone.rules import ROOT_TOL, PropertyReport, StructureFlags
from domcone.sampling import goe_matrix, goe_stack, make_rng, random_nsd, random_orthogonal, random_psd
from domcone.symmat import InvertibleMap, SymMatrix, congruence, eigvals_sym, inf_norm, inner_stack


def _map(rng, n):
    return InvertibleMap(rng.standard_normal((n, n)) + 2.0 * np.eye(n))


def _pucci(rng, n):
    lam = float(rng.uniform(0.1, 2.0))
    return Pucci(n=n, lam=lam, Lam=lam * float(rng.uniform(1.0, 4.0)))


def _body(rng, n, rot_closed):
    gens = tuple(random_psd(rng, n) for _ in range(int(rng.integers(1, 4))))
    return ConvexBody(n=n, generators=gens, rot_closed=rot_closed)


#: One builder per catalog spec type on S(n), both support variants, and
#: congruence images of a spectral and of a non-spectral spec.
SPECS = {
    "dominative": lambda rng, n: DominativeP(n=n, p=float(rng.uniform(2.0, 8.0))),
    "dominative_inf": lambda rng, n: DominativeP(n=n, p=math.inf),
    "pucci": _pucci,
    "linear": lambda rng, n: LinearTrace(A=random_psd(rng, n), m=float(rng.normal())),
    "support_rot_closed": lambda rng, n: EnsembleSupport(_body(rng, n, True)),
    "support_plain": lambda rng, n: EnsembleSupport(_body(rng, n, False)),
    "example": lambda rng, n: ExampleEq(),
    "shifted": lambda rng, n: Shifted(inner=_pucci(rng, n), X0=goe_matrix(rng, n)),
    "conjugated": lambda rng, n: Conjugated(inner=_pucci(rng, n), B=_map(rng, n)),
    "conjugated_linear": lambda rng, n: Conjugated(
        inner=LinearTrace(A=random_psd(rng, n), m=1.0), B=_map(rng, n)
    ),
}


def _spec(kind, rng):
    return SPECS[kind](rng, 2 if kind == "example" else int(rng.integers(2, 6)))


def _bisection(spec):
    return replace(oracle_from_operator(spec), distance=None)


def _same(a, b):
    return a.a.tobytes() == b.a.tobytes()


def _reference_root(oracle, x, tol=ROOT_TOL, start=None):
    """The distance of ``x`` as a plain one-root bisection: the closed form
    where the oracle has one; else the witnesses' bracket (or the bracket
    and step count of a ``start`` root), then one ``member`` call per step
    until the width is at most ``tol`` or the midpoint rounds onto an end
    of the bracket."""
    if oracle.distance is not None:
        v = float(oracle.distance(x))
        return AcdoRoot(value=v, bracket=(v, v), iterations=0, probes=1, method="closed-form")
    if start is None:
        (lo,), (hi,) = _witness_brackets(oracle, x.a[None])
        lo, hi, iterations = float(lo), float(hi), 0
    else:
        lo, hi, iterations = -start.bracket[1], -start.bracket[0], start.iterations
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if oracle.member(x.shift(mid)):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return AcdoRoot(
        value=-(0.5 * (lo + hi)),
        bracket=(-hi, -lo),
        iterations=iterations,
        probes=iterations + 1,
        method="bisection",
    )


def _assert_same_roots(oracle, stack, tol=ROOT_TOL):
    """acdo_roots on the stack, and acdo_root on each matrix, give the
    roots of the plain bisection, to the bit (repr tells -0.0 from 0.0)."""
    want = [_reference_root(oracle, SymMatrix._wrap(x.copy()), tol) for x in stack]
    got = acdo_roots(oracle, stack, tol)
    assert got == want and repr(got) == repr(want)
    alone = [acdo_root(oracle, SymMatrix._wrap(x.copy()), tol) for x in stack]
    assert alone == want and repr(alone) == repr(want)


# ---------------------------------------------------------------------------
# acdo_roots and acdo_root equal a plain one-root bisection


class TestLockstepEqualsScalar:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), k=st.integers(1, 9), radius=st.floats(0.1, 20.0))
    def test_every_field(self, kind, salt, k, radius):
        # radii spread over two decades: the stack mixes samples inside and
        # outside the set, near the witnesses and far from them
        rng = make_rng(503, salt)
        spec = _spec(kind, rng)
        stack = goe_stack(rng, k, spec.n, [radius, 0.1 * radius, 10.0 * radius])
        _assert_same_roots(_bisection(spec), stack)

    def test_mixed_stack_holds_both_sides(self):
        spec = DominativeP(n=3, p=3.0)
        stack = goe_stack(make_rng(7), 12, 3, [1.0])
        stack[::2] -= 5.0 * np.eye(3)
        roots = acdo_roots(_bisection(spec), stack)
        assert {r.value < 0.0 for r in roots} == {True, False}
        _assert_same_roots(_bisection(spec), stack)

    def test_pucci_on_breakpoints(self):
        # integer spectra: the witnesses' brackets have integer ends, and
        # their midpoints land on the breakpoints -lambda_i, where a shifted
        # eigenvalue is exactly zero
        spec = Pucci(n=3, lam=0.5, Lam=2.0)
        stack = np.array([np.diag(d) for d in ([-1.0, 2.0, 4.0], [1.0, -2.0, -4.0], [0.0, 0.0, 1.0])])
        _assert_same_roots(_bisection(spec), stack)

    def test_example_below_its_edge(self):
        # l2 < -1 gives the value -inf until the bisection lifts l2 past -1
        stack = np.array([np.diag(d) for d in ([-30.0, -5.0], [-3.0, -1.5], [-3.0, -1.0], [0.5, 2.0])])
        values = ExampleEq().value_stack(stack)
        assert np.isinf(values[:2]).all()
        assert values[2] == eval_example(SymMatrix._wrap(stack[2])) == -2.0  # l2 = -1 is on the finite side
        _assert_same_roots(_bisection(ExampleEq()), stack)

    def test_a_bracket_that_never_reaches_tol_stops_at_the_last_double(self):
        # a negative tolerance never closes the bracket; with the root at
        # t = 0 exactly, the witnesses' bracket [-2, 2] takes lo to 0 at
        # the first midpoint, then hi halves toward 0 through 2^-1074, the
        # least double, where the midpoint rounds onto lo = 0: the bracket
        # evaluation, then 1 + 1,075 bisection probes, alone and in lockstep
        oracle = _bisection(Pucci(n=4, lam=1.0, Lam=3.0))
        stack = np.zeros((3, 4, 4))
        _assert_same_roots(oracle, stack, tol=-1e-3)
        _assert_same_roots(oracle, stack[:1], tol=-1e-3)
        roots = acdo_roots(oracle, stack, tol=-1e-3)
        assert [(r.value, r.iterations, r.probes) for r in roots] == [(-0.0, 1076, 1077)] * 3
        assert [repr(v) for v in roots[0].bracket] == ["-5e-324", "-0.0"]

    @pytest.mark.parametrize("root", [0.0, 5e-324, -1.0, 3.0, 1e300, -8e307])
    def test_the_widest_bracket_stops_at_the_rounding_stop(self, root):
        # witnesses at -+1.7e308 I, whose difference passes the float range:
        # a root at the origin, where the doubles are densest, or far from
        # it stops within 2,200 steps at any tolerance (a root past 8.5e307
        # would take a midpoint of two ends past the float range)
        eye = SymMatrix.identity(2)
        for tol in (ROOT_TOL, 0.0, -1.0):
            with np.errstate(over="ignore"):
                oracle = EllipticSetOracle(
                    member=lambda x: x.a[0, 0] <= root, n=2, inside_witness=eye * -1.7e308, outside_witness=eye * 1.7e308
                )
                (r,) = acdo_roots(oracle, np.zeros((1, 2, 2)), tol)
            lo, hi = -r.bracket[1], -r.bracket[0]
            assert lo <= root < hi and r.iterations < 2200
            assert hi - lo <= tol or 0.5 * (lo + hi) in (lo, hi)

    def test_width_equal_to_tol_stops(self):
        # the bracket [-2, 2] halves to width 2^-8 in exactly 10 steps, and a
        # width equal to tol is closed: alone and in lockstep
        oracle = _bisection(Pucci(n=4, lam=1.0, Lam=3.0))
        stack = np.zeros((3, 4, 4))
        _assert_same_roots(oracle, stack, tol=2.0**-8)
        roots = acdo_roots(oracle, stack, tol=2.0**-8)
        assert [(r.iterations, r.probes) for r in roots] == [(10, 11)] * 3
        assert roots[0].bracket[1] - roots[0].bracket[0] == 2.0**-8

    @pytest.mark.parametrize("ulps", [0, 1], ids=["even", "odd"])
    def test_midpoint_rounding_onto_either_end_stops(self, ulps):
        # the root t = 2^30 + ulps * 2^-22 is a member, so the bracket ends at
        # [root, root + ulp]; its midpoint rounds half to even, onto lo for
        # an even root and onto hi for an odd one, and either ends the
        # bisection, after 24 steps, alone and in lockstep
        oracle = _bisection(Pucci(n=3, lam=0.5, Lam=2.0))
        root = 2.0**30 + ulps * 2.0**-22
        stack = np.array([-root * np.eye(3)] * 3)
        _assert_same_roots(oracle, stack, tol=0.0)
        for r in acdo_roots(oracle, stack, tol=0.0):
            assert r.bracket == (-math.nextafter(root, math.inf), -root)
            assert r.iterations == 24

    def test_far_root_stops_when_the_bracket_cannot_shrink(self):
        # beyond |t| = 2^19 adjacent doubles lie further apart than ROOT_TOL:
        # the bisection ends when the midpoint rounds onto an end of the
        # bracket, after 54 steps (pinned literals), alone and in lockstep
        data = Path(__file__).parent / "data"
        spec = spec_from_dict(json.loads((data / "conjugated_pucci.json").read_text()))
        far = SymMatrix.from_dict(json.loads((data / "far_probe.json").read_text()))
        oracle = oracle_from_operator(spec)
        assert oracle.distance is None
        stack = np.array([far.a, far.a])
        _assert_same_roots(oracle, stack)
        for root in acdo_roots(oracle, stack) + [acdo_root(oracle, far), _reference_root(oracle, far)]:
            assert root.value == 1180325.103301331
            assert root.bracket == (1180325.103301331, 1180325.1033013312)
            assert root.iterations == 54


class TestFallback:
    def test_closed_form_oracle_keeps_the_scalar_path(self):
        spec = Pucci(n=3, lam=0.5, Lam=2.0)
        stack = goe_stack(make_rng(9), 5, 3, [1.0])
        roots = acdo_roots(oracle_from_operator(spec), stack)
        assert {r.method for r in roots} == {"closed-form"}
        _assert_same_roots(oracle_from_operator(spec), stack)

    def test_user_predicate_bisects_in_lockstep_through_its_row_loop(self):
        # a predicate given without a stacked form gets a row loop of
        # member: one stacked call per lockstep step, one member call per
        # bisection step of each root, and the roots of the plain bisection
        spec = DominativeP(n=2, p=4.0)
        calls, steps = [], []

        def member(x):
            calls.append(1)
            return spec.value(x) <= 0.0

        oracle = EllipticSetOracle(member=member, n=2)
        row_loop = oracle.member_stack
        oracle.member_stack = lambda a: steps.append(len(a)) or row_loop(a)
        stack = goe_stack(make_rng(10), 4, 2, [1.0])
        calls.clear()
        roots = acdo_roots(oracle, stack)
        assert len(calls) == sum(steps) == sum(r.iterations for r in roots) > 0
        assert len(steps) == max(r.iterations for r in roots)
        assert all(r.probes == r.iterations + 1 for r in roots)
        _assert_same_roots(oracle, stack)


def test_one_or_two_roots_bisect_in_lockstep():
    # one or two matrices, fresh and resumed, and acdo_root alone: one
    # member_stack call per step of the longest bisection, each on the
    # roots still unfinished (the bracket is the probe that calls
    # neither), and no member call; the roots are those of the plain
    # bisection, fresh and resumed
    spec = DominativeP(n=3, p=4.0)
    scalar, stacked = [], []

    def member(x):
        scalar.append(1)
        return spec.value(x) <= 0.0

    def member_stack(a):
        stacked.append(len(a))
        return spec.value_stack(a) <= 0.0

    oracle = EllipticSetOracle(member=member, n=3, member_stack=member_stack)
    for k in (1, 2):
        stack = goe_stack(make_rng(12), k, 3, [1.0])
        xs = [SymMatrix._wrap(x.copy()) for x in stack]
        scalar.clear()
        stacked.clear()
        roots = acdo_roots(oracle, stack)
        assert len(stacked) == max(r.iterations for r in roots)
        assert sum(stacked) == sum(r.iterations for r in roots) > 0
        coarse = acdo_roots(oracle, stack, 1e-2)
        stacked.clear()
        assert acdo_roots(oracle, stack, start=coarse) == roots
        assert len(stacked) == max(r.iterations - c.iterations for r, c in zip(roots, coarse))
        assert sum(stacked) == sum(r.probes for r in roots) - sum(r.probes for r in coarse) > 0
        stacked.clear()
        assert acdo_root(oracle, xs[0]) == roots[0]
        assert stacked == [1] * roots[0].iterations
        assert scalar == []
        assert roots == [_reference_root(oracle, x) for x in xs]
        assert roots == [_reference_root(oracle, x, start=c) for x, c in zip(xs, coarse)]


@pytest.mark.parametrize(
    "shape",
    [(3, 3), (2, 4, 3), (2, 3, 4), (2, 2, 3, 3), (1, 2, 2), (3,), ()],
    ids=["matrix", "rows", "columns", "4d", "other-n", "vector", "scalar"],
)
@pytest.mark.parametrize("closed", [False, True], ids=["bisection", "closed-form"])
def test_stack_of_the_wrong_shape_is_rejected(shape, closed, monkeypatch):
    # any shape but (k, n, n) with n = oracle.n raises PreconditionError
    # before any eigensolve, distance or membership call, fresh and
    # resumed; (0, n, n) gives no roots
    spec = Pucci(n=3, lam=0.5, Lam=2.0)
    oracle = oracle_from_operator(spec) if closed else _bisection(spec)
    assert acdo_roots(oracle, np.zeros((0, 3, 3))) == []
    assert acdo_roots(oracle, np.zeros((0, 3, 3)), start=[]) == []

    def fail(*args):
        raise AssertionError("called before the shape check")

    monkeypatch.setattr("domcone.acdo.eigvals_stack", fail)
    for attr in ("member", "member_stack") + (("distance",) if closed else ()):
        monkeypatch.setattr(oracle, attr, fail)
    match = r"stack of shape .* is not \(k, n, n\) for oracle dimension n = 3"
    with pytest.raises(PreconditionError, match=match):
        acdo_roots(oracle, np.zeros(shape))
    with pytest.raises(PreconditionError, match=match):
        acdo_roots(oracle, np.zeros(shape), start=[])
    with pytest.raises(DimensionMismatchError, match="matrix dimension 2 does not match oracle dimension 3"):
        acdo_root(oracle, SymMatrix.zeros(2))


def _bad_stack(case):
    """A stack of three symmetric 3x3 matrices whose second one is spoilt
    by ``case``: a non-finite entry in the lower triangle (the one LAPACK
    reads), or an asymmetry; "asymmetric-ok" stays within the tolerance,
    and any other case leaves the stack as drawn."""
    stack = goe_stack(make_rng(7), 3, 3, [1.0])
    if case in ("nan", "inf", "-inf"):
        stack[1, 2, 0] = float(case)
    elif case == "asymmetric":
        stack[1] = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    elif case == "asymmetric-1e-9":
        stack[1, 0, 1] += 1e-9  # allowed: 1e-12 * (1 + max |a_ij|), below 1e-11
    elif case == "asymmetric-ok":
        stack[1, 0, 1] += 1e-13
    return stack


def _oracle_kind(kind, spec, calls):
    if kind == "predicate":
        return EllipticSetOracle(member=lambda x: calls.append(x) or spec.value(x) <= 0.0, n=spec.n)
    return oracle_from_operator(spec) if kind == "closed-form" else _bisection(spec)


@pytest.mark.parametrize(
    "case, match",
    [
        ("nan", "matrix entries must be finite"),
        ("inf", "matrix entries must be finite"),
        ("-inf", "matrix entries must be finite"),
        ("asymmetric", "matrix is asymmetric beyond tolerance"),
        ("asymmetric-1e-9", "matrix is asymmetric beyond tolerance"),
    ],
)
@pytest.mark.parametrize("kind", ["closed-form", "bisection", "predicate"])
def test_stack_with_bad_entries_is_rejected(kind, case, match, monkeypatch):
    # after the shape check, a non-finite entry or a matrix asymmetric beyond
    # the tolerance of SymMatrix.from_dict raises InvalidMatrixError before
    # any eigensolve, distance or membership call, fresh and resumed
    spec, calls = Pucci(n=3, lam=0.5, Lam=2.0), []
    oracle = _oracle_kind(kind, spec, calls)
    start = acdo_roots(oracle, _bad_stack("none"), 1e-2)
    calls.clear()

    def fail(*args):
        raise AssertionError("called before the entry check")

    monkeypatch.setattr("domcone.acdo.eigvals_stack", fail)
    if kind != "predicate":
        for attr in ("member", "member_stack") + (("distance",) if kind == "closed-form" else ()):
            monkeypatch.setattr(oracle, attr, fail)
    for kwargs in ({}, {"start": start}):
        with pytest.raises(InvalidMatrixError, match=match) as info:
            acdo_roots(oracle, _bad_stack(case), **kwargs)
        assert info.value.code == "invalid-matrix"
    assert calls == []


@pytest.mark.parametrize("kind", ["closed-form", "bisection", "predicate"])
def test_stack_within_the_symmetry_tolerance_is_accepted(kind):
    spec, calls = Pucci(n=3, lam=0.5, Lam=2.0), []
    roots = acdo_roots(_oracle_kind(kind, spec, calls), _bad_stack("asymmetric-ok"))
    assert len(roots) == 3 and all(math.isfinite(r.value) for r in roots)


# ---------------------------------------------------------------------------
# Resumed bisection equals one call at the final tolerance


def _assert_resumes(oracle, stack, *tols):
    """acdo_roots through ``tols`` (loosest first), each call resuming the
    last, equals one call at the last tolerance in every field."""
    roots = acdo_roots(oracle, stack, tols[0])
    for tol in tols[1:]:
        roots = acdo_roots(oracle, stack, tol, start=roots)
    assert roots == acdo_roots(oracle, stack, tols[-1])


class TestResume:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), k=st.integers(1, 9), coarse=st.floats(-8.0, 0.0))
    def test_every_field(self, kind, salt, k, coarse):
        rng = make_rng(509, salt)
        spec = _spec(kind, rng)
        stack = goe_stack(rng, k, spec.n, [1.0, 0.1, 10.0])
        _assert_resumes(_bisection(spec), stack, 10.0**coarse, ROOT_TOL)

    def test_user_predicate_resumes_in_lockstep(self):
        spec = DominativeP(n=3, p=3.0)
        oracle = EllipticSetOracle(member=lambda x: spec.value(x) <= 0.0, n=3)
        _assert_resumes(oracle, goe_stack(make_rng(13), 6, 3, [1.0]), 1e-3, ROOT_TOL)

    def test_coarse_mid_fine_chain(self):
        oracle = _bisection(Pucci(n=3, lam=0.5, Lam=2.0))
        stack = goe_stack(make_rng(14), 5, 3, [100.0])
        _assert_resumes(oracle, stack, 1e-1, 1e-5, 1e-8)
        _assert_resumes(oracle, stack[:2], 1e-1, 1e-5, 1e-8)

    def test_resumed_roots_stop_at_the_last_double(self):
        # the root at t = 0 of
        # test_a_bracket_that_never_reaches_tol_stops_at_the_last_double:
        # 12 steps from the bracket [-2, 2] to width 1e-3, then on to the
        # rounding stop at 1,076 in all, 1,077 probes
        oracle = _bisection(Pucci(n=4, lam=1.0, Lam=3.0))
        for stack in (np.zeros((3, 4, 4)), np.zeros((1, 4, 4))):
            coarse = acdo_roots(oracle, stack, 1e-3)
            assert [(r.iterations, r.probes) for r in coarse] == [(12, 13)] * len(stack)
            roots = acdo_roots(oracle, stack, -1e-3, start=coarse)
            assert [(r.iterations, r.probes) for r in roots] == [(1076, 1077)] * len(stack)
            assert [repr(v) for v in roots[0].bracket] == ["-5e-324", "-0.0"]
            _assert_resumes(oracle, stack, 1e-3, -1e-3)
            # a root already at the rounding stop comes back as it is
            assert acdo_roots(oracle, stack, -1.0, start=roots) == roots

    def test_far_root_stalls_where_the_one_shot_call_stalls(self):
        data = Path(__file__).parent / "data"
        spec = spec_from_dict(json.loads((data / "conjugated_pucci.json").read_text()))
        far = SymMatrix.from_dict(json.loads((data / "far_probe.json").read_text()))
        oracle = oracle_from_operator(spec)
        for k in (1, 3):
            stack = np.array([far.a] * k)
            _assert_resumes(oracle, stack, 1e3, ROOT_TOL)
            (root, *_) = acdo_roots(oracle, stack, 1e3)
            (root, *_) = acdo_roots(oracle, stack, start=[root] * k)
            assert root.value == 1180325.103301331 and root.iterations == 54

    def test_closed_form_roots_come_back_as_they_are(self):
        oracle = oracle_from_operator(Pucci(n=3, lam=0.5, Lam=2.0))
        stack = goe_stack(make_rng(15), 4, 3, [1.0])
        start = acdo_roots(oracle, stack, 1e-3)
        resumed = acdo_roots(oracle, stack, start=start)
        assert all(a is b for a, b in zip(resumed, start))

    def test_start_must_match_the_stack(self):
        oracle = _bisection(Pucci(n=3, lam=0.5, Lam=2.0))
        stack = goe_stack(make_rng(16), 3, 3, [1.0])
        with pytest.raises(PreconditionError, match="2 start roots for a stack of 3"):
            acdo_roots(oracle, stack, start=acdo_roots(oracle, stack[:2]))


@pytest.mark.parametrize("stacked", [False, True], ids=["member", "member_stack"])
@pytest.mark.parametrize("always, reason", [(True, "full-line"), (False, "empty-line")])
def test_non_proper_set_raises_when_the_oracle_is_built(always, reason, stacked):
    # the witness search probes tI at t = 0, then +-1, +-2, ..., +-2^49,
    # and the next step passes BRACKET_CAP: 51 probes, then the error
    calls = []

    def member(x):
        calls.append(float(x.a[0, 0]))
        return always

    with pytest.raises(NonProperSetError) as info:
        EllipticSetOracle(
            member=member,
            n=3,
            description="probe",
            member_stack=(lambda a: np.full(len(a), always)) if stacked else None,
        )
    assert info.value.reason == reason
    sign = 1.0 if always else -1.0
    assert calls == [0.0] + [sign * 2.0**j for j in range(50)]
    side = "inside the set up to t = 5.6295e+14" if always else "outside the set up to t = -5.6295e+14"
    assert str(info.value) == f"no boundary on the identity line: tI is {side} (probe)"


def test_non_elliptic_rows_end_at_their_bracket():
    # full line where a_01 > 0.5, empty where a_01 < -0.5, else Theta_3:
    # the set is not elliptic, yet its witnesses 0 and I are found at X = 0
    # and every root stays in their bracket, with the bisection pushed to
    # its upper end on a full line and to its lower end on an empty one
    def member_stack(a):
        theta = DominativeP(n=3, p=3.0).value_stack(a) <= 0.0
        return (a[:, 0, 1] > 0.5) | ((a[:, 0, 1] >= -0.5) & theta)

    oracle = EllipticSetOracle(
        member=lambda x: bool(member_stack(x.a[None])[0]), n=3, description="probe", member_stack=member_stack
    )
    assert _same(oracle.inside_witness, SymMatrix.zeros(3))
    assert _same(oracle.outside_witness, SymMatrix.identity(3))
    stack = goe_stack(make_rng(11), 30, 3, [1.0])
    _assert_same_roots(oracle, stack)
    lo, hi = _witness_brackets(oracle, stack)
    for x, root, a, b in zip(stack, acdo_roots(oracle, stack), lo.tolist(), hi.tolist()):
        assert root.probes == root.iterations + 1
        if x[0, 1] > 0.5:
            assert root.bracket[0] == -b
        elif x[0, 1] < -0.5:
            assert root.bracket[1] == -a
    assert (stack[:, 0, 1] > 0.5).any() and (stack[:, 0, 1] < -0.5).any()


@pytest.mark.parametrize("T", [9e307, 1.2e308, 1.6e308])
def test_bisection_past_half_the_float_range_stays_finite(T):
    # {lambda_max <= T} with witnesses -+1.7e308 I: past about 9e307 the
    # sum of the bracket's ends leaves the float range, and the midpoint
    # halves them first; the root at X = 0 is -T to within the larger of
    # tol and one ulp, and neither the witness-order check nor the
    # bisection warns
    eye = SymMatrix.identity(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = EllipticSetOracle(
            member=lambda x: bool(eigvals_sym(x)[-1] <= T),
            n=2,
            inside_witness=eye * -1.7e308,
            outside_witness=eye * 1.7e308,
        )
        root = acdo_root(oracle, SymMatrix.zeros(2))
    assert math.isfinite(root.value) and all(map(math.isfinite, root.bracket))
    assert abs(root.value + T) <= max(ROOT_TOL, float(np.spacing(T)))
    assert root.bracket[0] <= -T <= root.bracket[1] and root.probes == root.iterations + 1


# ---------------------------------------------------------------------------
# The witnesses' bracket


def _with_witnesses(spec, stacked):
    """A user predicate for the sublevel set of ``spec`` with the witnesses
    -2I and 2I, and with or without a stacked form."""
    eye = SymMatrix.identity(spec.n)
    return EllipticSetOracle(
        member=lambda x: spec.value(x) <= 0.0,
        n=spec.n,
        inside_witness=eye * -2.0,
        outside_witness=eye * 2.0,
        member_stack=(lambda a: spec.value_stack(a) <= 0.0) if stacked else None,
    )


#: Every catalog spec type bisected, its congruence image, and user
#: predicates with witnesses, with and without a stacked form.
WITNESSED = {
    **{kind: lambda spec, rng: _bisection(spec) for kind in SPECS},
    "congruence_image": lambda spec, rng: conjugate_oracle(oracle_from_operator(spec), _map(rng, spec.n)),
    "user_predicate": lambda spec, rng: _with_witnesses(spec, False),
    "user_predicate_stacked": lambda spec, rng: _with_witnesses(spec, True),
}


class TestWitnessBracket:
    @pytest.mark.parametrize("kind", sorted(WITNESSED))
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), k=st.integers(1, 7), radius=st.floats(0.1, 1e4))
    def test_bracket_holds_the_root(self, kind, salt, k, radius):
        rng = make_rng(521, salt)
        spec = _spec(kind if kind in SPECS else "pucci", rng)
        oracle = WITNESSED[kind](spec, rng)
        stack = goe_stack(rng, k, spec.n, [radius, 0.1 * radius])
        lo, hi = _witness_brackets(oracle, stack)
        assert (lo < hi).all()
        for x, a, b in zip(stack, lo.tolist(), hi.tolist()):
            x = SymMatrix._wrap(x.copy())
            assert oracle.member(x.shift(a)) and not oracle.member(x.shift(b))
        roots = acdo_roots(oracle, stack)
        assert roots == [_reference_root(oracle, SymMatrix._wrap(x.copy())) for x in stack]
        for r, a, b in zip(roots, lo.tolist(), hi.tolist()):
            assert r.method == "bisection" and r.probes == r.iterations + 1
            assert -b <= r.bracket[0] <= r.bracket[1] <= -a

    @pytest.mark.parametrize(
        "shift, found",
        [(0.0, (0.0, 1.0)), (3.0, (2.0, 4.0)), (-3.0, (-4.0, -2.0))],
        ids=["at-0", "above", "below"],
    )
    @pytest.mark.parametrize("stacked", [False, True], ids=["member", "member_stack"])
    def test_missing_witnesses_are_found_when_built(self, shift, found, stacked):
        # Pucci's sublevel set moved by shift * I: the search probes tI at
        # t = 0, +-1, +-2, +-4 and keeps the last member and the first
        # non-member; the roots equal those of the same predicate given
        # those witnesses, and lie within ROOT_TOL of those bracketed by
        # +-2I about the shift
        spec = Shifted(inner=Pucci(n=3, lam=0.5, Lam=2.0), X0=SymMatrix.identity(3) * shift)
        member_stack = (lambda a: spec.value_stack(a) <= 0.0) if stacked else None
        bare = EllipticSetOracle(member=lambda x: spec.value(x) <= 0.0, n=3, member_stack=member_stack)
        eye = SymMatrix.identity(3)
        assert _same(bare.inside_witness, eye * found[0]) and _same(bare.outside_witness, eye * found[1])
        given = replace(bare, inside_witness=eye * found[0], outside_witness=eye * found[1])
        stack = goe_stack(make_rng(17), 6, 3, [1.0, 100.0])
        roots = acdo_roots(bare, stack)
        assert roots == acdo_roots(given, stack)
        _assert_same_roots(bare, stack)
        assert all(r.probes == r.iterations + 1 for r in roots)
        for r, w in zip(roots, acdo_roots(_bisection(spec), stack)):
            assert abs(r.value - w.value) <= ROOT_TOL

    def test_one_missing_witness_is_found(self):
        # a given inside witness is kept and only the outside one searched
        spec = Pucci(n=3, lam=0.5, Lam=2.0)
        inside = SymMatrix.diag([-5.0, -1.0, 0.0])
        oracle = EllipticSetOracle(member=lambda x: spec.value(x) <= 0.0, n=3, inside_witness=inside)
        assert oracle.inside_witness is inside
        assert _same(oracle.outside_witness, SymMatrix.identity(3))

    def test_witnesses_in_the_wrong_order_are_rejected(self):
        # {lambda_max <= 0} u {lambda_max >= 5} is not elliptic, yet 10I is
        # a member and 2I is not; W_in >= W_out would put W_out inside an
        # elliptic set, and it is the pair that leaves X = W_out (and
        # any X with lambda_max - lambda_min <= 8) an empty bracket
        def member(x):
            top = eigvals_sym(x)[-1]
            return bool(top <= 0.0 or top >= 5.0)

        eye = SymMatrix.identity(3)
        with pytest.raises(InputError, match="inside witness lies above the outside witness"):
            EllipticSetOracle(member=member, n=3, inside_witness=eye * 10.0, outside_witness=eye * 2.0)
        # W_in - W_out = diag(0, 0, 1) is singular and still >= 0: rejected
        upper = lambda x: bool(x.a[2, 2] >= 1.0)
        with pytest.raises(InputError, match="inside witness lies above"):
            EllipticSetOracle(
                member=upper,
                n=3,
                inside_witness=SymMatrix.diag([0.0, 0.0, 1.0]),
                outside_witness=SymMatrix.zeros(3),
            )
        # W_in - W_out = 3.4e308 I passes the float range: its halves are compared
        with pytest.raises(InputError, match="inside witness lies above"):
            EllipticSetOracle(
                member=lambda x: bool(eigvals_sym(x)[-1] >= 0.0),
                n=3,
                inside_witness=eye * 1.7e308,
                outside_witness=eye * -1.7e308,
            )
        # an unordered pair whose difference is indefinite is accepted
        oracle = EllipticSetOracle(
            member=member, n=3, inside_witness=SymMatrix.diag([-9.0, 0.0, 6.0]), outside_witness=eye * 2.0
        )
        lo, hi = _witness_brackets(oracle, np.zeros((1, 3, 3)))
        assert (lo[0], hi[0]) == (-9.0, 2.0)

    def test_default_member_stack_is_member_row_by_row(self):
        spec = Pucci(n=3, lam=0.5, Lam=2.0)
        oracle = EllipticSetOracle(member=lambda x: spec.value(x) <= 0.0, n=3)
        stack = goe_stack(make_rng(18), 40, 3, [0.1, 1.0, 10.0])
        got = oracle.member_stack(stack)
        assert got.dtype == bool and got.shape == (40,)
        assert got.tolist() == [oracle.member(SymMatrix._wrap(x.copy())) for x in stack]
        assert got.any() and not got.all()
        assert oracle.member_stack(np.zeros((0, 3, 3))).shape == (0,)
        # a replaced member gets a row loop of its own, not the old one
        looser = replace(oracle, member=lambda x: spec.value(x) <= 0.5)
        x = SymMatrix.diag([0.05, 0.05, 0.05])
        assert looser.member(x) and not oracle.member(x)
        assert looser.member_stack(x.a[None]).tolist() == [True]
        assert oracle.member_stack(x.a[None]).tolist() == [False]
        stacked = replace(oracle, member_stack=lambda a: spec.value_stack(a) <= 0.0)
        assert replace(stacked, description="kept").member_stack is stacked.member_stack


# ---------------------------------------------------------------------------
# The congruence image's stacked membership


class TestConjugateOracleStack:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), k=st.integers(1, 9), radius=st.floats(0.1, 20.0))
    def test_equals_member_and_bisects_in_lockstep(self, kind, salt, k, radius):
        rng = make_rng(509, salt)
        spec = _spec(kind, rng)
        image = conjugate_oracle(oracle_from_operator(spec), _map(rng, spec.n))
        stack = goe_stack(rng, k, spec.n, [radius, 0.1 * radius, 10.0 * radius])
        want = [bool(image.member(SymMatrix._wrap(x.copy()))) for x in stack]
        got = image.member_stack(stack)
        assert got.dtype == bool
        assert got.tolist() == want
        _assert_same_roots(image, stack)

    def test_user_predicate_image_bisects_in_lockstep(self):
        # the image of a predicate given with neither witnesses nor a
        # stacked form maps the witnesses found for it, and its stacked
        # form maps the row loop
        oracle = EllipticSetOracle(member=lambda x: DominativeP(n=2, p=3.0).value(x) <= 0.0, n=2)
        b = _map(make_rng(510), 2)
        image = conjugate_oracle(oracle, b)
        assert image.distance is None
        assert _same(image.inside_witness, congruence(oracle.inside_witness, b))
        assert _same(image.outside_witness, congruence(oracle.outside_witness, b))
        stack = goe_stack(make_rng(513), 8, 2, [1.0, 10.0])
        assert image.member_stack(stack).tolist() == [image.member(SymMatrix._wrap(x.copy())) for x in stack]
        _assert_same_roots(image, stack)

    def test_image_keeps_the_witness_order(self):
        # a non-proper set raises before it has an oracle to map (see
        # test_non_proper_set_raises_when_the_oracle_is_built); the
        # congruence keeps W_in below W_out, so every bracket of the image
        # is non-empty and holds its root
        oracle = oracle_from_operator(Pucci(n=3, lam=0.5, Lam=2.0))
        image = conjugate_oracle(oracle, _map(make_rng(511), 3))
        assert _same(image.inside_witness, congruence(oracle.inside_witness, _map(make_rng(511), 3)))
        assert eigvals_sym(image.inside_witness - image.outside_witness)[-1] < 0.0
        stack = goe_stack(make_rng(512), 6, 3, [1.0, 1e4])
        lo, hi = _witness_brackets(image, stack)
        assert (lo < hi).all()
        for r, a, b in zip(acdo_roots(image, stack), lo.tolist(), hi.tolist()):
            assert -b <= r.bracket[0] <= r.bracket[1] <= -a


# ---------------------------------------------------------------------------
# Stacked values carry the bits of the scalar ones


@pytest.mark.parametrize("n", range(2, 17))
def test_value_stack_equals_value_bit_for_bit(n):
    rng = make_rng(12, n)
    stack = goe_stack(rng, 30, n, [0.5, 1.0, 3.0])
    kinds = [kind for kind in SPECS if kind != "example"] if n > 2 else list(SPECS)
    for kind in kinds:
        spec = SPECS[kind](rng, n)
        got = spec.value_stack(stack)
        want = np.array([spec.value(SymMatrix._wrap(x.copy())) for x in stack])
        assert got.tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_empty_stacks_give_empty_values(kind):
    # a (0, n, n) stack has no value and no member: every spec's stacked
    # value, and the stacked membership of every oracle kind, has shape (0,)
    rng = make_rng(19)
    spec = _spec(kind, rng)
    empty = np.zeros((0, spec.n, spec.n))
    assert spec.value_stack(empty).shape == (0,)
    oracles = {
        "closed-form": oracle_from_operator(spec),
        "lockstep": _bisection(spec),
        "conjugate": conjugate_oracle(oracle_from_operator(spec), _map(rng, spec.n)),
        "predicate": EllipticSetOracle(member=lambda x: spec.value(x) <= 0.0, n=spec.n),
    }
    for name, oracle in oracles.items():
        assert oracle.member_stack(empty).shape == (0,), name
        assert acdo_roots(oracle, empty) == [], name
    assert inner_stack(random_psd(rng, spec.n), empty).shape == (0,)


def _reference_eval_pucci(x, lam, Lam):
    ev = eigvals_sym(x)
    return float(Lam * ev[ev > 0.0].sum() + lam * ev[ev < 0.0].sum())


def _reference_eval_example(x):
    l1, l2 = eigvals_sym(x)
    if l2 < -1.0:
        return -math.inf
    return float(l1 + l2 - 2.0 * math.sqrt(max(0.0, 1.0 + l2)) + 2.0)


@pytest.mark.parametrize("n", range(2, 17))
def test_eval_pucci_keeps_its_arithmetic(n):
    rng = make_rng(13, n)
    for x in goe_stack(rng, 200, n, [1.0, 10.0]):
        x = SymMatrix._wrap(x)
        assert eval_pucci(x, 0.3, 1.7).hex() == _reference_eval_pucci(x, 0.3, 1.7).hex()


def _reference_pucci_distance(spec, x):
    """The gap-matrix rule ``Pucci.distance`` had before its scan."""
    ev = eigvals_sym(x)
    gaps = ev[None, :] - ev[:, None]  # gaps[k, i] = lambda_i - lambda_k
    up = np.add.reduce(np.maximum(gaps, 0.0), axis=1)
    down = np.add.reduce(np.minimum(gaps, 0.0), axis=1)
    j = int(np.count_nonzero(spec.Lam * up + spec.lam * down >= 0.0))
    num = spec.lam * np.add.reduce(ev[:j]) + spec.Lam * np.add.reduce(ev[j:])
    return float(num / (spec.lam * j + spec.Lam * (x.n - j)))


@pytest.mark.parametrize("n", range(2, 17))
def test_pucci_distance_keeps_its_arithmetic(n):
    """The scan gives the gap-matrix rule's bits on random matrices, and
    on integer spectra (ties included), where every sum is exact."""
    rng = make_rng(15, n)
    for spec in (Pucci(n=n, lam=0.3, Lam=1.7), Pucci(n=n, lam=1.0, Lam=1.0)):
        for x in goe_stack(rng, 200, n, [1.0, 10.0]):
            x = SymMatrix._wrap(x)
            assert spec.distance(x).hex() == _reference_pucci_distance(spec, x).hex()
        for d in rng.integers(-3, 4, (100, n)).astype(float):
            x = SymMatrix._wrap(np.diag(d))
            assert spec.distance(x).hex() == _reference_pucci_distance(spec, x).hex()


def test_pucci_distance_next_to_a_breakpoint():
    """Where the root lies within rounding of a breakpoint, the scan and the
    gap-matrix rule may count one breakpoint apart.  Both pieces meet
    there, so the value moves by at most 4 eps max|lambda_i|.  Integer
    tenths with 1e-16 noise put roots there: 11 of this corpus's 6,000
    spectra count apart, by at most 0.84 eps max|lambda_i|, and the bound
    is pinned on all of it."""
    eps, apart = np.finfo(float).eps, 0
    for n in range(2, 17):
        rng = make_rng(16, n)
        for spec in (Pucci(n=n, lam=0.3, Lam=1.7), Pucci(n=n, lam=1.0, Lam=1.0)):
            for _ in range(200):
                d = rng.integers(-5, 6, n) / 10.0 + 1e-16 * rng.standard_normal(n)
                x = SymMatrix._wrap(np.diag(d))
                got, want = spec.distance(x), _reference_pucci_distance(spec, x)
                assert abs(got - want) <= 4.0 * eps * np.abs(d).max()
                apart += got != want
    assert apart > 0  # the corpus reaches the breakpoints it is meant to test


@pytest.mark.parametrize(
    "lam, Lam, diagonal, want",
    [
        (0.5, 2.0, [-1.0, -1.0, 2.0], 1.0),  # 3 / 3 on the piece j = 2
        (0.5, 2.0, [-2.0, -2.0, 1.0, 1.0], 0.4),  # 2 / 5, tied pairs
        (1.0, 1.0, [0.0, 1.0, 2.0], 1.0),  # the trace: the root -1 is a breakpoint
        (0.5, 2.0, [3.0, 3.0, 3.0], 3.0),  # every breakpoint at the root
        # X = 0: F(tI) = Lam n t above 0 and lam n t below, every breakpoint at 0
        *[(0.3, 1.7, [0.0] * n, 0.0) for n in range(2, 17)],
    ],
)
def test_pucci_distance_on_exact_spectra(lam, Lam, diagonal, want):
    spec = Pucci(n=len(diagonal), lam=lam, Lam=Lam)
    assert spec.distance(SymMatrix._wrap(np.diag(diagonal))) == want


def test_eval_example_keeps_its_arithmetic():
    # radius 3 puts about a third of the samples below the l2 = -1 edge
    for x in goe_stack(make_rng(14), 500, 2, [0.5, 3.0]):
        x = SymMatrix._wrap(x)
        assert eval_example(x) == _reference_eval_example(x)
        assert eval_example(x).hex() == _reference_eval_example(x).hex()


# ---------------------------------------------------------------------------
# The property checks equal their per-sample form


def _per_sample_nondegeneracy(oracle, samples, seed, tol):
    rng = make_rng(seed)
    report = PropertyReport(name="nondegeneracy", samples=samples)
    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        base = acdo_eval(oracle, x, tol)
        for tau in (-10.0, -1.0, 0.1, 7.0):
            moved = acdo_eval(oracle, x.shift(tau), tol)
            dev = abs(moved - base - tau)
            report.checks += 1
            report.max_deviation = max(report.max_deviation, dev)
            if dev > _gate(tol, base, moved):
                report.violations.append({"tau": tau, "deviation": dev, "X": x.to_dict()})
    return report


def _per_sample_lipschitz(oracle, samples, seed, tol):
    rng = make_rng(seed)
    report = PropertyReport(name="lipschitz", samples=samples)
    for i in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        y = goe_matrix(rng, oracle.n, radius=1.0 + (i % 3))
        fx, fy = acdo_eval(oracle, x, tol), acdo_eval(oracle, y, tol)
        excess = abs(fx - fy) - inf_norm(x - y)
        report.checks += 1
        report.max_deviation = max(report.max_deviation, excess)
        if excess > _gate(tol, fx, fy):
            report.violations.append({"excess": excess, "X": x.to_dict(), "Y": y.to_dict()})
    return report


_ORACLES = {
    "dominative_bisection": lambda: _bisection(DominativeP(n=3, p=3.0)),
    "conjugated": lambda: oracle_from_operator(
        Conjugated(inner=Pucci(n=3, lam=0.5, Lam=2.0), B=_map(make_rng(15), 3))
    ),
    "closed_form": lambda: oracle_from_operator(Pucci(n=2, lam=1.0, Lam=3.0)),
}


@pytest.mark.parametrize("tol", [ROOT_TOL, -1e-3, -10.0])
@pytest.mark.parametrize("kind", sorted(_ORACLES))
@pytest.mark.parametrize(
    "check, reference",
    [(check_nondegeneracy, _per_sample_nondegeneracy), (check_lipschitz, _per_sample_lipschitz)],
    ids=["nondegeneracy", "lipschitz"],
)
def test_property_reports_equal_the_per_sample_loop(check, reference, kind, tol):
    # a negative tolerance runs every bisection to the iteration cap and
    # flags every shift check (tol = -1e-3) or every check (tol = -10)
    oracle = _ORACLES[kind]()
    got = check(oracle, samples=7, seed=3, tol=tol).to_dict()
    want = reference(oracle, 7, 3, tol).to_dict()
    assert got == want
    assert repr(got) == repr(want)
    if tol == -10.0 or (tol < 0 and check is check_nondegeneracy):
        assert len(got["violations"]) == got["checks"]


def _per_sample_structure(oracle, flags, samples, seed, tol):
    """check_structure's per-sample form: one distance at a time."""
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
            fmid, half = dist((x + y) * 0.5), 0.5 * (fx + fy)
            pair = {"X": x.to_dict(), "Y": y.to_dict()}
            for flag, dev in (("convex", fmid - half), ("concave_complement", half - fmid)):
                if getattr(flags, flag):
                    report.record(dev, _gate(tol, fx, fy, fmid), flag=flag, deviation=dev, **pair)
        if flags.cone:
            for c in (0.5, 2.0):
                fc = dist(x * c)
                dev = abs(fc - c * fx)
                limit = _gate(tol, fc, c * fx, scale=max(1.0, c))
                report.record(dev, limit, flag="cone", c=c, deviation=dev, X=x.to_dict())
        if flags.rot_invariant:
            q = random_orthogonal(rng, oracle.n)
            fq = dist(SymMatrix(q.T @ x.a @ q))
            dev = abs(fq - fx)
            report.record(dev, _gate(tol, fq, fx), flag="rot_invariant", deviation=dev, X=x.to_dict())
    return report


_ALL_FLAGS = StructureFlags(convex=True, concave_complement=True, cone=True, rot_invariant=True)


@pytest.mark.parametrize("tol", [ROOT_TOL, -1e-3])
@pytest.mark.parametrize(
    "flags",
    [_ALL_FLAGS, StructureFlags(cone=True), StructureFlags(concave_complement=True, rot_invariant=True)],
    ids=["all", "cone", "concave_rot"],
)
def test_structure_report_equals_the_per_sample_loop(flags, tol):
    # the congruence image is a convex cone that is not rotation invariant,
    # so rot_invariant and concave_complement are flagged; a negative
    # tolerance flags the cone checks too
    data = Path(__file__).parent / "data"
    spec = spec_from_dict(json.loads((data / "conjugated_pucci.json").read_text()))
    oracle = oracle_from_operator(spec)
    got = check_structure(oracle, flags, samples=20, seed=3, tol=tol).to_dict()
    want = _per_sample_structure(oracle, flags, 20, 3, tol).to_dict()
    assert repr(got) == repr(want)
    assert bool(got["violations"]) == (tol < 0 or flags != StructureFlags(cone=True))


def _per_sample_downward_closure(oracle, samples, seed):
    """check_downward_closure's per-sample form: one membership call at a
    time, and one distance for each sample outside."""
    rng = make_rng(seed)
    report = PropertyReport(name="downward-closure", samples=samples)
    for _ in range(samples):
        x = goe_matrix(rng, oracle.n, radius=1.0)
        if not oracle.member(x):
            d = acdo_eval(oracle, x)
            x = x.shift(-d - max(1e-6, _ROUNDING * abs(d)))
            if not oracle.member(x):
                continue
        n_mat = random_nsd(rng, oracle.n, scale=0.5)
        report.checks += 1
        if not oracle.member(x + n_mat):
            report.violations.append({"X": x.to_dict(), "N": n_mat.to_dict()})
    return report


@pytest.mark.parametrize(
    "op, seed",
    [
        ("conjugated_pucci.json", 0),
        ("conjugated_pucci.json", 1),
        ("conjugated_pucci.json", 5),
        ("linear_offset_1e12.json", 0),
        ("linear_offset_1e12.json", 1),
        ("linear_offset_1e12.json", 5),
        ("dominative:n=3,p=3", 0),
        ("pucci:n=4,lam=1,Lam=2", 0),
        ("example", 0),
        ("example", 1),
        # every sample of <I, X> <= m lies outside, where doubles lie farther
        # apart than 1e-6: the shift's margin grows with the distance
        pytest.param(LinearTrace(A=SymMatrix.identity(3), m=-1e12), 0, id="linear-m=-1e12-0"),
        pytest.param(LinearTrace(A=SymMatrix.identity(3), m=-1e15), 0, id="linear-m=-1e15-0"),
    ],
)
def test_downward_closure_equals_the_per_sample_loop(op, seed):
    # where no sample is skipped, the draws and every value keep their bits
    data = Path(__file__).parent / "data"
    if isinstance(op, str):
        op = parse_operator_arg(str(data / op) if op.endswith(".json") else op)
    oracle = oracle_from_operator(op)
    got = check_downward_closure(oracle, samples=200, seed=seed).to_dict()
    want = _per_sample_downward_closure(oracle, 200, seed).to_dict()
    assert repr(got) == repr(want)
    assert got["checks"] == 200


def test_downward_closure_bisects_in_one_stacked_call(monkeypatch):
    # on a bisected oracle: one acdo_roots call, no per-sample distance or
    # membership call, and three stacked membership calls beside the
    # bisection's own
    data = Path(__file__).parent / "data"
    oracle = oracle_from_operator(parse_operator_arg(str(data / "conjugated_pucci.json")))
    calls = {"roots": 0, "member_stack": 0}
    roots, member_stack, inside = acdo_roots, oracle.member_stack, [False]

    def spy_roots(*args, **kwargs):
        calls["roots"] += 1
        inside[0] = True
        try:
            return roots(*args, **kwargs)
        finally:
            inside[0] = False

    def spy_member_stack(a):
        calls["member_stack"] += not inside[0]
        return member_stack(a)

    def fail(*args, **kwargs):
        raise AssertionError("a per-sample call")

    monkeypatch.setattr("domcone.acdo.acdo_roots", spy_roots)
    for name in ("acdo_root", "acdo_eval"):
        monkeypatch.setattr(f"domcone.acdo.{name}", fail)
    monkeypatch.setattr(oracle, "member", fail)
    monkeypatch.setattr(oracle, "member_stack", spy_member_stack)
    rep = check_downward_closure(oracle, samples=50, seed=0)
    assert calls == {"roots": 1, "member_stack": 3}
    assert rep.checks == 50 and rep.passed
