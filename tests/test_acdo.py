"""The signed distance ``acdo``: the bracket contract of both root-finding
paths, the closed forms against bisection, non-proper sets, congruence
images, the fundamental solution's derivatives and the suite's
seed-determinism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcone.acdo import (
    EllipticSetOracle,
    acdo_eval,
    acdo_root,
    check_downward_closure,
    check_lipschitz,
    check_nondegeneracy,
    check_structure,
    oracle_from_operator,
)
from domcone.aperture import ConvexBody
from domcone.cli import _checks_result
from domcone.rules import StructureFlags
from domcone.cones import conjugate_oracle
from domcone.errors import InputError, NonProperSetError, PreconditionError
from domcone.fundsol import FundamentalSolution, w_gradient, w_hessian, w_value
from domcone.operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    evaluate_result,
)
from domcone.sampling import goe_matrix, make_rng, random_orthogonal, random_psd
from domcone.suite import run_suite
from domcone.symmat import InvertibleMap, SymMatrix, congruence, eigvals_sym

TOL = 1e-10


def _pucci(rng, n, equal=False):
    lam = float(rng.uniform(0.1, 2.0))
    return Pucci(n=n, lam=lam, Lam=lam if equal else lam * float(rng.uniform(1.0, 4.0)))


def _body(rng, n, rot_closed, gens=None):
    gens = int(rng.integers(1, 4)) if gens is None else gens
    generators = tuple(random_psd(rng, n) for _ in range(gens))
    return ConvexBody(n=n, generators=generators, rot_closed=rot_closed)


#: Builders of one spec of each catalog type with a closed form, on S(n).
CATALOG = {
    "dominative": lambda rng, n: DominativeP(n=n, p=float(rng.uniform(2.0, 8.0))),
    "dominative_inf": lambda rng, n: DominativeP(n=n, p=math.inf),
    "pucci": lambda rng, n: _pucci(rng, n),
    "pucci_lam_equals_Lam": lambda rng, n: _pucci(rng, n, equal=True),
    "linear": lambda rng, n: LinearTrace(A=random_psd(rng, n), m=float(rng.normal())),
    "support_rot_closed": lambda rng, n: EnsembleSupport(_body(rng, n, True)),
    "support_plain": lambda rng, n: EnsembleSupport(_body(rng, n, False)),
    "support_one_generator": lambda rng, n: EnsembleSupport(_body(rng, n, True, gens=1)),
    "support_plain_one_generator": lambda rng, n: EnsembleSupport(_body(rng, n, False, gens=1)),
    "example": lambda rng, n: ExampleEq(),
    "shifted": lambda rng, n: Shifted(inner=_pucci(rng, n), X0=goe_matrix(rng, n)),
}


def _case(kind, salt, radius):
    rng = make_rng(401, salt)
    spec = CATALOG[kind](rng, int(rng.integers(2, 6)))
    return spec, goe_matrix(rng, spec.n, radius=radius)


def _bisection(oracle):
    return replace(oracle, distance=None)


def _assert_bracket(oracle, x, v):
    assert oracle.member(x.shift(-(v + TOL)))
    assert not oracle.member(x.shift(-(v - TOL)))


class TestBracketContract:
    """``member(x - (v+tol) I)`` and ``not member(x - (v-tol) I)``."""

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), radius=st.floats(0.1, 20.0))
    def test_closed_form(self, kind, salt, radius):
        spec, x = _case(kind, salt, radius)
        oracle = oracle_from_operator(spec)
        root = acdo_root(oracle, x, TOL)
        assert root.method == "closed-form"
        assert (root.iterations, root.probes, root.bracket) == (0, 1, (root.value, root.value))
        _assert_bracket(oracle, x, root.value)

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), radius=st.floats(0.1, 20.0))
    def test_bisection(self, kind, salt, radius):
        spec, x = _case(kind, salt, radius)
        oracle = _bisection(oracle_from_operator(spec))
        root = acdo_root(oracle, x, TOL)
        assert root.method == "bisection"
        lo, hi = root.bracket
        assert lo <= root.value <= hi and hi - lo <= TOL
        _assert_bracket(oracle, x, root.value)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), radius=st.floats(0.1, 20.0))
    def test_congruence_image(self, salt, radius):
        rng = make_rng(402, salt)
        n = int(rng.integers(2, 5))
        b = InvertibleMap(rng.normal(size=(n, n)) + 3.0 * np.eye(n))
        spec = Conjugated(inner=_pucci(rng, n), B=b)
        oracle = oracle_from_operator(spec)
        assert oracle.distance is None
        x = goe_matrix(rng, n, radius=radius)
        root = acdo_root(oracle, x, TOL)
        assert root.method == "bisection"
        _assert_bracket(oracle, x, root.value)


class TestClosedFormAgainstBisection:
    @pytest.mark.parametrize("kind", sorted(CATALOG))
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), radius=st.floats(0.1, 20.0))
    def test_catalog(self, kind, salt, radius):
        spec, x = _case(kind, salt, radius)
        oracle = oracle_from_operator(spec)
        assert abs(acdo_eval(oracle, x) - acdo_eval(_bisection(oracle), x)) <= 2e-10

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(salt=st.integers(0, 10_000), l2=st.floats(-50.0, -1.0 - 1e-6), gap=st.floats(0.0, 20.0))
    def test_example_below_its_domain_edge(self, salt, l2, gap):
        # F = -inf at lambda_2 < -1; the boundary lies further up the identity line
        q = random_orthogonal(make_rng(403, salt), 2)
        x = SymMatrix(q @ np.diag([l2 - gap, l2]) @ q.T)
        spec = ExampleEq()
        assert spec.value(x) == -math.inf
        oracle = oracle_from_operator(spec)
        v = acdo_eval(oracle, x)
        assert v < 0.0
        assert abs(v - acdo_eval(_bisection(oracle), x)) <= 2e-10

    def test_pucci_with_equal_constants_is_the_scaled_trace(self):
        rng = make_rng(404)
        for n in (2, 3, 5):
            x = goe_matrix(rng, n, radius=3.0)
            got = Pucci(n=n, lam=0.7, Lam=0.7).distance(x)
            assert got == pytest.approx(np.trace(x.a) / n, abs=1e-14)

    def test_pucci_on_a_breakpoint(self):
        # diag(-1, 1) with (lam, Lam) = (1, 3): F(X + tI) = 0 at t = -0.5, between
        # the breakpoints -1 and 1, and at diag(0, 0) the root is the breakpoint 0
        spec = Pucci(n=2, lam=1.0, Lam=3.0)
        assert spec.distance(SymMatrix.diag([-1.0, 1.0])) == pytest.approx(0.5)
        assert spec.distance(SymMatrix.zeros(2)) == 0.0

    def test_only_congruence_images_lack_a_closed_form(self):
        # a shift of a spec without a closed form has none either: its oracle
        # bisects and its evaluation leaves the hint out
        b = InvertibleMap(np.array([[2.0, 0.5], [0.0, 1.0]]))
        conj = Conjugated(inner=Pucci(n=2, lam=1.0, Lam=2.0), B=b)
        shifted_conj = Shifted(inner=conj, X0=SymMatrix.identity(2))
        for spec in (conj, shifted_conj):
            assert spec.distance is None
            assert oracle_from_operator(spec).distance is None
            assert evaluate_result(spec, SymMatrix.zeros(2)).boundary_distance_hint is None
        shifted = Shifted(inner=ExampleEq(), X0=SymMatrix.identity(2))
        x = SymMatrix.diag([-1.0, 0.5])
        assert shifted.distance(x) == ExampleEq().distance(x - SymMatrix.identity(2))


class TestNonProperSets:
    # a set that holds the whole identity line or none of it has no
    # witness to find, so its oracle cannot be built
    def test_full_line(self):
        with pytest.raises(NonProperSetError) as exc:
            EllipticSetOracle(member=lambda x: True, n=2, description="everything")
        assert exc.value.reason == "full-line"
        assert "(everything)" in str(exc.value)

    def test_empty_line(self):
        with pytest.raises(NonProperSetError) as exc:
            EllipticSetOracle(member=lambda x: False, n=2, description="nothing")
        assert exc.value.reason == "empty-line"
        assert "(nothing)" in str(exc.value)

    def test_a_given_witness_does_not_save_a_non_proper_set(self):
        # the outside witness of a full line is a member, and the missing
        # one of an empty line is searched for
        with pytest.raises(InputError, match="outside witness is a member"):
            EllipticSetOracle(member=lambda x: True, n=2, outside_witness=SymMatrix.identity(2))
        with pytest.raises(NonProperSetError) as exc:
            EllipticSetOracle(member=lambda x: False, n=2, outside_witness=SymMatrix.identity(2))
        assert exc.value.reason == "empty-line"


class TestHalfSpaceWitnesses:
    # the witnesses ((m -+ d) / tr A) I of <A, X> <= m stay on their sides
    # for any offset m, though m -+ 1 rounds to m from |m| = 2^53 on
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("m", [1e15, 1e16, 1e17, -1e17, 3e200, -3e200])
    def test_large_offsets(self, n, m):
        rng = make_rng(n)
        for a in [np.eye(n), *(random_psd(rng, n).a for _ in range(20))]:
            spec = LinearTrace(A=SymMatrix(a), m=m)
            oracle = oracle_from_operator(spec)  # checks both witnesses
            x = SymMatrix.identity(n)
            assert acdo_root(oracle, x).value == spec.distance(x)

    @pytest.mark.parametrize("m, reason", [(1e308, "full-line"), (-1e308, "empty-line")])
    def test_a_boundary_past_the_float_range_is_non_proper(self, m, reason):
        # m / tr A = 4e308: no float t puts tI on the boundary
        with pytest.raises(NonProperSetError) as exc:
            oracle_from_operator(LinearTrace(A=SymMatrix.identity(2) * 0.25, m=m))
        assert exc.value.reason == reason


class TestPropertyChecksFarFromTheOrigin:
    # far from the origin two distances differ by rounding of a few eps |d|
    # alone, past 3 tol; the checks allow for it and still catch a wrong
    # distance there
    FAR = {
        "dominative": Shifted(DominativeP(n=2, p=3.0), SymMatrix.identity(2) * 1e12),
        "pucci": Shifted(Pucci(n=3, lam=0.5, Lam=2.0), SymMatrix.identity(3) * -1e12),
        "halfspace": LinearTrace(A=SymMatrix.identity(2), m=1e15),
    }

    @pytest.mark.parametrize("kind", sorted(FAR))
    def test_a_far_convex_rotation_invariant_set_passes(self, kind):
        oracle = oracle_from_operator(self.FAR[kind])
        flags = StructureFlags(convex=True, rot_invariant=True)
        reports = [check_nondegeneracy(oracle), check_lipschitz(oracle), check_structure(oracle, flags)]
        assert [r.violations for r in reports] == [[], [], []]
        assert reports[0].max_deviation > 3.0 * TOL

    def test_a_doubled_distance_far_away_fails(self):
        # 2F(X + tau I) - 2F(X) - tau = tau, at distances of size 2e12
        oracle = oracle_from_operator(self.FAR["dominative"])
        doubled = replace(oracle, distance=lambda x: 2.0 * oracle.distance(x))
        report = check_nondegeneracy(doubled, samples=20)
        assert len(report.violations) == report.checks == 80


class TestConjugateOracle:
    def test_membership_of_the_image(self):
        # X is in B^T Theta B exactly when B^-T X B^-1 is in Theta
        rng = make_rng(405)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            oracle = oracle_from_operator(_pucci(rng, n))
            b = InvertibleMap(rng.normal(size=(n, n)) + 3.0 * np.eye(n))
            image = conjugate_oracle(oracle, b)
            y = goe_matrix(rng, n, radius=2.0)
            assert image.member(congruence(y, b)) == oracle.member(y)

    def test_scaled_rotation_of_a_rotation_invariant_cone(self):
        # (sQ)^T Theta_p (sQ) = Theta_p, so the bisected image distance is F_p
        rng = make_rng(406)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            spec = DominativeP(n=n, p=float(rng.uniform(2.0, 6.0)))
            b = InvertibleMap(float(rng.uniform(0.5, 2.0)) * random_orthogonal(rng, n))
            x = goe_matrix(rng, n, radius=3.0)
            image = conjugate_oracle(oracle_from_operator(spec), b)
            assert abs(acdo_eval(image, x) - spec.value(x)) <= 2e-10

    def test_identity_map_keeps_the_distance(self):
        rng = make_rng(407)
        oracle = oracle_from_operator(ExampleEq())
        image = conjugate_oracle(oracle, InvertibleMap.identity(2))
        assert image.distance is None
        for _ in range(20):
            x = goe_matrix(rng, 2, radius=2.0)
            assert abs(acdo_eval(image, x) - acdo_eval(oracle, x)) <= 2e-10


@pytest.mark.parametrize("n, p", [(2, 2.0), (2, 3.5), (3, 3.0), (3, 7.0), (4, 2.5), (3, math.inf)])
def test_w_derivatives_match_central_differences(n, p):
    fs = FundamentalSolution(n=n, p=p)
    rng = make_rng(408, n)
    for _ in range(10):
        x = rng.normal(size=n)
        x *= float(rng.uniform(0.2, 5.0)) / np.linalg.norm(x)
        h = 1e-5 * np.linalg.norm(x)
        steps = h * np.eye(n)
        grad_fd = np.array([(w_value(fs, x + e) - w_value(fs, x - e)) / (2 * h) for e in steps])
        hess_fd = np.column_stack(
            [(w_gradient(fs, x + e) - w_gradient(fs, x - e)) / (2 * h) for e in steps]
        )
        grad, hess = w_gradient(fs, x), w_hessian(fs, x).a
        assert np.max(np.abs(grad_fd - grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(hess_fd - hess)) <= 1e-6 * np.max(np.abs(hess))


def test_suite_json_is_seed_deterministic():
    first, second = (json.dumps(run_suite(None, 0), sort_keys=True, allow_nan=False) for _ in "ab")
    assert first == second


@pytest.mark.parametrize(
    "verify",
    [
        check_nondegeneracy,
        check_lipschitz,
        check_downward_closure,
        lambda oracle, samples: check_structure(oracle, StructureFlags(convex=True), samples=samples),
    ],
    ids=["nondegeneracy", "lipschitz", "downward-closure", "structure"],
)
@pytest.mark.parametrize("samples", [0, -1])
def test_verifiers_reject_an_empty_sample(verify, samples):
    oracle = oracle_from_operator(DominativeP(n=3, p=3.0))
    with pytest.raises(PreconditionError, match="at least 1"):
        verify(oracle, samples=samples)


def test_a_nan_deviation_is_a_violation():
    # a distance that is NaN fails every identity-shift check, where
    # ``deviation > limit`` would pass it, and leaves max_deviation at 0
    oracle = replace(oracle_from_operator(DominativeP(n=3, p=3.0)), distance=lambda x: math.nan)
    rep = check_nondegeneracy(oracle, samples=5)
    assert not rep.passed
    assert len(rep.violations) == rep.checks == 20
    assert rep.max_deviation == 0.0


@pytest.mark.parametrize("half_width, checks, violations", [(1.0, 20, 18), (0.75, 5, 4)])
def test_a_set_that_is_not_downward_closed_fails(half_width, checks, violations):
    # the matrices with spectrum inside [-h, h]: a sample inside loses
    # membership when N pushes an eigenvalue below -h, and one whose
    # spectrum spreads wider than 2h cannot be shifted inside and is
    # skipped (at h = 3/4, 15 of the 20)
    def member(x):
        ev = eigvals_sym(x)
        return bool(-half_width <= ev[0] and ev[-1] <= half_width)

    eye = SymMatrix.identity(2)
    oracle = EllipticSetOracle(member=member, n=2, inside_witness=eye * 0.0, outside_witness=eye * 2.0)
    rep = check_downward_closure(oracle, samples=20, seed=0)
    assert (rep.checks, len(rep.violations), rep.passed) == (checks, violations, False)
    for v in rep.violations:
        x, n_mat = SymMatrix.from_dict(v["X"]), SymMatrix.from_dict(v["N"])
        assert member(x) and not member(x + n_mat) and eigvals_sym(n_mat)[-1] <= 0.0


def test_a_check_that_skips_every_sample_does_not_pass():
    # every sample has norm 1, so it starts outside the matrices with
    # spectrum in [-1/2, 1/2], and at seed 0 none spreads narrow enough to
    # be shifted inside: all 20 are skipped, and a report with no check
    # fails, as does verify
    def member(x):
        ev = eigvals_sym(x)
        return bool(-0.5 <= ev[0] and ev[-1] <= 0.5)

    eye = SymMatrix.identity(3)
    oracle = EllipticSetOracle(member=member, n=3, inside_witness=eye * 0.0, outside_witness=eye * 2.0)
    rep = check_downward_closure(oracle, samples=20, seed=0)
    assert (rep.checks, rep.violations, rep.passed) == (0, [], False)
    assert rep.to_dict()["passed"] is False
    assert _checks_result([rep])[1] == 2
