import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcone.aperture import ConvexBody, dominative_body, pucci_body
from domcone.errors import DimensionMismatchError, InputError, PreconditionError
from domcone.operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    dominative_from_eigs,
    eval_dominative,
    eval_example,
    eval_pucci,
    eval_support,
    evaluate_result,
    spec_from_dict,
    spec_to_dict,
    support_from_eigs,
)
from domcone.sampling import goe_matrix, goe_stack, make_rng, random_nsd, random_orthogonal, random_psd
from domcone.symmat import InvertibleMap, SymMatrix, congruence, eigvals_stack, eigvals_sym, inner

P_GRID = (2.0, 2.5, 3.0, 4.0, 10.0, math.inf)


def spike(n, alpha):
    d = [-1.0] * n
    d[0] = alpha - 1.0
    return SymMatrix.diag(d)


class TestDominative:
    def test_normalization_at_multiples_of_identity(self):
        for p in P_GRID:
            for m in (-3.0, 0.0, 0.7):
                for n in (2, 4):
                    assert eval_dominative(SymMatrix.identity(n) * m, p) == pytest.approx(
                        m, abs=1e-13
                    )

    def test_defining_formula_by_hand(self):
        # n=2, p=4: ((-3+1) + 2*1) / 4 = 0
        assert eval_dominative(SymMatrix.diag([-3.0, 1.0]), 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_spike_direction_is_a_root(self):
        for n in (2, 3, 5):
            for p in P_GRID:
                alpha = 1.0 if p == math.inf else (n + p - 2.0) / (p - 1.0)
                assert eval_dominative(spike(n, alpha), p) == pytest.approx(0.0, abs=1e-12)

    def test_identity_shift_normalization(self):
        rng = make_rng(201)
        for p in P_GRID:
            for _ in range(50):
                n = int(rng.integers(2, 6))
                x = goe_matrix(rng, n, radius=2.0)
                m = float(rng.normal())
                got = eval_dominative(x.shift(m), p) - eval_dominative(x, p) - m
                assert abs(got) <= 1e-12

    def test_rejects_small_p(self):
        with pytest.raises(PreconditionError):
            eval_dominative(SymMatrix.identity(2), 1.5)


def _pucci_enumeration_oracle(x, lam, Lam):
    # independent oracle: max over all diagonal couplings in {lam, Lam}^n
    ev = eigvals_sym(x)
    best = -math.inf
    for mask in range(2 ** len(ev)):
        coeffs = [Lam if (mask >> i) & 1 else lam for i in range(len(ev))]
        best = max(best, float(np.dot(coeffs, ev)))
    return best


class TestPucci:
    def test_psd_input(self):
        rng = make_rng(202)
        x = random_psd(rng, 3)
        assert eval_pucci(x, 0.5, 2.0) == pytest.approx(2.0 * np.trace(x.a), rel=1e-12)

    def test_nsd_input(self):
        rng = make_rng(203)
        x = random_nsd(rng, 3)
        assert eval_pucci(x, 0.5, 2.0) == pytest.approx(0.5 * np.trace(x.a), rel=1e-12)

    def test_hand_value(self):
        assert eval_pucci(SymMatrix.diag([2.0, -1.0]), 1.0, 3.0) == pytest.approx(5.0)

    def test_against_enumeration(self):
        rng = make_rng(204)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            lam = float(rng.uniform(0.1, 1.0))
            Lam = lam * float(rng.uniform(1.0, 4.0))
            x = goe_matrix(rng, n, radius=2.0)
            assert eval_pucci(x, lam, Lam) == pytest.approx(
                _pucci_enumeration_oracle(x, lam, Lam), rel=1e-10, abs=1e-12
            )

    def test_rejects_bad_constants(self):
        with pytest.raises(PreconditionError):
            eval_pucci(SymMatrix.identity(2), 2.0, 1.0)


class TestSupport:
    def test_spherical_generator_is_scaled_trace(self):
        rng = make_rng(205)
        body = ConvexBody(n=3, generators=(SymMatrix.identity(3) * (1.0 / 3.0),))
        for _ in range(50):
            x = goe_matrix(rng, 3, radius=2.0)
            assert eval_support(x, body) == pytest.approx(np.trace(x.a) / 3.0, rel=1e-10, abs=1e-12)

    def test_matches_dominative(self):
        rng = make_rng(206)
        for p in P_GRID:
            for n in (2, 3, 5):
                body = dominative_body(n, p)
                for _ in range(35):
                    x = goe_matrix(rng, n, radius=float(rng.uniform(0.5, 2.0)))
                    assert abs(eval_support(x, body) - eval_dominative(x, p)) <= 1e-10

    def test_matches_pucci(self):
        rng = make_rng(207)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            lam = float(rng.uniform(0.1, 1.0))
            Lam = lam * float(rng.uniform(1.0, 4.0))
            body = pucci_body(n, lam, Lam)
            x = goe_matrix(rng, n, radius=2.0)
            assert abs(eval_support(x, body) - eval_pucci(x, lam, Lam)) <= 1e-10

    def test_subadditive_and_homogeneous(self):
        rng = make_rng(208)
        body = ConvexBody(n=3, generators=tuple(random_psd(rng, 3) for _ in range(3)))
        for _ in range(200):
            x = goe_matrix(rng, 3)
            y = goe_matrix(rng, 3)
            assert eval_support(x + y, body) <= eval_support(x, body) + eval_support(y, body) + 1e-10
            for c in (1e-3, 1.0, 1e3):
                assert eval_support(x * c, body) == pytest.approx(
                    c * eval_support(x, body), rel=1e-12, abs=1e-15
                )

    def test_plain_hull_uses_direct_pairing(self):
        gen = SymMatrix.diag([1.0, 0.0])
        body = ConvexBody(n=2, generators=(gen,), rot_closed=False)
        x = SymMatrix.diag([0.0, 5.0])
        # direct pairing sees the off-axis mass, the rotation closure would not miss it
        assert eval_support(x, body) == pytest.approx(0.0, abs=1e-14)
        body_rot = ConvexBody(n=2, generators=(gen,), rot_closed=True)
        assert eval_support(x, body_rot) == pytest.approx(5.0)


class TestExample:
    def test_zero(self):
        assert eval_example(SymMatrix.zeros(2)) == pytest.approx(0.0)

    def test_radial_boundary_point(self):
        assert eval_example(SymMatrix.diag([-1.0, 3.0])) == pytest.approx(0.0, abs=1e-14)

    def test_sorted_eigenvalue_convention(self):
        # ordered eigenvalues of diag(0, -0.99) are (-0.99, 0): the largest is 0
        assert eval_example(SymMatrix.diag([0.0, -0.99])) == pytest.approx(-0.99)

    def test_near_domain_edge(self):
        # largest eigenvalue -0.99, so the square root is 0.1
        got = eval_example(SymMatrix.diag([-2.0, -0.99]))
        assert got == pytest.approx(-2.0 - 0.99 - 0.2 + 2.0)

    def test_below_domain_edge_is_neg_inf(self):
        assert eval_example(SymMatrix.diag([-5.0, -2.0])) == -math.inf

    def test_dimension(self):
        with pytest.raises(DimensionMismatchError):
            eval_example(SymMatrix.identity(3))

    def test_rotation_invariant(self):
        rng = make_rng(209)
        for _ in range(100):
            x = goe_matrix(rng, 2, radius=2.0)
            q = random_orthogonal(rng, 2)
            assert eval_example(SymMatrix(q.T @ x.a @ q)) == pytest.approx(
                eval_example(x), abs=1e-10
            )


class TestSublevelMember:
    """Membership in the sublevel set {X | F(X) <= tol} is ``spec.value(x) <= tol``."""

    def test_trivial_cases(self):
        assert DominativeP(n=3, p=4.0).value(SymMatrix.identity(3) * -1.0) <= 0.0
        assert not DominativeP(n=3, p=math.inf).value(SymMatrix.diag([0.0, 0.0, 1e-6])) <= 1e-9

    def test_example_neg_inf_branch(self):
        assert ExampleEq().value(SymMatrix.diag([-5.0, -2.0])) <= 0.0

    def test_shift_unwraps(self):
        rng = make_rng(210)
        inner_spec = DominativeP(n=3, p=3.0)
        x0 = goe_matrix(rng, 3)
        spec = Shifted(inner=inner_spec, X0=x0)
        for _ in range(50):
            x = goe_matrix(rng, 3, radius=2.0)
            assert (spec.value(x) <= 0.0) == (inner_spec.value(x - x0) <= 0.0)

    def test_conjugation_unwraps(self):
        rng = make_rng(211)
        inner_spec = Pucci(n=3, lam=1.0, Lam=2.0)
        b = InvertibleMap(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        spec = Conjugated(inner=inner_spec, B=b)
        for _ in range(50):
            y = goe_matrix(rng, 3, radius=2.0)
            # membership of B^T Y B in the image equals membership of Y itself
            assert (spec.value(congruence(y, b)) <= 0.0) == (inner_spec.value(y) <= 0.0)


class TestEllipticity:
    CATALOG = None

    @staticmethod
    def catalog(rng):
        return [
            DominativeP(n=3, p=2.0),
            DominativeP(n=3, p=4.0),
            DominativeP(n=3, p=math.inf),
            Pucci(n=3, lam=0.5, Lam=2.0),
            EnsembleSupport(body=pucci_body(3, 1.0, 3.0)),
            LinearTrace(A=random_psd(rng, 3), m=0.3),
            Shifted(inner=DominativeP(n=3, p=3.0), X0=goe_matrix(rng, 3)),
            Conjugated(
                inner=DominativeP(n=3, p=3.0),
                B=InvertibleMap(rng.normal(size=(3, 3)) + 2 * np.eye(3)),
            ),
        ]

    def test_value_monotone_under_negative_increments(self):
        rng = make_rng(212)
        for spec in self.catalog(rng):
            for _ in range(500):
                x = goe_matrix(rng, 3, radius=1.0)
                neg = random_nsd(rng, 3, scale=0.4)
                assert spec.value(x + neg) <= spec.value(x) + 1e-9

    def test_example_membership_downward_closed(self):
        # The example operator's values are not monotone on -1 < l2 < 0
        # (that region sits strictly inside the sublevel set), so set-level
        # closure is the right property there.
        rng = make_rng(213)
        spec = ExampleEq()
        checked = 0
        while checked < 500:
            x = goe_matrix(rng, 2, radius=float(rng.uniform(0.2, 3.0)))
            if not spec.value(x) <= 0.0:
                continue
            neg = random_nsd(rng, 2, scale=0.5)
            assert spec.value(x + neg) <= 0.0
            checked += 1

    def test_example_value_monotone_where_formula_is(self):
        rng = make_rng(214)
        checked = 0
        while checked < 200:
            x = goe_matrix(rng, 2, radius=2.0)
            neg = random_nsd(rng, 2, scale=0.3)
            if eigvals_sym(x + neg)[-1] < 0.0:
                continue
            assert eval_example(x + neg) <= eval_example(x) + 1e-9
            checked += 1


class TestRotationInvariance:
    def test_catalog(self):
        rng = make_rng(215)
        specs = [
            DominativeP(n=4, p=2.5),
            DominativeP(n=4, p=math.inf),
            Pucci(n=4, lam=1.0, Lam=3.0),
            EnsembleSupport(body=dominative_body(4, 3.0)),
        ]
        for spec in specs:
            for _ in range(100):
                x = goe_matrix(rng, 4, radius=2.0)
                q = random_orthogonal(rng, 4)
                assert spec.value(SymMatrix(q.T @ x.a @ q)) == pytest.approx(
                    spec.value(x), abs=1e-10
                )

    def test_linear_trace_is_not(self):
        spec = LinearTrace(A=SymMatrix.diag([1.0, 0.0]), m=0.0)
        x = SymMatrix.diag([1.0, 0.0])
        rot = SymMatrix.diag([0.0, 1.0])  # a rotation image of x
        assert spec.value(x) != pytest.approx(spec.value(rot))


class TestHomogeneity:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(0, 10_000))
    def test_positive_homogeneity(self, draw):
        rng = make_rng(216, draw)
        x = goe_matrix(rng, 3, radius=float(rng.uniform(0.5, 2.0)))
        for spec in (
            DominativeP(n=3, p=3.0),
            Pucci(n=3, lam=0.5, Lam=1.5),
            EnsembleSupport(body=pucci_body(3, 0.5, 1.5)),
        ):
            base = spec.value(x)
            for c in (1e-3, 1.0, 1e3):
                assert spec.value(x * c) == pytest.approx(c * base, rel=1e-12, abs=1e-15)


class TestNesting:
    def test_neg_identity_inside_both(self):
        x = SymMatrix.identity(3) * -1.0
        assert eval_dominative(x, math.inf) <= 0.0
        assert eval_dominative(x, 2.0) <= 0.0

    def test_spike_separates(self):
        # alpha for p=4 is (n+2)/3; the spike is on the p=4 boundary and
        # strictly inside the half-space
        for n in (2, 3, 4):
            alpha = (n + 2.0) / 3.0
            assert eval_dominative(spike(n, alpha), 4.0) == pytest.approx(0.0, abs=1e-12)
            assert eval_dominative(spike(n, alpha), 2.0) < -1e-3

    def test_origin_on_both_boundaries(self):
        z = SymMatrix.zeros(3)
        assert eval_dominative(z, 5.0) == 0.0
        assert eval_dominative(z, 2.0) == 0.0

    def test_value_grows_with_p(self):
        # F_p = tr X/n + w(p) (lambda_n - tr X/n), w increasing in p and
        # lambda_n >= tr X/n, so Theta_p sits inside Theta_p' for p' < p
        rng = make_rng(218)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = goe_matrix(rng, n, radius=float(rng.uniform(0.5, 10.0)))
            values = [eval_dominative(x, p) for p in P_GRID]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestStackedFormulas:
    """The stacked formulas give the scalar evaluators' values bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    def test_dominative_and_support_match_the_scalar_evaluators(self, n):
        rng = make_rng(41, n)
        x = goe_stack(rng, 200, n, (0.5, 1.0, 2.0, 10.0))
        ev = eigvals_stack(x)
        trace = np.trace(x, axis1=1, axis2=2)
        mats = [SymMatrix._wrap(a.copy()) for a in x]
        for p in P_GRID:
            stacked = dominative_from_eigs(ev, trace, p)
            assert stacked.tolist() == [eval_dominative(m, p) for m in mats]
        bodies = [
            dominative_body(n, 3.0),
            pucci_body(n, 0.7, 2.1),
            ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(3))),
        ]
        for body in bodies:
            stacked = support_from_eigs(ev, body.generator_spectra)
            assert stacked.tolist() == [eval_support(m, body) for m in mats]

    def test_scalar_evaluators_keep_the_per_matrix_arithmetic(self):
        rng = make_rng(43)
        for k in range(60):
            n = 2 + k % 5
            x = goe_matrix(rng, n, radius=float(rng.uniform(0.1, 10.0)))
            ev = np.linalg.eigvalsh(x.a)
            for p in P_GRID:
                want = ev[-1] if p == math.inf else (np.trace(x.a) + (p - 2.0) * ev[-1]) / (n + p - 2.0)
                assert eval_dominative(x, p) == float(want)
            gens = tuple(random_psd(rng, n) for _ in range(1 + k % 3))
            rot = ConvexBody(n=n, generators=gens)
            plain = ConvexBody(n=n, generators=gens, rot_closed=False)
            spectra = rot.generator_spectra
            traces = spectra.sum(axis=1)
            assert eval_support(x, rot) == float(np.max(spectra @ ev))
            assert eval_support(x, plain) == max(inner(a, x) for a in gens)
            assert EnsembleSupport(rot).distance(x) == float(np.max(spectra @ ev / traces))
            assert EnsembleSupport(plain).distance(x) == max(
                inner(a, x) / t for a, t in zip(gens, traces)
            )

    def test_dominative_formula_checks_p(self):
        with pytest.raises(PreconditionError):
            dominative_from_eigs(np.zeros((3, 2)), np.zeros(3), 1.5)


class TestSpecValidationAndWire:
    def test_linear_requires_psd(self):
        with pytest.raises(InputError):
            LinearTrace(A=SymMatrix.diag([1.0, -1.0]), m=0.0)

    def test_linear_requires_positive_trace(self):
        with pytest.raises(InputError):
            LinearTrace(A=SymMatrix.zeros(2), m=0.0)

    def test_pucci_validation(self):
        with pytest.raises(InputError):
            Pucci(n=2, lam=0.0, Lam=1.0)

    @pytest.mark.parametrize("lam, Lam", [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)])
    def test_pucci_constants_must_be_finite(self, lam, Lam):
        with pytest.raises(InputError, match="< inf"):
            Pucci(n=2, lam=lam, Lam=Lam)
        with pytest.raises(PreconditionError, match="< inf"):
            eval_pucci(SymMatrix.identity(2) * -1.0, lam, Lam)
        with pytest.raises(PreconditionError, match="< inf"):
            pucci_body(2, lam, Lam)

    def test_example_dimension(self):
        with pytest.raises(InputError):
            ExampleEq(n=3)

    def test_round_trip_all_kinds(self):
        rng = make_rng(217)
        x = goe_matrix(rng, 2, radius=1.0)
        specs = [
            DominativeP(n=2, p=math.inf),
            Pucci(n=2, lam=1.0, Lam=3.0),
            LinearTrace(A=SymMatrix.diag([1.0, 2.0]), m=0.5),
            EnsembleSupport(body=pucci_body(2, 1.0, 2.0)),
            ExampleEq(),
            Shifted(inner=DominativeP(n=2, p=3.0), X0=SymMatrix.diag([1.0, -1.0])),
            Conjugated(inner=DominativeP(n=2, p=3.0), B=InvertibleMap([[2.0, 0.0], [1.0, 1.0]])),
        ]
        for spec in specs:
            back = spec_from_dict(spec_to_dict(spec))
            assert back.value(x) == pytest.approx(spec.value(x), abs=1e-14)

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError):
            spec_from_dict({"type": "warp-drive"})

    def test_eval_result_neg_inf(self):
        res = evaluate_result(ExampleEq(), SymMatrix.diag([-5.0, -2.0]))
        assert res.value == -math.inf
        assert res.to_dict()["value"] == "-inf"

    def test_eval_result_hint_for_dominative(self):
        x = SymMatrix.diag([1.0, -3.0])
        res = evaluate_result(DominativeP(n=2, p=3.0), x)
        assert res.boundary_distance_hint == pytest.approx(res.value)
        # Pucci (1, 3): F(X + tI) = 3 (1 + t) + (t - 3) vanishes at t = 0, inside (-1, 3)
        res = evaluate_result(Pucci(n=2, lam=1.0, Lam=3.0), x)
        assert res.value == pytest.approx(0.0)
        assert res.boundary_distance_hint == pytest.approx(0.0, abs=1e-15)
        # at diag(2, -1) the root is t = -1.25: 3 (2 - 1.25) + (-1 - 1.25) = 0
        res = evaluate_result(Pucci(n=2, lam=1.0, Lam=3.0), SymMatrix.diag([2.0, -1.0]))
        assert res.boundary_distance_hint == pytest.approx(1.25)
        conj = Conjugated(inner=DominativeP(n=2, p=3.0), B=InvertibleMap(np.diag([2.0, 1.0])))
        assert evaluate_result(conj, x).boundary_distance_hint is None
