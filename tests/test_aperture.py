import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domcone.aperture as aperture_mod
from domcone.aperture import (
    ConvexBody,
    MinimalBoundReport,
    body_cone_aperture,
    bound_certificate,
    dominative_body,
    dominative_weights,
    minimal_bound_check,
    perc_weights,
    pucci_body,
)
from domcone.errors import (
    ApertureInconsistencyError,
    InvalidBodyError,
    PreconditionError,
)
from domcone.operators import eval_dominative, eval_support
from domcone.sampling import make_rng, random_orthogonal, random_psd
from domcone.symmat import SymMatrix, eigvals_sym


class TestConvexBody:
    def test_rejects_empty(self):
        with pytest.raises(InvalidBodyError):
            ConvexBody(n=2, generators=())

    def test_rejects_non_psd_generator(self):
        with pytest.raises(InvalidBodyError, match="positive semidefinite"):
            ConvexBody(n=2, generators=(SymMatrix.diag([1.0, -0.5]),))

    def test_rejects_trace_below_floor(self):
        with pytest.raises(InvalidBodyError, match="trace"):
            ConvexBody(n=2, generators=(SymMatrix.diag([1e-9, 0.0]),))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidBodyError):
            ConvexBody(n=3, generators=(SymMatrix.identity(2),))

    def test_wire_round_trip(self):
        body = pucci_body(2, 1.0, 3.0)
        back = ConvexBody.from_dict(body.to_dict())
        assert back.n == body.n and back.rot_closed
        for g1, g2 in zip(body.generators, back.generators):
            assert np.array_equal(g1.a, g2.a)


class TestCatalogBodies:
    def test_dominative_p2_is_spherical(self):
        body = dominative_body(4, 2.0)
        assert len(body.generators) == 1
        assert np.allclose(body.generators[0].a, np.eye(4) / 4.0)

    def test_dominative_pinf_is_projector(self):
        body = dominative_body(3, math.inf)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.allclose(body.generators[0].a, expected)

    def test_dominative_3_4_spectrum(self):
        body = dominative_body(3, 4.0)
        assert np.allclose(eigvals_sym(body.generators[0]), [0.2, 0.2, 0.6])

    def test_pucci_degenerate_constants(self):
        body = pucci_body(3, 0.7, 0.7)
        rng = make_rng(301)
        from domcone.sampling import goe_matrix

        x = goe_matrix(rng, 3, radius=2.0)
        assert eval_support(x, body) == pytest.approx(0.7 * np.trace(x.a), rel=1e-10, abs=1e-12)

    def test_pucci_2_1_3_generators(self):
        body = pucci_body(2, 1.0, 3.0)
        diags = sorted(tuple(np.diag(g.a)) for g in body.generators)
        assert diags == [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0)]

    def test_pucci_support_value(self):
        body = pucci_body(2, 1.0, 3.0)
        assert eval_support(SymMatrix.diag([2.0, -1.0]), body) == pytest.approx(5.0)


class TestBodyConeAperture:
    def test_dominative_round_trip(self):
        for n in range(2, 7):
            for p in (2.0, 2.5, 3.0, float(n), 10.0, math.inf):
                res = body_cone_aperture(dominative_body(n, p))
                if p == math.inf:
                    assert res.p == math.inf and res.alpha == pytest.approx(1.0, abs=1e-12)
                else:
                    assert res.p == pytest.approx(p, abs=1e-10)
                    assert res.alpha == pytest.approx((n + p - 2.0) / (p - 1.0), abs=1e-10)

    def test_pucci_closed_form(self):
        res = body_cone_aperture(pucci_body(2, 1.0, 3.0))
        assert res.alpha == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert res.p == pytest.approx(4.0, abs=1e-10)
        # c is the trace of the minimizing generator diag(Lam, lam)
        assert res.c == pytest.approx(4.0)

    def test_pucci_formula_seeded(self):
        rng = make_rng(302)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            lam = float(rng.uniform(0.2, 2.0))
            Lam = lam * float(rng.uniform(1.0, 5.0))
            res = body_cone_aperture(pucci_body(n, lam, Lam))
            assert res.alpha == pytest.approx((n - 1) * lam / Lam + 1.0, abs=1e-10)
            assert res.p == pytest.approx(Lam / lam + 1.0, abs=1e-9)

    def test_spherical_generator(self):
        res = body_cone_aperture(
            ConvexBody(n=5, generators=(SymMatrix.identity(5) * 0.2,))
        )
        assert res.alpha == pytest.approx(5.0, abs=1e-10)
        assert res.p == pytest.approx(2.0, abs=1e-10)

    def test_duality_invariant(self):
        rng = make_rng(303)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            body = ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(3)))
            res = body_cone_aperture(body)
            if res.p == math.inf:
                assert res.alpha == pytest.approx(1.0, abs=1e-10)
            else:
                assert (res.alpha - 1.0) * (res.p - 1.0) == pytest.approx(n - 1.0, abs=1e-10)

    def test_scale_invariance(self):
        rng = make_rng(304)
        body = ConvexBody(n=4, generators=tuple(random_psd(rng, 4) for _ in range(2)))
        base = body_cone_aperture(body).alpha
        for c in (0.1, 1.0, 10.0):
            scaled = ConvexBody(n=4, generators=tuple(g * c for g in body.generators))
            assert body_cone_aperture(scaled).alpha == pytest.approx(base, rel=1e-12)

    def test_generator_ratio_bounds(self):
        rng = make_rng(305)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = random_psd(rng, n)
            ev = eigvals_sym(g)
            ratio = ev.sum() / ev[-1]
            assert 1.0 - 1e-12 <= ratio <= n + 1e-12

    def test_tie_breaks_to_lowest_index(self):
        g = SymMatrix.diag([1.0, 0.5])
        rot = SymMatrix.diag([0.5, 1.0])  # same spectrum, same ratio
        res = body_cone_aperture(ConvexBody(n=2, generators=(g, rot)))
        assert res.argmin_index == 0

    def test_rot_closed_false_refused(self):
        body = ConvexBody(n=2, generators=(SymMatrix.identity(2),), rot_closed=False)
        with pytest.raises(PreconditionError, match="rotation-closed"):
            body_cone_aperture(body)

    def test_inconsistent_paths_raise(self, monkeypatch):
        body = dominative_body(3, 4.0)
        monkeypatch.setattr(aperture_mod, "_alpha_by_support_root", lambda b: 2.9)
        with pytest.raises(ApertureInconsistencyError):
            body_cone_aperture(body)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_spike_matrix_has_the_bytes_of_symmatrix_diag(self, n):
        ends = [1.0, math.nextafter(1.0, 2.0), 1.5, float(n), math.nextafter(float(n), 0.0)]
        for a in ends + make_rng(n).uniform(1.0, n, 20).tolist():
            d = np.full(n, -1.0)
            d[0] = a - 1.0
            got, want = aperture_mod._spike_matrix(n, a).a, SymMatrix.diag(d).a
            assert (got.shape, got.dtype, got.flags.writeable) == (want.shape, want.dtype, False)
            assert got.tobytes() == want.tobytes()


class TestMinimalBound:
    def test_dominative_bound_is_identity(self):
        # c = 1 and G = F_p identically, so every margin is ~0
        rep = minimal_bound_check(dominative_body(3, 4.0), samples=300, seed=1)
        assert rep.passed
        assert rep.c == pytest.approx(1.0)
        assert abs(rep.worst_margin) <= 1e-10
        assert rep.sharpness_gap <= 1e-12

    def test_pucci_sharpness_witness(self):
        # both sides vanish on the spike direction diag(alpha-1, -1)
        body = pucci_body(2, 1.0, 3.0)
        res = body_cone_aperture(body)
        x = SymMatrix.diag([res.alpha - 1.0, -1.0])
        lhs = res.c * eval_dominative(x, res.p)
        rhs = eval_support(x, body)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_identity_hand_value(self):
        body = pucci_body(3, 1.0, 2.0)
        res = body_cone_aperture(body)
        x = SymMatrix.identity(3)
        # c * F_p(I) = c = Lam + (n-1) lam; G(I) = n * Lam
        assert res.c * eval_dominative(x, res.p) == pytest.approx(2.0 + 2.0)
        assert eval_support(x, body) == pytest.approx(6.0)

    def test_random_bodies_no_violations(self):
        rng = make_rng(306)
        for k in range(6):
            n = 2 + k % 4
            body = ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(1 + k % 3)))
            rep = minimal_bound_check(body, samples=400, seed=10 + k)
            assert rep.passed, rep.violations[:2]
            assert rep.sharpness_gap <= 1e-6
            assert rep.tightest is not None


def _reference_certificate(body, index, c, p):
    """bound_certificate as a loop over the suffixes of s - c w_p."""
    d = body.generator_spectra[index] - c * dominative_weights(body.n, p)
    suffix, sums = 0.0, []
    for v in d[::-1].tolist():
        suffix += v
        sums.append(suffix)
    return {"index": index, "min_suffix_sum": min(min(sums[:-1]), -abs(sums[-1]))}


def _reference_minimal_bound(body, samples=2000, seed=0, tol=1e-9, sharpness_probes=8):
    """minimal_bound_check as one symmetrized Gaussian draw scaled by the
    radius cycle, eval_dominative and eval_support call per matrix."""
    ap = body_cone_aperture(body)
    rng = make_rng(seed)
    report = MinimalBoundReport(
        body=body.summary(), alpha=ap.alpha, p=ap.p, c=ap.c, samples=samples, probes=sharpness_probes,
        certificate=_reference_certificate(body, ap.argmin_index, ap.c, ap.p),
    )

    def record(x):
        lhs = ap.c * eval_dominative(x, ap.p)
        rhs = eval_support(x, body)
        margin = rhs - lhs
        if margin < -tol:
            report.violations.append({"margin": margin, "X": x.to_dict(), "lhs": lhs, "rhs": rhs})
        if margin < report.worst_margin:
            report.worst_margin = margin
            report.tightest = x.to_dict()
        report.sharpness_gap = min(report.sharpness_gap, abs(margin))

    radii = (0.5, 1.0, 2.0, 10.0)
    for i in range(samples):
        g = rng.standard_normal((body.n, body.n))
        record(SymMatrix(0.5 * (g + g.T) * radii[i % len(radii)]))
    spike = aperture_mod._spike_matrix(body.n, ap.alpha)
    for _ in range(sharpness_probes):
        q = random_orthogonal(rng, body.n)
        record(SymMatrix(q.T @ spike.a @ q))
    return report


def _two_random_bodies():
    rng = make_rng(77)
    return [
        ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(gens)))
        for n, gens in ((2, 1), (5, 4))
    ]


class TestMinimalBoundAgainstReference:
    @pytest.mark.parametrize(
        "body",
        [
            dominative_body(4, 3.0),
            dominative_body(3, math.inf),
            dominative_body(5, 2.0),
            pucci_body(3, 0.7, 2.1),
            *_two_random_bodies(),
        ],
        ids=["dominative_4_3", "dominative_3_inf", "dominative_5_2", "pucci_3", "random_n2", "random_n5"],
    )
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=2000, seed=0),
            dict(samples=301, seed=4, sharpness_probes=0),
            dict(samples=37, seed=9, tol=-0.5, sharpness_probes=3),
        ],
        ids=["suite", "odd_no_probes", "violations"],
    )
    def test_report_equals_the_per_sample_loop(self, body, kwargs):
        got = minimal_bound_check(body, **kwargs).to_dict()
        assert got == _reference_minimal_bound(body, **kwargs).to_dict()
        if kwargs.get("tol") == -0.5:
            assert got["violations"] and not got["passed"]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(samples=0), dict(samples=-5), dict(samples=10, sharpness_probes=-1)],
    )
    def test_empty_or_negative_counts_are_rejected(self, kwargs):
        with pytest.raises(PreconditionError, match="at least"):
            minimal_bound_check(dominative_body(3, 4.0), **kwargs)


def _certificate_bodies():
    rng = make_rng(78)
    bodies = [dominative_body(4, 3.0), dominative_body(3, math.inf), pucci_body(3, 0.7, 2.1)]
    return bodies + [
        ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(gens)))
        for n, gens in ((2, 1), (3, 2), (4, 3), (5, 4))
    ]


class TestBoundCertificate:
    @pytest.mark.parametrize("body", _certificate_bodies())
    def test_holds_at_the_aperture(self, body):
        ap = body_cone_aperture(body)
        cert = bound_certificate(body, ap.argmin_index, ap.c, ap.p)
        assert cert["index"] == ap.argmin_index
        assert -1e-12 <= cert["min_suffix_sum"] <= 0.0

    @pytest.mark.parametrize("body", _certificate_bodies())
    def test_a_wrong_c_fails(self, body):
        ap = body_cone_aperture(body)
        for c in (1.01 * ap.c, 0.99 * ap.c):
            assert bound_certificate(body, ap.argmin_index, c, ap.p)["min_suffix_sum"] < -1e-9

    @pytest.mark.parametrize("body", [b for b in _certificate_bodies() if len(b.generators) > 1])
    def test_a_wrong_argmin_index_fails(self, body):
        ap = body_cone_aperture(body)
        spectra = body.generator_spectra
        ratios = spectra.sum(axis=1) / spectra[:, -1]
        wrong = np.flatnonzero(ratios > ap.alpha + 1e-9)
        assert wrong.size
        for i in wrong.tolist():
            # the trace of its own generator keeps the full sum at 0, but
            # its top eigenvalue falls short of c / alpha
            assert bound_certificate(body, i, float(spectra[i].sum()), ap.p)["min_suffix_sum"] < -1e-9
            assert bound_certificate(body, i, ap.c, ap.p)["min_suffix_sum"] < -1e-9


def _random_hypothesis_pair(rng, n, p):
    p_vec = dominative_weights(n, p)
    head = rng.normal(size=n - 1)
    head += (p_vec[:-1].sum() - head.sum()) / (n - 1)
    return np.concatenate([head, p_vec[-1:]]), p_vec


class TestPercWeights:
    def test_cyclic_average_cancels(self):
        # n=3, p=inf: a = (t, -t, 1) averages to the last basis vector
        decomp = perc_weights(np.array([0.8, -0.8, 1.0]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(decomp.reconstruct([0.8, -0.8, 1.0]), [0.0, 0.0, 1.0], atol=1e-15)

    def test_hand_worked_decomposition(self):
        a = np.array([0.4, 0.0, 0.6])
        p_vec = np.array([0.2, 0.2, 0.6])
        decomp = perc_weights(a, p_vec)
        assert decomp.weights == (0.5, 0.5)
        assert np.allclose(decomp.reconstruct(a), p_vec, atol=1e-15)

    def test_n2_single_identity_permutation(self):
        p_vec = dominative_weights(2, 3.0)
        decomp = perc_weights(p_vec.copy(), p_vec)
        assert decomp.weights == (1.0,)
        assert decomp.permutations == ((0, 1),)

    def test_permutations_fix_last_index_weights_uniform(self):
        rng = make_rng(307)
        for i in range(30):
            n = 2 + i % 7
            a, p_vec = _random_hypothesis_pair(rng, n, 2.0 + 5.0 * rng.uniform())
            decomp = perc_weights(a, p_vec)
            assert all(perm[-1] == n - 1 for perm in decomp.permutations)
            assert all(w == pytest.approx(1.0 / (n - 1)) for w in decomp.weights)
            assert np.max(np.abs(decomp.reconstruct(a) - p_vec)) <= 1e-12

    def test_sum_mismatch_named(self):
        with pytest.raises(PreconditionError, match="sum equality"):
            perc_weights(np.array([0.5, 0.0, 0.6]), np.array([0.2, 0.2, 0.6]))

    def test_last_entry_mismatch_named(self):
        with pytest.raises(PreconditionError, match="last-entry"):
            perc_weights(np.array([0.5, 0.1, 0.4]), np.array([0.2, 0.2, 0.6]))

    def test_non_flat_target_rejected(self):
        with pytest.raises(PreconditionError, match="first n-1"):
            perc_weights(np.array([0.1, 0.3, 0.6]), np.array([0.1, 0.3, 0.6]))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.integers(2, 8),
        st.one_of(st.just(math.inf), st.floats(2.0, 40.0)),
        st.integers(0, 10_000),
    )
    def test_reconstruction_property(self, n, p, salt):
        rng = make_rng(308, salt)
        a, p_vec = _random_hypothesis_pair(rng, n, p)
        decomp = perc_weights(a, p_vec)
        assert np.max(np.abs(decomp.reconstruct(a) - p_vec)) <= 1e-12
