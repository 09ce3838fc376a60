import math
from decimal import Decimal, localcontext
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domcone.fundsol as fundsol_mod
from domcone.aperture import ConvexBody, body_cone_aperture, dominative_body, minimal_bound_check, pucci_body
from domcone.errors import InvalidMatrixError, NumericalFailureError, PreconditionError
from domcone.fundsol import (
    FundamentalSolution,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    surface_measure,
    verify_annihilation,
    viscosity_grid_check,
    w_gradient,
    w_hessian,
    w_value,
)
from domcone.operators import Pucci, eval_support, support_from_eigs
from domcone.rules import PropertyReport, sobolev_threshold
from domcone.sampling import make_rng, random_psd
from domcone.symmat import SymMatrix, eigvals_sym


class TestSobolev:
    @pytest.mark.parametrize("n, p", [(3, 12.7), (14, 5.5)])
    def test_threshold_that_rounds_beside_q_star(self, n, p):
        # q* itself rounds so that e + 1 is a few ulps above zero
        q = sobolev_threshold(n, p)
        assert sobolev_diverges(n, p, q)
        for eps in (1e-2, 1e-6):
            log_form = surface_measure(n) * math.log(1.0 / eps)
            assert sobolev_integral(n, p, q, eps) == pytest.approx(log_form, rel=1e-9)

    def test_quadrature_matches_closed_form_on_the_suite_grid(self):
        worst = 0.0
        for n in range(2, 6):
            for p in sorted({2.0, 3.0, float(n)}):
                for factor in (0.95, 1.0, 1.05):
                    q = factor * sobolev_threshold(n, p)
                    for eps in (1e-2, 1e-4, 1e-6):
                        ana = sobolev_integral(n, p, q, eps)
                        num = sobolev_integral_quadrature(n, p, q, eps)
                        worst = max(worst, abs(ana - num) / abs(ana))
        assert worst <= 1e-12

    def test_divergence_side_of_the_threshold(self):
        q_star = sobolev_threshold(3, 4.0)
        assert not sobolev_diverges(3, 4.0, 0.99 * q_star)
        assert sobolev_diverges(3, 4.0, q_star)
        assert not sobolev_diverges(3, math.inf, 1e6)

    def test_bad_parameters(self):
        with pytest.raises(PreconditionError):
            sobolev_integral_quadrature(3, 4.0, 2.0, 1.5)
        with pytest.raises(PreconditionError):
            FundamentalSolution(n=3, p=1.5)

    @pytest.mark.parametrize("n, p, q, eps", [(5, 2.0, 1000.0, 1e-6), (2, 3.0, 4000.0, 0.1)])
    def test_integral_beyond_the_float_range_is_a_numerical_failure(self, n, p, q, eps):
        with pytest.raises(NumericalFailureError, match="float range"):
            sobolev_integral(n, p, q, eps)

    @pytest.mark.parametrize("q", [106.6, 107.0])
    def test_integral_near_the_float_range_is_taken_in_logs(self, q):
        # eps^(e+1) = exp(708.7) and exp(711.5): the product with omega
        # overflows, or expm1 does, while the integral itself still fits
        s = Decimal(2.0 - q / 2.0)  # e + 1 for n = 2, p = 3
        pi = Decimal("3.14159265358979323846264338327950288419716939937510")
        with localcontext() as ctx:
            ctx.prec = 50
            want = 2 * pi * (1 - Decimal(10) ** (-6 * s)) / s
        got = sobolev_integral(2, 3.0, q, 1e-6)
        assert math.isfinite(got)
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want

    def test_surface_measure_past_the_gamma_range(self):
        # Gamma(n/2) overflows from n = 344 on; below, the plain formula's bits
        for n in (2, 3, 10, 343):
            assert surface_measure(n) == 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        for n in (344, 400, 2000):
            log_omega = math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)
            assert surface_measure(n) == pytest.approx(math.exp(log_omega), rel=1e-12, abs=0.0)
        assert surface_measure(344) < surface_measure(343)
        assert sobolev_integral(400, 3.0, 1.0, 0.1) > 0.0

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_gradient_exponent_must_be_finite_and_positive(self, q):
        with pytest.raises(PreconditionError, match="finite and positive"):
            sobolev_integral(2, 3.0, q, 0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: sobolev_threshold(n, 3.0),
        lambda n: sobolev_integral(n, 3.0, 1.0, 0.1),
        lambda n: sobolev_diverges(n, 3.0, 1.0),
        lambda n: sobolev_integral_quadrature(n, 3.0, 1.0, 0.1),
        lambda n: FundamentalSolution(n=n, p=3.0),
    ],
)
def test_dimension_below_two_is_rejected(call):
    for n in (1, 0, -2):
        with pytest.raises(PreconditionError, match="at least 2"):
            call(n)
    call(2)


#: The JSON keys of a property report.
CHECK_KEYS = {"name", "samples", "checks", "max_deviation", "violations", "passed"}


class TestReportForm:
    """The three fundsol checks return property reports: their fields plus
    ``passed``, and annihilation's scaling-law error beside them."""

    def test_annihilation(self):
        rep = verify_annihilation(pucci_body(2, 1.0, 2.0), FundamentalSolution(n=2, p=3.0), sample_count=20)
        assert rep.passed and isinstance(rep, PropertyReport)
        d = rep.to_dict()
        assert set(d) == CHECK_KEYS | {"max_scaling_law_error"}
        assert (d["name"], d["samples"], d["checks"]) == ("annihilation", 20, 20)
        assert 0.0 < d["max_deviation"] <= 1e-9

    def test_annihilation_records_each_violating_point(self):
        fs = FundamentalSolution(n=2, p=3.0)
        rep = verify_annihilation(pucci_body(2, 1.0, 2.0), fs, sample_count=4, tol=-1.0)
        assert len(rep.violations) == 4
        for v in rep.violations:
            assert set(v) == {"x", "residual", "scaled"}
            r = math.hypot(*v["x"])
            assert v["scaled"] == pytest.approx(abs(v["residual"]) * r**fs.alpha, rel=1e-12)
        assert rep.max_deviation == max(v["scaled"] for v in rep.violations)

    def test_annihilation_infinite_exponent(self):
        # the aperture gate lets p = inf through on both sides, and G = F_inf
        # annihilates -|x|
        fs = FundamentalSolution(n=3, p=math.inf)
        rep = verify_annihilation(dominative_body(3, math.inf), fs, sample_count=5)
        assert rep.passed and rep.checks == 5

    @pytest.mark.parametrize("body_p, p", [(math.inf, 3.0), (3.0, math.inf), (3.0, 4.0)])
    def test_annihilation_gate_refuses_another_exponent(self, body_p, p):
        with pytest.raises(PreconditionError, match="aperture mismatch"):
            verify_annihilation(dominative_body(3, body_p), FundamentalSolution(n=3, p=p), sample_count=5)

    @pytest.mark.parametrize("count", [0, -3])
    def test_annihilation_rejects_an_empty_sample(self, count):
        with pytest.raises(PreconditionError, match="at least 1"):
            verify_annihilation(pucci_body(2, 1.0, 2.0), FundamentalSolution(n=2, p=3.0), sample_count=count)

    def test_radial_check_records_violations(self):
        rep = example_radial_check(1.0, [0.5], tol=-1.0)  # every residual exceeds a negative tol
        d = rep.to_dict()
        assert set(d) == CHECK_KEYS
        assert (d["name"], d["samples"], d["checks"]) == ("radial", 1, 2)
        assert d["passed"] is False
        assert [set(v) for v in d["violations"]] == [{"r", "residual"}, {"r", "top_eig_mismatch"}]

    @pytest.mark.parametrize("c", [0.999, -1.0, math.nan, math.inf])
    def test_radial_check_needs_finite_c_at_least_one(self, c):
        with pytest.raises(PreconditionError, match="c >= 1"):
            example_radial_check(c, [0.5])

    @pytest.mark.parametrize("grid", [[0.0, 0.5], [0.5, 1.0], [-0.1], [0.5, math.nan]])
    def test_radial_check_grid_inside_the_unit_interval(self, grid):
        with pytest.raises(PreconditionError, match=r"inside \(0, 1\)"):
            example_radial_check(1.5, grid)

    def test_radial_check_rejects_an_empty_grid(self):
        with pytest.raises(PreconditionError, match="at least 1"):
            example_radial_check(1.5, [])

    def test_grid_check_rejects_an_empty_grid(self):
        with pytest.raises(PreconditionError, match="at least 1"):
            viscosity_grid_check(Pucci(n=2, lam=1.0, Lam=2.0), lambda x: SymMatrix.zeros(2), [], 1e-9)

    def test_annihilation_refuses_a_plain_hull(self):
        body = ConvexBody(n=2, generators=(SymMatrix.identity(2),), rot_closed=False)
        with pytest.raises(PreconditionError, match="rotation-closed"):
            verify_annihilation(body, FundamentalSolution(n=2, p=2.0), sample_count=5)

    def test_grid_check_records_each_point(self):
        # F = Pucci on -I is -2 everywhere: no violation, and the maximum
        # deviation stays at its floor 0.0 rather than -2
        field = lambda x: SymMatrix.identity(2) * -1.0
        rep = viscosity_grid_check(Pucci(n=2, lam=1.0, Lam=2.0), field, [[1.0, 0.0], [0.0, 2.0]], 1e-9)
        assert rep.to_dict() == {
            "name": "grid", "samples": 2, "checks": 2, "max_deviation": 0.0, "violations": [], "passed": True,
        }
        rep = viscosity_grid_check(Pucci(n=2, lam=1.0, Lam=2.0), field, [[1.0, 0.0]], -3.0)
        assert rep.violations == [{"x": [1.0, 0.0], "value": -2.0}]
        # F <= tol is the supersolution property, so a value at tol passes
        assert viscosity_grid_check(Pucci(n=2, lam=1.0, Lam=2.0), field, [[1.0, 0.0]], -2.0).passed

    def test_minimal_bound(self):
        d = minimal_bound_check(dominative_body(3, 3.0), samples=10, sharpness_probes=2).to_dict()
        assert set(d) == {
            "body", "alpha", "p", "c", "samples", "probes", "violations",
            "worst_margin", "tightest", "sharpness_gap", "certificate", "passed",
        }
        assert d["passed"] and d["p"] == 3.0


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160, 1e160])
def test_profile_at_radii_past_the_plain_norm(scale):
    # |x| = sqrt(2) * scale: the plain norm overflows or underflows on x
    fs = FundamentalSolution(n=2, p=3.0)
    x = [scale, scale]
    r = math.sqrt(2.0) * scale
    assert w_value(fs, x) == pytest.approx(-2.0 * math.sqrt(r), rel=1e-14, abs=0.0)
    assert np.allclose(w_gradient(fs, x), -(r**-0.5) / math.sqrt(2.0), rtol=1e-14, atol=0.0)
    eigs = np.linalg.eigvalsh(w_hessian(fs, x).a)
    assert eigs == pytest.approx([-(r**-1.5), 0.5 * r**-1.5], rel=1e-13, abs=0.0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 5),
    p=st.sampled_from(["2", "n", "7.5", "inf"]),
    k=st.integers(1, 12),
    salt=st.integers(0, 10_000),
    decades=st.floats(-3.0, 3.0),
)
def test_stacked_hessians_equal_w_hessian_bit_for_bit(n, p, k, salt, decades):
    fs = FundamentalSolution(n=n, p=float(n) if p == "n" else float(p))
    rng = make_rng(salt)
    x = rng.standard_normal((k, n)) * 10.0 ** (decades + rng.uniform(-2.0, 2.0, (k, 1)))
    stack = fundsol_mod._hessian_stack(fs.alpha, x, [fundsol_mod._radius(row) for row in x])
    assert stack.shape == (k, n, n)
    for row, h in zip(x, stack):
        assert w_hessian(fs, row).a.tobytes() == h.tobytes()


def test_w_hessian_keeps_the_finiteness_check():
    # |x|^(-alpha) is finite but (alpha - 1) times it is not
    fs = FundamentalSolution(n=16, p=2.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidMatrixError, match="finite"):
        w_hessian(fs, [6e-20] + [0.0] * 15)


def test_profile_keeps_the_plain_norm_inside_the_safe_range():
    fs = FundamentalSolution(n=3, p=4.0)
    for x in ([0.3, -1.2, 2.5], [1e-150, 0.0, 0.0], [1e150, 2.0, -3.0]):
        r = float(np.linalg.norm(np.asarray(x)))
        assert w_value(fs, x) == -(3.0 / 1.0) * r ** (1.0 / 3.0)


@pytest.mark.parametrize("n, p", [(2, 3.0), (3, 2.0)])
def test_hessian_past_the_float_range_is_an_invalid_matrix(n, p):
    # |x|^(-alpha) = 1e450 and 1e900: inf, not an OverflowError, and no
    # warning on the way to the finiteness check
    with pytest.raises(InvalidMatrixError, match="finite"):
        w_hessian(FundamentalSolution(n=n, p=p), [1e-300] + [0.0] * (n - 1))


@pytest.mark.parametrize("p, x", [(2.0, [1.0, 0.0]), (3.0, [0.6, 0.8, 0.0]), (math.inf, [0.0, 0.0])])
def test_a_vanishing_profile_is_positive_zero(p, x):
    # -ln|x| at p = n vanishes at |x| = 1, and -|x| at p = inf at the origin
    value = w_value(FundamentalSolution(n=len(x), p=p), x)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_powers_past_the_float_range_are_inf():
    # w = -((p-1)/(p-n)) |x|^((p-n)/(p-1)) = 0.5 |x|^(-2) at p = 2, n = 4
    assert w_value(FundamentalSolution(n=4, p=2.0), [1e-300, 0.0, 0.0, 0.0]) == math.inf
    assert w_value(FundamentalSolution(n=4, p=2.0), [1e-150, 0.0, 0.0, 0.0]) == 0.5e300


@pytest.mark.parametrize(
    "n, p, x",
    [(3, 2.0, [1e-300, 0.0, 0.0]), (2, 2.0, [0.0, -1e-310]), (4, 3.0, [1e-250, 0.0, 1e-250, 0.0])],
)
def test_gradient_past_the_float_range_is_a_numerical_failure(n, p, x):
    # |x|^(-(n-1)/(p-1)) is inf: an error naming |x|, not inf * 0 = nan on
    # the zero coordinates, and no warning (warnings are errors here)
    r = fundsol_mod._radius(np.asarray(x))
    with pytest.raises(NumericalFailureError, match=f"gradient at \\|x\\| = {r:g} exceeds the float range"):
        w_gradient(FundamentalSolution(n=n, p=p), x)


@pytest.mark.parametrize(
    "n, p, x",
    [
        (2, 3.0, [1e-300, 0.0]),
        (3, 2.0, [1e-150, 0.0, -0.0]),
        (3, 4.0, [-1e-300, 2e-300, 0.0]),
        (5, 2.5, [3.0] * 5),
        (2, 2.0, [1.0, 0.0]),
        (3, math.inf, [0.0, -3.0, 0.0]),
    ],
)
def test_finite_gradient_keeps_its_bits(n, p, x):
    # -(r^e) * x/r with Python's power, as before the overflow check, and
    # + 0.0 so that a zero coordinate gives 0.0, not -0.0
    r = fundsol_mod._radius(np.asarray(x))
    want = -(r ** (-(n - 1.0) / (p - 1.0))) * (np.asarray(x) / r) + 0.0
    got = w_gradient(FundamentalSolution(n=n, p=p), x)
    assert got.tobytes() == want.tobytes()
    assert all(math.copysign(1.0, g) == 1.0 for g, xi in zip(got.tolist(), x) if xi == 0.0)
    if x == [1e-300, 0.0]:
        assert got.tolist() == [-1e150, 0.0]


def _parent_radius(x):
    """|x| as ``np.linalg.norm`` alone took it: the reference of ``_radius``."""
    s = float(np.max(np.abs(x), initial=0.0))
    if s == 0.0 or 1e-150 <= s <= 1e150:
        return float(np.linalg.norm(x))
    return s * float(np.linalg.norm(x / s))


def _value_and_warnings(f, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(x)
    return value, [(w.category, str(w.message)) for w in caught]


def _assert_same_radius(x):
    got, got_warnings = _value_and_warnings(fundsol_mod._radius, x)
    want, want_warnings = _value_and_warnings(_parent_radius, x)
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()
    assert got_warnings == want_warnings


_SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-150, -1e-150, 1e150, -1e150,
            math.nextafter(1e-150, 0.0), math.nextafter(1e150, math.inf), math.inf, -math.inf, math.nan]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    entries=st.lists(
        st.one_of(
            st.sampled_from(_SPECIAL),
            st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
        ),
        min_size=1,
        max_size=16,
    ),
    common=st.integers(-300, 300),
)
def test_radius_has_the_bits_and_warnings_of_the_norm(entries, common):
    x = np.array(entries)
    _assert_same_radius(x)
    # the same direction at one scale, near either edge of the plain range
    with np.errstate(all="ignore"):
        scaled = x * 10.0**common
    _assert_same_radius(scaled)


@pytest.mark.parametrize(
    "x",
    [
        [0.0, 0.0], [-0.0], [1e-150, 0.0], [1e150, 1.0], [1e155, 1.0], [1e160, -1e160], [1e-155, 0.0],
        [5e-324, 5e-324], [math.inf, 1.0], [math.inf, math.nan], [math.nan, math.inf],
        [1.0, math.nan, math.inf], [1.0, math.nan], [math.nan, 0.0], [-math.inf, -math.inf],
        [3.0, 4.0] * 8, [1e200, 1e200], [1e-200, 1e-200],
    ],
)
def test_radius_at_the_edges(x):
    _assert_same_radius(np.array(x))


def test_radius_of_strided_and_scalar_input():
    base = make_rng(4).standard_normal((6, 7)) * 1e3
    for x in (base[:, 2], base[::-2, 1], base[1, ::3], np.asarray(2.5), base[:3, :3], base.T):
        _assert_same_radius(x)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(2, 5), generators=st.integers(1, 4), salt=st.integers(0, 10_000))
def test_stacked_support_has_the_bits_of_eval_support(n, generators, salt):
    rng = make_rng(salt)
    body = ConvexBody(n=n, generators=tuple(random_psd(rng, n) for _ in range(generators)))
    fs = FundamentalSolution(n=n, p=body_cone_aperture(body).p)
    # every point is recorded, with the G that the stacked pairing gave it
    rep = verify_annihilation(body, fs, sample_count=16, seed=salt, tol=-1.0)
    assert len(rep.violations) == 16
    for v in rep.violations:
        assert v["residual"].hex() == eval_support(w_hessian(fs, v["x"]), body).hex()
    # and directly, on a stack of Hessians of any sign pattern
    stack = rng.standard_normal((16, n, n))
    stack = 0.5 * (stack + stack.swapaxes(1, 2))
    spectra = np.array([eigvals_sym(SymMatrix._wrap(a)) for a in stack])
    got = support_from_eigs(stack, spectra, body.generator_spectra)
    want = [eval_support(SymMatrix._wrap(a), body) for a in stack]
    assert got.tobytes() == np.array(want).tobytes()
