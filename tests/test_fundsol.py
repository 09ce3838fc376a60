import math
import os
from decimal import Decimal, localcontext
import subprocess
import sys

import numpy as np
import pytest

import domcone
from domcone.aperture import ConvexBody, dominative_body, minimal_bound_check, pucci_body
from domcone.errors import NumericalFailureError, PreconditionError
from domcone.fundsol import (
    FundamentalSolution,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    sobolev_threshold,
    surface_measure,
    verify_annihilation,
    viscosity_grid_check,
    w_gradient,
    w_hessian,
    w_value,
)
from domcone.operators import PropertyReport, Pucci
from domcone.symmat import SymMatrix


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


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(domcone.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, domcone.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


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
            "worst_margin", "tightest", "sharpness_gap", "passed",
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


def test_profile_keeps_the_plain_norm_inside_the_safe_range():
    fs = FundamentalSolution(n=3, p=4.0)
    for x in ([0.3, -1.2, 2.5], [1e-150, 0.0, 0.0], [1e150, 2.0, -3.0]):
        r = float(np.linalg.norm(np.asarray(x)))
        assert w_value(fs, x) == -(3.0 / 1.0) * r ** (1.0 / 3.0)
