import math
import os
import subprocess
import sys

import pytest

import domcone
from domcone.aperture import dominative_body, minimal_bound_check, pucci_body
from domcone.errors import PreconditionError
from domcone.fundsol import (
    FundamentalSolution,
    GridCheckReport,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    sobolev_threshold,
    surface_measure,
    verify_annihilation,
)


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


class TestReportForm:
    """The property reports serialise their fields plus ``passed``."""

    def test_annihilation(self):
        rep = verify_annihilation(pucci_body(2, 1.0, 2.0), FundamentalSolution(n=2, p=3.0), sample_count=20)
        assert rep.passed
        d = rep.to_dict()
        assert set(d) == {
            "operator", "n", "p", "alpha", "samples", "max_scaled_residual",
            "max_scaling_law_error", "violations", "passed",
        }
        assert d["operator"].startswith("support function of")

    def test_annihilation_infinite_exponent(self):
        rep = verify_annihilation(dominative_body(3, math.inf), FundamentalSolution(n=3, p=math.inf), sample_count=5)
        assert rep.to_dict()["p"] == "inf"

    @pytest.mark.parametrize("count", [0, -3])
    def test_annihilation_rejects_an_empty_sample(self, count):
        with pytest.raises(PreconditionError, match="at least 1"):
            verify_annihilation(pucci_body(2, 1.0, 2.0), FundamentalSolution(n=2, p=3.0), sample_count=count)

    def test_radial_check_records_violations(self):
        rep = example_radial_check(1.0, [0.5], tol=-1.0)  # every residual exceeds a negative tol
        d = rep.to_dict()
        assert set(d) == {"c", "r_values", "max_residual", "violations", "passed"}
        assert d["passed"] is False and d["violations"]

    def test_grid_check_empty_grid(self):
        assert GridCheckReport(points_checked=0).to_dict() == {
            "points_checked": 0, "max_value": "-inf", "violations": [], "passed": True,
        }

    def test_minimal_bound(self):
        d = minimal_bound_check(dominative_body(3, 3.0), samples=10, sharpness_probes=2).to_dict()
        assert set(d) == {
            "body", "alpha", "p", "c", "samples", "probes", "violations",
            "worst_margin", "tightest", "sharpness_gap", "passed",
        }
        assert d["passed"] and d["p"] == 3.0
