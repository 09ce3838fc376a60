import math

import pytest

from domcone.acdo import EllipticSetOracle, oracle_from_operator
from domcone.cones import boundary_sample, check_inclusion, inclusion_verdict
from domcone.errors import PreconditionError
from domcone.operators import DominativeP, eval_dominative
from domcone.symmat import SymMatrix, inf_norm

RADII = [1e2, 1e4, 1e6]
THRESH = 5e-8  # 5x the default property tolerance


class TestVerdictTable:
    """One case per row of the table in :func:`inclusion_verdict`."""

    def test_all_numerically_zero_is_consistent(self):
        assert inclusion_verdict(RADII, [0.0, THRESH, 1e-12], THRESH) == (0.0, "consistent")

    def test_lone_nonzero_before_the_largest_radius_is_consistent(self):
        assert inclusion_verdict(RADII, [1.0, 0.0, 0.0], THRESH) == (0.0, "consistent")

    def test_lone_nonzero_at_the_largest_radius_is_inconclusive(self):
        assert inclusion_verdict(RADII, [0.0, 0.0, 1.0], THRESH) == (0.0, "inconclusive")

    def test_decay_exponent_at_least_a_quarter_is_consistent(self):
        worst = [r**-0.5 for r in RADII]
        slope, verdict = inclusion_verdict(RADII, worst, THRESH)
        assert slope == pytest.approx(-0.5)
        assert verdict == "consistent"

    def test_flat_and_clearly_nonzero_is_violated(self):
        slope, verdict = inclusion_verdict(RADII, [0.3, 0.3, 0.3], THRESH)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert verdict == "violated"

    @pytest.mark.parametrize(
        "worst",
        [
            [r**-0.15 for r in RADII],  # decays, but slower than the 0.25 rate
            [2 * THRESH, 2 * THRESH, 2 * THRESH],  # flat, but not 10x the threshold
        ],
    )
    def test_anything_else_is_inconclusive(self, worst):
        assert inclusion_verdict(RADII, worst, THRESH)[1] == "inconclusive"


def test_union_with_one_nonzero_radius_is_not_consistent():
    """{F_4 <= 0} u {F_2 <= -1e5} on S(3): its asymptotic cone is Theta_2,
    which is not inside Theta_4, yet only the largest radius sees it."""
    eye = SymMatrix.identity(3)
    oracle = EllipticSetOracle(
        member=lambda x: eval_dominative(x, 4.0) <= 0.0 or eval_dominative(x, 2.0) <= -1e5,
        n=3,
        inside_witness=eye * -2.0,
        outside_witness=eye * 2.0,
        description="Theta_4 union {F_2 <= -1e5}",
    )
    rep = check_inclusion(oracle, None, 4.0, RADII, count=100, seed=0)
    assert [w > THRESH for w in rep.worst_fp_per_radius] == [False, False, True]
    assert rep.worst_fp_per_radius[-1] > 0.1
    assert rep.verdict == "inconclusive"
    assert rep.to_dict()["q_interval"]["hi"] == pytest.approx(3 * 3.0 / 2.0)


def test_catalog_inclusion_verdicts():
    inside = check_inclusion(oracle_from_operator(DominativeP(n=3, p=5.0)), None, 4.0, RADII, count=30)
    assert inside.verdict == "consistent"
    outside = check_inclusion(oracle_from_operator(DominativeP(n=3, p=3.0)), None, 4.0, RADII, count=30)
    assert outside.verdict == "violated"
    assert math.isclose(outside.decay_exponent, -outside.trend_slope)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_rejected(count):
    oracle = oracle_from_operator(DominativeP(n=2, p=3.0))
    with pytest.raises(PreconditionError, match="count"):
        check_inclusion(oracle, None, 4.0, RADII, count=count)


@pytest.mark.parametrize(
    "radii", [(0.0, 1e3, 1e6), (-1.0, 1e3, 1e6), (1e2, 1e4, math.inf), (1.0, 1e3, math.nan)]
)
def test_radii_must_be_finite_and_positive(radii):
    oracle = oracle_from_operator(DominativeP(n=2, p=3.0))
    with pytest.raises(PreconditionError, match="finite and positive"):
        check_inclusion(oracle, None, 4.0, radii, count=5)


def test_boundary_sample_returns_unit_boundary_directions():
    # Theta_3 is a cone, so the normalized boundary points stay on its boundary
    oracle = oracle_from_operator(DominativeP(n=3, p=3.0))
    directions = boundary_sample(oracle, 1e3, 12, seed=4)
    assert len(directions) == 12
    for d in directions:
        assert isinstance(d, SymMatrix)
        assert inf_norm(d) == pytest.approx(1.0, rel=1e-12)
        assert eval_dominative(d, 3.0) == pytest.approx(0.0, abs=1e-12)
