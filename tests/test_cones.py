import math

import numpy as np
import pytest

from domcone import cones
from domcone.acdo import ROOT_TOL, EllipticSetOracle, acdo_eval, oracle_from_operator
from domcone.cones import boundary_sample, check_inclusion, conjugate_oracle, inclusion_verdict
from domcone.errors import NumericalFailureError, PreconditionError
from domcone.operators import Conjugated, DominativeP, Pucci, eval_dominative
from domcone.sampling import goe_matrix, make_rng
from domcone.symmat import InvertibleMap, SymMatrix, inf_norm

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


def test_bad_p_is_rejected_before_any_sampling():
    calls = []

    def member(x):
        calls.append(1)
        return eval_dominative(x, 3.0) <= 0.0

    oracle = EllipticSetOracle(member=member, n=3)
    with pytest.raises(PreconditionError, match=r"exponent p must lie in \[2, inf\], got 1.0"):
        check_inclusion(oracle, None, 1.0, RADII, count=10)
    assert calls == []


def test_worst_value_is_the_largest_dominative_value_of_the_sample():
    oracle = oracle_from_operator(Pucci(n=3, lam=0.5, Lam=2.0))
    rep = check_inclusion(oracle, None, 3.5, RADII, count=20, seed=5)
    for i, r in enumerate(RADII):
        directions = boundary_sample(oracle, r, 20, seed=5 + 7919 * i)
        assert rep.worst_fp_per_radius[i] == max(eval_dominative(d, 3.5) for d in directions)


# ---------------------------------------------------------------------------
# The batched sampler against the per-sample loop it replaced


def _reference_sample(oracle, R, count, rng, root_tol=ROOT_TOL):
    """One draw, one root (to ``root_tol`` per unit of radius) and one norm
    per sample."""
    out, attempts = [], 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count + 100:
            raise NumericalFailureError(
                "boundary sampling kept hitting degenerate projections",
                payload=oracle.description,
            )
        probe = goe_matrix(rng, oracle.n, radius=1.0) * R
        raw = probe.shift(-acdo_eval(oracle, probe, root_tol * R))
        nrm = inf_norm(raw)
        if nrm < R / 10.0:
            continue
        out.append(raw * (1.0 / nrm))
    return out


class ReplaceAt:
    """Generator stub whose ``standard_normal`` returns the wrapped stream
    with its matrices number ``positions`` (counted over all draws) set to
    ``matrix``, or all of them when ``positions`` is None.  The identity,
    the default, projects onto 0 for a cone, so the sampler rejects it."""

    def __init__(self, seed, n, positions=None, matrix=None):
        self.rng, self.n, self.positions, self.drawn = make_rng(seed), n, positions, 0
        self.matrix = np.eye(n) if matrix is None else matrix

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        for i, x in enumerate(g.reshape(-1, self.n, self.n), start=self.drawn):
            if self.positions is None or i in self.positions:
                x[...] = self.matrix
        self.drawn += g.size // self.n**2
        return g


def _cone_predicate(x):
    return eval_dominative(x, 3.0) <= 0.0


_B3 = InvertibleMap([[1.5, 0.3, 0.0], [-0.2, 0.8, 0.4], [0.1, 0.0, 1.2]])

#: The four kinds of oracle the sampler meets, all of cones on S(3): a
#: closed form, a Conjugated spec and a congruence image (lockstep
#: bisection), and a user predicate (one root at a time).
SAMPLER_ORACLES = {
    "closed_form": lambda: oracle_from_operator(Pucci(n=3, lam=0.5, Lam=2.0)),
    "conjugated_spec": lambda: oracle_from_operator(
        Conjugated(inner=Pucci(n=3, lam=0.5, Lam=2.0), B=_B3)
    ),
    "congruence_image": lambda: conjugate_oracle(oracle_from_operator(DominativeP(n=3, p=4.0)), _B3),
    "user_predicate": lambda: EllipticSetOracle(member=_cone_predicate, n=3, description="Theta_3"),
}


def _batched(monkeypatch, oracle, R, count, stub):
    monkeypatch.setattr(cones, "make_rng", lambda seed: stub)
    return boundary_sample(oracle, R, count, seed=0)


def _assert_same_sample(got, want):
    assert all(isinstance(d, SymMatrix) for d in got)
    assert np.array([d.a for d in got]).tobytes() == np.array([d.a for d in want]).tobytes()


@pytest.mark.parametrize("kind", sorted(SAMPLER_ORACLES))
@pytest.mark.parametrize(
    "positions",
    [(), (0, 3), tuple(range(10)), (9, 10, 11, 12)],
    ids=["none", "first-pass", "whole-first-pass", "across-passes"],
)
def test_batched_sampler_equals_the_per_sample_loop(monkeypatch, kind, positions):
    oracle = SAMPLER_ORACLES[kind]()
    batched_rng, scalar_rng = ReplaceAt(21, 3, positions), ReplaceAt(21, 3, positions)
    got = _batched(monkeypatch, oracle, 1e3, 10, batched_rng)
    want = _reference_sample(oracle, 1e3, 10, scalar_rng)
    assert len(got) == 10
    _assert_same_sample(got, want)
    # the rejected identity draws are replaced by drawing only the shortfall
    assert batched_rng.drawn == scalar_rng.drawn == 10 + len(positions)


@pytest.mark.parametrize("kind", sorted(SAMPLER_ORACLES))
def test_batched_sampler_keeps_the_attempt_budget(monkeypatch, kind):
    oracle, count = SAMPLER_ORACLES[kind](), 1
    batched_rng, scalar_rng = ReplaceAt(22, 3), ReplaceAt(22, 3)
    with pytest.raises(NumericalFailureError) as got:
        _batched(monkeypatch, oracle, 1e3, count, batched_rng)
    with pytest.raises(NumericalFailureError) as want:
        _reference_sample(oracle, 1e3, count, scalar_rng)
    assert (str(got.value), got.value.payload) == (str(want.value), want.value.payload)
    assert batched_rng.drawn == scalar_rng.drawn == 50 * count + 100


def test_projection_shorter_than_a_tenth_of_the_radius_is_rejected(monkeypatch):
    # D = diag(1, 1, 0.95) projects onto the boundary of Pucci(0.5, 2) at
    # R * diag(1, 1, -8) / 180, of norm 2R/45: not degenerate, but short
    oracle = SAMPLER_ORACLES["closed_form"]()
    short = np.diag([1.0, 1.0, 0.95])
    batched_rng, scalar_rng = ReplaceAt(24, 3, (2, 5), short), ReplaceAt(24, 3, (2, 5), short)
    got = _batched(monkeypatch, oracle, 1e3, 10, batched_rng)
    _assert_same_sample(got, _reference_sample(oracle, 1e3, 10, scalar_rng))
    assert batched_rng.drawn == scalar_rng.drawn == 12


@pytest.mark.parametrize("R", RADII)
@pytest.mark.parametrize("kind", ["conjugated_spec", "congruence_image", "user_predicate"])
def test_root_tolerance_per_unit_of_radius_moves_directions_by_at_most_20_tol(kind, R):
    # root_tol = ROOT_TOL / R bisects to the old absolute ROOT_TOL; a kept
    # point has norm at least R/10, so the two tolerances' distances, each
    # within half its tolerance of the root, move a direction by at most
    # 20 * ROOT_TOL in the infinity norm
    oracle = SAMPLER_ORACLES[kind]()
    got = boundary_sample(oracle, R, 20, seed=6)
    fine = boundary_sample(oracle, R, 20, seed=6, root_tol=ROOT_TOL / R)
    dev = np.abs(np.array([d.a for d in got]) - np.array([d.a for d in fine])).max()
    assert dev <= 20 * ROOT_TOL


def test_budget_holds_across_partial_passes(monkeypatch):
    # identity everywhere but the first draw: one kept, then passes of the
    # shortfall until the budget of 50 * 3 + 100 draws runs out
    oracle = SAMPLER_ORACLES["closed_form"]()
    stub = ReplaceAt(23, 3, positions=range(1, 10**6))
    with pytest.raises(NumericalFailureError, match="degenerate projections"):
        _batched(monkeypatch, oracle, 1e3, 3, stub)
    assert stub.drawn == 250
