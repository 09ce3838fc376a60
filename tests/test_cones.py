import json
import math
from pathlib import Path

import numpy as np
import pytest

from domcone import cones
from domcone.acdo import EllipticSetOracle, acdo_eval, acdo_root, acdo_roots, oracle_from_operator
from domcone.aperture import ConvexBody, body_cone_aperture
from domcone.cones import boundary_sample, check_inclusion, conjugate_oracle, inclusion_verdict
from domcone.errors import NumericalFailureError, PreconditionError
from domcone.operators import (
    Conjugated,
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    Pucci,
    eval_dominative,
    spec_from_dict,
)
from domcone.rules import ROOT_TOL, num_to_json, sobolev_threshold
from domcone.sampling import goe_matrix, goe_stack, make_rng
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


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_q_interval_ends_at_the_sobolev_threshold(n):
    # with the bits of n (p-1) / (n-1), and "inf" at p = inf
    oracle = oracle_from_operator(DominativeP(n=n, p=3.0))
    for p in [2.0, 2.7, 3.0, float(n), 1e6, math.inf]:
        hi = check_inclusion(oracle, None, p, [1.0, 10.0, 1e3], count=1).q_interval["hi"]
        want = "inf" if p == math.inf else n * (p - 1.0) / (n - 1.0)
        assert hi == num_to_json(sobolev_threshold(n, p)) == want
        assert type(hi) is type(want)


def test_catalog_inclusion_verdicts():
    inside = check_inclusion(oracle_from_operator(DominativeP(n=3, p=5.0)), None, 4.0, RADII, count=30)
    assert inside.verdict == "consistent"
    outside = check_inclusion(oracle_from_operator(DominativeP(n=3, p=3.0)), None, 4.0, RADII, count=30)
    assert outside.verdict == "violated"
    assert math.isclose(outside.decay_exponent, -outside.trend_slope)


def test_a_cone_image_has_one_verdict_at_any_scale():
    # the conjugated Pucci sublevel set is a cone, so the same seed draws
    # the same directions at radii scaled by 1e-302, and each worst value
    # is within 20 root_tol of the exact one at either scale; near 1e-300
    # every bisection ends where its midpoint rounds onto an end
    data = Path(__file__).parent / "data" / "conjugated_pucci.json"
    oracle = oracle_from_operator(spec_from_dict(json.loads(data.read_text())))
    assert oracle.distance is None
    big = check_inclusion(oracle, None, 3.0, RADII, count=30)
    tiny = check_inclusion(oracle, None, 3.0, [1e-300, 1e-298, 1e-296], count=30)
    assert tiny.verdict == big.verdict == "violated"
    gaps = [abs(a - b) for a, b in zip(tiny.worst_fp_per_radius, big.worst_fp_per_radius)]
    assert max(gaps) <= 40 * ROOT_TOL


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_rejected(count):
    oracle = oracle_from_operator(DominativeP(n=2, p=3.0))
    with pytest.raises(PreconditionError, match="count"):
        check_inclusion(oracle, None, 4.0, RADII, count=count)
    with pytest.raises(PreconditionError, match="must be at least 1"):
        boundary_sample(oracle, 1e2, count)


@pytest.mark.parametrize("count", [100_001, 10**12])
def test_sample_count_past_the_bound_is_rejected_before_any_draw(monkeypatch, count):
    monkeypatch.setattr(cones, "goe_stack", None)  # a draw would raise TypeError
    oracle = oracle_from_operator(DominativeP(n=2, p=3.0))
    with pytest.raises(PreconditionError, match="must be at most 100000"):
        check_inclusion(oracle, None, 4.0, RADII, count=count)
    with pytest.raises(PreconditionError, match="must be at most 100000"):
        boundary_sample(oracle, 1e2, count)


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
    assert calls  # the witness search, when the oracle is built
    calls.clear()
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
#: closed form, and a Conjugated spec, a congruence image and a user
#: predicate (lockstep bisection; the predicate's witnesses 0 and I are
#: found when it is built, and its stacked form is a row loop).
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


# ---------------------------------------------------------------------------
# Coarse roots, sharpened where the worst value needs them


def _resume_calls(monkeypatch):
    """Record the ``start`` lengths of the sampler's resumed acdo_roots calls."""
    calls = []

    def spy(oracle, stack, tol=ROOT_TOL, start=None):
        if start is not None:
            calls.append(len(start))
        return acdo_roots(oracle, stack, tol, start=start)

    monkeypatch.setattr(cones, "acdo_roots", spy)
    return calls


@pytest.mark.parametrize("kind", sorted(SAMPLER_ORACLES))
def test_resumed_roots_equal_one_shot_roots(kind):
    # coarse, then sharp from where the coarse bisections stopped, equals
    # one call at the sharp tolerance on each oracle the sampler meets, on
    # stacks of seven matrices and of two
    oracle = SAMPLER_ORACLES[kind]()
    R = 1e4
    for k in (7, 2):
        stack = goe_stack(make_rng(25), k, 3, [1.0]) * R
        coarse = acdo_roots(oracle, stack, cones._COARSE_TOL * R)
        resumed = acdo_roots(oracle, stack, ROOT_TOL * R, start=coarse)
        assert resumed == acdo_roots(oracle, stack, ROOT_TOL * R)
        if kind == "closed_form":
            assert all(a is b for a, b in zip(resumed, coarse))


def _kept_probes(oracle, R, count, seed):
    """The probe R*D of each sample that the per-sample loop keeps."""
    rng, out = make_rng(seed), []
    while len(out) < count:
        probe = goe_matrix(rng, oracle.n, radius=1.0) * R
        if not inf_norm(probe.shift(-acdo_eval(oracle, probe, ROOT_TOL * R))) < R / 10.0:
            out.append(probe)
    return out


#: (oracle kind, p, the verdict of check_inclusion at that p).  The
#: congruence image by _B3 lies in no Theta_p, so it has no consistent p.
LAZY_CASES = [
    ("closed_form", 4.0, "consistent"),
    ("closed_form", 6.0, "violated"),
    ("conjugated_spec", 2.0, "consistent"),
    ("conjugated_spec", 4.0, "violated"),
    ("congruence_image", 6.0, "violated"),
    ("user_predicate", 2.5, "consistent"),
    ("user_predicate", 4.0, "violated"),
]


@pytest.mark.parametrize("kind, p, verdict", LAZY_CASES)
def test_lazy_cases_have_their_verdict(kind, p, verdict):
    assert check_inclusion(SAMPLER_ORACLES[kind](), None, p, RADII, count=30, seed=6).verdict == verdict


@pytest.mark.parametrize("R", RADII)
@pytest.mark.parametrize("kind, p, verdict", LAZY_CASES)
def test_sampling_for_a_worst_value_keeps_it_bit_for_bit(monkeypatch, kind, p, verdict, R):
    oracle, count = SAMPLER_ORACLES[kind](), 30
    sharp = np.array([d.a for d in boundary_sample(oracle, R, count, seed=6)])
    resumed = _resume_calls(monkeypatch)
    lazy = boundary_sample(oracle, R, count, seed=6, p=p)
    assert len(lazy) == count
    got = np.array([d.a for d in lazy])
    f_got = DominativeP(3, p).value_stack(got).tolist()
    f_sharp = DominativeP(3, p).value_stack(sharp).tolist()
    worst = max(f_sharp)
    assert np.float64(max(f_got)).tobytes() == np.float64(worst).tobytes()
    i = f_sharp.index(worst)
    assert f_got.index(max(f_got)) == i
    assert got[i].tobytes() == sharp[i].tobytes()
    # every other direction is within the bound of the coarse root it came from
    probes = _kept_probes(oracle, R, count, seed=6)
    for probe, a, b in zip(probes, got, sharp):
        root = acdo_root(oracle, probe, cones._COARSE_TOL * R)
        width = root.bracket[1] - root.bracket[0]
        nrm = inf_norm(probe.shift(-root.value))
        assert np.abs(a - b).max() <= width / max(nrm - 0.5 * width, R / 10.0) + 1e-12
    if kind == "closed_form":
        assert got.tobytes() == sharp.tobytes() and resumed == []
    else:
        # one resumed call after the passes, for a few of the directions
        assert len(resumed) == 1 and 1 <= resumed[0] < count / 2
        assert (got != sharp).any()


def test_tied_worst_values_sharpen_every_direction(monkeypatch):
    # a scaled rotation of Theta_4 on S(2) is Theta_4 again, and every unit
    # boundary direction of it has the same eigenvalues up to sign and
    # order, so the same F_p: all of them are sharpened
    q = np.array([[0.6, -0.8], [0.8, 0.6]])
    oracle = conjugate_oracle(oracle_from_operator(DominativeP(n=2, p=4.0)), InvertibleMap(1.3 * q))
    sharp = boundary_sample(oracle, 1e4, 20, seed=7)
    resumed = _resume_calls(monkeypatch)
    _assert_same_sample(boundary_sample(oracle, 1e4, 20, seed=7, p=3.0), sharp)
    assert resumed == [20]


#: Directions whose projection at R = 1e3 has a norm within 1e-8 R of
#: R/10, on the other side of it from the norm after a bisection to
#: _COARSE_TOL * R: (kind, D, whether the per-sample loop keeps it).
STRADDLES = [
    ("user_predicate", np.diag([1.0, 1.0, 0.86666667]), False),
    ("conjugated_spec", np.diag([1.0, 1.0, 0.89120808]), False),
    ("congruence_image", np.diag([1.0, 1.0, 0.88642044]), True),
]


@pytest.mark.parametrize("kind, matrix, kept", STRADDLES, ids=[s[0] for s in STRADDLES])
@pytest.mark.parametrize("p", [None, 4.0])
def test_norm_near_a_tenth_of_the_radius_is_decided_sharp(monkeypatch, kind, matrix, kept, p):
    oracle, R, positions = SAMPLER_ORACLES[kind](), 1e3, (1, 4, 7)
    coarse = acdo_root(oracle, SymMatrix(matrix) * R, cones._COARSE_TOL * R)
    assert (inf_norm((SymMatrix(matrix) * R).shift(-coarse.value)) < R / 10.0) == kept
    batched_rng = ReplaceAt(26, 3, positions, matrix)
    scalar_rng = ReplaceAt(26, 3, positions, matrix)
    monkeypatch.setattr(cones, "make_rng", lambda seed: batched_rng)
    got = boundary_sample(oracle, R, 10, seed=0, p=p)
    want = _reference_sample(oracle, R, 10, scalar_rng)
    assert batched_rng.drawn == scalar_rng.drawn == (10 if kept else 13)
    if p is None:
        _assert_same_sample(got, want)
    else:
        score = DominativeP(3, p)
        f_got = score.value_stack(np.array([d.a for d in got])).tolist()
        f_want = score.value_stack(np.array([d.a for d in want])).tolist()
        assert np.float64(max(f_got)).tobytes() == np.float64(max(f_want)).tobytes()


def _counted(member):
    calls = []

    def counting(x):
        calls.append(1)
        return member(x)

    return counting, calls


@pytest.mark.parametrize(
    "member, p",
    [
        (_cone_predicate, 4.0),
        (lambda x: eval_dominative(x, 4.0) <= 0.0 or eval_dominative(x, 2.0) <= -1e5, 4.0),
    ],
    ids=["predicate", "union"],
)
def test_check_inclusion_reports_the_worst_of_the_sharp_sample(member, p):
    # the report equals one built from the fully sharpened samples, with
    # fewer membership calls than those samples take
    counting, calls = _counted(member)
    oracle = EllipticSetOracle(member=counting, n=3, description="user")
    rep = check_inclusion(oracle, None, p, RADII, count=40, seed=8)
    lazy_calls = len(calls)
    calls.clear()
    worst = []
    for i, r in enumerate(RADII):
        directions = boundary_sample(oracle, r, 40, seed=8 + 7919 * i)
        worst.append(max(DominativeP(3, p).value_stack(np.array([d.a for d in directions])).tolist()))
    assert np.array(rep.worst_fp_per_radius).tobytes() == np.array(worst).tobytes()
    slope, verdict = inclusion_verdict(RADII, worst, THRESH)
    assert (rep.trend_slope, rep.verdict) == (slope, verdict)
    assert lazy_calls < len(calls)


def _bodies_past_their_aperture():
    """Six n = 4 rotation-closed bodies of three diagonal U(0.1, 1) generators,
    each with 1.03 times its aperture exponent."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(6):
        body = ConvexBody(n=4, generators=tuple(SymMatrix.diag(rng.uniform(0.1, 1, 4)) for _ in range(3)))
        cases.append((EnsembleSupport(body), 1.03 * body_cone_aperture(body).p))
    return cases


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
@pytest.mark.parametrize(
    "spec, p",
    [(ExampleEq(), 2.02), *_bodies_past_their_aperture()],
    ids=["example-2.02", *(f"rot-closed-n4-{i}" for i in range(6))],
)
def test_an_exponent_past_the_exact_one_is_violated(spec, p):
    # The asymptotic cone of the model equation's set is Theta_2, which is
    # not inside Theta_p for p > 2.  A rotation-closed body's set is a cone
    # inside Theta_q for its aperture exponent q alone: for p > q its spike
    # diag(a - 1, -1, ..., -1) has G = 0 and F_p > 0.  The violating
    # directions are a thin set near the spike, which the GOE sample misses,
    # so each case answers consistent.
    rep = check_inclusion(oracle_from_operator(spec), None, p, RADII, count=100, seed=0)
    assert rep.verdict == "violated"
