"""Bundled verification suite: named property groups runnable from the CLI.

Each group pins its tolerances; a group fails only on a genuine property
violation, never on tolerance drift, so the suite doubles as the
acceptance gate.  All groups are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .acdo import (
    acdo_eval,
    check_lipschitz,
    check_nondegeneracy,
    oracle_from_operator,
)
from .aperture import (
    ConvexBody,
    body_cone_aperture,
    dominative_body,
    dominative_weights,
    minimal_bound_check,
    perc_weights,
    pucci_body,
)
from .cones import check_inclusion
from .fundsol import (
    FundamentalSolution,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
    sobolev_threshold,
    surface_measure,
    verify_annihilation,
    viscosity_grid_check,
    w_hessian,
)
from .operators import (
    DominativeP,
    EnsembleSupport,
    ExampleEq,
    LinearTrace,
    Pucci,
    Shifted,
    eval_dominative,
)
from .sampling import goe_matrix, log_uniform, make_rng, random_psd, random_unit_vector


@dataclass
class GroupResult:
    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def run_aperture_exactness(seed: int) -> GroupResult:
    """Dominative bodies return their exponent; the uniform-ellipticity body
    matches its closed-form aperture.  Tolerance 1e-10."""
    max_p_err = 0.0
    failures = []
    for n in range(2, 7):
        for p in (2.0, 2.5, 3.0, float(n), 10.0, math.inf):
            got = body_cone_aperture(dominative_body(n, p)).p
            if p == math.inf:
                ok = got == math.inf
                err = 0.0 if ok else math.inf
            else:
                err = abs(got - p)
                ok = err <= 1e-10
            max_p_err = max(max_p_err, 0.0 if err == math.inf else err)
            if not ok:
                failures.append({"n": n, "p": "inf" if p == math.inf else p, "got": repr(got)})

    rng = make_rng(seed, 1)
    max_alpha_err = 0.0
    for i in range(10):
        n = 2 + i % 5
        lam = 0.25 + 1.75 * rng.uniform()
        Lam = lam * (1.0 + 4.0 * rng.uniform())
        got = body_cone_aperture(pucci_body(n, lam, Lam)).alpha
        err = abs(got - ((n - 1) * lam / Lam + 1.0))
        max_alpha_err = max(max_alpha_err, err)
        if err > 1e-10:
            failures.append({"n": n, "lam": lam, "Lam": Lam, "alpha_error": err})

    return GroupResult(
        name="aperture_exactness",
        passed=not failures,
        details={
            "max_dominative_p_error": max_p_err,
            "max_pucci_alpha_error": max_alpha_err,
            "failures": failures,
        },
    )


def _random_bodies(seed: int, count: int = 20) -> list[ConvexBody]:
    rng = make_rng(seed, 2)
    bodies = []
    for i in range(count):
        n = 2 + i % 4  # n <= 5
        gens = tuple(random_psd(rng, n) for _ in range(1 + i % 4))
        bodies.append(ConvexBody(n=n, generators=gens, rot_closed=True))
    return bodies


def run_minimal_bound(seed: int) -> GroupResult:
    """c * F_p <= G on 2000 samples per body, with an equality witness within
    1e-6 found by probing rotations of the spike direction."""
    bodies = [dominative_body(4, 3.0), pucci_body(3, 0.7, 2.1)]
    bodies += _random_bodies(seed)
    worst_margin = math.inf
    worst_gap = 0.0
    failures = []
    for k, body in enumerate(bodies):
        rep = minimal_bound_check(body, samples=2000, seed=seed + 31 * k, tol=1e-9)
        worst_margin = min(worst_margin, rep.worst_margin)
        worst_gap = max(worst_gap, rep.sharpness_gap)
        if rep.violations:
            failures.append({"body": rep.body, "violations": len(rep.violations)})
        if rep.sharpness_gap > 1e-6:
            failures.append({"body": rep.body, "sharpness_gap": rep.sharpness_gap})
    return GroupResult(
        name="minimal_bound",
        passed=not failures,
        details={
            "bodies": len(bodies),
            "samples_per_body": 2000,
            "worst_margin": worst_margin,
            "worst_sharpness_gap": worst_gap,
            "failures": failures,
        },
    )


def run_annihilation(seed: int) -> GroupResult:
    """Scaled residual |G(Hess w(x))| |x|^alpha <= 1e-9 at 500 points per
    body's support function G, |x| in [1e-2, 1e2]."""
    rng = make_rng(seed, 3)
    bodies = [
        dominative_body(2, 2.0),
        dominative_body(2, 3.5),
        dominative_body(3, 3.0),
        dominative_body(4, 2.5),
        dominative_body(3, math.inf),
        pucci_body(2, 1.0, 2.0),
        pucci_body(3, 0.5, 1.5),
        pucci_body(4, 1.0, 1.0),
        ConvexBody(n=3, generators=tuple(random_psd(rng, 3) for _ in range(3))),
    ]
    max_resid = 0.0
    failures = []
    for k, body in enumerate(bodies):
        fs = FundamentalSolution(n=body.n, p=body_cone_aperture(body).p)
        rep = verify_annihilation(body, fs, sample_count=500, seed=seed + 17 * k, tol=1e-9)
        max_resid = max(max_resid, rep.max_scaled_residual)
        if rep.violations:
            failures.append(
                {"operator": rep.operator, "max_scaled_residual": rep.max_scaled_residual}
            )
    return GroupResult(
        name="annihilation",
        passed=not failures,
        details={
            "operators": len(bodies),
            "samples_per_operator": 500,
            "max_scaled_residual": max_resid,
            "failures": failures,
        },
    )


def _bisection(oracle):
    """The oracle without its closed form, so that acdo_root bisects."""
    return replace(oracle, distance=None)


def _closed_form_cases(seed: int) -> dict:
    """Catalog specs paired with sampled matrices for the closed-form check:
    25 per type, n in 2..5 (2 for the model equation), radius 2 so that
    some model-equation samples fall below its l2 = -1 edge."""
    rng = make_rng(seed, 10)
    cases = {}
    for i in range(25):
        n = 2 + i % 4
        lam = 0.25 + 1.75 * rng.uniform()
        Lam = lam * (1.0 + 4.0 * rng.uniform())
        gens = tuple(random_psd(rng, n) for _ in range(1 + i % 3))
        specs = {
            "pucci": Pucci(n=n, lam=lam, Lam=Lam),
            "example": ExampleEq(),
            "support_rot_closed": EnsembleSupport(ConvexBody(n=n, generators=gens)),
            "support_plain": EnsembleSupport(ConvexBody(n=n, generators=gens, rot_closed=False)),
            "shifted": Shifted(inner=Pucci(n=n, lam=lam, Lam=Lam), X0=goe_matrix(rng, n)),
        }
        for name, spec in specs.items():
            cases.setdefault(name, []).append((spec, goe_matrix(rng, spec.n, radius=2.0)))
    return cases


def run_acdo_fidelity(seed: int) -> GroupResult:
    """Bisection distance of the dominative sublevel sets equals the operator
    to 2e-10 on 1000 samples, and bisection shift/Lipschitz reports are
    empty.  The closed-form distance of the half-space (50 samples) and of
    the Pucci, model-equation, support and shifted sets (25 samples each)
    matches bisection to 2e-10."""
    failures = []
    max_err = 0.0
    cases = [(2, 3.0), (3, 2.0), (3, math.inf), (5, 4.0)]
    for n, p in cases:
        oracle = _bisection(oracle_from_operator(DominativeP(n=n, p=p)))
        rng = make_rng(seed, 4, n, 0 if p == math.inf else int(p))
        for _ in range(250):
            x = goe_matrix(rng, n, radius=1.0)
            err = abs(acdo_eval(oracle, x) - eval_dominative(x, p))
            max_err = max(max_err, err)
            if err > 2e-10:
                failures.append({"n": n, "p": "inf" if p == math.inf else p, "error": err})

    nd = check_nondegeneracy(
        _bisection(oracle_from_operator(DominativeP(n=3, p=3.0))), samples=40, seed=seed + 5
    )
    if nd.violations:
        failures.append({"nondegeneracy_violations": len(nd.violations)})
    lp = check_lipschitz(
        _bisection(oracle_from_operator(DominativeP(n=3, p=math.inf))), samples=60, seed=seed + 6
    )
    if lp.violations:
        failures.append({"lipschitz_violations": len(lp.violations)})

    rng = make_rng(seed, 7)
    max_half_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        spec = LinearTrace(A=random_psd(rng, n), m=float(rng.normal()))
        oracle = _bisection(oracle_from_operator(spec))
        x = goe_matrix(rng, n, radius=2.0)
        err = abs(acdo_eval(oracle, x) - spec.distance(x))
        max_half_err = max(max_half_err, err)
        if err > 2e-10:
            failures.append({"halfspace_error": err})

    closed_form_errors = {}
    for name, pairs in _closed_form_cases(seed).items():
        worst = 0.0
        for spec, x in pairs:
            err = abs(acdo_eval(_bisection(oracle_from_operator(spec)), x) - spec.distance(x))
            worst = max(worst, err)
            if err > 2e-10:
                failures.append({"closed_form": name, "error": err, "X": x.to_dict()})
        closed_form_errors[name] = worst

    return GroupResult(
        name="acdo_fidelity",
        passed=not failures,
        details={
            "samples": 1000,
            "max_distance_error": max_err,
            "nondegeneracy_max_dev": nd.max_deviation,
            "lipschitz_max_excess": lp.max_deviation,
            "max_halfspace_error": max_half_err,
            "closed_form_samples": 25,
            "max_closed_form_error": closed_form_errors,
            "failures": failures,
        },
    )


_EPS_LADDER = (1e-2, 1e-4, 1e-6)


def _grows_at_log_rate(n: int, p: float, q: float) -> bool:
    growth = sobolev_integral(n, p, q, 1e-6) - sobolev_integral(n, p, q, 1e-4)
    return growth >= 0.4 * surface_measure(n) * math.log(1e2)


def run_sobolev_dichotomy(seed: int = 0) -> GroupResult:
    """Convergence below the threshold exponent, log-rate divergence at and
    above it, and 1e-8 agreement between the antiderivative and
    Gauss-Legendre quadrature."""
    failures = []
    max_rel = 0.0
    for n in range(2, 6):
        for p in sorted({2.0, 3.0, float(n)}):
            q_star = sobolev_threshold(n, p)
            for factor in (0.95, 1.0, 1.05):
                q = factor * q_star
                should_diverge = factor >= 1.0
                if sobolev_diverges(n, p, q) != should_diverge:
                    failures.append({"n": n, "p": p, "q": q, "kind": "exponent-algebra"})
                if _grows_at_log_rate(n, p, q) != should_diverge:
                    failures.append({"n": n, "p": p, "q": q, "kind": "growth-test"})
                for eps in _EPS_LADDER:
                    ana = sobolev_integral(n, p, q, eps)
                    num = sobolev_integral_quadrature(n, p, q, eps)
                    rel = abs(ana - num) / abs(ana)
                    max_rel = max(max_rel, rel)
                    if rel > 1e-8:
                        failures.append(
                            {"n": n, "p": p, "q": q, "eps": eps, "kind": "quadrature", "rel": rel}
                        )
    return GroupResult(
        name="sobolev_dichotomy",
        passed=not failures,
        details={"max_quadrature_rel_error": max_rel, "failures": failures},
    )


def run_example_equation(seed: int) -> GroupResult:
    """The model equation's radial family solves it to 1e-9, its asymptotic
    cone passes the inclusion test at p = 2 with a square-root decay rate,
    and fails it at p = 2.5."""
    failures = []
    r_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    max_resid = 0.0
    for c in (1.0, 1.5, 2.0):
        rep = example_radial_check(c, r_grid, tol=1e-9)
        max_resid = max(max_resid, rep.max_residual)
        if rep.violations:
            failures.append({"c": c, "violations": len(rep.violations)})

    oracle = oracle_from_operator(ExampleEq())
    radii = (1e2, 1e4, 1e6)
    rep2 = check_inclusion(oracle, None, 2.0, radii, count=400, seed=seed + 11)
    if rep2.verdict != "consistent":
        failures.append({"p": 2.0, "verdict": rep2.verdict})
    if not 0.4 <= rep2.decay_exponent <= 0.6:
        failures.append({"p": 2.0, "decay_exponent": rep2.decay_exponent})
    rep25 = check_inclusion(oracle, None, 2.5, radii, count=400, seed=seed + 12)
    if rep25.verdict != "violated":
        failures.append({"p": 2.5, "verdict": rep25.verdict})

    return GroupResult(
        name="example_equation",
        passed=not failures,
        details={
            "max_radial_residual": max_resid,
            "inclusion_p2": rep2.to_dict(),
            "inclusion_p2_5": rep25.to_dict(),
            "failures": failures,
        },
    )


def run_permutation_lemma(seed: int) -> GroupResult:
    """Constructive permutation decomposition reconstructs the dominative
    weight vector exactly (1e-12) on 100 hypothesis-satisfying inputs."""
    rng = make_rng(seed, 8)
    failures = []
    max_err = 0.0
    for i in range(100):
        n = 2 + i % 7  # n in 2..8
        u = rng.uniform()
        p = math.inf if u < 0.2 else 2.0 + 10.0 * rng.uniform()
        p_vec = dominative_weights(n, p)
        head = rng.normal(size=n - 1)
        head += (p_vec[:-1].sum() - head.sum()) / (n - 1)
        a = np.concatenate([head, p_vec[-1:]])
        decomp = perc_weights(a, p_vec)
        err = float(np.max(np.abs(decomp.reconstruct(a) - p_vec)))
        max_err = max(max_err, err)
        if err > 1e-12:
            failures.append({"n": n, "p": "inf" if p == math.inf else p, "error": err})
        if any(perm[-1] != n - 1 for perm in decomp.permutations):
            failures.append({"n": n, "kind": "last-index-not-fixed"})
    return GroupResult(
        name="permutation_lemma",
        passed=not failures,
        details={"samples": 100, "max_reconstruction_error": max_err, "failures": failures},
    )


def run_pucci_nonintegrability(seed: int) -> GroupResult:
    """Uniform ellipticity caps gradient integrability: for constants (1, 2)
    in the plane the aperture is 3, the profile solves the extremal equation
    off the origin, and its gradient just fails L^4."""
    n, lam, Lam = 2, 1.0, 2.0
    p = Lam / lam + 1.0  # 3
    q = n * Lam / ((n - 1) * lam)  # 4, the threshold for p = 3
    failures = []

    fs = FundamentalSolution(n=n, p=p)
    rng = make_rng(seed, 9)
    grid = [
        log_uniform(rng, 1e-2, 1e2) * random_unit_vector(rng, n) for _ in range(300)
    ]
    rep = viscosity_grid_check(Pucci(n=n, lam=lam, Lam=Lam), lambda x: w_hessian(fs, x), grid, tol=1e-9)
    if rep.violations:
        failures.append({"grid_violations": len(rep.violations)})

    if q != sobolev_threshold(n, p):
        failures.append({"kind": "threshold-algebra", "q": q})
    if not _grows_at_log_rate(n, p, q):
        failures.append({"kind": "no-log-divergence", "q": q})

    return GroupResult(
        name="pucci_nonintegrability",
        passed=not failures,
        details={
            "p": p,
            "q": q,
            "grid_points": 300,
            "max_grid_value": rep.max_value,
            "failures": failures,
        },
    )


GROUPS = {
    "aperture_exactness": run_aperture_exactness,
    "minimal_bound": run_minimal_bound,
    "annihilation": run_annihilation,
    "acdo_fidelity": run_acdo_fidelity,
    "sobolev_dichotomy": run_sobolev_dichotomy,
    "example_equation": run_example_equation,
    "permutation_lemma": run_permutation_lemma,
    "pucci_nonintegrability": run_pucci_nonintegrability,
}


def run_suite(group_names=None, seed: int = 0) -> dict:
    """Run the named groups (all by default) and collect a JSON-able report."""
    names = list(GROUPS) if group_names is None else list(group_names)
    results = []
    for name in names:
        if name not in GROUPS:
            raise KeyError(f"unknown suite group {name!r}; known: {', '.join(GROUPS)}")
        results.append(GROUPS[name](seed).to_dict())
    return {
        "schema": 1,
        "seed": seed,
        "groups": results,
        "passed": all(g["passed"] for g in results),
    }
