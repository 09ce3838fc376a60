"""Bundled verification suite: named property groups runnable from the CLI.

Each group pins its tolerances; a group fails only on a genuine property
violation, never on tolerance drift, so the suite doubles as the
acceptance gate.  All groups are deterministic for a fixed seed.  Each
returns its details, whose ``failures`` list alone decides its pass.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .acdo import (
    acdo_roots,
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
from .errors import InputError
from .fundsol import (
    FundamentalSolution,
    example_radial_check,
    sobolev_diverges,
    sobolev_integral,
    sobolev_integral_quadrature,
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
    spec_to_dict,
)
from .rules import num_to_json, sobolev_threshold
from .sampling import goe_matrix, goe_stack, make_rng, radial_points, random_psd
from .symmat import SymMatrix


def run_aperture_exactness(seed: int) -> dict:
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
                failures.append({"n": n, "p": num_to_json(p), "got": repr(got)})

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

    return {
        "max_dominative_p_error": max_p_err,
        "max_pucci_alpha_error": max_alpha_err,
        "failures": failures,
    }


def _random_bodies(seed: int) -> list[ConvexBody]:
    rng = make_rng(seed, 2)
    bodies = []
    for i in range(20):
        n = 2 + i % 4  # n <= 5
        gens = tuple(random_psd(rng, n) for _ in range(1 + i % 4))
        bodies.append(ConvexBody(n=n, generators=gens, rot_closed=True))
    return bodies


def run_minimal_bound(seed: int) -> dict:
    """c * F_p <= G on 2000 scaled Gaussian samples per body (the bound is
    positively homogeneous, so the samples need no normalizing), with one
    stacked eigensolve per body and an equality witness within 1e-6 found
    by probing rotations of the spike direction; the exact certificate of
    the bound (:func:`bound_certificate`) holds to 1e-9 on every body, and
    ``worst_certificate`` is its least ``min_suffix_sum``.

    Each failure record carries the body (``to_dict``); a bound failure
    also carries the aperture's p and c and each violation's X with its
    margin G(X) - c F_p(X), so that ``eval`` replays it, and a certificate
    failure carries p, c and the certificate."""
    bodies = [dominative_body(4, 3.0), pucci_body(3, 0.7, 2.1)]
    bodies += _random_bodies(seed)
    worst_margin = worst_certificate = math.inf
    worst_gap = 0.0
    failures = []
    for k, body in enumerate(bodies):
        rep = minimal_bound_check(body, samples=2000, seed=seed + 31 * k, tol=1e-9)
        worst_margin = min(worst_margin, rep.worst_margin)
        worst_gap = max(worst_gap, rep.sharpness_gap)
        worst_certificate = min(worst_certificate, rep.certificate["min_suffix_sum"])
        bound = {"body": body.to_dict(), "p": num_to_json(rep.p), "c": rep.c}
        if rep.violations:
            failures.append({**bound, "violations": rep.violations})
        if rep.sharpness_gap > 1e-6:
            failures.append({"body": body.to_dict(), "sharpness_gap": rep.sharpness_gap})
        if rep.certificate["min_suffix_sum"] < -1e-9:
            failures.append({**bound, "certificate": rep.certificate})
    return {
        "bodies": len(bodies),
        "samples_per_body": 2000,
        "worst_margin": worst_margin,
        "worst_sharpness_gap": worst_gap,
        "worst_certificate": worst_certificate,
        "failures": failures,
    }


def run_annihilation(seed: int) -> dict:
    """Scaled residual |G(Hess w(x))| |x|^alpha <= 1e-9 at 500 points per
    body's support function G, |x| in [1e-2, 1e2].  A failure record carries
    the body, p and each violating x, which ``fundsol`` and ``eval`` replay."""
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
        max_resid = max(max_resid, rep.max_deviation)
        if rep.violations:
            failures.append({"body": body.to_dict(), "p": num_to_json(fs.p), "violations": rep.violations})
    return {
        "operators": len(bodies),
        "samples_per_operator": 500,
        "max_scaled_residual": max_resid,
        "failures": failures,
    }


def _bisection(oracle):
    """The oracle without its closed form, so that acdo_root bisects."""
    return replace(oracle, distance=None)


def _closed_form_cases(seed: int) -> dict:
    """Catalog specs paired with sampled matrices for the closed-form check:
    5 specs per type, each with a stack of 5 matrices, n in 2..5 (2 for
    the model equation), radius 2 so that some model-equation samples
    fall below its l2 = -1 edge."""
    rng = make_rng(seed, 10)
    cases = {}
    for i in range(5):
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
            cases.setdefault(name, []).append((spec, goe_stack(rng, 5, spec.n, [2.0])))
    return cases


def _closed_form_errors(spec, xs: np.ndarray) -> list:
    """(X, |bisected - closed-form distance|) for each matrix X of a stack;
    the bisections run in lockstep, each with the bits of ``acdo_root``."""
    roots = acdo_roots(_bisection(oracle_from_operator(spec)), xs)
    xs = [SymMatrix._wrap(x) for x in xs]
    return [(x, abs(root.value - spec.distance(x))) for x, root in zip(xs, roots)]


def _replay(spec, x) -> dict:
    """The spec and matrix of an ``acdo_fidelity`` failure record."""
    return {"spec": spec_to_dict(spec), "X": x.to_dict()}


def run_acdo_fidelity(seed: int) -> dict:
    """Bisection distance of the dominative sublevel sets equals the operator
    to 2e-10 on 1000 samples, and the bisection Lipschitz report is empty;
    these bisect in lockstep.  The shift report F(X + tau I) = F(X) + tau
    is empty on the closed form of F_3 on S(3), where each shifted matrix
    has an eigensolve of its own: a bisection brackets X and X + tau I by
    exact shifts of one bracket, so there the check could not fail.  The
    closed-form distance of the half-space (10 specs) and of the Pucci,
    model-equation, support and shifted sets (5 specs each) matches
    bisection to 2e-10 on 5 matrices per spec, which bisect in lockstep.

    Each failure record carries the spec (``spec_to_dict``) and the matrix
    X (with tau or Y for a shift or Lipschitz violation), so that it can be
    replayed through ``acdo`` from the report alone."""
    failures = []
    max_err = 0.0
    cases = [(2, 3.0), (3, 2.0), (3, math.inf), (5, 4.0)]
    for n, p in cases:
        spec = DominativeP(n=n, p=p)
        rng = make_rng(seed, 4, n, 0 if p == math.inf else int(p))
        xs = goe_stack(rng, 250, n, [1.0])
        roots = acdo_roots(_bisection(oracle_from_operator(spec)), xs)
        for x, root, value in zip(xs, roots, spec.value_stack(xs).tolist()):
            err = abs(root.value - value)
            max_err = max(max_err, err)
            if err > 2e-10:
                failures.append(
                    {"n": n, "p": num_to_json(p), "error": err, **_replay(spec, SymMatrix._wrap(x))}
                )

    spec = DominativeP(n=3, p=3.0)
    nd = check_nondegeneracy(oracle_from_operator(spec), samples=40, seed=seed + 5)
    failures += [{"check": "nondegeneracy", "spec": spec_to_dict(spec), **v} for v in nd.violations]
    spec = DominativeP(n=3, p=math.inf)
    lp = check_lipschitz(_bisection(oracle_from_operator(spec)), samples=60, seed=seed + 6)
    failures += [{"check": "lipschitz", "spec": spec_to_dict(spec), **v} for v in lp.violations]

    rng = make_rng(seed, 7)
    max_half_err = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        spec = LinearTrace(A=random_psd(rng, n), m=float(rng.normal()))
        for x, err in _closed_form_errors(spec, goe_stack(rng, 5, n, [2.0])):
            max_half_err = max(max_half_err, err)
            if err > 2e-10:
                failures.append({"halfspace_error": err, **_replay(spec, x)})

    closed_form_errors = {}
    for name, pairs in _closed_form_cases(seed).items():
        worst = 0.0
        for spec, xs in pairs:
            for x, err in _closed_form_errors(spec, xs):
                worst = max(worst, err)
                if err > 2e-10:
                    failures.append({"closed_form": name, "error": err, **_replay(spec, x)})
        closed_form_errors[name] = worst

    return {
        "samples": 1000,
        "max_distance_error": max_err,
        "nondegeneracy_max_dev": nd.max_deviation,
        "lipschitz_max_excess": lp.max_deviation,
        "max_halfspace_error": max_half_err,
        "closed_form_samples": 25,
        "max_closed_form_error": closed_form_errors,
        "failures": failures,
    }


_EPS_LADDER = (1e-2, 1e-4, 1e-6)


def _grows_at_log_rate(n: int, p: float, q: float) -> bool:
    growth = sobolev_integral(n, p, q, 1e-6) - sobolev_integral(n, p, q, 1e-4)
    return growth >= 0.4 * surface_measure(n) * math.log(1e2)


def run_sobolev_dichotomy(seed: int) -> dict:
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
    return {"max_quadrature_rel_error": max_rel, "failures": failures}


def run_example_equation(seed: int) -> dict:
    """The model equation's radial family solves it to 1e-9, its asymptotic
    cone passes the inclusion test at p = 2 with a square-root decay rate,
    and fails it at p = 2.5.  A radial failure record carries c and each
    violation's r with its residual, which ``example_radial_check`` replays."""
    failures = []
    r_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    max_resid = 0.0
    for c in (1.0, 1.5, 2.0):
        rep = example_radial_check(c, r_grid, tol=1e-9)
        max_resid = max(max_resid, rep.max_deviation)
        if rep.violations:
            failures.append({"c": c, "violations": rep.violations})

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

    return {
        "max_radial_residual": max_resid,
        "inclusion_p2": rep2.to_dict(),
        "inclusion_p2_5": rep25.to_dict(),
        "failures": failures,
    }


def run_permutation_lemma(seed: int) -> dict:
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
        # n, p and a replay a failure: perc_weights(a, dominative_weights(n, p))
        record = {"n": n, "p": num_to_json(p), "a": a.tolist()}
        if err > 1e-12:
            failures.append({**record, "error": err})
        if any(perm[-1] != n - 1 for perm in decomp.permutations):
            failures.append({**record, "kind": "last-index-not-fixed"})
    return {"samples": 100, "max_reconstruction_error": max_err, "failures": failures}


def run_pucci_nonintegrability(seed: int) -> dict:
    """Uniform ellipticity caps gradient integrability: for constants (1, 2)
    in the plane the aperture is 3, the profile solves the extremal equation
    off the origin (at 300 :func:`radial_points`, |x| in [1e-2, 1e2]), and
    its gradient just fails L^4.  A grid failure record carries the spec and
    each violating x, which ``fundsol``/``eval`` replay."""
    n, lam, Lam = 2, 1.0, 2.0
    p = Lam / lam + 1.0  # 3
    q = n * Lam / ((n - 1) * lam)  # 4, the threshold for p = 3
    failures = []

    fs = FundamentalSolution(n=n, p=p)
    _, grid = radial_points(make_rng(seed, 9), 300, n, 1e-2, 1e2)
    spec = Pucci(n=n, lam=lam, Lam=Lam)
    rep = viscosity_grid_check(spec, lambda x: w_hessian(fs, x), grid, tol=1e-9)
    if rep.violations:
        failures.append({"spec": spec_to_dict(spec), "violations": rep.violations})

    if q != sobolev_threshold(n, p):
        failures.append({"kind": "threshold-algebra", "q": q})
    if not _grows_at_log_rate(n, p, q):
        failures.append({"kind": "no-log-divergence", "q": q})

    return {
        "p": p,
        "q": q,
        "grid_points": 300,
        "max_grid_value": rep.max_deviation,
        "failures": failures,
    }


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
    """Run the named groups (all by default, never none) and collect a
    JSON-able report; a group passes when its details hold no failure."""
    names = list(GROUPS) if group_names is None else list(group_names)
    if not names:
        raise InputError("no suite group to run")
    results = []
    for name in names:
        if name not in GROUPS:
            raise InputError(f"unknown suite group {name!r}; known: {', '.join(GROUPS)}")
        details = GROUPS[name](seed)
        results.append({"name": name, "passed": not details["failures"], "details": details})
    return {
        "schema": 1,
        "seed": seed,
        "groups": results,
        "passed": all(g["passed"] for g in results),
    }
