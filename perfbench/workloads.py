"""The benchmark's two workloads and the CLI commands of its traced run.

Each workload is built from a seed and exposes ``ops``: the operations of
one round, always the same ones in the same order, so that every run
attempts whole rounds and a failing operation is the same share of the
attempts in every run.  An operation is ``(name, run, check, known)``:
``run()`` is the timed call into domcone, ``check(output)`` returns
``None`` or the reason the output is wrong, and ``known`` marks the one
operation that fails because of a known fault in the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known: bool = False


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# suite


class SuiteWorkload:
    """Repeated in-process passes of ``run_suite(None, seed)``, one pass per
    operation.  Checks: every group passes, the pass's JSON is
    byte-identical to the run's first pass (same seed), and the values
    that follow from closed forms match them."""

    def __init__(self, seed: int, workdir: Path):
        from domcone.suite import GROUPS, run_suite

        self.seed = seed
        self.groups = list(GROUPS)
        self._run_suite = run_suite
        self._reference: str | None = None
        self.ops = [Op("suite.pass", self._pass, self._check)]

    def _pass(self):
        return self._run_suite(None, self.seed)

    def _check(self, report: dict) -> str | None:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
        if self._reference is None:
            self._reference = text
        elif text != self._reference:
            return "suite JSON differs from the first pass with the same seed"
        if report.get("seed") != self.seed:
            return "seed not echoed"
        groups = {g["name"]: g for g in report["groups"]}
        if list(groups) != self.groups:
            return f"groups {list(groups)} != {self.groups}"
        failed = [name for name, g in groups.items() if not g["passed"]]
        if failed or not report["passed"]:
            return f"groups failed: {failed}"
        pucci = groups["pucci_nonintegrability"]["details"]
        ex = groups["example_equation"]["details"]
        n, lam, Lam = 2, 1.0, 2.0  # the group's planar Pucci operator
        p = Lam / lam + 1.0
        return checks.first_error(
            checks.check_number("pucci_nonintegrability p", pucci["p"], p),
            checks.check_number("pucci_nonintegrability q", pucci["q"], n * (p - 1.0) / (n - 1.0)),
            checks.check_verdict(ex["inclusion_p2"], "consistent"),
            checks.check_decay(ex["inclusion_p2"], 0.4, 0.6),
            checks.check_inclusion_fields(ex["inclusion_p2"], 2, 2.0, (1e2, 1e4, 1e6), 400),
            checks.check_verdict(ex["inclusion_p2_5"], "violated"),
        )


# ---------------------------------------------------------------------------
# inclusion

RADII = (1e2, 1e4, 1e6)
COUNT = 100


class InclusionWorkload:
    """A stream of ``check_inclusion`` requests, one per operation, over
    sets whose verdict is known apart from the program.

    Eight requests take catalog oracles and four the generic path (two
    congruence images s*Q, one user predicate, one user union), so the
    median request sits inside the catalog cluster of latencies whether
    or not catalog requests get a closed form.  The case structure is
    fixed; the seed draws the exponents, ellipticity constants, maps and
    sampling seeds.
    """

    def __init__(self, seed: int, workdir: Path):
        from domcone.acdo import EllipticSetOracle, oracle_from_operator
        from domcone.cones import check_inclusion
        from domcone.operators import DominativeP, ExampleEq, Pucci
        from domcone.symmat import InvertibleMap, SymMatrix

        rng = _rng(seed, 2)

        def u(a, b):
            return float(rng.uniform(a, b))

        def request(name, oracle, B, p, n, expect, known=False, decay=None, sub_seed=None):
            sub_seed = int(rng.integers(2**31)) if sub_seed is None else sub_seed

            def run():
                return check_inclusion(oracle, B, p, RADII, count=COUNT, seed=sub_seed).to_dict()

            def check(rep):
                return checks.first_error(
                    checks.check_inclusion_fields(rep, n, p, RADII, COUNT),
                    checks.check_verdict(rep, expect),
                    None if decay is None else checks.check_decay(rep, *decay),
                )

            return Op(name, run, check, known)

        def predicate(member, n, description):
            eye = SymMatrix.identity(n)
            return EllipticSetOracle(
                member=member,
                n=n,
                inside_witness=eye * -2.0,
                outside_witness=eye * 2.0,
                description=description,
            )

        def scaled_rotation(n):
            s = math.exp(u(math.log(0.5), math.log(2.0)))
            return InvertibleMap(s * _orthogonal(rng, n))

        ops = []
        example = oracle_from_operator(ExampleEq())
        # The model equation: ac = Theta_2 with a square-root decay rate.
        ops.append(request("example.p2", example, None, 2.0, 2, "consistent", decay=(0.35, 0.65)))
        ops.append(request("example.p2.5", example, None, 2.5, 2, "violated"))

        dom = {}
        for n, up in ((2, True), (3, False), (4, True)):
            p = u(2.0, 5.0) if up else u(3.5, 6.0)
            q = p + u(0.0, 1.5) if up else p - u(0.5, 1.5)
            dom[n] = (oracle_from_operator(DominativeP(n=n, p=q)), p, checks.dominative_verdict(q, p))
            ops.append(request(f"dominative.n{n}", dom[n][0], None, p, n, dom[n][2]))

        pucci = {}
        for n, above in ((2, False), (3, True), (4, False)):
            lam = u(0.5, 1.5)
            Lam = lam * u(1.0, 3.0)
            p = Lam / lam + 1.0 + (u(0.5, 2.0) if above else 0.0)
            pucci[n] = (oracle_from_operator(Pucci(n=n, lam=lam, Lam=Lam)), p, checks.pucci_verdict(lam, Lam, p))
            ops.append(request(f"pucci.n{n}", pucci[n][0], None, p, n, pucci[n][2]))

        # Congruence images of rotation-invariant cones: same verdict.
        oracle, p, expect = dom[2]
        ops.append(request("conjugated.dominative.n2", oracle, scaled_rotation(2), p, 2, expect))
        oracle, p, expect = pucci[3]
        ops.append(request("conjugated.pucci.n3", oracle, scaled_rotation(3), p, 3, expect))

        # A user predicate: Theta_q evaluated by numpy, not by domcone.
        p = u(2.0, 5.0)
        q = p + u(0.0, 1.5)
        user = predicate(
            lambda x: checks.dominative_value(x.entries, q) <= 0.0, 3, f"user Theta_{q:g}"
        )
        ops.append(request("predicate.n3", user, None, p, 3, checks.dominative_verdict(q, p)))

        # {F_4 <= 0} u {F_2 <= -1e5} on S(3): its asymptotic cone is
        # Theta_2, which is not inside Theta_4.  Fixed inputs: the program
        # answers 'consistent' here because one fitted radius is read as
        # no evidence, so this request fails in every round.
        union = predicate(
            lambda x: checks.dominative_value(x.entries, 4.0) <= 0.0
            or checks.dominative_value(x.entries, 2.0) <= -1e5,
            3,
            "Theta_4 union {F_2 <= -1e5}",
        )
        ops.append(request("union.n3", union, None, 4.0, 3, "not-consistent", known=True, sub_seed=0))
        self.ops = ops


# ---------------------------------------------------------------------------
# CLI commands, for the traced run


def _write_matrix(path: Path, a: np.ndarray) -> str:
    path.write_text(json.dumps({"n": int(a.shape[0]), "entries": a.tolist()}))
    return str(path)


def _sym(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    g = scale * rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, str]:
    """Run a child process to its end; returns its exit code and its
    standard output."""
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        cwd=ROOT, env=_env(), check=False,
    )
    return proc.returncode, proc.stdout.decode()


class CliCommands:
    """Light ``domcone.cli`` commands with checks that use exit codes and
    values recomputed with numpy.  The traced run feeds them to
    ``cli.main`` in process."""

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)
        n = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.5, 1.5))
        Lam = lam * float(rng.uniform(1.0, 4.0))
        pucci = f"pucci:n={n},lam={lam!r},Lam={Lam!r}"

        x_eval = _sym(rng, n)
        x_acdo = _sym(rng, 2)
        asym = _sym(rng, n)
        asym[0, 1] += 1.0
        paths = {
            "eval": _write_matrix(workdir / "eval_X.json", x_eval),
            "acdo": _write_matrix(workdir / "acdo_X.json", x_acdo),
            "asym": _write_matrix(workdir / "asym_X.json", asym),
        }

        fs_p = float(rng.uniform(2.2, 9.0))
        if abs(fs_p - n) < 0.1:
            fs_p += 0.5
        point = (rng.standard_normal(n) * rng.uniform(0.1, 3.0)).tolist()

        so_p = float(rng.uniform(2.0, 8.0))
        # q at least 10% away from q* = n(p-1)/(n-1), on either side
        factor = rng.uniform(0.6, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.4)
        so_q = n * (so_p - 1.0) / (n - 1.0) * float(factor)
        so_eps = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))

        ci_p = float(rng.uniform(3.5, 6.0))
        ci_q = ci_p - float(rng.uniform(0.5, 1.5))
        ci_seed = int(rng.integers(2**31))

        def result(code, out, want_code):
            err = checks.check_exit(code, want_code)
            if err:
                return err, None
            try:
                return None, json.loads(out)
            except json.JSONDecodeError:
                return "output is not JSON", None

        def c_eval(code, out):
            err, rep = result(code, out, 0)
            return err or checks.check_number(
                "eval value", rep["result"]["value"], checks.pucci_value(x_eval, lam, Lam), abs_tol=1e-12
            )

        def c_acdo(code, out):
            err, rep = result(code, out, 0)
            return err or checks.check_number(
                "acdo value", rep["result"]["value"], checks.example_distance(x_acdo),
                rel=0.0, abs_tol=checks.DIST_TOL,
            )

        def c_aperture(code, out):
            err, rep = result(code, out, 0)
            if err:
                return err
            want = checks.pucci_aperture(n, lam, Lam)
            return checks.first_error(
                *(checks.check_number(f"aperture {k}", rep["result"][k], v) for k, v in want.items())
            )

        def c_fundsol(code, out):
            err, rep = result(code, out, 0)
            if err:
                return err
            got, want = rep["result"], checks.fundsol_values(n, fs_p, point)
            return checks.first_error(
                checks.check_number("fundsol alpha", got["alpha"], want["alpha"]),
                checks.check_number("fundsol value", got["value"], want["value"]),
                checks.check_vector("fundsol gradient", got["gradient"], want["gradient"]),
                checks.check_vector("fundsol eigs", got["eigs"], want["eigs"]),
            )

        def c_sobolev(code, out):
            err, rep = result(code, out, 0)
            if err:
                return err
            got, want = rep["result"], checks.sobolev_values(n, so_p, so_q, so_eps)
            if got["diverges"] != want["diverges"]:
                return f"sobolev diverges {got['diverges']!r}, expected {want['diverges']!r}"
            return checks.first_error(
                checks.check_number("sobolev value", got["value"], want["value"]),
                checks.check_number("sobolev threshold", got["threshold_q"], want["threshold_q"]),
            )

        def c_violated(code, out):
            err, rep = result(code, out, 2)
            return err or checks.check_verdict(rep["result"], checks.dominative_verdict(ci_q, ci_p))

        def c_bad_input(code, out):
            err, rep = result(code, out, 1)
            if err:
                return err
            got = rep.get("error", {}).get("code")
            return None if got == "invalid-matrix" else f"error code {got!r}, expected 'invalid-matrix'"

        self.commands = [
            ("eval", ["eval", "--op", pucci, "--X", paths["eval"]], c_eval),
            ("acdo", ["acdo", "--op", "example", "--X", paths["acdo"]], c_acdo),
            ("aperture", ["aperture", "--body", pucci], c_aperture),
            ("fundsol", ["fundsol", "--p", repr(fs_p), "--at=" + ",".join(map(repr, point))], c_fundsol),
            ("sobolev", ["sobolev", "--n", str(n), "--p", repr(so_p), "--q", repr(so_q), "--eps", repr(so_eps)], c_sobolev),
            ("exit2.violated", ["check-inclusion", "--op", f"dominative:n=3,p={ci_q!r}", "--p", repr(ci_p), "--count", "20", "--seed", str(ci_seed)], c_violated),
            ("exit1.asymmetric", ["eval", "--op", f"dominative:n={n},p=3", "--X", paths["asym"]], c_bad_input),
        ]

    @staticmethod
    def _checker(check):
        return lambda result: check(*result)

    def in_process_ops(self) -> list[Op]:
        """The same commands through ``cli.main(argv)`` in this process."""
        from domcone import cli

        def run_main(argv):
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                return code, out.getvalue()

            return run

        return [
            Op("cli.main." + name, run_main(argv), self._checker(check))
            for name, argv, check in self.commands
        ]


WORKLOADS = {
    "suite": SuiteWorkload,
    "inclusion": InclusionWorkload,
}
