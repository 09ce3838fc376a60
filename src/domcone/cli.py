"""Command-line front end.

Commands consume matrix / operator / body JSON (or catalog shorthands
like ``pucci:n=2,lam=1,Lam=3``), run seeded deterministic computations,
and emit schema-versioned JSON reports whose ``config`` block echoes
the parsed arguments; ``sobolev --q-sweep`` emits a CSV table instead.
Exit codes: 0 success, 2 when a verified property is violated (report
still written), 1 on input or usage errors.

``check-inclusion`` is the one command of the paper's conclusion: its
``q_interval`` is the range of q for which every viscosity supersolution
has a W^{1,q}_loc gradient, conditional on the inclusion it samples
(``q_interval.conditional_on``).

Reports carry ``schema`` 3: the checks of ``verify`` and ``example`` are
property reports with one set of keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import fields
from typing import TYPE_CHECKING

# Every other domcone module is imported by the handler that uses it, so
# that a one-shot command loads only its own.
from .errors import DomconeError, InputError
from .rules import (
    _MAX_POINTS,
    PROPERTY_TOL,
    ROOT_TOL,
    StructureFlags,
    dim_from_json,
    num_from_json,
    num_to_json,
    sobolev_threshold,
)
from .symmat import InvertibleMap, SymMatrix, eigvals_sym

if TYPE_CHECKING:
    from .aperture import ConvexBody
    from .operators import OperatorSpec

SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Input parsing


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _shorthand_fields(arg: str, kinds, what: str) -> dict:
    """The fields ``{"type": kind, key: value, ...}`` of a ``kind:key=value,...``
    shorthand whose kind is one of ``kinds``."""
    kind, _, params = arg.partition(":")
    if kind not in kinds:
        raise InputError(f"unknown {what} shorthand kind {kind!r}")
    fields = {}
    for chunk in params.split(",") if params else ():
        if "=" not in chunk:
            raise InputError(f"bad shorthand parameter {chunk!r} (expected key=value)")
        key, val = chunk.split("=", 1)
        fields[key.strip()] = val.strip()
    fields["type"] = kind
    return fields


#: The body kinds a shorthand may name, and how each builds its body from
#: the ``aperture`` module and the shorthand's fields.
_BODY_SHORTHANDS = {
    "dominative": lambda ap, kv: ap.dominative_body(dim_from_json(kv["n"]), num_from_json(kv["p"])),
    "pucci": lambda ap, kv: ap.pucci_body(
        dim_from_json(kv["n"]), num_from_json(kv["lam"]), num_from_json(kv["Lam"])
    ),
}

#: The operator kinds a shorthand may name; its fields are a spec's.
_OPERATOR_KINDS = ("dominative", "pucci", "example")


def parse_matrix_arg(arg: str) -> SymMatrix:
    return SymMatrix.from_dict(_load_json_file(arg))


def parse_map_arg(arg: str) -> InvertibleMap:
    return InvertibleMap.from_dict(_load_json_file(arg))


def parse_body_arg(arg: str) -> ConvexBody:
    """A body file, or a catalog shorthand such as ``dominative:n=3,p=4``."""
    from . import aperture

    if ":" in arg and not os.path.exists(arg):
        fields = _shorthand_fields(arg, _BODY_SHORTHANDS, "body")
        try:
            return _BODY_SHORTHANDS[fields["type"]](aperture, fields)
        except KeyError as exc:
            raise InputError(f"shorthand {arg!r} is missing parameter {exc}") from exc
        except ValueError as exc:
            raise InputError(f"bad value in shorthand {arg!r}: {exc}") from exc
    return aperture.ConvexBody.from_dict(_load_json_file(arg))


def parse_operator_arg(arg: str) -> OperatorSpec:
    """An operator spec file, or a shorthand: ``dominative:n=3,p=4``,
    ``pucci:n=2,lam=1,Lam=3``, ``example``; a shorthand is read as the
    spec object of its fields."""
    from .operators import spec_from_dict

    if arg == "example" or (":" in arg and not os.path.exists(arg)):
        return spec_from_dict(_shorthand_fields(arg, _OPERATOR_KINDS, "operator"))
    return spec_from_dict(_load_json_file(arg))


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r}: {exc}") from exc


def _parse_range(text: str) -> list[float]:
    """``a:b:step`` inclusive of a, ending at or before b, of at most
    ``_MAX_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"bad range {text!r}: expected a:b:step")
    try:
        a, b, step = (float(t) for t in parts)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise InputError(f"bad range {text!r}: bounds and step must be finite")
    if step <= 0 or b < a:
        raise InputError(f"bad range {text!r}: need a <= b and step > 0")
    span = (b - a) / step + 1e-9  # +inf where (b - a) / step passes the float range
    if not span < _MAX_POINTS:
        raise InputError(f"bad range {text!r}: more than {_MAX_POINTS} points")
    return [a + k * step for k in range(math.floor(span) + 1)]


# ---------------------------------------------------------------------------
# Report emission


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _wrap(args, result: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "result": result,
    }


# ---------------------------------------------------------------------------
# Command handlers (each returns (report_dict_or_text, exit_code))


def _cmd_eval(args):
    from .operators import evaluate_result

    spec = parse_operator_arg(args.op)
    x = parse_matrix_arg(args.X)
    res = evaluate_result(spec, x)
    return res.to_dict(), 0


def _cmd_aperture(args):
    from .aperture import body_cone_aperture

    body = parse_body_arg(args.body)
    return body_cone_aperture(body).to_dict(), 0


def _cmd_acdo(args):
    from .acdo import acdo_root, oracle_from_operator

    spec = parse_operator_arg(args.op)
    x = parse_matrix_arg(args.X)
    oracle = oracle_from_operator(spec)
    root = acdo_root(oracle, x, tol=args.tol_root)
    return root.to_dict(), 0


def _cmd_check_inclusion(args):
    from .acdo import oracle_from_operator
    from .cones import check_inclusion

    spec = parse_operator_arg(args.op)
    oracle = oracle_from_operator(spec)
    b_map = parse_map_arg(args.B) if args.B else None
    radii = _parse_float_list(args.radii)
    rep = check_inclusion(
        oracle,
        b_map,
        num_from_json(args.p),
        radii,
        count=args.count,
        seed=args.seed,
        root_tol=args.tol_root,
        property_tol=args.tol_property,
    )
    result = rep.to_dict()
    # --tol-root is read only where the distance is bisected: a congruence
    # image under --B, or an operator without a closed form.
    result["root_method"] = (
        "closed-form" if b_map is None and oracle.distance is not None else "bisection"
    )
    return result, 2 if rep.verdict == "violated" else 0


def _cmd_fundsol(args):
    from . import fundsol as fundsol_mod

    point = _parse_float_list(args.at)
    if not all(map(math.isfinite, point)):
        raise InputError("point coordinates must be finite")
    fs = fundsol_mod.FundamentalSolution(n=len(point), p=num_from_json(args.p))
    result = {"n": fs.n, "p": num_to_json(fs.p), "alpha": fs.alpha, "at": point}
    result["value"] = num_to_json(fundsol_mod.w_value(fs, point))
    if any(c != 0.0 for c in point):
        hess = fundsol_mod.w_hessian(fs, point)
        result["gradient"] = fundsol_mod.w_gradient(fs, point).tolist()
        result["hessian"] = hess.to_dict()
        result["eigs"] = eigvals_sym(hess).tolist()
    else:
        result["gradient"] = None
        result["hessian"] = None
        result["eigs"] = None
    return result, 0


def _cmd_sobolev(args):
    from . import fundsol as fundsol_mod

    n = args.n
    p = num_from_json(args.p)
    if args.q_sweep:
        qs = _parse_range(args.q_sweep)
        eps_list = _parse_float_list(args.eps) if args.eps else [1e-2, 1e-4, 1e-6]
        header = ["q"] + [f"value_eps_{e:g}" for e in eps_list]
        rows = [[q] + [fundsol_mod.sobolev_integral(n, p, q, e) for e in eps_list] for q in qs]
        return _render_csv(header, rows), 0
    if args.q is None or args.eps is None:
        raise InputError("sobolev needs --q and --eps (or --q-sweep)")
    eps = num_from_json(args.eps)
    q = float(args.q)
    return {
        "value": fundsol_mod.sobolev_integral(n, p, q, eps),
        "diverges": fundsol_mod.sobolev_diverges(n, p, q),
        "threshold_q": num_to_json(sobolev_threshold(n, p)),
    }, 0


def _checks_result(reports):
    """The ``{"checks", "passed"}`` result of property reports; exit 2 on a violation."""
    passed = all(r.passed for r in reports)
    return {"checks": [r.to_dict() for r in reports], "passed": passed}, 0 if passed else 2


def _cmd_example(args):
    from . import fundsol as fundsol_mod

    cs = _parse_float_list(args.c)
    if not cs:
        raise InputError("example needs at least one c in --c")
    r_grid = _parse_range(args.r_grid)
    return _checks_result([fundsol_mod.example_radial_check(c, r_grid) for c in cs])


_FLAG_NAMES = tuple(f.name for f in fields(StructureFlags))


def _cmd_verify(args):
    from . import acdo as acdo_mod

    spec = parse_operator_arg(args.op)
    oracle = acdo_mod.oracle_from_operator(spec)
    flag_tokens = [t.strip() for t in args.flags.split(",") if t.strip()] if args.flags else []
    for t in flag_tokens:
        if t not in _FLAG_NAMES:
            raise InputError(f"unknown structure flag {t!r}; known: {', '.join(_FLAG_NAMES)}")
    flags = StructureFlags(**{t: True for t in flag_tokens})

    reports = [
        acdo_mod.check_downward_closure(oracle, samples=args.samples, seed=args.seed),
        acdo_mod.check_nondegeneracy(
            oracle, samples=max(10, args.samples // 4), seed=args.seed + 1, tol=args.tol_root
        ),
        acdo_mod.check_lipschitz(
            oracle, samples=args.samples, seed=args.seed + 2, tol=args.tol_root
        ),
    ]
    if flag_tokens:
        reports.append(
            acdo_mod.check_structure(
                oracle, flags, samples=args.samples, seed=args.seed + 3, tol=args.tol_root
            )
        )
    return _checks_result(reports)


def _cmd_suite(args):
    from . import suite as suite_mod

    if args.all:
        groups = None
    elif args.groups:
        groups = [t.strip() for t in args.groups.split(",") if t.strip()]
    else:
        raise InputError("suite needs --all or --groups")
    report = suite_mod.run_suite(groups, seed=args.seed)
    return report, 0 if report["passed"] else 2


_HANDLERS = {
    "eval": _cmd_eval,
    "aperture": _cmd_aperture,
    "acdo": _cmd_acdo,
    "check-inclusion": _cmd_check_inclusion,
    "fundsol": _cmd_fundsol,
    "sobolev": _cmd_sobolev,
    "example": _cmd_example,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts with a negative number, such as the
        # point -1,2 of --at, is a value: no option starts with -<digit>
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise InputError(message)


def _tolerance(text: str) -> float:
    """A finite, positive float; nan would stop bisection before its first step."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number > 0, got {text!r}")
    return value


_SHARED_OPTIONS = {
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "tol-root": dict(
        type=_tolerance,
        default=ROOT_TOL,
        help="tolerance of the distance bisection: absolute for acdo and verify, per "
        "unit of sampling radius for check-inclusion; unused where the distance has a "
        "closed form (every catalog operator but a congruence image), which "
        "check-inclusion states as root_method; verify's property checks allow 3x "
        "this plus 16 eps times the largest distance each compares",
    ),
    "tol-property": dict(
        type=_tolerance,
        default=PROPERTY_TOL,
        help="worst values at or below 5x this count as zero in the inclusion verdict",
    ),
}


def _add_options(sp, *names):
    """``--out`` plus the named shared options; each command declares only
    the options it reads."""
    sp.add_argument("--out", default=None, help="write the report to this path")
    for name in names:
        sp.add_argument("--" + name, **_SHARED_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="domcone",
        description=(
            "Spectrally defined elliptic operators on symmetric matrices: "
            "evaluation, convex-body apertures, signed boundary distances, "
            "asymptotic-cone inclusion tests, and radial fundamental solutions. "
            "Operator/body arguments take a JSON file or a shorthand: "
            "dominative:n=3,p=4 | pucci:n=2,lam=1,Lam=3 | example "
            "(p accepts 'inf').  Reports are JSON; sobolev --q-sweep writes CSV."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an operator at a matrix")
    sp.add_argument("--op", required=True, help="operator spec file or shorthand")
    sp.add_argument("--X", required=True, help="matrix JSON file")
    _add_options(sp)

    sp = sub.add_parser("aperture", help="body cone aperture of a convex body")
    sp.add_argument("--body", required=True, help="body JSON file or shorthand")
    _add_options(sp)

    sp = sub.add_parser("acdo", help="signed distance to the sublevel-set boundary")
    sp.add_argument("--op", required=True)
    sp.add_argument("--X", required=True)
    _add_options(sp, "tol-root")

    sp = sub.add_parser(
        "check-inclusion",
        help="asymptotic-cone inclusion evidence and the gradient-exponent interval it implies",
    )
    sp.add_argument("--op", required=True)
    sp.add_argument("--B", default=None, help="conjugating map JSON file")
    sp.add_argument("--p", required=True, help="target exponent in [2, inf]")
    sp.add_argument("--radii", default="1e2,1e4,1e6", help="comma list, >= 3 decades")
    sp.add_argument("--count", type=int, default=300)
    _add_options(sp, "seed", "tol-root", "tol-property")

    sp = sub.add_parser("fundsol", help="fundamental solution value/gradient/Hessian")
    sp.add_argument("--p", required=True)
    sp.add_argument("--at", required=True, help="comma-separated point coordinates; n is their count")
    _add_options(sp)

    sp = sub.add_parser("sobolev", help="gradient-power integral over an annulus")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--eps", default=None, help="inner radius; comma list in sweep mode")
    sp.add_argument("--q-sweep", dest="q_sweep", default=None, help="a:b:step CSV sweep")
    _add_options(sp)

    sp = sub.add_parser("example", help="verify the model equation's radial family")
    sp.add_argument("--c", default="1,1.5,2", help="comma list of family parameters, c >= 1")
    sp.add_argument("--r-grid", dest="r_grid", default="0.05:0.95:0.05")
    _add_options(sp)

    sp = sub.add_parser("verify", help="property battery for one operator's sublevel set")
    sp.add_argument("--op", required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument(
        "--flags",
        default="",
        help=f"asserted structure, comma list of {{{', '.join(_FLAG_NAMES)}}}",
    )
    _add_options(sp, "seed", "tol-root")

    sp = sub.add_parser("suite", help="run the bundled verification suite")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--groups", default=None, help="comma list of group names")
    _add_options(sp, "seed")

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        result, code = _HANDLERS[args.command](args)
        if isinstance(result, str):  # pre-rendered CSV
            _emit(result, args.out)
        else:
            _emit(_render_json(_wrap(args, result)), args.out)
    except DomconeError as exc:
        report = {
            "schema": SCHEMA_VERSION,
            "error": {"code": exc.code, "message": str(exc)},
        }
        try:
            _emit(_render_json(report), getattr(args, "out", None))
        except DomconeError:
            pass  # the error report is best-effort; the message goes to stderr
        print(f"domcone: error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
