"""Input rules, JSON number forms, shared defaults and result bases.

Each input rule is defined here once, so one mistake exits with one error
code from every command: dimension agreement (:func:`check_dim`), finite
entries (:func:`_check_finite`), ``"n"`` (:func:`dim_from_json`), numeric
spec fields (:func:`num_from_json`), the exponent (:func:`_check_p`), a
dimension of at least 2 (:func:`_check_n`), Pucci's constants
(:func:`_check_pucci`), the Sobolev arguments (:func:`_check_sobolev`) and
sample counts (:func:`_check_count`).  So are q* (:func:`sobolev_threshold`),
the defaults of ``--tol-root`` and ``--tol-property``, the structure flag
names (the fields of :class:`StructureFlags`) and the bases of the result
records.  The module imports only numpy, the standard library and
``errors``, so a command that parses its input loads nothing else for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, InputError, InvalidMatrixError, PreconditionError

MIN_DIM = 2
MAX_DIM = 16

#: Absolute tolerance of the root finder.
ROOT_TOL = 1e-10

#: Default property tolerance for "numerically zero" worst values.
PROPERTY_TOL = 1e-8

#: Most samples a count, or points a range, may hold: more could exhaust the memory.
_MAX_POINTS = 100_000


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise InvalidMatrixError("matrix entries must be finite")


def check_dim(n, expected, what: str = "matrix", against: str = "operator") -> None:
    """The dimension-agreement rule: a ``what`` of dimension ``n`` meets an
    ``against`` of dimension ``expected``."""
    if n != expected:
        raise DimensionMismatchError(f"{what} dimension {n} does not match {against} dimension {expected}")


def dim_from_json(v) -> int:
    """A dimension from JSON or a shorthand: an integer (an integral float
    or a numeral string will do) in the supported range, not a boolean;
    ``ValueError`` otherwise, which each reader reports with its own code."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"dimension must be an integer, got {v!r}")
    n = int(v)
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    return n


def num_to_json(x: float):
    """Render a float for strict JSON; infinities become strings."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def num_from_json(v) -> float:
    """A number from JSON or a shorthand: a JSON number, or a numeral string
    (``"inf"`` and ``"-inf"`` will do), not a boolean."""
    if isinstance(v, bool):
        raise InputError(f"expected a number, got {v!r}")
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(v)
        except ValueError as exc:
            raise InputError(f"cannot parse number {v!r}") from exc
    return float(v)


def _check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 2.0:
        raise PreconditionError(f"exponent p must lie in [2, inf], got {p}")
    return p


def _check_n(n: int) -> None:
    # n = 1 has no sphere to integrate over and q* = n (p-1)/(n-1) divides by 0
    if n < 2:
        raise PreconditionError(f"dimension must be at least 2, got {n}")


def sobolev_threshold(n: int, p: float) -> float:
    """Critical gradient exponent q* = n (p-1) / (n-1)."""
    _check_n(n)
    if _check_p(p) == math.inf:
        return math.inf
    return n * (p - 1.0) / (n - 1.0)


def _check_pucci(lam: float, Lam: float) -> None:
    """Check Pucci's ellipticity constants as :func:`_check_p` checks p."""
    if not 0.0 < lam <= Lam < math.inf:
        raise PreconditionError(f"require 0 < lam <= Lam < inf, got lam={lam}, Lam={Lam}")


def _check_sobolev(n: int, p: float, q: float, eps: float) -> None:
    """The arguments of the Sobolev integrals: n >= 2, eps in (0, 1), a
    finite q > 0 and a finite p >= 2."""
    _check_n(n)
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < q < math.inf:
        raise PreconditionError(f"gradient exponent q must be finite and positive, got {q}")
    if _check_p(p) == math.inf:
        raise PreconditionError("exponent p must be finite in the Sobolev integrals, got inf")


def _check_count(value: int, what: str = "sample count", minimum: int = 1) -> None:
    """Reject a count below ``minimum`` (a sampled check that runs no sample
    would pass without evidence) or above ``_MAX_POINTS``."""
    if value < minimum:
        raise PreconditionError(f"{what} must be at least {minimum}, got {value}")
    if value > _MAX_POINTS:
        raise PreconditionError(f"{what} must be at most {_MAX_POINTS}, got {value}")


@dataclass(frozen=True)
class StructureFlags:
    """Structural assertions supplied by the caller about the set; only
    asserted flags are checked, and a violation falsifies the assertion,
    not the distance computation."""

    convex: bool = False
    concave_complement: bool = False
    cone: bool = False
    rot_invariant: bool = False


class Record:
    """Base of the result dataclasses; it has no fields of its own.

    Its JSON form is the dataclass fields in order, float fields rendered
    by :func:`num_to_json` so that infinities survive strict JSON.  Wire
    formats read back by a parser are hand-written.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = num_to_json(v) if isinstance(v, float) else v
        return out


@dataclass(kw_only=True)
class Report(Record):
    """Base of the sampled property reports.

    A report passes when it records no violation.  Its JSON form is the
    :class:`Record` form plus ``passed``.
    """

    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**super().to_dict(), "passed": self.passed}


@dataclass
class PropertyReport(Report):
    """Report of a sampled check with one deviation per check, whose
    ``max_deviation`` starts at 0.0 (never negative); ``samples - checks``
    samples were skipped, and a report with no check does not pass."""

    name: str
    samples: int
    checks: int = 0
    max_deviation: float = 0.0

    @property
    def passed(self) -> bool:
        return self.checks > 0 and not self.violations

    def record(self, deviation: float, limit: float, /, **violation) -> None:
        """Count one check; keep ``violation`` unless ``deviation`` <= ``limit`` (a NaN fails)."""
        self.checks += 1
        self.max_deviation = max(self.max_deviation, deviation)
        if not deviation <= limit:
            self.violations.append(violation)
