"""Dense symmetric-matrix kernel.

Everything downstream works on elements of S(n), the real symmetric
n-by-n matrices with the trace inner product.  Matrices are small
(2 <= n <= 16), stored dense, and immutable after construction.
Constructors symmetrize their input instead of trusting it.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    NumericalFailureError,
)

MIN_DIM = 2
MAX_DIM = 16

#: Default fuzz for Loewner-order comparisons.
LOEWNER_TOL = 1e-9

#: Relative symmetry tolerance accepted on the wire format.
SYMMETRY_RTOL = 1e-12

_EYE_CACHE: dict[int, np.ndarray] = {}


def _square_array(entries) -> np.ndarray:
    """Float copy of a finite square array of supported dimension."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not MIN_DIM <= n <= MAX_DIM:
        raise InvalidMatrixError(
            f"dimension {n} outside supported range [{MIN_DIM}, {MAX_DIM}]"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("matrix entries must be finite")
    return a


def _entries_from_dict(d: dict) -> np.ndarray:
    """Entries of the ``{"n", "entries"}`` wire format, shape-checked against n."""
    try:
        n = int(d["n"])
        entries = np.array(d["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"malformed matrix object: {exc}") from exc
    if entries.shape != (n, n):
        raise InvalidMatrixError(
            f"entries shape {entries.shape} does not match n={n}"
        )
    return entries


def _eye(n: int) -> np.ndarray:
    eye = _EYE_CACHE.get(n)
    if eye is None:
        eye = np.eye(n)
        eye.setflags(write=False)
        _EYE_CACHE[n] = eye
    return eye


class SymMatrix:
    """Element of S(n).

    Parameters
    ----------
    entries : array_like
        Square n-by-n real array, 2 <= n <= 16, all entries finite.
        The stored matrix is ``(entries + entries.T) / 2``.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = _square_array(entries)
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self.a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "SymMatrix":
        # Internal fast path: `a` must already be a symmetric float array.
        obj = object.__new__(cls)
        a.setflags(write=False)
        obj.a = a
        return obj

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self.a

    def shift(self, t: float) -> "SymMatrix":
        """Return ``X + t*I``."""
        return SymMatrix._wrap(self.a + t * _eye(self.n))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        _check_dims(self, other)
        return SymMatrix._wrap(self.a + other.a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        _check_dims(self, other)
        return SymMatrix._wrap(self.a - other.a)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix._wrap(-self.a)

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix._wrap(self.a * float(c))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SymMatrix({self.a.tolist()!r})"

    def to_dict(self) -> dict:
        """Wire format: ``{"n": int, "entries": [[row], ...]}``, row-major."""
        return {"n": self.n, "entries": self.a.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SymMatrix":
        """Parse the wire format, rejecting asymmetry beyond tolerance."""
        entries = _entries_from_dict(d)
        if entries.size and np.all(np.isfinite(entries)):
            scale = 1.0 + np.max(np.abs(entries))
            asym = np.max(np.abs(entries - entries.T))
            if asym > SYMMETRY_RTOL * scale:
                raise InvalidMatrixError(
                    f"matrix is asymmetric beyond tolerance "
                    f"(max |a_ij - a_ji| = {asym:g}, allowed {SYMMETRY_RTOL * scale:g})"
                )
        return cls(entries)


def _check_dims(x: SymMatrix, y: SymMatrix) -> None:
    if x.n != y.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.n} vs {y.n}")


def eigvals_sym(x: SymMatrix) -> np.ndarray:
    """Ascending eigenvalues of ``x``.

    Returns
    -------
    ndarray of shape (n,), sorted ascending (lambda_1 <= ... <= lambda_n).
    """
    try:
        return np.linalg.eigvalsh(x.a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"symmetric eigensolver failed to converge: {exc}", payload=x
        ) from exc


def eigvals_stack(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a ``(..., n, n)`` stack of
    symmetric arrays, shape ``(..., n)``: one call in place of one
    :func:`eigvals_sym` per matrix, with the same values bit for bit."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"symmetric eigensolver failed to converge: {exc}", payload=a
        ) from exc


def eigh_sym(x: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full decomposition: ascending eigenvalues and orthonormal eigenvectors."""
    try:
        vals, vecs = np.linalg.eigh(x.a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"symmetric eigensolver failed to converge: {exc}", payload=x
        ) from exc
    return vals, vecs


def inner(a: SymMatrix, x: SymMatrix) -> float:
    """Trace pairing <A, X> = tr(AX)."""
    _check_dims(a, x)
    return float(np.sum(a.a * x.a))


def inf_norm(x: SymMatrix) -> float:
    """Spectral norm max{-lambda_1, lambda_n}."""
    ev = eigvals_sym(x)
    return float(max(-ev[0], ev[-1]))


class InvertibleMap:
    """An invertible change of variables acting on S(n) by congruence X -> B^T X B."""

    __slots__ = ("B", "B_inv")

    #: Determinants at or below this magnitude are rejected as singular.
    MIN_ABS_DET = 1e-10

    def __init__(self, B):
        B = _square_array(B)
        det = float(np.linalg.det(B))
        if abs(det) <= self.MIN_ABS_DET:
            raise InvalidMatrixError(
                f"matrix is singular within tolerance (|det| = {abs(det):g})"
            )
        B.setflags(write=False)
        self.B = B
        self.B_inv = np.linalg.inv(B)
        self.B_inv.setflags(write=False)

    @classmethod
    def identity(cls, n: int) -> "InvertibleMap":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def __repr__(self) -> str:
        return f"InvertibleMap({self.B.tolist()!r})"

    def to_dict(self) -> dict:
        return {"n": self.n, "entries": self.B.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "InvertibleMap":
        return cls(_entries_from_dict(d))


def congruence(x: SymMatrix, b) -> SymMatrix:
    """Congruence transform B^T X B.

    Preserves the Loewner order and, by Sylvester's law of inertia, the
    signature of ``x``.  ``b`` may be an :class:`InvertibleMap` or a plain
    square array of matching dimension.
    """
    mat = b.B if isinstance(b, InvertibleMap) else np.asarray(b, dtype=float)
    if mat.shape != (x.n, x.n):
        raise DimensionMismatchError(
            f"congruence dimension mismatch: matrix is {x.n}x{x.n}, "
            f"map is {mat.shape}"
        )
    m = mat.T @ x.a @ mat
    return SymMatrix(m)  # symmetrizes away the float asymmetry
