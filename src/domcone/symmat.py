"""Dense symmetric-matrix kernel.

Everything downstream works on elements of S(n), the real symmetric
n-by-n matrices with the trace inner product.  Matrices are small
(2 <= n <= 16), stored dense, and immutable after construction.
Constructors symmetrize their input instead of trusting it.

Every eigenvalue in the package comes from one kernel, behind
:func:`eigvals_sym` and :func:`eigvals_stack` (only :func:`eigh_sym`, which
also returns eigenvectors, calls ``np.linalg.eigh``): the gufunc that
``np.linalg.eigvalsh`` calls (LAPACK ``dsyevd`` on the lower triangle),
called directly under the error state ``np.linalg.eigvalsh`` sets.  So
it returns the bits of ``np.linalg.eigvalsh`` on every float64 input, and
a routine that does not converge raises :class:`NumericalFailureError`.
At n <= 5 numpy's Python wrapper costs more than LAPACK does, and the
kernel skips it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrixError, NumericalFailureError
from .rules import MAX_DIM, MIN_DIM, _check_finite, check_dim, dim_from_json

#: Default fuzz for Loewner-order comparisons.
LOEWNER_TOL = 1e-9

#: Relative symmetry tolerance accepted on the wire format.
SYMMETRY_RTOL = 1e-12


def _square_array(entries) -> np.ndarray:
    """Float copy of a square array of supported dimension; its caller
    checks that the entries are finite."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not MIN_DIM <= n <= MAX_DIM:
        raise InvalidMatrixError(
            f"dimension {n} outside supported range [{MIN_DIM}, {MAX_DIM}]"
        )
    return a


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` of each matrix of a ``(..., n, n)`` array, whose
    entries must be finite, and so must their sums: an entry of magnitude
    near 2^1023 can pass the float range.  One finiteness check of the
    result covers both, with no numpy warning; the entries are checked
    apart only to name the fault."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0.5 * (a + a.swapaxes(-1, -2))
    try:
        _check_finite(s)
    except InvalidMatrixError:
        _check_finite(a)
        raise InvalidMatrixError(
            "matrix entries are finite, but their symmetric part (A + A^T) / 2 is not"
        ) from None
    return s


def _entries_from_dict(d: dict) -> np.ndarray:
    """Entries of the ``{"n", "entries"}`` wire format, shape-checked against n."""
    try:
        n = dim_from_json(d["n"])
        entries = np.array(d["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"malformed matrix object: {exc}") from exc
    if entries.shape != (n, n):
        raise InvalidMatrixError(
            f"entries shape {entries.shape} does not match n={n}"
        )
    return entries


class SymMatrix:
    """Element of S(n).

    Parameters
    ----------
    entries : array_like
        Square n-by-n real array, 2 <= n <= 16, all entries finite.
        The stored matrix is ``(entries + entries.T) / 2``, whose entries
        must be finite too.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = _symmetric_part(_square_array(entries))
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
        return SymMatrix._wrap(self.a + t * np.eye(self.n))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        check_dim(other.n, self.n, against="matrix")
        return SymMatrix._wrap(self.a + other.a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        check_dim(other.n, self.n, against="matrix")
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
        _check_symmetric(entries)
        return cls(entries)


def _check_symmetric(a: np.ndarray) -> None:
    """Reject a ``(..., n, n)`` array with an entry that is not finite, or
    holding a matrix asymmetric beyond ``SYMMETRY_RTOL * (1 + max |a_ij|)``,
    with the figures of the first such."""
    _check_finite(a)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1))
    with np.errstate(over="ignore"):  # a difference past the float range is inf, rejected
        asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
    if bad.size:
        worst, allowed = asym.flat[bad[0]], SYMMETRY_RTOL * scale.flat[bad[0]]
        raise InvalidMatrixError(
            f"matrix is asymmetric beyond tolerance "
            f"(max |a_ij - a_ji| = {worst:g}, allowed {allowed:g})"
        )


#: The gufunc ``np.linalg.eigvalsh`` calls with its default ``UPLO="L"``.
_eigvalsh_lo = np.linalg._umath_linalg.eigvalsh_lo


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _eigvalsh(a) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` of a float64 ``(..., n, n)`` array without
    its Python wrapper: the same gufunc, signature and error state, so the
    same bits, and ``LinAlgError`` where the routine does not converge
    (the gufunc then raises the ``invalid`` flag)."""
    return _eigvalsh_lo(a, signature="d->d")


def eigvals_sym(x: SymMatrix) -> np.ndarray:
    """Ascending eigenvalues of ``x``, from the module's kernel: the bits of
    ``np.linalg.eigvalsh(x.a)``, and :class:`NumericalFailureError` (payload
    ``x``) where LAPACK does not converge.

    Returns
    -------
    ndarray of shape (n,), sorted ascending (lambda_1 <= ... <= lambda_n).
    """
    try:
        return _eigvalsh(x.a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"symmetric eigensolver failed to converge: {exc}", payload=x
        ) from exc


def eigvals_stack(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a ``(..., n, n)`` stack of
    symmetric arrays, shape ``(..., n)``: one call of the module's kernel in
    place of one :func:`eigvals_sym` per matrix, with the same values bit
    for bit.  Like ``np.linalg.eigvalsh(a)``, whose bits it returns, it
    reads the lower triangle; where LAPACK does not converge it raises
    :class:`NumericalFailureError` with payload ``a``."""
    try:
        return _eigvalsh(a)
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
    """Trace pairing <A, X> = tr(AX): :func:`inner_stack` on a stack of one."""
    check_dim(x.n, a.n, against="matrix")
    return float(inner_stack(a, x.a[None])[0])


def inner_stack(a: SymMatrix, x: np.ndarray) -> np.ndarray:
    """Trace pairing of ``a`` with each matrix of a ``(k, n, n)`` stack:
    :func:`_pairings`, rescaled by :func:`_paired`."""
    return _paired(lambda y, _: _pairings(a.a[None], y), x, np.abs(a.a).max())[:, 0]


def _pairings(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trace pairings, shape ``(k, g)``, of a ``(k, n, n)`` stack ``x`` with a
    ``(g, n, n)`` array ``gens``, each summed as ``np.sum`` of one matrix."""
    return (gens * x[:, None]).reshape(len(x), len(gens), -1).sum(-1)


def _paired(rule, a: np.ndarray, scale: float, m: float = 0.0) -> np.ndarray:
    """``rule(a, m)``, shape ``(k,)`` or ``(k, g)``, of a ``(k, n, n)`` stack
    ``a``, for a rule of trace pairings with matrices of entries at most
    ``scale`` in size, less m, positively homogeneous of degree one in (X, m).

    A row not all finite is 2^j rule(2^-j X, 2^-j m) instead, for the least
    j >= 0 that puts each product of an entry of X with one of size
    ``scale`` below 2^1014: a sum of 16^2 such is below 2^1022, and less
    2^-j m, for j > 0, below 2^1024 (at j = 0 only m or a division passed
    the float range, as the exact value does).  Powers of two scale exactly
    but for subnormal results: each row keeps its bits where it is finite,
    is finite wherever the exact value is, and is +-inf, with no numpy
    warning, elsewhere.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = rule(a, m)
        if not np.isfinite(v).all():
            far = np.flatnonzero(~np.isfinite(v.reshape(len(v), -1)).all(-1))
            e = np.frexp(np.abs(a[far]).max((-2, -1)))[1] + np.frexp(scale)[1]
            j = np.maximum(e - 1014, 0)
            jv = j.reshape(-1, *[1] * (v.ndim - 1))  # j against the rows of v
            v[far] = np.ldexp(rule(np.ldexp(a[far], -j[:, None, None]), np.ldexp(m, -jv)), jv)
    return v


def inf_norm(x: SymMatrix) -> float:
    """Spectral norm max{-lambda_1, lambda_n}."""
    ev = eigvals_sym(x)
    return float(max(-ev[0], ev[-1]))


def inf_norm_stack(a: np.ndarray) -> np.ndarray:
    """:func:`inf_norm` of each matrix of a ``(k, n, n)`` symmetric stack,
    from one stacked eigensolve."""
    ev = eigvals_stack(a)
    return np.maximum(-ev[:, 0], ev[:, -1])


class InvertibleMap:
    """An invertible change of variables acting on S(n) by congruence X -> B^T X B."""

    __slots__ = ("B", "B_inv")

    #: A map whose smallest singular value is at most this fraction of its
    #: largest is rejected as singular; c B is judged as B is.
    SINGULAR_RTOL = 1e-10

    def __init__(self, B):
        B = _square_array(B)
        _check_finite(B)
        s = np.linalg.svd(B, compute_uv=False)
        if s[-1] <= self.SINGULAR_RTOL * s[0]:
            raise InvalidMatrixError(
                f"matrix is singular within tolerance "
                f"(singular values from {s[0]:g} down to {s[-1]:g})"
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
    """Congruence transform B^T X B: :func:`congruence_stack` on a stack of one.

    Preserves the Loewner order and, by Sylvester's law of inertia, the
    signature of ``x``.  ``b`` may be an :class:`InvertibleMap` or a plain
    square array of matching dimension.
    """
    mat = b.B if isinstance(b, InvertibleMap) else np.asarray(b, dtype=float)
    check_dim(mat.shape, (x.n, x.n), "map", "matrix")
    return SymMatrix._wrap(congruence_stack(x.a[None], mat)[0])


def congruence_stack(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """B^T X B for the array B = ``mat`` and each matrix X of a ``(k, n, n)``
    stack: ``(mat^T X) mat``, then the checked symmetrization of
    :class:`SymMatrix`, which alone reports a product past the float range
    (with no numpy warning)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = (mat.T @ a) @ mat
    return _symmetric_part(m)
