"""Seeded, reproducible random sampling.

All randomness in the package flows through a counter-based Philox
generator so that runs are deterministic for a given seed regardless of
evaluation order.

Stacks and single draws share one stream: ``rng.standard_normal((k, n, n))``
yields the same numbers as k calls of ``rng.standard_normal((n, n))``, so
:func:`goe_stack` returns, bit for bit, the matrices of k :func:`goe_matrix`
calls and leaves the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from .symmat import SymMatrix, inf_norm, inf_norm_stack


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for ``seed``; extra ints derive independent child streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


#: Draws with spectral norm at or below this are rejected and drawn again.
_MIN_GOE_NORM = 1e-12


def goe_matrix(rng: np.random.Generator, n: int, radius: float = 1.0) -> SymMatrix:
    """Symmetrized Gaussian matrix (Gaussian orthogonal ensemble) normalized
    to infinity norm ``radius``.

    Rotation-invariant sampling: the eigenvector basis is Haar-distributed,
    which matches the rotationally invariant objects under test.
    """
    while True:
        g = rng.standard_normal((n, n))
        x = SymMatrix._wrap(0.5 * (g + g.T))
        nrm = inf_norm(x)
        if nrm > _MIN_GOE_NORM:
            return x * (radius / nrm)


def goe_stack(rng: np.random.Generator, k: int, n: int, radii) -> np.ndarray:
    """(k, n, n) array of the k samples ``goe_matrix(rng, n, radii[i % len(radii)])``.

    One ``standard_normal((k, n, n))`` draw and one stacked eigensolve
    replace k of each.  A draw whose norm is at most ``_MIN_GOE_NORM`` is
    dropped, as ``goe_matrix`` drops it, and only the shortfall is drawn
    again: the accepted draws keep their stream order, so the output and
    the generator's final state equal those of the k sequential calls.
    """
    x = np.empty((k, n, n))
    nrm = np.empty(k)
    done = 0
    while done < k:
        g = rng.standard_normal((k - done, n, n))
        sym = np.add(g, g.swapaxes(1, 2), out=x[done:])
        sym *= 0.5
        norms = inf_norm_stack(sym)
        keep = norms > _MIN_GOE_NORM
        kept = int(np.count_nonzero(keep))
        if kept < len(keep):  # close the gaps of rejected draws, in stream order
            sym[:kept] = sym[keep]
        nrm[done : done + kept] = norms[keep]
        done += kept
    x *= (np.resize(np.asarray(radii, dtype=float), k) / nrm)[:, None, None]
    return x


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of a Gaussian matrix (sign-fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMatrix:
    """Random positive semidefinite matrix G^T G, scaled."""
    g = rng.standard_normal((n, n))
    return SymMatrix(scale * (g.T @ g))


def random_nsd(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMatrix:
    """Random negative semidefinite matrix."""
    return -random_psd(rng, n, scale)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(n)
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            return v / nrm


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Sample log-uniformly from [lo, hi], lo > 0."""
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
