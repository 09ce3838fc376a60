"""The stacked GOE draw and eigensolve against the scalar ones they
replace, and the stacked draw of points at log-uniform radii."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcone.errors import NumericalFailureError
from domcone.sampling import goe_matrix, goe_stack, make_rng, radial_points
from domcone.symmat import eigvals_stack

RADII = (0.5, 1.0, 2.0, 10.0)


def _sequential(rng, k, n, radii):
    return np.array([goe_matrix(rng, n, radius=radii[i % len(radii)]).a for i in range(k)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 7, 64])
def test_stack_equals_sequential_draws(n, k):
    stacked_rng, scalar_rng = make_rng(3, n), make_rng(3, n)
    stack = goe_stack(stacked_rng, k, n, RADII)
    assert stack.shape == (k, n, n)
    assert np.array_equal(stack, _sequential(scalar_rng, k, n, RADII))
    # the generators end in the same state
    assert np.array_equal(goe_matrix(stacked_rng, n).a, goe_matrix(scalar_rng, n).a)


def test_empty_stack_draws_nothing():
    rng = make_rng(0)
    assert goe_stack(rng, 0, 3, RADII).shape == (0, 3, 3)
    assert np.array_equal(goe_matrix(rng, 3).a, goe_matrix(make_rng(0), 3).a)


class ZeroAt:
    """Generator stub whose ``standard_normal`` returns the wrapped stream
    with its matrix number ``index`` (counted over all draws) set to zero."""

    def __init__(self, seed, n, index):
        self.rng, self.n, self.index, self.drawn = make_rng(seed), n, index, 0

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        stack = g.reshape(-1, self.n, self.n)
        local = self.index - self.drawn
        if 0 <= local < len(stack):
            stack[local] = 0.0
        self.drawn += len(stack)
        return g


@pytest.mark.parametrize("index", [0, 4, 9])
def test_rejected_draw_is_replaced_in_stream_order(index):
    n, k = 3, 10
    stacked_rng, scalar_rng = ZeroAt(1, n, index), ZeroAt(1, n, index)
    stack = goe_stack(stacked_rng, k, n, RADII)
    assert np.array_equal(stack, _sequential(scalar_rng, k, n, RADII))
    assert stacked_rng.drawn == scalar_rng.drawn == k + 1
    assert np.all(np.abs(stack).sum(axis=(1, 2)) > 0.0)
    assert np.array_equal(goe_matrix(stacked_rng, n).a, goe_matrix(scalar_rng, n).a)


def test_stacked_eigensolve_failure_is_a_numerical_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    stack = np.zeros((2, 3, 3))
    with pytest.raises(NumericalFailureError) as info:
        eigvals_stack(stack)
    assert info.value.payload is stack


# ---------------------------------------------------------------------------
# Points at log-uniform radii


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 40),
    n=st.integers(1, 16),
    seed=st.integers(0, 10_000),
    bounds=st.sampled_from([(1e-2, 1e2), (1.0, 1.0), (0.5, 3.0), (1e-100, 1e100)]),
)
def test_radial_points_lie_at_their_radii(k, n, seed, bounds):
    lo, hi = bounds
    radii, points = radial_points(make_rng(seed), k, n, lo, hi)
    assert radii.shape == (k,) and points.shape == (k, n)
    assert np.all((lo <= radii) & (radii <= hi))
    # each row is its radius times a unit vector, to rounding
    assert np.allclose(np.linalg.norm(points / radii[:, None], axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(np.linalg.norm(points, axis=1), radii, rtol=1e-15, atol=0.0)


def test_radial_points_are_reproducible():
    first = radial_points(make_rng(7, 3), 50, 4, 1e-2, 1e2)
    again = radial_points(make_rng(7, 3), 50, 4, 1e-2, 1e2)
    other = radial_points(make_rng(8, 3), 50, 4, 1e-2, 1e2)
    for a, b, c in zip(first, again, other):
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, c)


class ZeroRowsAt:
    """Generator stub: ``uniform`` is the wrapped stream's, and
    ``standard_normal`` returns the wrapped stream with its rows number
    ``positions`` (counted over all rows drawn) set to zero."""

    def __init__(self, seed, positions):
        self.rng, self.positions, self.drawn = make_rng(seed), positions, 0

    def uniform(self, *args):
        return self.rng.uniform(*args)

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        rows = g.reshape(-1, np.shape(g)[-1])
        for i, row in enumerate(rows, start=self.drawn):
            if i in self.positions:
                row[...] = 0.0
        self.drawn += len(rows)
        return g


def _radial_points_one_at_a_time(rng, k, n, lo, hi):
    """The radii of one ``uniform`` draw, then one direction per point,
    each drawn again while its norm is at most 1e-12."""
    radii = np.clip(np.exp(rng.uniform(np.log(lo), np.log(hi), k)), lo, hi)
    points = []
    for r in radii:
        v = rng.standard_normal(n)
        while np.linalg.norm(v) <= 1e-12:
            v = rng.standard_normal(n)
        points.append(r * (v / np.linalg.norm(v[None], axis=1)[0]))
    return radii, np.array(points)


@pytest.mark.parametrize("positions", [(), (0,), (4,), (9,), (0, 3, 9), (9, 10), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)])
def test_zero_directions_are_redrawn_in_stream_order(positions):
    k, n = 10, 3
    stacked_rng, scalar_rng = ZeroRowsAt(5, positions), ZeroRowsAt(5, positions)
    radii, points = radial_points(stacked_rng, k, n, 1e-2, 1e2)
    want_radii, want_points = _radial_points_one_at_a_time(scalar_rng, k, n, 1e-2, 1e2)
    assert radii.tobytes() == want_radii.tobytes()
    assert points.tobytes() == want_points.tobytes()
    assert stacked_rng.drawn == scalar_rng.drawn == k + len(positions)
    assert np.all(np.linalg.norm(points, axis=1) > 0.0)
    # the generators end in the same state
    assert np.array_equal(stacked_rng.rng.standard_normal(3), scalar_rng.rng.standard_normal(3))
