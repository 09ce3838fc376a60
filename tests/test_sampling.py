"""The stacked GOE draw and eigensolve against the scalar ones they replace."""

import numpy as np
import pytest

from domcone.errors import NumericalFailureError
from domcone.sampling import goe_matrix, goe_stack, make_rng
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
