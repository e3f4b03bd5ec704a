import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(909)


def _step_sum_rotation(d, n):
    # Helmert's matrix on each coordinate's n steps: its first row is the
    # unit step-sum direction, its other rows orthonormal contrasts.  The d
    # step-sum rows come first, so w = Q y has x = sqrt(n) w_1..d
    helmert = np.zeros((n, n))
    helmert[0] = 1.0 / np.sqrt(n)
    for k in range(1, n):
        helmert[k, :k] = 1.0 / np.sqrt(k * (k + 1))
        helmert[k, k] = -k / np.sqrt(k * (k + 1))
    blocks = np.kron(np.eye(d), helmert)
    order = [i * n for i in range(d)] + [i * n + k for i in range(d) for k in range(1, n)]
    return blocks[order]


@pytest.fixture
def step_sum_rotation():
    """Q(d, n): an orthogonal matrix whose first d rows are the unit step-sum
    directions of the row-major lift, the rotation lifted_field reads in."""
    return _step_sum_rotation
