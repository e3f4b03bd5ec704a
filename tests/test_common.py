"""The shared integrand numerics of dimlift.functionals.common."""

import numpy as np
import pytest

from dimlift.functionals.common import dot

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 3e-310, np.inf, -np.inf, np.nan, -np.nan, 1e308])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_bits_but_nan_sign(a, b):
    """Equal bits, except that a NaN may differ in sign and payload: which
    NaN an operation on two NaNs returns depends on the machine instruction
    and its operand order, which numpy picks by memory layout, so np.sum of
    one product can differ in NaN sign between layouts."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b))


@pytest.mark.parametrize("n", range(1, 11))
def test_dot_has_the_bits_of_the_numpy_sum(n):
    rng = np.random.default_rng(n)
    # magnitudes over many decades, so the order of the additions shows
    a = rng.standard_normal((64, 33, n)) * 10.0 ** rng.integers(-8, 9, (64, 33, n))
    b = rng.standard_normal((64, 33, n))
    cases = {
        "contiguous": (a, b),
        "transposed": (np.asfortranarray(a), b.transpose(1, 0, 2).copy().transpose(1, 0, 2)),
        "axis-first": (a.transpose(2, 0, 1).copy().transpose(1, 2, 0), b),
        "broadcast row": (a, b[0, 0]),
        "broadcast grid": (a[:, :1], b[:1]),
        "broadcast last axis": (a[..., :1], b),
        "scalar": (np.float64(-2.5), b),
        "1-d": (a[0, 0], b[0, 0]),
        "strided": (a[::3, ::2], b[::3, ::2]),
    }
    for name, (x, y) in cases.items():
        assert _same_bits(dot(x, y), np.sum(x * y, axis=-1)), name


@pytest.mark.parametrize("n", range(1, 11))
def test_dot_keeps_signed_zeros_infinities_and_nans(n):
    rng = np.random.default_rng(100 + n)
    a = rng.choice(SPECIAL, (4000, n))
    b = rng.choice(SPECIAL, (4000, n))
    with np.errstate(all="ignore"):
        assert _same_bits_but_nan_sign(dot(a, b), np.sum(a * b, axis=-1))
        assert _same_bits_but_nan_sign(dot(a.T.copy().T, b), np.sum(a.T.copy().T * b, axis=-1))
    # without NaN inputs every bit matches; inf - inf still makes NaNs
    a, b = np.where(np.isnan(a), 2.0, a), np.where(np.isnan(b), -0.0, b)
    with np.errstate(all="ignore"):
        got = dot(a, b)
        assert _same_bits(got, np.sum(a * b, axis=-1))
        assert _same_bits_but_nan_sign(dot(a.T.copy().T, b), got)
    # products that are all -0.0 sum to +0.0, as numpy's do
    neg = np.full((3, n), -0.0)
    assert _same_bits(dot(neg, np.ones(n)), np.zeros(3))
