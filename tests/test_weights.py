"""Gaussian weight, its finite-n surrogate, and the uniform comparison bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlift import (
    finite_weight,
    gaussian_weight,
    integrate_weighted,
    ratio_bound,
    weight_limit_report,
)
from dimlift.errors import UnsupportedConfigError


def _ones(x):
    return np.ones(np.asarray(x, dtype=float).shape[:-1])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_gaussian_weight_is_a_probability_density(d, t):
    assert abs(integrate_weighted(_ones, d, t).value - 1.0) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_finite_weight_is_a_probability_density(d, n, t):
    assert abs(integrate_weighted(_ones, d, t, n=n).value - 1.0) < 1e-10


def test_gaussian_weight_closed_form():
    x = np.array([[0.0], [1.0], [-2.0]])
    t = 0.7
    expected = (4 * math.pi * t) ** -0.5 * np.exp(-x[:, 0] ** 2 / (4 * t))
    assert np.allclose(gaussian_weight(t, x), expected, rtol=1e-15)


def test_finite_weight_vanishes_outside_the_closed_ball():
    d, n, t = 1, 8, 1.0
    r = math.sqrt(2 * n * d * t)
    xs = np.array([[r + 1e-12], [r + 5.0], [-r - 1e-12]])
    assert np.all(finite_weight(n, t, xs) == 0.0)


def test_finite_weight_rim_value_at_zero_exponent():
    # nd = d + 2 makes the density constant on the closed ball, rim included;
    # t = 2 puts the rim radius at exactly 4.0 in floating point
    d, n, t = 2, 2, 2.0
    rim = finite_weight(n, t, np.array([4.0, 0.0]))
    assert rim == finite_weight(n, t, np.zeros(2))
    assert math.isclose(rim, 1.0 / (16 * math.pi), rel_tol=1e-14)


def test_finite_weight_rejects_degenerate_step_counts():
    with pytest.raises(UnsupportedConfigError):
        finite_weight(2, 1.0, np.zeros(1))
    with pytest.raises(UnsupportedConfigError):
        finite_weight(1, 1.0, np.zeros(2))


def test_log_space_prefactor_survives_thousands_of_steps():
    v = finite_weight(10_000, 1.0, np.array([0.3]))
    assert np.isfinite(v) and v > 0.0
    # at fixed x the finite weight is already within O(1/n) of the Gaussian
    assert abs(v - gaussian_weight(1.0, np.array([0.3]))) < 1e-4


@given(
    t=st.floats(0.1, 4.0),
    xr=st.floats(-0.95, 0.95),
    n=st.integers(4, 64),
)
@settings(max_examples=80, deadline=None)
def test_parabolic_scaling_of_the_finite_weight(t, xr, n):
    # G_{t,n}(x) = t^(-d/2) G_{1,n}(x / sqrt t), by substitution in the definition
    d = 1
    x = np.array([xr * math.sqrt(2 * n * d * t)])
    lhs = finite_weight(n, t, x)
    rhs = t ** (-0.5 * d) * finite_weight(n, 1.0, x / math.sqrt(t))
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 5), (3, 4)])
def test_uniform_domination_on_a_grid(d, n):
    t = 1.0
    bound = ratio_bound(d, n)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, size=(400, d)) * math.sqrt(2 * n * d * t)
    assert np.all(finite_weight(n, t, x) <= bound * gaussian_weight(t, x) * (1 + 1e-12))


def test_ratio_bound_decreases_to_one():
    bounds = [ratio_bound(1, n) for n in (4, 8, 32, 128, 512)]
    assert all(b > 1.0 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1.01


def test_weight_limit_report_error_halves_with_n():
    grid = np.linspace(-3.0, 3.0, 201)[:, None]
    rep = weight_limit_report(1.0, grid, [8, 16, 32, 64, 128])
    assert rep.sup_rel_error.shape == (5,)
    assert np.all(np.diff(rep.sup_rel_error) < 0.0)
    assert np.all((rep.successive_ratios >= 1.6) & (rep.successive_ratios <= 2.4))

