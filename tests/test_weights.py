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


def test_weight_limit_report_where_the_gaussian_underflows():
    # G_1(55) underflows to 0; at n = 10^7 the point is deep inside the
    # support, and the ratio from the two log weights still halves with n
    assert gaussian_weight(1.0, np.array([55.0])) == 0.0
    rep = weight_limit_report(1.0, [55.0], [10**7, 2 * 10**7, 4 * 10**7])
    assert np.all((rep.sup_rel_error > 0.01) & (rep.sup_rel_error < 0.1))
    assert np.all((rep.successive_ratios >= 1.9) & (rep.successive_ratios <= 2.1))
    # outside every support the error is exactly 1, not 0/0
    rep = weight_limit_report(1.0, [60.0, -1e4], [8, 16])
    assert rep.sup_rel_error.tolist() == [1.0, 1.0]


def _reference_log_sphere_area(N):
    return math.log(2.0) + 0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N)


def _reference_log_finite_weight(n, t, x):
    """log G_(t,n)(x) and its support mask, each term formed in the order
    the weights have always formed it: the reference their bits must match."""
    d = x.shape[-1]
    nd = n * d
    r2max = 2.0 * nd * t
    log_pref = _reference_log_sphere_area(nd - d) - _reference_log_sphere_area(nd) - 0.5 * d * np.log(r2max)
    expo = 0.5 * (nd - d - 2)
    rr = np.sum(x * x, axis=-1)
    s = 1.0 - rr / r2max
    if expo == 0.0:
        return np.full(np.shape(rr), log_pref), s >= 0.0
    inside = s > 0.0
    return log_pref + expo * np.log(np.where(inside, s, 1.0)), inside


def _reference_ratio_bound(d, n):
    nd = n * d
    log_c = (
        _reference_log_sphere_area(nd - d)
        - _reference_log_sphere_area(nd)
        + 0.5 * d * np.log(4.0 * np.pi / (2.0 * nd))
        + 0.5 * (nd - d - 2) * np.log1p(-(d + 2.0) / nd)
        + (0.5 * d + 1.0)
    )
    return float(np.exp(log_c))


def _reference_sup_rel_error(t, x, n_list):
    log_g = -np.sum(x * x, axis=-1) / (4.0 * t) - 0.5 * x.shape[-1] * np.log(4.0 * np.pi * t)
    g = np.exp(log_g)
    tail = g == 0.0
    sup = []
    for n in n_list:
        log_gn, inside = _reference_log_finite_weight(n, t, x)
        ratio = np.divide(np.where(inside, np.exp(log_gn), 0.0), g, out=np.zeros_like(g), where=~tail)
        far = tail & inside
        ratio[far] = np.exp(log_gn[far] - log_g[far])
        sup.append(np.abs(ratio - 1.0).max())
    return np.array(sup)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 7.0])
def test_finite_weight_ratio_bound_and_report_keep_their_bits(d, t):
    # every n from the smallest each function takes to 400, at points inside
    # and outside the support, and two far out, where G_t is tiny or 0
    rng = np.random.default_rng(2800 + d)
    x = rng.uniform(-4.0, 4.0, size=(64, d)) * math.sqrt(t)
    x[-2:] = 0.0
    x[-2:, 0] = [45.0 * math.sqrt(t), 60.0 * math.sqrt(t)]
    n_list = range(3 if d == 1 else 2, 401)
    for n in n_list:
        log_w, inside = _reference_log_finite_weight(n, t, x)
        want = np.zeros(len(x))
        np.copyto(want, np.exp(log_w), where=inside)
        assert finite_weight(n, t, x).tobytes() == want.tobytes(), n
        if n * d >= d + 3:
            assert np.float64(ratio_bound(d, n)).tobytes() == np.float64(_reference_ratio_bound(d, n)).tobytes(), n
    for grid in (x, x[:1], x[-1:]):
        sup = _reference_sup_rel_error(t, grid, n_list)
        rep = weight_limit_report(t, grid, list(n_list))
        assert rep.sup_rel_error.tobytes() == sup.tobytes()
        assert rep.successive_ratios.tobytes() == (sup[:-1] / sup[1:]).tobytes()
