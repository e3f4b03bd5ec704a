"""Two-phase products: the elliptic pi^2/4 plateau, the parabolic 1/4
plateau, the convex boundary-support weight, and the finite-n family."""

import math

import numpy as np
import pytest

from dimlift.fields import ScalarField, half_space_pair, half_space_power_pair, harmonic_polynomial
from dimlift.functionals import (
    acf_dphi_lower_bound,
    acf_phi,
    caffarelli_Phi,
    lifted_two_phase,
    monotonicity_sweep,
    psi,
    support_fraction,
)


def test_psi_spot_values_are_exact():
    assert psi(0.25) == 1.5
    assert psi(0.5) == 1.0
    assert psi(1.0) == 0.0
    # log branch below 1/4, linear above; both hit 3/2 at the seam
    assert math.isclose(psi(0.25 - 1e-12), 1.5, abs_tol=1e-11)
    assert psi(0.125) == 0.5 * math.log(2.0) + 1.5
    with pytest.raises(ValueError):
        psi(0.0)
    with pytest.raises(ValueError):
        psi(1.2)


def test_half_space_support_fraction():
    vp, vn = half_space_pair(2, kind="elliptic")
    for r in (0.5, 1.0, 2.0):
        assert abs(support_fraction(vp, r) - 0.5) < 1e-12
        assert abs(support_fraction(vn, r) - 0.5) < 1e-12


def test_acf_plateau_at_pi_squared_over_four():
    vp, vn = half_space_pair(2, kind="elliptic")
    for r in (0.5, 1.0, 2.0):
        rep = acf_phi(vp, vn, r)
        assert abs(rep.value - math.pi**2 / 4) < 1e-6
        assert rep.factor1 >= 0.0 and rep.factor2 >= 0.0
        assert math.isclose(rep.value, rep.factor1 * rep.factor2 / r**4, rel_tol=1e-12)
    sweep = monotonicity_sweep(lambda r: acf_phi(vp, vn, r).value, np.geomspace(0.5, 2.0, 8))
    assert sweep.violations == 0


@pytest.mark.parametrize("lam", [1e-150, 1e-100, 1e100, 1e150])
def test_elliptic_product_and_its_bound_are_scale_free(lam):
    # phi of the half-space pair is pi^2/4 at every r.  With v = y1 and
    # h = y1/|y|^2 every integral in the bound is of size r^2, so the bound
    # is the same at every r.  r^4 under- or overflows at these radii.
    vp, vn = half_space_pair(2, kind="elliptic")
    assert abs(acf_phi(vp, vn, lam).value - math.pi**2 / 4) < 1e-6
    v = harmonic_polynomial("x1", 2)
    h = lambda y: np.asarray(y, float)[..., 0] / np.sum(np.asarray(y, float) ** 2, axis=-1)
    ref = acf_dphi_lower_bound(v, v, h, h, 1.0)
    assert ref > 0.0
    assert math.isclose(acf_dphi_lower_bound(v, v, h, h, lam), ref, rel_tol=1e-12)


def test_caffarelli_plateau_at_one_quarter():
    up, un = half_space_pair(1)
    for tau in (0.5, 1.0, 2.0):
        rep = caffarelli_Phi(up, un, tau)
        assert abs(rep.value - 0.25) < 1e-8
        assert math.isclose(rep.value, rep.factor1 * rep.factor2 / tau**2, rel_tol=1e-12)
    sweep = monotonicity_sweep(lambda tau: caffarelli_Phi(up, un, tau).value, np.geomspace(0.5, 2.0, 8))
    assert sweep.violations == 0


def test_lifted_pair_value_is_one_quarter_at_every_n():
    up, un = half_space_pair(1)
    for n in (5, 20, 80):
        rep = lifted_two_phase(up, un, n, 1.0)
        assert abs(rep.value - 0.25) < 1e-8


def test_power_pair_closed_form_and_lifted_oracle():
    # Phi(tau) = 9 tau^2 for the ((x1)_+^3, (x1)_-) pair;
    # the finite-n value is the beta-moment ratio 9 tau^2 nd/(nd + 2)
    u1, u2 = half_space_power_pair(1, 3)
    tau = 0.7
    assert abs(caffarelli_Phi(u1, u2, tau).value - 9 * tau**2) < 1e-8
    for n in (5, 20, 80):
        got = lifted_two_phase(u1, u2, n, tau).value
        want = 9 * tau**2 * n / (n + 2)
        assert abs(got - want) < 1e-10


def test_lifted_power_pair_error_strictly_decreases():
    u1, u2 = half_space_power_pair(1, 3)
    tau = 1.0
    errs = [abs(lifted_two_phase(u1, u2, n, tau).value - 9.0) for n in (10, 40, 160)]
    assert errs[0] > errs[1] > errs[2]


def _elliptic_cube_pair():
    def cube_val(y):
        return np.maximum(np.asarray(y, float)[..., 0], 0.0) ** 3

    def cube_grad(y):
        y = np.asarray(y, float)
        g = np.zeros_like(y)
        g[..., 0] = 3.0 * np.maximum(y[..., 0], 0.0) ** 2
        return g

    def cube_lap(y):
        return 6.0 * np.maximum(np.asarray(y, float)[..., 0], 0.0)

    def neg_val(y):
        return np.maximum(-np.asarray(y, float)[..., 0], 0.0)

    def neg_grad(y):
        y = np.asarray(y, float)
        g = np.zeros_like(y)
        g[..., 0] = -1.0 * (y[..., 0] < 0.0)
        return g

    zero = lambda y: np.zeros(np.asarray(y, float).shape[:-1])
    v1 = ScalarField(2, cube_val, cube_grad, laplacian=cube_lap, name="y1_plus_cube")
    v2 = ScalarField(2, neg_val, neg_grad, laplacian=zero, name="y1_minus")
    return v1, v2, cube_lap, zero


def test_nonhomogeneous_two_phase_derivative_bound():
    v1, v2, h1, h0 = _elliptic_cube_pair()
    for r in (0.8, 1.0, 1.25):
        dr = 1e-4
        fd = (acf_phi(v1, v2, r + dr).value - acf_phi(v1, v2, r - dr).value) / (2 * dr)
        assert fd >= acf_dphi_lower_bound(v1, v2, h1, h0, r) - 1e-4


def test_vanishing_phase_is_rejected_in_the_bound():
    v1, v2, h1, h0 = _elliptic_cube_pair()
    gone = ScalarField(
        2,
        lambda y: np.zeros(np.asarray(y, float).shape[:-1]),
        lambda y: np.zeros_like(np.asarray(y, float)),
        laplacian=lambda y: np.zeros(np.asarray(y, float).shape[:-1]),
    )
    with pytest.raises(ValueError):
        acf_dphi_lower_bound(v1, gone, h1, h0, 1.0)
