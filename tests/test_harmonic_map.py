"""Sphere-valued maps: scaled energy of the equator map, its parabolic
counterpart on the circle map, and the finite-n lifted family."""

import dataclasses
import math

import numpy as np
import pytest

from dimlift.errors import AccuracyError
from dimlift.fields import SphereField, circle_map, equator_map
from dimlift.functionals import (
    hm_dphi_lower_bound,
    hm_phi,
    lifted_hm_Phi,
    monotonicity_sweep,
    struwe_Phi,
)

# r^{2-N} * energy over B_r: the equator map integrates (N-1)/|y|^2, so the
# value is (N-1)|S^{N-1}|/(N-2) at every radius.
EQUATOR_PHI = {3: 8.0 * math.pi, 4: 3.0 * math.pi**2}


@pytest.mark.parametrize("N", [3, 4])
def test_equator_energy_plateau(N):
    vmap = equator_map(N)
    y0 = np.zeros(N)
    for r in (0.5, 1.0, 2.0):
        assert abs(hm_phi(vmap, y0, r) - EQUATOR_PHI[N]) < 1e-6


def test_equator_energy_out_of_range_raises():
    # r^2 overflows at r = 1e160 while |Dv|^2 ~ r^-2 underflows; at 1e150
    # both are in range and the plateau holds
    vmap = equator_map(3)
    assert abs(hm_phi(vmap, np.zeros(3), 1e150) - EQUATOR_PHI[3]) < 1e-6
    with pytest.raises(AccuracyError, match="hm_phi at r = 1e\\+160 is out of floating-point range"):
        hm_phi(vmap, np.zeros(3), 1e160)
    # a subnormal mean has lost digits even where the product is finite
    for tiny, ok in ((1e-300, True), (1e-310, False)):
        faint = dataclasses.replace(circle_map(2), energy=lambda y, e=tiny: np.full(y.shape[:-1], e))
        if ok:
            assert math.isclose(hm_phi(faint, np.zeros(2), 1.0), math.pi * tiny, rel_tol=1e-12)
        else:
            with pytest.raises(AccuracyError, match="ball mean of \\|Dv\\|\\^2 = 1e-310"):
                hm_phi(faint, np.zeros(2), 1.0)


def test_equator_energy_sweep_has_no_violations():
    # N=4 sweeps live in the acceptance suite; each ball quadrature there
    # costs seconds, and the invariant is the same
    vmap = equator_map(3)
    sweep = monotonicity_sweep(lambda r: hm_phi(vmap, np.zeros(3), r), np.geomspace(0.5, 2.0, 9))
    assert sweep.violations == 0


@pytest.mark.parametrize("big", [1e110, 1e160])
def test_equator_jacobian_where_the_cube_of_the_norm_overflows(big, recwarn):
    # |y|^3 overflows past |y| ~ 5.6e102, and y y^T too past ~1e154:
    # Dv = (I - u u^T)/|y| there, 0 along u = e_1 and 1/|y| across it
    jac = equator_map(3).jacobian(np.array([big, 0.0, 0.0]))
    np.testing.assert_array_equal(jac, np.diag([0.0, 1.0 / big, 1.0 / big]))
    # a batch that mixes such points with ordinary ones keeps the ordinary bits
    ys = np.array([[big, 0.0, 0.0], [0.3, -1.2, 2.0]])
    mixed = equator_map(3).jacobian(ys)
    assert mixed[1].tobytes() == equator_map(3).jacobian(ys[1]).tobytes()
    np.testing.assert_array_equal(mixed[0], jac)
    assert not recwarn.list


@pytest.mark.parametrize("small, energy", [(1e-110, 2e220), (1e-170, np.inf)])
def test_equator_map_where_the_norm_or_its_cube_underflows(small, energy, recwarn):
    # |y|^3 underflows below |y| ~ 1e-108, and |y|^2 too below ~1e-162, where
    # np.linalg.norm gives 0 at a point that is not the origin
    vmap = equator_map(3)
    y = np.array([small, 0.0, 0.0])
    np.testing.assert_array_equal(vmap.value(y), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(vmap.jacobian(y), np.diag([0.0, 1.0 / small, 1.0 / small]), rtol=1e-15, atol=0.0)
    assert vmap.energy(y) == pytest.approx(energy, rel=1e-15)  # (N - 1)/|y|^2, inf where it overflows
    np.testing.assert_allclose(vmap.value(np.array([3.0, 4.0, 0.0]) * small), [0.6, 0.8, 0.0], rtol=1e-15)
    # a batch that mixes such points with ordinary ones keeps the ordinary bits
    ys = np.array([[small, 0.0, 0.0], [0.3, -1.2, 2.0]])
    for f in (vmap.value, vmap.jacobian, vmap.energy):
        assert np.asarray(f(ys))[1].tobytes() == np.asarray(f(ys[1])).tobytes()
    assert not recwarn.list
    # the origin itself, alone or in a batch, is still refused
    for origin in (np.zeros(3), np.array([[0.0, 0.0, 0.0], [small, 0.0, 0.0]])):
        with pytest.raises(ValueError, match="undefined at the origin"):
            vmap.jacobian(origin)


def test_equator_map_needs_room():
    with pytest.raises(ValueError):
        equator_map(2)


def test_circle_map_parabolic_value_is_t():
    umap = circle_map()
    for t in (0.25, 0.5, 1.0, 2.0):
        assert abs(struwe_Phi(umap, t) - t) < 1e-8


def test_equator_map_parabolic_value_is_one():
    umap = equator_map(3)
    for t in (0.25, 1.0, 4.0):
        assert abs(struwe_Phi(umap, t) - 1.0) < 1e-8


def test_lifted_values_match_at_every_n():
    umap = circle_map()
    emap = equator_map(3)
    for n in (5, 20, 80):
        for t in (0.5, 1.0):
            assert abs(lifted_hm_Phi(umap, n, t) - t) < 1e-8
        assert abs(lifted_hm_Phi(emap, n, 1.0) - 1.0) < 1e-8


def _phase_map():
    """u(x) = (cos x1^2, sin x1^2) on R^1: |Du|^2 = 4 x1^2 and |x . Du|^2 = 4 x1^4."""

    def value(x):
        s = np.asarray(x, float)[..., 0] ** 2
        return np.stack([np.cos(s), np.sin(s)], axis=-1)

    def jacobian(x):
        x1 = np.asarray(x, float)[..., 0]
        return (2.0 * x1)[..., None, None] * np.stack([-np.sin(x1 * x1), np.cos(x1 * x1)], axis=-1)[..., None]

    return SphereField(
        dim_domain=1, value=value, jacobian=jacobian, energy=lambda x: 4.0 * np.asarray(x, float)[..., 0] ** 2
    )


@pytest.mark.parametrize("t", [0.7, 1.0])
@pytest.mark.parametrize("n", [4, 5, 10, 40, 160, 320])
def test_lifted_phase_map_density_in_closed_form(n, t):
    # under G_{t,n}, E x^2 = 2t and E x^4 = 12 t^2 n / (n + 2), so
    # Phi_n = [n/(n-2)] t 8t - [1/(n-2)] 48 t^2 n / (n + 2); unlike the
    # circle and equator maps, this value moves with n
    want = 8.0 * t * t * n * (n - 4) / ((n - 2) * (n + 2))
    got = lifted_hm_Phi(_phase_map(), n, t)
    # at n = 4 the value is 0, so the miss there is absolute
    assert abs(got - want) <= 1e-12 * (abs(want) if n != 4 else 1.0)


def test_nonhomogeneous_derivative_bound_with_zero_tension():
    vmap = equator_map(3)
    y0 = np.zeros(3)
    H = lambda y: np.zeros_like(np.asarray(y, float))
    for r in (0.8, 1.0):
        dr = 1e-4
        fd = (hm_phi(vmap, y0, r + dr) - hm_phi(vmap, y0, r - dr)) / (2 * dr)
        assert fd >= hm_dphi_lower_bound(vmap, H, y0, r) - 1e-4


def test_scalar_tension_term_is_rejected():
    vmap = equator_map(3)
    H = lambda y: np.zeros(np.asarray(y, float).shape[:-1])
    with pytest.raises(ValueError, match="the harmonic-map right-hand side is vector valued"):
        hm_dphi_lower_bound(vmap, H, np.zeros(3), 1.0)
