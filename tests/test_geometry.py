"""Graph-surface densities: ball density with its derivative identity,
backward Gaussian density of a static flow, and the finite-n family."""

import dataclasses
import math

import numpy as np
import pytest

from dimlift import UnsupportedConfigError
from dimlift.fields import graph_linear, graph_paraboloid, graph_plane
from dimlift.functionals import (
    graph_mean_curvature,
    huisken_density,
    lifted_mcf_density,
    mcf_residual,
    monotonicity_sweep,
    ms_density,
    ms_density_tilde,
)
from dimlift.functionals.geometry import _graph_ball_rule
from dimlift.integrate import _sphere_nodes


def _graph_radii_in_80_halvings(surface, y0, v0, r, level):
    # the bisection of _graph_ball_rule with its full 80 halvings
    omega, wa = _sphere_nodes(surface.dim, level)
    lo, hi = np.zeros(len(wa)), np.ones(len(wa))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        dv = (np.asarray(surface.value(y0 + (r * mid)[:, None] * omega, 0.0), float) - v0) / r
        inside = mid * mid + dv * dv <= 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("surface", [graph_plane(2, 0.1), graph_linear([0.4, -0.3]), graph_paraboloid(2, 0.5)])
@pytest.mark.parametrize("level", [24, 48])
def test_graph_bisection_stops_at_its_fixed_point_with_the_bits_of_80_halvings(surface, level):
    calls = []

    def value(y, t):
        calls.append(1)
        return surface.value(y, t)

    y0, r = np.array([0.2, -0.1]), 0.7
    v0 = float(surface.value(y0, 0.0)) + 0.05
    _, _, s_star, _, _ = _graph_ball_rule(dataclasses.replace(surface, value=value), 0.0, y0, v0, r, level)
    want = _graph_radii_in_80_halvings(surface, y0, v0, r, level)
    assert [x.hex() for x in s_star] == [x.hex() for x in want]
    assert len(calls) < 60


def test_plane_density_is_one():
    for surf, amb in [(graph_plane(2, 0.0), 3), (graph_linear([0.3, -0.2]), 3), (graph_plane(3, 0.0), 4)]:
        for r in (0.5, 1.0, 2.0):
            assert abs(ms_density(surf, np.zeros(amb), r) - 1.0) < 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_offset_plane_density_closed_form(dim):
    delta = 0.4
    plane = graph_plane(dim, 0.0)
    center = np.zeros(dim + 1)
    center[-1] = delta
    for r in (0.8, 1.0, 1.5):
        want = (1.0 - delta**2 / r**2) ** (dim / 2)
        assert abs(ms_density(plane, center, r) - want) < 1e-6
    sweep = monotonicity_sweep(lambda r: ms_density(plane, center, r), np.geomspace(0.6, 2.0, 9))
    assert sweep.violations == 0


def test_offset_plane_derivative_identity():
    center = np.array([0.0, 0.0, 0.4])
    plane = graph_plane(2, 0.0)
    rep = ms_density_tilde(plane, None, center, 1.0)
    # d/dr (1 - delta^2/r^2) = 2 delta^2 / r^3
    assert abs(rep.derivative_rhs - 0.32) < 1e-6
    assert abs(rep.theta_tilde - 0.84) < 1e-8
    dr = 1e-3
    fd = (
        ms_density_tilde(plane, None, center, 1.0 + dr).theta_tilde
        - ms_density_tilde(plane, None, center, 1.0 - dr).theta_tilde
    ) / (2 * dr)
    assert abs(fd - rep.derivative_rhs) < 1e-4


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_offset_plane_derivative_closed_form(dim):
    # Theta = (1 - delta^2/r^2)^(d/2), so Theta' = d delta^2 r^-3 (1 - delta^2/r^2)^(d/2 - 1);
    # at d = 1 the slice is two points
    delta = 0.4
    center = np.zeros(dim + 1)
    center[-1] = delta
    for r in (0.6, 1.0, 1.5):
        want = dim * delta**2 / r**3 * (1.0 - delta**2 / r**2) ** (dim / 2 - 1)
        got = ms_density_tilde(graph_plane(dim, 0.0), None, center, r).derivative_rhs
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
def test_plane_densities_hold_at_every_length_scale(dim, scale):
    # Theta and Theta' are functions of delta/r alone, times 1/r for Theta';
    # the rule works in units of r, so no power of r leaves the float range
    plane = graph_plane(dim, 0.0)
    for r0 in (0.6, 1.0, 1.5):
        r = scale * r0
        assert abs(ms_density(plane, np.zeros(dim + 1), r) - 1.0) <= 1e-14
        center = np.zeros(dim + 1)
        center[-1] = delta = scale * 0.4
        q = 1.0 - (delta / r) ** 2
        want = q ** (dim / 2)
        assert abs(ms_density(plane, center, r) - want) <= 1e-12 * want
        rep = ms_density_tilde(plane, None, center, r)
        # with h = 0 the adjusted density is Theta; its rule sums two
        # components per point, each of which must be summed pairwise
        assert abs(rep.theta_tilde - want) <= 1e-14 * want
        want = dim * (delta / r) ** 2 / r * q ** (dim / 2 - 1)
        assert abs(rep.derivative_rhs - want) <= 1e-12 * want


def _with_mean_curvature(surf):
    return surf, lambda y: graph_mean_curvature(surf, y)


@pytest.mark.parametrize(
    "surf, h, w0, r, want",
    [
        (graph_linear([0.3, -0.2]), None, [0.1, 0.0, 0.3], 1.1, 0.09693955572694693),
        (*_with_mean_curvature(graph_paraboloid(2, 0.3)), [0.0, 0.0, 0.0], 0.7, -0.02892510139457889),
        (*_with_mean_curvature(graph_paraboloid(2, 0.3)), [0.0, 0.0, 0.0], 1.0, -0.03802974033007765),
        (*_with_mean_curvature(graph_paraboloid(3, 0.2)), [0.0, 0.0, 0.0, 0.0], 0.9, -0.025513281285123493),
        (*_with_mean_curvature(graph_paraboloid(2, 0.3)), [0.2, -0.1, 0.05], 0.8, -0.024982438134274566),
    ],
    ids=["tilted plane", "paraboloid r=0.7", "paraboloid r=1", "paraboloid d=3", "paraboloid off center"],
)
def test_derivative_rhs_is_pinned(surf, h, w0, r, want):
    # values recorded from an independent parametrization of the slice, with its own
    # surface measure; a slip in the ray measure rho*^(N-1) 2/psi_rho moves them far past 1e-14
    got = ms_density_tilde(surf, h, np.array(w0), r).derivative_rhs
    assert abs(got - want) <= 1e-14 * abs(want)


def test_paraboloid_derivative_identity_with_curvature_term():
    surf = graph_paraboloid(2, 0.3)
    h = lambda y: graph_mean_curvature(surf, y)
    w0 = np.zeros(3)
    dr = 1e-3
    for r in (0.7, 1.0):
        rep = ms_density_tilde(surf, h, w0, r)
        fd = (
            ms_density_tilde(surf, h, w0, r + dr).theta_tilde
            - ms_density_tilde(surf, h, w0, r - dr).theta_tilde
        ) / (2 * dr)
        assert abs(fd - rep.derivative_rhs) < 1e-4


def test_mean_curvature_of_shallow_paraboloid():
    eps, dim = 0.3, 2
    surf = graph_paraboloid(dim, eps)
    assert abs(graph_mean_curvature(surf, np.zeros(dim)) - eps * dim) < 1e-12
    y = np.array([1.0, 1.0])
    q = 1.0 + eps**2 * 2.0
    want = eps * (dim + (dim - 1) * eps**2 * 2.0) / q**1.5
    assert abs(graph_mean_curvature(surf, y) - want) < 1e-12


def test_density_domain_gates():
    plane = graph_plane(2, 0.0)
    with pytest.raises(ValueError):
        ms_density(plane, np.zeros(3), 0.0)
    # center two units above the sheet, ball of radius one misses it
    with pytest.raises(ValueError):
        ms_density_tilde(plane, None, np.array([0.0, 0.0, 2.0]), 1.0)
    # where the adjusted density raises, the plain area ratio is 0
    assert ms_density(plane, np.array([0.0, 0.0, 2.0]), 1.0) == 0.0
    with pytest.raises(ValueError):
        huisken_density(plane, 0.0)


def test_gaussian_density_of_static_graphs():
    for d in (1, 2):
        flat = graph_plane(d, 0.0)
        for t in (0.5, 1.0, 2.0):
            assert abs(huisken_density(flat, t) - (4 * math.pi) ** (d / 2)) < 1e-8
    tilted = graph_linear([0.4])
    assert abs(huisken_density(tilted, 1.0) - (4 * math.pi) ** 0.5) < 1e-8
    const = graph_plane(1, 0.7)
    for t in (0.5, 1.0, 2.0):
        want = (4 * math.pi) ** 0.5 * math.exp(-(0.7**2) / (4 * t))
        assert abs(huisken_density(const, t) - want) < 1e-8


def test_gaussian_density_sweeps_are_clean():
    grid = np.geomspace(0.25, 2.0, 9)
    for surf in (graph_plane(1, 0.0), graph_plane(1, 0.7), graph_linear([0.4])):
        sweep = monotonicity_sweep(lambda t: huisken_density(surf, t), grid)
        assert sweep.violations == 0


def test_static_planes_solve_the_flow_exactly():
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    for surf in (graph_plane(1, 0.0), graph_plane(1, 0.7), graph_linear([0.4])):
        assert np.all(mcf_residual(surf, pts, 1.0) == 0.0)
    # a static paraboloid does not
    assert np.max(np.abs(mcf_residual(graph_paraboloid(2, 0.3), np.zeros((1, 2)), 1.0))) > 0.1


def test_lifted_density_is_exact_on_planes():
    for n in (5, 25, 80):
        got = lifted_mcf_density(graph_plane(1, 0.0), n, 1.0)
        assert abs(got - (4 * math.pi) ** 0.5) < 1e-8
    # n*d = 320 raises the rim factor to the power 158 without overflow
    assert abs(lifted_mcf_density(graph_plane(2, 0.0), 160, 1.0) - 4 * math.pi) < 1e-8
    tilted = graph_linear([0.4])
    want = huisken_density(tilted, 1.0)
    assert abs(lifted_mcf_density(tilted, 25, 1.0) - want) < 1e-8


def test_lifted_density_converges_on_the_constant_graph():
    const = graph_plane(1, 0.7)
    limit = huisken_density(const, 1.0)
    errs = [abs(lifted_mcf_density(const, n, 1.0) - limit) for n in (10, 40, 160)]
    assert errs[0] > errs[1] > errs[2]
    # first-order rate: quadrupling n divides the error by about four
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0
    assert errs[2] < 0.05 * limit


@pytest.mark.parametrize("d", [1, 2])
def test_lifted_density_of_the_constant_graph_in_closed_form(d):
    # Phi_n = (4 pi)^(d/2) (1 - c^2/(2ndt))^((nd-2)/2) exactly; the worst case, about
    # 2.7e-13 at nd = 320, is the finite weight's normalizer losing digits to cancellation
    for c in (0.3, 1.0):
        for n in (4, 10, 40, 160):
            for t in (0.7, 1.0):
                nd = n * d
                want = (4 * math.pi) ** (d / 2) * (1.0 - c * c / (2 * nd * t)) ** ((nd - 2) / 2)
                got = lifted_mcf_density(graph_plane(d, c), n, t)
                assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_lifted_density_of_the_constant_graph_is_scale_free(scale):
    # Phi_n depends on (c, t) only through c^2/t, so (c, t) -> (lambda c, lambda^2 t)
    # keeps the closed form, with R = sqrt(2ndt) far outside [1e-100, 1e100]
    for d in (1, 2):
        for c in (0.3, 1.0):
            for n in (4, 40, 160):
                nd = n * d
                want = (4 * math.pi) ** (d / 2) * (1.0 - c * c / (2 * nd * 0.7)) ** ((nd - 2) / 2)
                got = lifted_mcf_density(graph_plane(d, scale * c), n, scale * scale * 0.7)
                assert abs(got - want) <= 1e-12 * want


def test_lifted_density_is_zero_where_the_weight_misses_the_graph():
    # the sheet at height 10 lies outside the support |x|^2 + u^2 <= 2ndt = 8
    assert lifted_mcf_density(graph_plane(1, 10.0), 4, 1.0) == 0.0


def test_lifted_density_rejects_degenerate_lift():
    with pytest.raises(UnsupportedConfigError):
        lifted_mcf_density(graph_plane(1, 0.0), 2, 1.0)
