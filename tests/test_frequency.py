"""Frequency functions: constancy on homogeneous fields, monotone sweeps,
and the finite-n approximant converging onto twice the parabolic value."""

import numpy as np
import pytest

from dimlift.errors import DegenerateDenominatorError
from dimlift.fields import (
    ScalarField,
    bump_radial,
    caloric_polynomial,
    harmonic_polynomial,
    heat_kernel_translate,
)
from dimlift.functionals import (
    almgren,
    almgren_dL_lower_bound,
    lifted_frequency,
    monotonicity_sweep,
    poon,
)

TOL = 1e-8


@pytest.mark.parametrize(
    "field,k",
    [
        (harmonic_polynomial("x1", 3), 1),
        (harmonic_polynomial("x1x2", 3), 2),
        (harmonic_polynomial("re_zk", 2, k=3), 3),
        (harmonic_polynomial("re_zk", 2, k=5), 5),
    ],
    ids=lambda a: a.name if isinstance(a, ScalarField) else str(a),
)
def test_elliptic_frequency_equals_the_degree(field, k):
    for r in (0.5, 1.0, 2.0):
        rep = almgren(field, r)
        assert abs(rep.L - k) < TOL
        assert abs(rep.L - r * rep.D / rep.H) < 1e-12 * max(1.0, abs(rep.L))


def test_elliptic_frequency_is_monotone_for_mixtures():
    # x1 + re_z3 is harmonic but inhomogeneous, so L(r) actually climbs from 1 to 3
    base = harmonic_polynomial("x1", 2)
    cubic = harmonic_polynomial("re_zk", 2, k=3)
    v = ScalarField(
        N=2,
        value=lambda y: np.asarray(base.value(y)) + np.asarray(cubic.value(y)),
        grad=lambda y: np.asarray(base.grad(y)) + np.asarray(cubic.grad(y)),
        laplacian=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        name="x1+re_z3",
    )
    rep = monotonicity_sweep(lambda r: almgren(v, r).L, np.geomspace(0.25, 4.0, 12))
    assert rep.violations == 0
    assert rep.values[0] < 1.2 and rep.values[-1] > 2.8


@pytest.mark.parametrize(
    "kind,script_l",
    [("x1", 0.5), ("x1sq", 1.0), ("x1cube", 1.5), ("radial", 1.0)],
)
def test_parabolic_frequency_constancy(kind, script_l):
    u = caloric_polynomial(kind, 1)
    for t in (0.25, 1.0, 4.0):
        rep = poon(u, t)
        assert abs(rep.L - script_l) < TOL


def test_parabolic_frequency_constancy_d2():
    u = caloric_polynomial("x1sq", 2)
    assert abs(poon(u, 0.7).L - 1.0) < TOL


def test_translated_heat_kernel_sweep_has_no_violations():
    u = heat_kernel_translate(1, np.array([1.5]), 2.0)
    rep = monotonicity_sweep(lambda t: poon(u, t).L, np.linspace(0.1, 1.0, 16))
    assert rep.violations == 0
    assert rep.min_slope > 0.0  # strictly climbing, not just non-decreasing


def test_boundary_mass_below_floor_raises():
    v = bump_radial(3, 1.0, 2.0, 4)  # vanishes identically on |y| <= 1
    with pytest.raises(DegenerateDenominatorError):
        almgren(v, 0.5)


@pytest.mark.parametrize("kind,limit", [("x1", 1.0), ("x1sq", 2.0)])
def test_lifted_frequency_is_exact_for_low_degrees(kind, limit):
    u = caloric_polynomial(kind, 1)
    for n in (5, 12, 40):
        assert abs(lifted_frequency(u, n, 1.0) - limit) < TOL


def _cubic_lifted_oracle(n: int, t: float) -> float:
    # moments of the lifted |x1|^3-type integrands against the finite weight:
    # L_n = 3 - T2/T0 with T2 = 576 t^3 / ((n+2)(n+4)) and
    # T0 = t^3 (120 n^2/((n+2)(n+4)) - 144 n/(n+2) + 72); L_n -> 3 = 2 script-L
    T2 = 576.0 * t**3 / ((n + 2) * (n + 4))
    T0 = t**3 * (120.0 * n**2 / ((n + 2) * (n + 4)) - 144.0 * n / (n + 2) + 72.0)
    return 3.0 - T2 / T0


def test_lifted_frequency_cubic_matches_the_moment_oracle():
    u = caloric_polynomial("x1cube", 1)
    for n in (10, 40, 160):
        for t in (0.7, 1.0):
            got = lifted_frequency(u, n, t)
            assert abs(got - _cubic_lifted_oracle(n, t)) < 1e-12


def test_lifted_frequency_error_strictly_decreases():
    u = caloric_polynomial("x1cube", 1)
    errs = [abs(lifted_frequency(u, n, 1.0) - 3.0) for n in (10, 40, 160)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / 3.0 < 0.05


def test_nonhomogeneous_frequency_derivative_bound():
    # Lap v = 0.6: the frequency can decrease, but never faster than the bound
    N = 3

    def val(y):
        y = np.asarray(y, float)
        return y[..., 0] + 0.1 * np.sum(y * y, axis=-1)

    def grad(y):
        y = np.asarray(y, float)
        g = 0.2 * y.copy()
        g[..., 0] += 1.0
        return g

    v = ScalarField(N, val, grad, laplacian=lambda y: np.full(np.asarray(y).shape[:-1], 0.6))
    h = lambda y: np.full(np.asarray(y).shape[:-1], 0.6)
    for r in (0.8, 1.0, 1.3):
        dr = 1e-4
        fd = (almgren(v, r + dr).L - almgren(v, r - dr).L) / (2 * dr)
        assert fd >= almgren_dL_lower_bound(v, h, r) - 1e-4
