"""Weighted inequalities with explicit constants: the exact minimized
spherical constant, and the elliptic/parabolic estimates on bump fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlift.fields import bump_radial, bump_spacetime, harmonic_polynomial
from dimlift.functionals import (
    carleman_elliptic_check,
    carleman_elliptic_constant,
    carleman_parabolic_check,
)


def _scan_oracle(gamma: float, N: int, ell_max: int = 4000) -> float:
    ells = np.arange(ell_max + 1, dtype=float)
    return float(np.min(np.abs((0.5 * N + ells + gamma - 2.0) * (0.5 * N + ells - gamma))))


def test_constant_spot_values():
    assert carleman_elliptic_constant(1.0, 3) == 0.25
    assert carleman_elliptic_constant(1.0, 4) == 1.0
    for N in (2, 3, 5, 8):
        assert carleman_elliptic_constant(0.5 * N, N) == 0.0  # gamma at an eigenvalue root


@given(gamma=st.floats(-10.0, 50.0), N=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_constant_matches_a_brute_force_scan(gamma, N):
    assert carleman_elliptic_constant(gamma, N) == _scan_oracle(gamma, N)


ELLIPTIC_BUMPS = [
    bump_radial(3, 1.0, 2.0, 4),
    bump_radial(4, 0.5, 1.5, 5),
    bump_radial(3, 1.0, 3.0, 6),
]


@pytest.mark.parametrize("bump", ELLIPTIC_BUMPS, ids=lambda b: b.name)
@pytest.mark.parametrize("gamma", [0.7, 1.5, 2.25])
def test_elliptic_inequality_on_bumps(bump, gamma):
    rep = carleman_elliptic_check(bump, gamma)
    assert rep.satisfied
    assert rep.lhs >= rep.rhs * (1 - 1e-9)
    assert rep.constant_used == carleman_elliptic_constant(gamma, bump.N)


def test_elliptic_check_needs_annular_support():
    with pytest.raises(ValueError):
        carleman_elliptic_check(harmonic_polynomial("x1", 3), 1.5)


PARABOLIC_BUMPS = [
    bump_spacetime(1, 0.5, 1.5, 0.25, 1.0, 4),
    bump_spacetime(1, 1.0, 2.0, 0.5, 1.5, 5),
    bump_spacetime(1, 0.25, 1.25, 0.2, 0.8, 4),
]


@pytest.mark.parametrize("bump", PARABOLIC_BUMPS, ids=lambda b: b.name)
@pytest.mark.parametrize("alpha", [1.0, 1.875, 2.3])
def test_parabolic_inequality_on_bumps(bump, alpha):
    rep = carleman_parabolic_check(bump, alpha)
    assert rep.satisfied
    beta = 2 * alpha - 0.5 - 1.0
    assert math.isclose(rep.beta, beta)
    assert 0.0 < rep.epsilon <= 0.5
    assert math.isclose(rep.constant_used, 8.0 / rep.epsilon**2)


def test_parabolic_parameter_gates():
    bump = PARABOLIC_BUMPS[0]
    with pytest.raises(ValueError):
        carleman_parabolic_check(bump, 1.25)  # beta = 1 is an integer
    with pytest.raises(ValueError):
        carleman_parabolic_check(bump, 0.5)  # beta = -0.5 <= 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_exponents_are_rejected(bad):
    with pytest.raises(ValueError, match="finite gamma"):
        carleman_elliptic_constant(bad, 3)
    with pytest.raises(ValueError, match="finite gamma"):
        carleman_elliptic_check(ELLIPTIC_BUMPS[0], bad)
    with pytest.raises(ValueError, match="finite alpha"):
        carleman_parabolic_check(PARABOLIC_BUMPS[0], bad)
