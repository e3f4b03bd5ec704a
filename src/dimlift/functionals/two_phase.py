"""Two-phase monotonicity: the elliptic product functional, its parabolic
Gaussian analogue, and the lifted finite-n approximant."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..fields import ScalarField, SpaceTimeField
from ..integrate import _shell_mean, integrate_ball, integrate_spacetime
from ..weights import _lifted_dim
from .common import dot, gradsq

__all__ = [
    "TwoPhaseReport",
    "psi",
    "support_fraction",
    "acf_phi",
    "acf_dphi_lower_bound",
    "caffarelli_Phi",
    "lifted_two_phase",
]


@dataclass(frozen=True)
class TwoPhaseReport:
    """Product functional with its two factors."""

    factor1: float
    factor2: float
    value: float


def psi(s: float) -> float:
    """Weight in the two-phase derivative bound:

        psi(s) = log(1/(4s))/2 + 3/2   for 0 < s < 1/4,
        psi(s) = 2 (1 - s)             for 1/4 <= s <= 1.

    Both branches give 3/2 at s = 1/4; psi(1) = 0.
    """
    if s <= 0.0:
        raise ValueError("psi needs s > 0 (positive boundary support)")
    if s > 1.0:
        raise ValueError("s is a sphere fraction, so s <= 1")
    if s < 0.25:
        return 0.5 * math.log(1.0 / (4.0 * s)) + 1.5
    return 2.0 * (1.0 - s)


def support_fraction(v: ScalarField, r: float) -> float:
    """|{v > 0} on the sphere of radius r| divided by the full sphere measure.

    The mean of the indicator is clamped at 1: the weights of a tensor rule
    sum to 1 only up to rounding (1 + 9e-16 at N = 4), and psi refuses s > 1.
    """

    def indicator(y):
        return (np.asarray(v.value(y), float) > 0.0).astype(float)

    return min(1.0, _shell_mean(indicator, v.N, r, r, symmetry=v.symmetry).value)


def _ball_factor(f, v: ScalarField, r: float) -> float:
    """int_{B_r} f(y) |y|^(2-N) dy, N = v.N, under the rule v declares."""
    return integrate_ball(f, v.N, r, radial_power=2.0 - v.N, symmetry=v.symmetry).value


def acf_phi(v1: ScalarField, v2: ScalarField, r: float) -> TwoPhaseReport:
    """phi(r) = r^-4 prod_i int_{B_r} |grad v_i|^2 |y|^(2-N) dy (the weight is 1 when N = 2)."""
    if v1.N != v2.N:
        raise ValueError("both phases must live on the same R^N")
    f1 = _ball_factor(gradsq(v1), v1, r)
    f2 = _ball_factor(gradsq(v2), v2, r)
    # each factor is of size r^2: divided one at a time, neither r^4 nor the
    # product under- or overflows at radii far from 1
    return TwoPhaseReport(factor1=f1, factor2=f2, value=(f1 / (r * r)) * (f2 / (r * r)))


def acf_dphi_lower_bound(v1: ScalarField, v2: ScalarField, h1, h2, r: float) -> float:
    """Lower bound for phi'(r) when Lap v_i >= h_i:

        phi'(r) >= (2/r^4) [ psi(s_1) (int v_1 h_1 |y|^(2-N)) (int |grad v_2|^2 |y|^(2-N))
                           + psi(s_2) (int |grad v_1|^2 |y|^(2-N)) (int v_2 h_2 |y|^(2-N)) ]

    with s_i the boundary support fractions.  Zero support fraction is an
    error.  Each h_i is a scalar callable of y that reads the points
    v_i.value reads.
    """
    s1 = support_fraction(v1, r)
    s2 = support_fraction(v2, r)
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("each phase needs positive support on the boundary sphere")
    energy = acf_phi(v1, v2, r)  # checks that both phases live on one R^N
    vh1 = _ball_factor(lambda y: np.asarray(v1.value(y), float) * np.asarray(h1(y), float), v1, r)
    vh2 = _ball_factor(lambda y: np.asarray(v2.value(y), float) * np.asarray(h2(y), float), v2, r)
    r2 = r * r
    return 2.0 * (psi(s1) * (vh1 / r2) * (energy.factor2 / r2) + psi(s2) * (energy.factor1 / r2) * (vh2 / r2))


def _product(u1: SpaceTimeField, u2: SpaceTimeField, tau: float, energy, n: int | None = None) -> TwoPhaseReport:
    """tau^-2 prod_i int_0^tau int energy(u_i)(x, t) G_{t,n} dx dt, with
    G_{t,None} = G_t."""
    if u1.d != u2.d:
        raise ValueError("both phases must live on the same R^d")
    f1 = integrate_spacetime(energy(u1), u1.d, tau, n=n, coords=u1.coords).value
    f2 = integrate_spacetime(energy(u2), u2.d, tau, n=n, coords=u2.coords).value
    return TwoPhaseReport(factor1=f1, factor2=f2, value=f1 * f2 / tau**2)


def caffarelli_Phi(u1: SpaceTimeField, u2: SpaceTimeField, tau: float) -> TwoPhaseReport:
    """Phi(tau) = tau^-2 prod_i int_0^tau int |grad u_i|^2 G_t dx dt."""
    return _product(u1, u2, tau, gradsq)


def lifted_two_phase(u1: SpaceTimeField, u2: SpaceTimeField, n: int, tau: float) -> TwoPhaseReport:
    """Product functional of the lift in n steps

        Phi_n(tau) = tau^-2 prod_i int_0^tau int ( |grad u_i|^2
                     + (2/nd) (x . grad u_i + t du_i/dt) du_i/dt ) G_{t,n} dx dt,

    which recovers caffarelli_Phi as n -> infinity.
    """
    nd = _lifted_dim(u1.d, n)

    def lifted_energy(u: SpaceTimeField):
        def f(x, t):
            g = np.asarray(u.grad(x, t), dtype=float)
            ut = np.asarray(u.dt(x, t), float)
            radial = dot(np.asarray(x, float), g) + t * ut
            return dot(g, g) + (2.0 / nd) * radial * ut

        return f

    return _product(u1, u2, tau, lifted_energy, n)
