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
    """|{v > 0} on the sphere of radius r| divided by the full sphere measure."""

    def indicator(y):
        return (np.asarray(v.value(y), float) > 0.0).astype(float)

    return _shell_mean(indicator, v.N, r, r).value


def acf_phi(v1: ScalarField, v2: ScalarField, r: float) -> TwoPhaseReport:
    """phi(r) = r^-4 prod_i int_{B_r} |grad v_i|^2 |y|^(2-N) dy (the weight is 1 when N = 2)."""
    if v1.N != v2.N:
        raise ValueError("both phases must live on the same R^N")
    N = v1.N
    f1 = integrate_ball(gradsq(v1), N, r, radial_power=2.0 - N, symmetry=v1.symmetry).value
    f2 = integrate_ball(gradsq(v2), N, r, radial_power=2.0 - N, symmetry=v2.symmetry).value
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
    N = v1.N

    def vh(v, h):
        def f(y):
            return np.asarray(v.value(y), float) * np.asarray(h(y), float)

        return f

    vh1 = integrate_ball(vh(v1, h1), N, r, radial_power=2.0 - N).value
    vh2 = integrate_ball(vh(v2, h2), N, r, radial_power=2.0 - N).value
    r2 = r * r
    return 2.0 * (psi(s1) * (vh1 / r2) * (energy.factor2 / r2) + psi(s2) * (energy.factor1 / r2) * (vh2 / r2))


def caffarelli_Phi(u1: SpaceTimeField, u2: SpaceTimeField, tau: float) -> TwoPhaseReport:
    """Phi(tau) = tau^-2 prod_i int_0^tau int |grad u_i|^2 G_t dx dt."""
    if u1.d != u2.d:
        raise ValueError("both phases must live on the same R^d")
    f1 = integrate_spacetime(gradsq(u1), u1.d, tau, coords=u1.coords).value
    f2 = integrate_spacetime(gradsq(u2), u2.d, tau, coords=u2.coords).value
    return TwoPhaseReport(factor1=f1, factor2=f2, value=f1 * f2 / tau**2)


def lifted_two_phase(u1: SpaceTimeField, u2: SpaceTimeField, n: int, tau: float) -> TwoPhaseReport:
    """Product functional of the lift in n steps

        Phi_n(tau) = tau^-2 prod_i int_0^tau int ( |grad u_i|^2
                     + (2/nd) (x . grad u_i + t du_i/dt) du_i/dt ) G_{t,n} dx dt,

    which recovers caffarelli_Phi as n -> infinity.
    """
    nd = _lifted_dim(u1.d, n)
    if u1.d != u2.d:
        raise ValueError("both phases must live on the same R^d")

    def lifted_energy(u: SpaceTimeField):
        def f(x, t):
            g = np.asarray(u.grad(x, t), dtype=float)
            ut = np.asarray(u.dt(x, t), float)
            radial = dot(np.asarray(x, float), g) + t * ut
            return dot(g, g) + (2.0 / nd) * radial * ut

        return f

    f1 = integrate_spacetime(lifted_energy(u1), u1.d, tau, n=n, coords=u1.coords).value
    f2 = integrate_spacetime(lifted_energy(u2), u2.d, tau, n=n, coords=u2.coords).value
    return TwoPhaseReport(factor1=f1, factor2=f2, value=f1 * f2 / tau**2)
