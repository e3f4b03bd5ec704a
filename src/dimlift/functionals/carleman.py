"""Quantitative unique-continuation inequalities with explicit constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..fields import ScalarField, SpaceTimeField
from ..integrate import integrate_annulus, integrate_window
from ..weights import _dimension
from .common import dot

__all__ = [
    "CarlemanReport",
    "EllipticCarlemanReport",
    "carleman_elliptic_constant",
    "carleman_elliptic_check",
    "carleman_parabolic_check",
]


@dataclass(frozen=True)
class EllipticCarlemanReport:
    constant_used: float
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool


@dataclass(frozen=True)
class CarlemanReport:
    """Space-time inequality report; the constant is the n -> infinity value 8/eps^2."""

    beta: float
    epsilon: float
    lhs: float
    rhs: float
    constant_used: float
    satisfied: bool


def carleman_elliptic_constant(gamma: float, N: int) -> float:
    """c(gamma, N) = inf over integers l >= 0 of |(N/2 + l + gamma - 2)(N/2 + l - gamma)|.

    The product is an upward parabola in l, so scanning l up to past both
    roots (which sit below |gamma| + 2) finds the infimum.
    """
    _dimension("N", N)
    if not math.isfinite(gamma):
        raise ValueError(f"need a finite gamma, got {gamma}")
    ells = np.arange(0, math.ceil(abs(gamma)) + 3 + 16, dtype=float)
    vals = np.abs((0.5 * N + ells + gamma - 2.0) * (0.5 * N + ells - gamma))
    return float(vals.min())


def _annulus_support(v: ScalarField) -> tuple[float, float]:
    if v.support is None:
        raise ValueError("the weighted inequality needs a field supported in an annulus")
    r_in, r_out = v.support
    if not r_in > 0.0:
        raise ValueError("support must stay away from the origin")
    return float(r_in), float(r_out)


def carleman_elliptic_check(v: ScalarField, gamma: float) -> EllipticCarlemanReport:
    """Verify || |y|^(2-gamma) Lap v || >= c(gamma, N) || |y|^(-gamma) v || in L^2.

    The field must vanish near the origin so both weighted norms are finite
    for every gamma.
    """
    r_in, r_out = _annulus_support(v)
    c = carleman_elliptic_constant(gamma, v.N)

    def lap_sq(y):
        return np.asarray(v.laplacian(y), float) ** 2

    def val_sq(y):
        return np.asarray(v.value(y), float) ** 2

    lhs = math.sqrt(
        integrate_annulus(lap_sq, v.N, (r_in, r_out), radial_power=2.0 * (2.0 - gamma), symmetry=v.symmetry).value
    )
    norm_v = math.sqrt(
        integrate_annulus(val_sq, v.N, (r_in, r_out), radial_power=-2.0 * gamma, symmetry=v.symmetry).value
    )
    rhs = c * norm_v
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return EllipticCarlemanReport(
        constant_used=c, lhs=lhs, rhs=rhs, ratio=ratio, satisfied=lhs >= rhs * (1.0 - 1e-9)
    )


def carleman_parabolic_check(u: SpaceTimeField, alpha: float) -> CarlemanReport:
    """Verify the weighted space-time inequality

        int t^(-2 alpha) e^(-|x|^2/4t) u^2 <= (8 / eps^2) int t^(-2 alpha + 2) e^(-|x|^2/4t) (Lap u + du/dt)^2

    on R^d, d = u.d, for beta = 2 alpha - d/2 - 1 > 0 non-integer and
    eps = dist(beta, Z>=0).
    The field must be supported in a compact window away from t = 0 so the
    singular time weight stays integrable.
    """
    d = u.d
    if not math.isfinite(alpha):
        raise ValueError(f"need a finite alpha, got {alpha}")
    beta = 2.0 * alpha - 0.5 * d - 1.0
    if beta <= 0.0:
        raise ValueError(f"need beta = 2 alpha - d/2 - 1 > 0, got beta = {beta}")
    eps = min(beta - math.floor(beta), math.ceil(beta) - beta)
    if eps == 0.0:
        raise ValueError(f"beta = {beta} is an integer; the constant 8/eps^2 degenerates")
    if u.window is None:
        raise ValueError("the parabolic inequality needs a field supported in a window away from t = 0")
    r_in, r_out, t_in, t_out = u.window
    constant = 8.0 / eps**2

    def weight(x, t, p):
        x = np.asarray(x, float)
        return t**p * np.exp(-dot(x, x) / (4.0 * t))

    def lhs_f(x, t):
        return weight(x, t, -2.0 * alpha) * np.asarray(u.value(x, t), float) ** 2

    def rhs_f(x, t):
        res = np.asarray(u.laplacian(x, t), float) + np.asarray(u.dt(x, t), float)
        return weight(x, t, -2.0 * alpha + 2.0) * res**2

    lhs = integrate_window(lhs_f, d, (r_in, r_out), (t_in, t_out)).value
    rhs = constant * integrate_window(rhs_f, d, (r_in, r_out), (t_in, t_out)).value
    return CarlemanReport(
        beta=beta,
        epsilon=eps,
        lhs=lhs,
        rhs=rhs,
        constant_used=constant,
        satisfied=lhs <= rhs * (1.0 + 1e-9),
    )
