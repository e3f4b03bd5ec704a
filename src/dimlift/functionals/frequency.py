"""Frequency functions: elliptic, parabolic, and the lifted finite-n bridge.

The elliptic frequency of v on the ball B_r is L = r D / H with H the
boundary L^2 mass and D the Dirichlet energy.  Its parabolic counterpart for
u(x, t) uses Gaussian-weighted integrals and satisfies L_parabolic = k/2 on
caloric polynomials that are parabolically homogeneous of degree k.  The
lifted frequency L_n evaluates the elliptic functional of u(lift) on the
sphere of radius sqrt(2dt) via reduced d-dimensional integrals; as n grows it
converges to twice the parabolic frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDenominatorError
from ..fields import ScalarField, SpaceTimeField
from ..integrate import (
    _shell_mean,
    _shell_total,
    integrate_spacetime,
    integrate_weighted,
)
from ..weights import _lifted_dim
from .common import DENOMINATOR_FLOOR, dot, gradsq, power_ratio

__all__ = ["FrequencyValues", "almgren", "almgren_dL_lower_bound", "poon", "lifted_frequency"]


@dataclass(frozen=True)
class FrequencyValues:
    """Frequency L with its numerator energy D and denominator mass H."""

    H: float
    D: float
    L: float


def almgren(v: ScalarField, r: float) -> FrequencyValues:
    """Elliptic frequency r D(r) / H(r) of v centered at the origin.

    L = (r^2/N) D_mean / H_mean, from the means of |grad v|^2 on the ball and
    of v^2 on the sphere, so the measures |S^(N-1)| r^N / N and
    |S^(N-1)| r^(N-1) cancel and L stays finite at N in the hundreds.  The
    floor applies to H_mean; H and D are the totals (_shell_total), inf
    where they exceed the float range.
    """
    N = v.N
    H_mean = _shell_mean(lambda y: np.asarray(v.value(y), float) ** 2, N, r, r, symmetry=v.symmetry).value
    if H_mean < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(f"boundary mean H = {H_mean!r} is below the {DENOMINATOR_FLOOR} floor")
    D_mean = _shell_mean(gradsq(v), N, 0.0, r, symmetry=v.symmetry).value
    H = _shell_total(H_mean, N, r, r)
    D = _shell_total(D_mean, N, 0.0, r)
    return FrequencyValues(H=H, D=D, L=r * r / N * D_mean / H_mean)


def almgren_dL_lower_bound(v: ScalarField, h, r: float) -> float:
    """Lower bound for L'(r) when Lap v = h instead of 0:

        L'(r) >= 2 (int_{bd B_r} v (y . grad v) dS) (int_{B_r} h v dy) / H^2
                 - 2 (int_{B_r} h (y . grad v) dy) / H.

    h is a scalar callable of y that reads the points v.value reads.
    For h = 0 this recovers monotonicity of the homogeneous frequency.  In
    the sphere and ball means (subscript m) the bound is
    (2r/N) (B_m hv_m / H_m^2 - hr_m / H_m), and the floor applies to H_m.
    """
    H = _shell_mean(lambda y: np.asarray(v.value(y), float) ** 2, v.N, r, r).value
    if H < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(f"boundary mean H = {H!r} is below the {DENOMINATOR_FLOOR} floor")

    def v_radial(y):
        g = np.asarray(v.grad(y), dtype=float)
        return np.asarray(v.value(y), float) * dot(np.asarray(y, float), g)

    def h_radial(y):
        g = np.asarray(v.grad(y), dtype=float)
        return np.asarray(h(y), float) * dot(np.asarray(y, float), g)

    def h_v(y):
        return np.asarray(h(y), float) * np.asarray(v.value(y), float)

    boundary_term = _shell_mean(v_radial, v.N, r, r).value
    bulk_hv = _shell_mean(h_v, v.N, 0.0, r).value
    bulk_hr = _shell_mean(h_radial, v.N, 0.0, r).value
    return 2.0 * r / v.N * (boundary_term * bulk_hv / H**2 - bulk_hr / H)


def poon(u: SpaceTimeField, t: float) -> FrequencyValues:
    """Parabolic frequency t D(t) / H(t) with Gaussian-weighted H and D."""

    def both(x):
        val = np.asarray(u.value(x, t), float)
        g = np.asarray(u.grad(x, t), float)
        return np.stack([val * val, dot(g, g)], axis=-1)

    HD = integrate_weighted(both, u.d, t, coords=u.coords).value
    H, D = float(HD[0]), float(HD[1])
    if H < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(f"weighted mass H = {H!r} is below the {DENOMINATOR_FLOOR} floor")
    return FrequencyValues(H=H, D=D, L=t * D / H)


def lifted_frequency(u: SpaceTimeField, n: int, t: float) -> float:
    """Elliptic frequency of the lift of u in n steps, written in base-space integrals.

    L_n(t) = [ int u (x . grad u + 2t du/dt) G_{t,n} dx
               - 2 int_0^t int u ((x, s) . grad_{x,s} du/ds) (s/t)^((nd-2)/2) G_{s,n} dx ds ]
             / int u^2 G_{t,n} dx

    and L_n -> 2 L_parabolic(t) as n -> infinity.  The history factor
    (s/t)^((nd-2)/2) underflows to exactly 0 deep inside (0, t) for large nd;
    such nodes are truncated (see power_ratio).
    """
    p = 0.5 * (_lifted_dim(u.d, n) - 2)

    def instant(x):
        val = np.asarray(u.value(x, t), float)
        g = np.asarray(u.grad(x, t), float)
        radial = dot(np.asarray(x, float), g) + 2.0 * t * np.asarray(u.dt(x, t), float)
        return np.stack([val * val, val * radial], axis=-1)

    inst = integrate_weighted(instant, u.d, t, n=n, coords=u.coords).value
    denom, numer1 = float(inst[0]), float(inst[1])
    if denom < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(f"weighted mass {denom!r} is below the {DENOMINATOR_FLOOR} floor")

    def history(x, s):
        val = np.asarray(u.value(x, s), float)
        gdt = np.asarray(u.grad_dt(x, s), float)
        spatial = dot(np.asarray(x, float), gdt)
        return 2.0 * val * (spatial + s * np.asarray(u.dtt(x, s), float)) * power_ratio(s, t, p)

    numer2 = integrate_spacetime(history, u.d, t, n=n, coords=u.coords).value
    return (numer1 - numer2) / denom
