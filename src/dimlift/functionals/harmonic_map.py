"""Energy-density monotonicity for sphere-valued maps, elliptic and parabolic."""

from __future__ import annotations

import math
import sys

import numpy as np

from ..errors import AccuracyError, UnsupportedConfigError
from ..fields import SphereField
from ..integrate import _shell_mean, integrate_ball, integrate_weighted
from ..lift import sphere_area
from ..weights import _lifted_dim
from .common import dot

__all__ = ["hm_phi", "hm_dphi_lower_bound", "struwe_Phi", "lifted_hm_Phi"]


def hm_phi(vmap: SphereField, y0, r: float) -> float:
    """Scaled local energy phi(r) = r^(2-N) int_{B_r(y0)} |Dv|^2 dy.

    Computed as (r^2/N) |S^(N-1)| times the ball mean of |Dv|^2; the factor
    |S^(N-1)| underflows to 0 near N = 480, and the value with it.  Where
    the product is not finite (r^2 overflows) or the mean is subnormal
    (|Dv|^2 of size r^-2 underflows), AccuracyError is raised.
    """
    N = vmap.dim_domain
    mean = _shell_mean(lambda y: np.asarray(vmap.energy(y), float), N, 0.0, r, y0, symmetry=vmap.symmetry).value
    phi = r * r / N * sphere_area(N) * mean
    if not math.isfinite(phi) or 0.0 < abs(mean) < sys.float_info.min:
        raise AccuracyError(
            f"hm_phi at r = {r:g} is out of floating-point range: r^2 = {r * r:g}, ball mean of |Dv|^2 = {mean:g}"
        )
    return phi


def hm_dphi_lower_bound(vmap: SphereField, H, y0, r: float) -> float:
    """Lower bound for phi'(r) when Lap v + |Dv|^2 v = H:

        phi'(r) >= - r^(1-N) int_{B_r(y0)} H . ((y - y0) . Dv) dy.

    H is a callable of y that reads the points vmap.jacobian reads and
    returns a vector of the shape of vmap.value, (..., m); a value of any
    other shape, such as a scalar H, is refused at the first points.
    """
    N = vmap.dim_domain
    c = np.zeros(N) if y0 is None else np.asarray(y0, dtype=float)

    def f(y):
        j = np.asarray(vmap.jacobian(y), dtype=float)  # (..., m, N)
        radial = np.einsum("...mk,...k->...m", j, np.asarray(y, float) - c)
        h = np.asarray(H(y), float)
        if h.shape != radial.shape:
            raise ValueError("the harmonic-map right-hand side is vector valued")
        return dot(h, radial)

    bulk = integrate_ball(f, N, r, center=c).value
    return -(r ** (1 - N)) * bulk


def struwe_Phi(umap: SphereField, t: float) -> float:
    """Parabolic energy density Phi(t) = t int |Du|^2 G_t dx for a stationary map.

    Only time-independent maps are accepted: they solve the flow exactly, so
    Phi is constant in t and equals the lifted limit.  A map that declares
    coords = k is integrated in R^k (integrate_weighted); circle_map's
    Phi is then its d = 1 value, bit for bit.
    """
    d = umap.dim_domain
    energy = integrate_weighted(lambda x: np.asarray(umap.energy(x), float), d, t, coords=umap.coords).value
    return t * energy


def lifted_hm_Phi(umap: SphereField, n: int, t: float) -> float:
    """Energy density of the lift in n steps of a time-independent
    sphere-valued map:

        Phi_n(t) = [nd/(nd-2)] t int |Du|^2 G_{t,n} dx
                   - [1/(nd-2)] int |x . Du|^2 G_{t,n} dx,

    which converges to struwe_Phi as n -> infinity (for stationary maps the
    history term of the general formula vanishes identically).

    At finite n this is the elliptic energy density of the lift only when u
    is harmonic.  On circle_map, hm_phi of the lift at R = sqrt(2dt) is
    2 |S^(nd-1)| Phi_n(t); on the stationary phase map (cos x1^2, sin x1^2),
    which is not harmonic, that ratio is 2.67, 2.11 and 2.026 at n = 10, 40
    and 160, and tends to 2 only as n grows.

    A map that declares coords = k is integrated in R^k against the
    k-marginal of G_{t,n} (integrate_weighted), and energy and jacobian get
    k-wide points.  The 1-marginal depends on n and d only through nd, so
    circle_map's Phi_n at (d, n) is its d = 1 value at nd steps, bit for bit.
    """
    nd = _lifted_dim(umap.dim_domain, n)
    if nd <= 2:
        raise UnsupportedConfigError(f"lifted energy density needs n*d >= 3, got n*d = {nd}")

    def both(x):
        e = np.asarray(umap.energy(x), float)
        j = np.asarray(umap.jacobian(x), dtype=float)
        xd = np.einsum("...mk,...k->...m", j, np.asarray(x, float))
        return np.stack([e, dot(xd, xd)], axis=-1)

    vals = integrate_weighted(both, umap.dim_domain, t, n=n, coords=umap.coords).value
    return (nd / (nd - 2.0)) * t * float(vals[0]) - float(vals[1]) / (nd - 2.0)
