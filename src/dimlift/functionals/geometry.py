"""Minimal-surface densities, mean-curvature-flow densities, and their lifts.

All hypersurfaces here are graphs x_{N+1} = v(y).  Ball intersections are
parametrized in polar form around the center's base point: the projected
region {y : |y - y0|^2 + (v(y) - v0)^2 <= r^2} is assumed star-shaped, and
its boundary radius along each direction is found by bisection (exact to
~80 bits, so quadrature error dominates).  ``ms_density`` and
``ms_density_tilde`` share that bulk rule, and the slice integral of the
derivative identity is taken on its rays by the coarea formula, so the
slice needs no parametrization of its own.  The elliptic quantities
(``graph_mean_curvature``, ``ms_density``, ``ms_density_tilde``) read the
graph at time 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AccuracyError, UnsupportedConfigError
from ..fields import GraphSurface, NonhomTerm
from ..integrate import _jacobi, _legendre_rule, _polar_sum, _refine, _sphere_nodes, integrate_weighted
from ..lift import LiftConfig
from ..weights import _log_sphere_area
from .common import dot

__all__ = [
    "MsDensityReport",
    "graph_mean_curvature",
    "ms_density",
    "ms_density_tilde",
    "huisken_density",
    "mcf_residual",
    "lifted_mcf_density",
]


def _curvature_terms(surface: GraphSurface, y, t):
    """1 + |grad v|^2, Lap v and grad v . Hess v . grad v of a graph at base points y and time t."""
    g = np.asarray(surface.grad(y, t), dtype=float)
    hess = np.asarray(surface.hessian(y, t), dtype=float)
    q = 1.0 + dot(g, g)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    mixed = np.einsum("...i,...ij,...j->...", g, hess, g)
    return q, lap, mixed


def graph_mean_curvature(surface: GraphSurface, y):
    """Mean curvature (trace of the shape operator) of a graph at base points y:

        H = Lap v / sqrt(1 + |grad v|^2) - (grad v . Hess v . grad v) / (1 + |grad v|^2)^(3/2).
    """
    q, lap, mixed = _curvature_terms(surface, y, 0.0)
    return lap / np.sqrt(q) - mixed / q**1.5


def _graph_radii(surface: GraphSurface, t: float, y0, v0: float, r_sq: float, omega: np.ndarray) -> np.ndarray:
    """Per-direction radius of the star-shaped region {y : |y - y0|^2 + (v(y) - v0)^2 <= r_sq}.

    Bisection on [0, sqrt(r_sq)] along each direction omega, assuming the
    center lies inside; 80 halvings leave no error above the last bit.
    """
    lo = np.zeros(omega.shape[0])
    hi = np.full(omega.shape[0], math.sqrt(r_sq))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        dv = np.asarray(surface.value(y0 + mid[:, None] * omega, t), float) - v0
        inside = mid * mid + dv * dv - r_sq <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def _split_center(surface: GraphSurface, w0) -> tuple[np.ndarray, float]:
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (surface.dim + 1,):
        raise ValueError(f"center must live in R^{surface.dim + 1}")
    return w0[: surface.dim], float(w0[surface.dim])


def _graph_ball_sum(surface: GraphSurface, y0, v0: float, r: float, level: int, f):
    """One level of the bulk rule of B_r(w0) cap Sigma, in polar form around y0.

    Returns the directions omega (m, N) and their weights wa (sum 1), the
    graph radii rho* along them, and _polar_sum's (value, count) of f over
    the Gauss-Legendre rule in rho^(N-1) d rho on [0, rho*].  Since wa has
    sum 1, the value is the integral over the projected region divided by
    |S^(N-1)|.
    """
    omega, wa = _sphere_nodes(surface.dim, level)
    rho_star = _graph_radii(surface, 0.0, y0, v0, r * r, omega)
    rho, wr = _legendre_rule(level, 0.0, rho_star, surface.dim - 1)
    return omega, wa, rho_star, _polar_sum(f, rho, wr, omega, wa, y0)


def ms_density(surface: GraphSurface, w0, r: float) -> float:
    """Area ratio Theta(r) = Area(B_r(w0) cap Sigma) / (omega_N r^N), omega_N the unit-ball volume."""
    if not r > 0.0:
        raise ValueError("need r > 0")
    N = surface.dim
    y0, v0 = _split_center(surface, w0)
    gap = float(surface.value(y0, 0.0)) - v0
    if gap * gap >= r * r:
        return 0.0  # the ball misses the sheet above the center

    def area_element(x, _):
        grad = np.asarray(surface.grad(x, 0.0), dtype=float)
        return np.sqrt(1.0 + dot(grad, grad))

    vol = _refine(lambda level: _graph_ball_sum(surface, y0, v0, r, level, area_element)[3]).value
    return vol * N / r**N


@dataclass(frozen=True)
class MsDensityReport:
    """Adjusted density and the boundary integral its derivative is equal to."""

    theta_tilde: float
    derivative_rhs: float


def ms_density_tilde(surface: GraphSurface, h: NonhomTerm | None, w0, r: float) -> MsDensityReport:
    """Density adjusted for mean curvature h, with its exact derivative integrand:

        Theta~(r) = [ Area(B_r cap Sigma) + (1/N) int_{B_r cap Sigma} h (w - w0) . nu ] / (omega_N r^N),

        d Theta~/dr = [N / (|S^(N-1)| r^(N+1))] int_{bd B_r cap Sigma} g / |(w - w0)^T| dS,

        g = |(w - w0)^perp|^2 + (1/N) h ((w - w0) . nu) |w - w0|^2.

    h is evaluated at the base coordinates y; pass None for a minimal surface.
    The slice integral is taken on the directions omega and graph radii rho*
    of the bulk rule, by the coarea formula for |w - w0| on Sigma:

        int_{bd B_r cap Sigma} g / |(w - w0)^T| dS
            = int_{S^(N-1)} g sqrt(1 + |grad v|^2) rho*^(N-1) (2 / psi_rho) d omega,

    where psi(rho) = rho^2 + (v - v0)^2 along omega, so psi_rho / 2 =
    rho* + (v - v0) grad v . omega and d rho*/dr = 2r / psi_rho.  This holds
    for every N >= 1.  |(w - w0)^T| vanishes only where psi_rho does, and
    psi_rho also vanishes where a ray grazes the slice, so one check covers
    both: |psi_rho / 2| <= 1e-9 r along some direction raises an
    AccuracyError, since the integrand blows up there.
    """
    if not r > 0.0:
        raise ValueError("need r > 0")
    N = surface.dim
    y0, v0 = _split_center(surface, w0)
    gap = float(surface.value(y0, 0.0)) - v0
    if gap * gap >= r * r:
        raise ValueError("the ball does not reach the sheet above its center")

    def hval(pts):
        if h is None:
            return np.zeros(pts.shape[:-1])
        return np.asarray(h.value(pts), float)

    def bulk(x, _):
        # area element and the curvature correction, in base coordinates
        grad = np.asarray(surface.grad(x, 0.0), dtype=float)
        vdiff = np.asarray(surface.value(x, 0.0), float) - v0
        area_el = np.sqrt(1.0 + dot(grad, grad))
        # ((w - w0) . nu) sqrt(1 + |grad v|^2) = v - v0 - (y - y0) . grad v
        wnu_area = vdiff - np.einsum("...k,...k->...", x - y0, grad)
        return np.stack([area_el, hval(x) * wnu_area], axis=-1)

    def eval_at(level: int):
        omega, wa, rho_star, ((vol, correction), count) = _graph_ball_sum(surface, y0, v0, r, level, bulk)
        # the angular rule has sum 1, so the sums are divided by |S^(N-1)|
        theta_tilde = (vol + correction / N) * N / r**N

        # the slice, on the same rays
        ys = y0 + rho_star[:, None] * omega
        vs = np.asarray(surface.value(ys, 0.0), float) - v0
        gs = np.asarray(surface.grad(ys, 0.0), dtype=float)
        slope = dot(gs, omega)
        half_psi_rho = rho_star + vs * slope
        if np.any(np.abs(half_psi_rho) <= 1e-9 * r):
            raise AccuracyError("slice integrand blows up: |(w - w0)^T| vanishes along some direction")
        wnu_area = vs - rho_star * slope
        # g sqrt(1 + |grad v|^2), with wnu_area as in bulk
        g_area = wnu_area * wnu_area / np.sqrt(1.0 + dot(gs, gs)) + hval(ys) * wnu_area * r * r / N
        slice_sum = float(np.sum(wa * g_area * rho_star ** (N - 1) / half_psi_rho))
        rhs = N / r ** (N + 1) * slice_sum
        return np.array([theta_tilde, rhs]), count + omega.shape[0]

    out = _refine(eval_at).value
    return MsDensityReport(theta_tilde=float(out[0]), derivative_rhs=float(out[1]))


def huisken_density(surface: GraphSurface, t: float) -> float:
    """Backward Gaussian surface density of a graph flow:

        theta(t) = int t^(-d/2) exp(-(|x|^2 + u(x,t)^2) / 4t) sqrt(1 + |grad u|^2) dx.

    A flat plane through the origin gives (4 pi)^(d/2) for all t.
    """
    if not t > 0.0:
        raise ValueError("need t > 0")
    d = surface.dim

    def phi(x):
        uu = np.asarray(surface.value(x, t), float)
        g = np.asarray(surface.grad(x, t), dtype=float)
        return np.exp(-uu * uu / (4.0 * t)) * np.sqrt(1.0 + dot(g, g))

    base = integrate_weighted(phi, d, t).value
    return (4.0 * math.pi) ** (0.5 * d) * base


def mcf_residual(surface: GraphSurface, x, t):
    """Residual of the backward graphical mean curvature flow:

        du/dt + Lap u - (grad u . Hess u . grad u) / (1 + |grad u|^2).
    """
    q, lap, mixed = _curvature_terms(surface, x, t)
    return np.asarray(surface.dt(x, t), float) + lap - mixed / q


def lifted_mcf_density(surface: GraphSurface, cfg: LiftConfig, t: float) -> float:
    """Finite-n Gaussian density of a graph:

        Phi_n(t) = (4 pi)^(d/2) int sqrt(1 + |grad u|^2) G^u_{t,n}(x) dx,

    where G^u_{t,n} is the finite weight with |x|^2 replaced by |x|^2 + u(x,t)^2.
    Converges to huisken_density as n -> infinity.  The weight's support ends
    where |x|^2 + u^2 = 2ndt; that radius is found per direction and the rim
    factor is absorbed into a Gauss-Jacobi rule, so the integrand kink costs
    no accuracy.
    """
    if not t > 0.0:
        raise ValueError("need t > 0")
    d = cfg.d
    nd = cfg.N
    if nd <= d + 1:
        raise UnsupportedConfigError(f"finite weight needs n*d >= d + 2; got d={d}, n={cfg.n}")
    rmax_sq = 2.0 * nd * t
    expo = 0.5 * (nd - d - 2)
    u_center = float(surface.value(np.zeros(d), t))
    if u_center * u_center >= rmax_sq:
        return 0.0  # weight support is empty along every direction
    # the rim factor (1 - (|x|^2 + u^2)/R^2)^expo = ((rho* - rho) q / R^2)^expo
    # is split into (1 - z)^expo, absorbed by the Gauss-Jacobi rule in z, and
    # (0.5 rho* q / R^2)^expo, whose base lies in [0, 1] so no n overflows it.
    # The angular and Jacobi rules have sum 1; their measures |S^(d-1)| and
    # int (1 - z)^expo dz = 2^(expo+1)/(expo+1) are folded in here
    log_pref = _log_sphere_area(nd - d) + _log_sphere_area(d) - _log_sphere_area(nd) - 0.5 * d * math.log(rmax_sq)
    log_pref += (expo + 1.0) * math.log(2.0) - math.log(expo + 1.0)
    scale = (4.0 * math.pi) ** (0.5 * d) * math.exp(log_pref)

    def eval_at(level: int):
        omega, wa = _sphere_nodes(d, level)
        rho_star = _graph_radii(surface, t, np.zeros(d), 0.0, rmax_sq, omega)
        z, wj = _jacobi(level, expo, 0.0)

        def integrand(x, rho):
            uu = np.asarray(surface.value(x, t), float)
            grad = np.asarray(surface.grad(x, t), dtype=float)
            area_el = np.sqrt(1.0 + dot(grad, grad))
            q = (rmax_sq - rho * rho - uu * uu) / (rho_star - rho)  # smooth across the rim
            return area_el * rho ** (d - 1) * (0.5 * rho_star * q / rmax_sq) ** expo

        rho = 0.5 * (1.0 + z)[:, None] * rho_star  # (kr, ka)
        value, count = _polar_sum(integrand, rho, wj[:, None] * (0.5 * rho_star), omega, wa)
        return scale * value, count

    value = _refine(eval_at).value
    return value
