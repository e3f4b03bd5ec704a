"""Minimal-surface densities, mean-curvature-flow densities, and their lifts.

All hypersurfaces here are graphs x_{N+1} = v(y).  Ball intersections are
parametrized in polar form around the center's base point: the projected
region {y : |y - y0|^2 + (v(y) - v0)^2 <= r^2} is assumed star-shaped, and
its boundary radius along each direction is found by bisection (exact to
~80 bits, so quadrature error dominates).  ``ms_density``,
``ms_density_tilde`` and ``lifted_mcf_density`` share that bulk rule
(``_graph_ball_rule``), which works in units of the ball radius, so no
length is raised to a power.  The slice integral of the derivative identity
is taken on the rule's rays by the coarea formula, so the slice needs no
parametrization of its own.  The elliptic quantities
(``graph_mean_curvature``, ``ms_density``, ``ms_density_tilde``) read the
graph at time 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AccuracyError
from ..fields import GraphSurface
from ..integrate import _jacobi, _polar_sum, _refine, _sphere_nodes, integrate_weighted
from ..weights import _dimension, _finite_weight_law, _log_sphere_area, _positive
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


def _graph_ball_rule(surface: GraphSurface, t: float, y0, v0: float, r: float, level: int, expo: float = 0.0):
    """One level of the polar rule of {y : |y - y0|^2 + (v(y, t) - v0)^2 <= r^2}, in units of r.

    Returns the directions omega (m, N) and their weights wa (sum 1), the
    graph radii s* = rho*/r along them, and radial nodes s (k, m) in units of
    r with weights wz s* s^(N-1): rho = r s, s = s* (1 + z)/2, and (z, wz)
    the Gauss-Jacobi rule (sum 1) for (1 - z)^expo on [-1, 1].  At expo = 0,
    sum_ij w_ij wa_j f(y0 + s_ij r omega_j), which _polar_sum forms from s
    and r omega, is the integral of f over the region divided by
    |S^(N-1)| r^N.  Every power is of a ratio in [0, 1], so no r overflows or
    underflows.  s* comes from bisection on [0, 1], which assumes the center
    lies inside and the region is star-shaped about y0; 80 halvings leave no
    error above the last bit.  A halving that leaves lo and hi as they were
    is a fixed point, since the next one would repeat it, so the loop stops
    there: on the catalog's planes and paraboloids that is 54 or 55 halvings.
    """
    omega, wa = _sphere_nodes(surface.dim, level)
    lo, hi = np.zeros(len(wa)), np.ones(len(wa))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        dv = (np.asarray(surface.value(y0 + (r * mid)[:, None] * omega, t), float) - v0) / r
        inside = mid * mid + dv * dv <= 1.0
        lo_next = np.where(inside, mid, lo)
        hi_next = np.where(inside, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            break
        lo, hi = lo_next, hi_next
    s_star = 0.5 * (lo + hi)
    z, wz = _jacobi(level, expo, 0.0)
    s = 0.5 * (1.0 + z)[:, None] * s_star
    return omega, wa, s_star, s, wz[:, None] * s_star * s ** (surface.dim - 1)


def _ball_center(surface: GraphSurface, w0, r: float) -> tuple[np.ndarray, float, bool]:
    """Base point y0 and height v0 of the center w0, and whether B_r(w0) misses the sheet above y0."""
    _dimension("d", surface.dim)
    _positive("r", r)
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (surface.dim + 1,):
        raise ValueError(f"center must live in R^{surface.dim + 1}")
    y0, v0 = w0[: surface.dim], float(w0[surface.dim])
    return y0, v0, abs(float(surface.value(y0, 0.0)) - v0) >= r


def ms_density(surface: GraphSurface, w0, r: float) -> float:
    """Area ratio Theta(r) = Area(B_r(w0) cap Sigma) / (omega_N r^N), omega_N the unit-ball volume."""
    y0, v0, misses = _ball_center(surface, w0, r)
    if misses:
        return 0.0  # the ball misses the sheet above the center

    def area_element(x, _):
        grad = np.asarray(surface.grad(x, 0.0), dtype=float)
        return np.sqrt(1.0 + dot(grad, grad))

    def eval_at(level: int):
        omega, wa, _, s, w = _graph_ball_rule(surface, 0.0, y0, v0, r, level)
        return _polar_sum(area_element, s, w, r * omega, wa, y0)

    # the rule's sum is Area / (|S^(N-1)| r^N), and |S^(N-1)| = N omega_N
    return _refine(eval_at).value * surface.dim


@dataclass(frozen=True)
class MsDensityReport:
    """Adjusted density and the boundary integral its derivative is equal to."""

    theta_tilde: float
    derivative_rhs: float


def ms_density_tilde(surface: GraphSurface, h, w0, r: float) -> MsDensityReport:
    """Density adjusted for mean curvature h, with its exact derivative integrand:

        Theta~(r) = [ Area(B_r cap Sigma) + (1/N) int_{B_r cap Sigma} h (w - w0) . nu ] / (omega_N r^N),

        d Theta~/dr = [N / (|S^(N-1)| r^(N+1))] int_{bd B_r cap Sigma} g / |(w - w0)^T| dS,

        g = |(w - w0)^perp|^2 + (1/N) h ((w - w0) . nu) |w - w0|^2.

    h is a scalar callable of the base coordinates y, which reads the
    points surface.value reads; pass None for a minimal surface.
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
    N = surface.dim
    y0, v0, misses = _ball_center(surface, w0, r)
    if misses:
        raise ValueError("the ball does not reach the sheet above its center")

    def hval(pts):
        if h is None:
            return np.zeros(pts.shape[:-1])
        return np.asarray(h(pts), float)

    def bulk(x, _):
        # area element and the curvature correction, in base coordinates
        grad = np.asarray(surface.grad(x, 0.0), dtype=float)
        vdiff = np.asarray(surface.value(x, 0.0), float) - v0
        area_el = np.sqrt(1.0 + dot(grad, grad))
        # ((w - w0) . nu) sqrt(1 + |grad v|^2) = v - v0 - (y - y0) . grad v
        wnu_area = vdiff - np.einsum("...k,...k->...", x - y0, grad)
        return np.stack([area_el, hval(x) * wnu_area], axis=-1)

    def eval_at(level: int):
        omega, wa, s_star, s, w = _graph_ball_rule(surface, 0.0, y0, v0, r, level)
        (vol, correction), count = _polar_sum(bulk, s, w, r * omega, wa, y0)
        # the sums are divided by |S^(N-1)| r^N = N omega_N r^N
        theta_tilde = (vol + correction / N) * N

        # the slice, on the same rays, in units of r: vs = (v - v0)/r and
        # half_psi_rho = psi_rho / 2r
        ys = y0 + (r * s_star)[:, None] * omega
        vs = (np.asarray(surface.value(ys, 0.0), float) - v0) / r
        gs = np.asarray(surface.grad(ys, 0.0), dtype=float)
        slope = dot(gs, omega)
        half_psi_rho = s_star + vs * slope
        if np.any(np.abs(half_psi_rho) <= 1e-9):
            raise AccuracyError("slice integrand blows up: |(w - w0)^T| vanishes along some direction")
        wnu_area = vs - s_star * slope
        # g sqrt(1 + |grad v|^2) / r^2, with wnu_area / r as in bulk
        g_area = wnu_area * wnu_area / np.sqrt(1.0 + dot(gs, gs)) + hval(ys) * r * wnu_area / N
        slice_sum = float(np.sum(wa * g_area * s_star ** (N - 1) / half_psi_rho))
        return np.array([theta_tilde, N * slice_sum / r]), count + omega.shape[0]

    out = _refine(eval_at).value
    return MsDensityReport(theta_tilde=float(out[0]), derivative_rhs=float(out[1]))


def huisken_density(surface: GraphSurface, t: float) -> float:
    """Backward Gaussian surface density of a graph flow:

        theta(t) = int t^(-d/2) exp(-(|x|^2 + u(x,t)^2) / 4t) sqrt(1 + |grad u|^2) dx.

    A flat plane through the origin gives (4 pi)^(d/2) for all t.
    """
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


def lifted_mcf_density(surface: GraphSurface, n: int, t: float) -> float:
    """Finite-n Gaussian density of a graph:

        Phi_n(t) = (4 pi)^(d/2) int sqrt(1 + |grad u|^2) G^u_{t,n}(x) dx,

    where G^u_{t,n} is the finite weight with |x|^2 replaced by |x|^2 + u(x,t)^2.
    Converges to huisken_density as n -> infinity.  The weight's support ends
    where |x|^2 + u^2 = 2ndt; that radius is found per direction and the rim
    factor is absorbed into a Gauss-Jacobi rule, so the integrand kink costs
    no accuracy.
    """
    d = surface.dim
    nd, expo, log_ratio = _finite_weight_law(d, n)
    _positive("t", t)
    R = math.sqrt(2.0 * nd * t)
    y0 = np.zeros(d)
    if abs(float(surface.value(y0, t))) >= R:
        return 0.0  # weight support is empty along every direction
    # in units of R, with s = rho/R and uu = u/R, the rim factor
    # (1 - s^2 - uu^2)^expo = ((s* - s) q)^expo is split into (1 - z)^expo,
    # absorbed by the rule's Gauss-Jacobi factor, and (0.5 s* q)^expo, whose
    # base lies in [0, 1] so no n overflows it.  The rule's sum of f, times
    # |S^(d-1)| R^d 2^expo/(expo+1), is the integral of f (1 - z)^expo over
    # the region (ds = s* dz/2, and (1 - z)^expo has integral
    # 2^(expo+1)/(expo+1)); R^d cancels the weight's (2ndt)^(-d/2), and the
    # rest is folded in here
    log_pref = log_ratio + _log_sphere_area(d)
    log_pref += expo * math.log(2.0) - math.log(expo + 1.0)
    scale = (4.0 * math.pi) ** (0.5 * d) * math.exp(log_pref)

    def eval_at(level: int):
        omega, wa, s_star, s_nodes, w = _graph_ball_rule(surface, t, y0, 0.0, R, level, expo)

        def integrand(x, s):
            uu = np.asarray(surface.value(x, t), float) / R
            grad = np.asarray(surface.grad(x, t), dtype=float)
            area_el = np.sqrt(1.0 + dot(grad, grad))
            q = (1.0 - s * s - uu * uu) / (s_star - s)  # smooth across the rim
            return area_el * (0.5 * s_star * q) ** expo

        value, count = _polar_sum(integrand, s_nodes, w, R * omega, wa)
        return scale * value, count

    return _refine(eval_at).value
