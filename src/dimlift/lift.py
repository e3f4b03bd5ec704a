"""Coordinate maps between a base space R^d and its n-fold lift R^(n*d).

A lifted point y is read as n steps of d coordinates each, stored row-major:
``y[(i-1)*n + (j-1)]`` is step j of coordinate i for i in 1..d, j in 1..n.
The lift map sends y to the pair (x, t) with ``x_i = sum_j y_{i,j}`` and
``t = |y|^2 / (2d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import _log_sphere_area

__all__ = [
    "LiftConfig",
    "LiftedDerivatives",
    "sphere_area",
    "lift_point",
    "lift_point_time",
    "lifted_derivatives",
]


@dataclass(frozen=True)
class LiftConfig:
    """Base dimension d and number of steps n of a lift."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError(f"need d >= 1 and n >= 1, got d={self.d}, n={self.n}")

    @property
    def N(self) -> int:
        """Ambient dimension n*d of the lifted space."""
        return self.n * self.d


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere S^(N-1) in R^N.

    The closed form 2 pi^(N/2) / Gamma(N/2) while Gamma(N/2) is finite (so
    N = 2 gives 2 pi exactly); beyond that it is computed in log space, so
    large N stays finite.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    try:
        return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)
    except OverflowError:
        return float(np.exp(_log_sphere_area(N)))


def _steps(cfg: LiftConfig, y: np.ndarray) -> np.ndarray:
    """Reshape flat lifted coordinates to (..., d, n) step layout."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.N:
        raise ValueError(f"lifted point has length {y.shape[-1]}, expected n*d = {cfg.N}")
    return y.reshape(y.shape[:-1] + (cfg.d, cfg.n))


def lift_point(cfg: LiftConfig, y: np.ndarray) -> np.ndarray:
    """Spatial part of the lift: x_i = sum of the n steps of coordinate i."""
    return _steps(cfg, y).sum(axis=-1)


def lift_point_time(cfg: LiftConfig, y: np.ndarray):
    """Full lift (x, t) with t = |y|^2 / (2d).

    t = 0 only at y = 0, which sits on the boundary of every time slab;
    callers that need t > 0 must exclude the origin themselves.
    """
    y = np.asarray(y, dtype=float)
    x = lift_point(cfg, y)
    t = np.sum(y * y, axis=-1) / (2.0 * cfg.d)
    if y.ndim == 1:
        return x, float(t)
    return x, t


@dataclass(frozen=True)
class LiftedDerivatives:
    """Derivatives of v(y) = u(lift(y)) at a single lifted point."""

    grad_v: np.ndarray
    laplacian_v: float
    radial_v: float
    gradsq_v: float


def lifted_derivatives(cfg: LiftConfig, u, y: np.ndarray) -> LiftedDerivatives:
    """Chain-rule package for v(y) = u(x, t) with (x, t) = lift(y).

    ``u`` must provide vectorized ``grad``, ``dt``, ``laplacian``, and
    ``grad_dt`` evaluators (a SpaceTimeField does).  Requires t > 0, i.e.
    y != 0.

    Identities used, with y_{i,j} the j-th step of coordinate i:

    * dv/dy_{i,j}   = u_{x_i} + (y_{i,j}/d) u_t
    * Lap_y v       = n (Lap_x u + u_t) + (2/d) (x . grad u_t + t u_tt)
    * y . grad_y v  = x . grad_x u + 2 t u_t
    * |grad_y v|^2  = n |grad_x u|^2 + (2/d) (x . grad u + t u_t) u_t
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("lifted_derivatives expects a single point")
    x, t = lift_point_time(cfg, y)
    if not t > 0.0:
        raise ValueError("lifted derivatives need t = |y|^2/(2d) > 0; got y = 0")

    d, n = cfg.d, cfg.n
    ux = np.asarray(u.grad(x, t), dtype=float).reshape(d)
    ut = float(u.dt(x, t))
    lap_u = float(u.laplacian(x, t))
    grad_ut = np.asarray(u.grad_dt(x, t), dtype=float).reshape(d)
    utt = float(u.dtt(x, t))

    steps = _steps(cfg, y)  # (d, n)
    grad_v = (ux[:, None] + steps * (ut / d)).reshape(cfg.N)
    lap_v = n * (lap_u + ut) + (2.0 / d) * (float(x @ grad_ut) + t * utt)
    radial_v = float(x @ ux) + 2.0 * t * ut
    gradsq_v = n * float(ux @ ux) + (2.0 / d) * (float(x @ ux) + t * ut) * ut
    return LiftedDerivatives(
        grad_v=grad_v,
        laplacian_v=float(lap_v),
        radial_v=radial_v,
        gradsq_v=float(gradsq_v),
    )
