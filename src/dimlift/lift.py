"""Coordinate maps between a base space R^d and its n-fold lift R^(n*d).

A lifted point y is read as n steps of d coordinates each, stored row-major:
``y[(i-1)*n + (j-1)]`` is step j of coordinate i for i in 1..d, j in 1..n.
The lift map sends y to the pair (x, t) with ``x_i = sum_j y_{i,j}`` and
``t = |y|^2 / (2d)``; ``lifted_field`` pulls a space-time field back along
it to a field on R^(n*d) that the elliptic functionals read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .weights import _check_integers, _log_sphere_area

__all__ = [
    "LiftConfig",
    "sphere_area",
    "lift_point",
    "lift_point_time",
    "lifted_field",
]


@dataclass(frozen=True)
class LiftConfig:
    """Base dimension d and number of steps n of a lift."""

    d: int
    n: int

    def __post_init__(self) -> None:
        _check_integers(self.d, self.n)
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


def lifted_field(u, cfg: LiftConfig) -> ScalarField:
    """The lift v(y) = u(x, t) of u, a field on R^(nd) in rotated coordinates.

    The field reads w = Q y for an orthogonal Q whose first d rows are the
    unit step-sum directions, so x = sqrt(n) w_1..d and t = |w|^2 / (2d).
    It depends on w only through w_1..w_d and |w|: it declares
    symmetry = d, accepts points of any width of at least d + 1, and
    returns a gradient of the width it was given.  With the derivatives of
    u taken at (x, t):

    * grad v = sqrt(n) u_x on w_1..w_d, plus (w/d) u_t on every column
    * Lap v  = n (Lap u + u_t) + (2/d) (x . grad u_t + t u_tt)

    ``u`` must provide vectorized ``value``, ``grad``, ``dt``,
    ``laplacian``, ``grad_dt`` and ``dtt`` evaluators (a SpaceTimeField
    does).
    """
    d, n = cfg.d, cfg.n
    if u.d != d:
        raise ValueError(f"field lives on R^{u.d}, but the lift has d = {d}")
    root_n = math.sqrt(n)

    def base(w):
        w = np.asarray(w, dtype=float)
        return w, root_n * w[..., :d], np.sum(w * w, axis=-1) / (2.0 * d)

    def value(w):
        _, x, t = base(w)
        return u.value(x, t)

    def grad(w):
        w, x, t = base(w)
        g = w * (np.asarray(u.dt(x, t), float) / d)[..., None]
        g[..., :d] += root_n * np.asarray(u.grad(x, t), float)
        return g

    def laplacian(w):
        _, x, t = base(w)
        x_grad_ut = np.sum(x * np.asarray(u.grad_dt(x, t), float), axis=-1)
        heat = np.asarray(u.laplacian(x, t), float) + np.asarray(u.dt(x, t), float)
        return n * heat + (2.0 / d) * (x_grad_ut + t * np.asarray(u.dtt(x, t), float))

    return ScalarField(
        N=cfg.N,
        value=value,
        grad=grad,
        laplacian=laplacian,
        name=f"lift of {u.name} (d={d}, n={n})",
        symmetry=d,
    )
