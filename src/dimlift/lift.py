"""Coordinate maps between a base space R^d and its n-fold lift R^(n*d).

A lifted point y is read as n steps of d coordinates each, stored row-major:
``y[(i-1)*n + (j-1)]`` is step j of coordinate i for i in 1..d, j in 1..n.
The lift map sends y to the pair (x, t) with ``x_i = sum_j y_{i,j}`` and
``t = |y|^2 / (2d)``; ``lifted_field`` pulls a space-time field back along
it to a field on R^(n*d) that the elliptic functionals read.

A lift is fixed by what it lifts and by its step count n: every function
here and every ``lifted_*`` functional takes n and reads d from its field,
map or surface, or, for a lifted point, as its width / n.  One gate,
``weights._lifted_dim``, checks d and n for all of them, as it does for the
finite weight G_(t,n) and the integrals against it; the law of G_(t,n) is
formed once, in ``weights._finite_weight_law``.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField
from .weights import _declared, _dimension, _is_integer, _lifted_dim, _log_sphere_area

__all__ = [
    "sphere_area",
    "lift_point",
    "lift_point_time",
    "lifted_field",
]


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere S^(N-1) in R^N.

    The closed form 2 pi^(N/2) / Gamma(N/2) while Gamma(N/2) is finite (so
    N = 2 gives 2 pi exactly); beyond that it is computed in log space, so
    large N stays finite.
    """
    _dimension("N", N)
    try:
        return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)
    except OverflowError:
        return float(np.exp(_log_sphere_area(N)))


def _steps(y: np.ndarray, n: int) -> np.ndarray:
    """Reshape flat lifted coordinates to (..., d, n) step layout, d = width / n."""
    y = np.asarray(y, dtype=float)
    width = y.shape[-1]
    # an n that is not a positive integer fails _lifted_dim, which names the width as d
    d = width // n if _is_integer(n) and n >= 1 else width
    if _lifted_dim(d, n) != width:
        raise ValueError(f"lifted point has width {width}, which is not a multiple of n = {n}")
    return y.reshape(y.shape[:-1] + (d, n))


def lift_point(y: np.ndarray, n: int) -> np.ndarray:
    """Spatial part of the lift: x_i = sum of the n steps of coordinate i."""
    return _steps(y, n).sum(axis=-1)


def lift_point_time(y: np.ndarray, n: int):
    """Full lift (x, t) with t = |y|^2 / (2d), d = width / n.

    t = 0 only at y = 0, which sits on the boundary of every time slab;
    callers that need t > 0 must exclude the origin themselves.
    """
    y = np.asarray(y, dtype=float)
    x = lift_point(y, n)
    t = np.sum(y * y, axis=-1) / (2.0 * x.shape[-1])
    if y.ndim == 1:
        return x, float(t)
    return x, t


def lifted_field(u, n: int) -> ScalarField:
    """The lift v(y) = u(x, t) of u in n steps, a field on R^(nd) in rotated coordinates.

    The field reads w = Q y for an orthogonal Q whose first d rows are the
    unit step-sum directions, so x = sqrt(n) w_1..d and t = |w|^2 / (2d).
    When u declares coords = k with 1 <= k < d it reads x = sqrt(n) w_1..k
    only; otherwise k = d, and a coords that is not an integer is refused
    (weights._declared).  So v depends on w only through w_1..w_k and |w|:
    it declares symmetry = k, accepts points of any width of at least k + 1,
    and returns a gradient of the width it was given.  With the derivatives
    of u taken at (x, t):

    * grad v = sqrt(n) u_x on w_1..w_k, plus (w/d) u_t on every column
    * Lap v  = n (Lap u + u_t) + (2/d) (x . grad u_t + t u_tt)

    ``u`` must provide ``d``, ``coords`` and vectorized ``value``,
    ``grad``, ``dt``, ``laplacian``, ``grad_dt`` and ``dtt`` evaluators (a
    SpaceTimeField does).
    """
    d = u.d
    N = _lifted_dim(d, n)
    k = _declared("coords", u.coords, 1, d - 1) or d
    root_n = math.sqrt(n)

    def base(w):
        w = np.asarray(w, dtype=float)
        return w, root_n * w[..., :k], np.sum(w * w, axis=-1) / (2.0 * d)

    def value(w):
        _, x, t = base(w)
        return u.value(x, t)

    def grad(w):
        w, x, t = base(w)
        g = w * (np.asarray(u.dt(x, t), float) / d)[..., None]
        g[..., :k] += root_n * np.asarray(u.grad(x, t), float)
        return g

    def laplacian(w):
        _, x, t = base(w)
        x_grad_ut = np.sum(x * np.asarray(u.grad_dt(x, t), float), axis=-1)
        heat = np.asarray(u.laplacian(x, t), float) + np.asarray(u.dt(x, t), float)
        return n * heat + (2.0 / d) * (x_grad_ut + t * np.asarray(u.dtt(x, t), float))

    return ScalarField(
        N=N,
        value=value,
        grad=grad,
        laplacian=laplacian,
        name=f"lift of {u.name} (d={d}, n={n})",
        symmetry=k,
    )
