"""Gaussian weight, its finite-n sphere-slice approximants, and their comparison.

The finite weight of parameters (d, n, t) is the density on R^d obtained by
pushing the uniform probability measure on the sphere of radius sqrt(2dt) in
R^(n*d) forward through the step-sum map.  It is supported on the closed ball
|x|^2 <= 2ndt and converges pointwise to the heat kernel G_t as n grows.
The weights read d from the last axis of the points they are given;
ratio_bound, which is given no points, takes d.

Private helpers here serve the whole package.  _lifted_dim is the one
gate for d and n: every lift, every finite-weight integral and the weights
themselves refuse an n that is not an integer, or is below 1, through it,
with the same two messages.  _dimension gates every other dimension (an N,
or a d with no n), and _positive every t, tau, r or radius, each by the
name the caller used and in the layer that reads the value: the integrals
of dimlift.integrate gate their own arguments, so a functional that only
passes a value on to one of them does not check it again.
_finite_weight_law is the one place that forms the law of G_(t,n): its
exponent (nd - d - 2)/2, its support condition nd >= d + 2 and its
normalizer log(|S^(nd-d-1)| / |S^(nd-1)|), which finite_weight,
weight_limit_report, ratio_bound and lifted_mcf_density read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedConfigError

__all__ = [
    "gaussian_weight",
    "finite_weight",
    "ratio_bound",
    "weight_limit_report",
    "WeightLimitReport",
]


def _log_sphere_area(N: int) -> float:
    # log |S^(N-1)| = log(2 pi^(N/2) / Gamma(N/2))
    return math.log(2.0) + 0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N)


def _is_integer(value) -> bool:
    """Whether operator.index takes value: an int or a numpy integer, not a float."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _positive(name: str, value) -> None:
    """Refuse a value that is not a finite number > 0, by the name the caller gave it."""
    if not value > 0.0:
        raise ValueError(f"need {name} > 0, got {name}={value}")
    if not math.isfinite(value):
        raise ValueError(f"need a finite {name}, got {name}={value}")


def _dimension(name: str, value) -> int:
    """value, a dimension: an integer >= 1, refused by the name the caller gave it."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {name}={value}")
    return value


def _lifted_dim(d, n) -> int:
    """The dimension n*d of the lift of R^d in n steps, for integers d, n >= 1."""
    if not (_is_integer(d) and _is_integer(n)):
        raise ValueError(f"d and n must be integers, got d={d!r}, n={n!r}")
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    return n * d


def _finite_weight_law(d, n) -> tuple[int, float, float]:
    """nd, the exponent (nd - d - 2)/2 and log(|S^(nd-d-1)| / |S^(nd-1)|) of
    the finite weight G_(t,n) on R^d, which exists for nd >= d + 2:

        G_(t,n)(x) = [|S^(nd-d-1)| / |S^(nd-1)|] (2ndt)^(-d/2)
                     * (1 - |x|^2 / (2ndt))^((nd-d-2)/2).
    """
    nd = _lifted_dim(d, n)
    if nd <= d + 1:
        raise UnsupportedConfigError(f"finite weight needs n*d >= d + 2; got d={d}, n={n} (n*d = {nd})")
    return nd, 0.5 * (nd - d - 2), _log_sphere_area(nd - d) - _log_sphere_area(nd)


def gaussian_weight(t: float, x) -> np.ndarray:
    """Heat kernel G_t(x) = (4 pi t)^(-d/2) exp(-|x|^2 / 4t) on R^d, d = x.shape[-1]."""
    out = np.exp(_log_gaussian_weight(t, x))
    return out if out.ndim else float(out)


def _log_gaussian_weight(t: float, x) -> np.ndarray:
    """log G_t(x), finite where G_t underflows to 0."""
    _positive("t", t)
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rr = np.sum(x * x, axis=-1)
    return -rr / (4.0 * t) - 0.5 * d * np.log(4.0 * np.pi * t)


def finite_weight(n: int, t: float, x) -> np.ndarray:
    """Finite-n approximant G_{t,n}(x) of the heat kernel on R^d, d = x.shape[-1].

    G_{t,n}(x) = A * (1 - |x|^2 / (2ndt))^((nd-d-2)/2) on |x|^2 <= 2ndt,
    and exactly 0 outside the closed ball, with

        A = |S^(nd-1-d)| / (|S^(nd-1)| (2ndt)^(d/2)).

    On the rim |x|^2 = 2ndt the value is 0 when the exponent is positive and
    A when the exponent is 0 (the smallest supported case nd = d + 2).
    Requires an integer n with nd >= d + 2.
    """
    log_w, inside = _log_finite_weight(n, t, x)
    out = np.zeros(np.shape(log_w), dtype=float)
    np.copyto(out, np.exp(log_w), where=inside)
    return out if out.ndim else float(out)


def _log_finite_weight(n: int, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """log G_{t,n}(x) and the mask of supp G_{t,n}, the closed ball (or,
    at a positive exponent, the open one); the log is that of the prefactor
    outside the support, where the weight is 0."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    nd, expo, log_ratio = _finite_weight_law(d, n)
    _positive("t", t)

    r2max = 2.0 * nd * t
    log_pref = log_ratio - 0.5 * d * np.log(r2max)

    rr = np.sum(x * x, axis=-1)
    s = 1.0 - rr / r2max
    if expo == 0.0:
        # rim included: (.)^0 = 1 there
        return np.full(np.shape(rr), log_pref), s >= 0.0
    inside = s > 0.0
    return log_pref + expo * np.log(np.where(inside, s, 1.0)), inside


def ratio_bound(d: int, n: int) -> float:
    """Uniform bound on G_{t,n} / G_t over all of R^d (t-independent).

    Equals the ratio evaluated at its interior maximizer |x|^2/4t = d/2 + 1:

        C = [|S^(nd-1-d)| / |S^(nd-1)|] (4 pi / 2nd)^(d/2)
            * (1 - (d+2)/nd)^((nd-d-2)/2) * e^(d/2+1).

    Requires integers d and n with nd >= d + 3, so the maximizer sits inside
    the support.
    """
    nd, expo, log_ratio = _finite_weight_law(d, n)
    if nd < d + 3:
        raise UnsupportedConfigError(
            f"ratio bound needs n*d >= d + 3; got d={d}, n={n} (n*d = {nd})"
        )
    log_c = (
        log_ratio
        + 0.5 * d * np.log(4.0 * np.pi / (2.0 * nd))
        + expo * np.log1p(-(d + 2.0) / nd)
        + (0.5 * d + 1.0)
    )
    return float(np.exp(log_c))


@dataclass(frozen=True)
class WeightLimitReport:
    """Grid comparison of G_{t,n} against G_t for several n."""

    n_list: tuple
    sup_rel_error: np.ndarray  # shape (len(n_list),)
    successive_ratios: np.ndarray  # shape (len(n_list) - 1,)


def weight_limit_report(t: float, x_grid, n_list) -> WeightLimitReport:
    """Tabulate |G_{t,n}/G_t - 1| over a grid of points of R^d for each n.

    d is the grid's last axis; a flat grid holds points of R^1.  Grid points
    outside supp G_{t,n} contribute relative error exactly 1, since the
    finite weight vanishes there while G_t does not, even where G_t
    underflows to 0; inside the support, the ratio at such a point is taken
    from the two log weights.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim == 1:
        x_grid = x_grid[:, None]
    _dimension("d", x_grid.shape[-1])
    if x_grid.size == 0:
        raise ValueError("empty evaluation grid")

    log_g = _log_gaussian_weight(t, x_grid)
    g = np.exp(log_g)
    tail = g == 0.0
    rel = np.empty((len(n_list), x_grid.shape[0]))
    for k, n in enumerate(n_list):
        log_gn, inside = _log_finite_weight(n, t, x_grid)  # refuses an n that is not an integer
        gn = np.where(inside, np.exp(log_gn), 0.0)  # as finite_weight forms it
        # where G_t underflows, the ratio is 0 outside the support and the
        # exp of the difference of the logs inside it, bounded as in ratio_bound
        ratio = np.divide(gn, g, out=np.zeros_like(g), where=~tail)
        far = tail & inside
        ratio[far] = np.exp(log_gn[far] - log_g[far])
        rel[k] = np.abs(ratio - 1.0)
    sup = rel.max(axis=1)
    ratios = sup[:-1] / sup[1:]
    return WeightLimitReport(n_list=tuple(int(n) for n in n_list), sup_rel_error=sup, successive_ratios=ratios)
