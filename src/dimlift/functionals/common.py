"""Shared numerics for the functional implementations."""

from __future__ import annotations

import numpy as np

DENOMINATOR_FLOOR = 1e-30

# numpy sums fewer than this many terms of a row one by one in index order,
# starting from +0.0; from this count on it sums them pairwise
_PAIRWISE_FROM = 8


def power_ratio(tau, t: float, p: float):
    """(tau/t)^p for 0 < tau <= t, evaluated in log space.

    Large p drives the factor below the double-precision floor well inside
    (0, t); anything smaller than exp(-690) is truncated to exactly 0.
    """
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore"):
        expo = p * np.log(tau / t)
    out = np.where(expo < -690.0, 0.0, np.exp(np.maximum(expo, -745.0)))
    return float(out) if out.ndim == 0 else out


def dot(a, b):
    """sum_k a[..., k] * b[..., k] of float arrays, with the bits of
    np.sum(a * b, axis=-1).

    Below _PAIRWISE_FROM terms the products are added to +0.0 one by one in
    index order, which is what np.sum does for so few terms, whatever the
    memory layout; this skips the reduction's per-call overhead, which
    dominates when the axis is short.  From _PAIRWISE_FROM terms on np.sum
    itself is called, since its pairwise order then depends on the layout.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        a, b = np.broadcast_arrays(a, b)
    n = a.shape[-1]
    if n == 0 or n >= _PAIRWISE_FROM:
        return np.sum(a * b, axis=-1)
    out = a[..., 0] * b[..., 0]
    out += 0.0  # np.sum starts from +0.0: a lone -0.0 product sums to +0.0
    for k in range(1, n):
        out += a[..., k] * b[..., k]
    return out


def gradsq(field):
    """Integrand |grad v|^2 of a field with a grad callable, taking the
    arguments of grad: y -> |grad v(y)|^2, or (x, t) -> |grad u(x, t)|^2."""

    def f(*args):
        g = np.asarray(field.grad(*args), dtype=float)
        return dot(g, g)

    return f
