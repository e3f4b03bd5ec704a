"""Shared numerics for the functional implementations."""

from __future__ import annotations

import numpy as np

DENOMINATOR_FLOOR = 1e-30


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


def gradsq(field):
    """Integrand y -> |grad v(y)|^2 of a field with a grad callable."""

    def f(y):
        g = np.asarray(field.grad(y), dtype=float)
        return np.sum(g * g, axis=-1)

    return f
