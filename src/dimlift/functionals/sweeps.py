"""Monotonicity sweeps: sample a functional on a grid and count decreases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MonotonicityReport", "monotonicity_sweep"]

# a step may fall by this much relative to the local value scale
SWEEP_TOL = 1e-8


@dataclass(frozen=True)
class MonotonicityReport:
    values: np.ndarray
    fd_derivatives: np.ndarray
    min_slope: float
    violations: int

    @property
    def monotone(self) -> bool:
        return self.violations == 0


def _step_margins(values: np.ndarray) -> np.ndarray:
    """-step - SWEEP_TOL * scale for each step of values, scale being the
    larger of 1 and the two values' magnitudes: positive where a step falls
    by more than SWEEP_TOL relative to that scale."""
    steps = np.diff(values)
    scale = np.maximum(1.0, np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
    return -steps - SWEEP_TOL * scale


def monotonicity_sweep(curve, grid) -> MonotonicityReport:
    """Evaluate curve on a strictly increasing grid (>= 8 points) and count
    steps that decrease by more than SWEEP_TOL relative to the local value scale.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise ValueError("need a 1-d grid with at least 8 points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    values = np.array([float(curve(s)) for s in grid])
    fd = np.diff(values) / np.diff(grid)
    violations = int(np.sum(_step_margins(values) > 0.0))
    return MonotonicityReport(values=values, fd_derivatives=fd, min_slope=float(fd.min()), violations=violations)
