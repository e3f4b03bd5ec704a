"""Dimensional lifting toolkit.

Functions on R^d x R_+ are matched with functions on a high-dimensional
space R^(n*d) through the step map x_i = sum_j y_{i,j}, t = |y|^2 / (2d).
The package computes both sides of that correspondence at desk scale:
weighted integrals (deterministic quadrature and seeded Monte Carlo),
Gaussian and finite bump weights, a catalog of closed-form test fields,
and the classical monotone quantities (frequency functions, Carleman
inequalities, two-phase products, harmonic-map and surface densities)
together with their finite-n counterparts.
"""

from .errors import AccuracyError, DegenerateDenominatorError, UnsupportedConfigError
from .lift import (
    lift_point,
    lift_point_time,
    lifted_field,
    sphere_area,
)
from .weights import (
    WeightLimitReport,
    finite_weight,
    gaussian_weight,
    ratio_bound,
    weight_limit_report,
)
from .integrate import (
    IntegralEstimate,
    MonteCarloSpec,
    PushforwardCheck,
    integrate_annulus,
    integrate_ball,
    integrate_sphere,
    integrate_spacetime,
    integrate_weighted,
    integrate_window,
    mc_mean,
    pushforward_check_ball,
    pushforward_check_sphere,
    sample_mu_ball,
    sample_sphere_uniform,
)
from . import fields
from . import functionals

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "DegenerateDenominatorError",
    "UnsupportedConfigError",
    "lift_point",
    "lift_point_time",
    "lifted_field",
    "sphere_area",
    "WeightLimitReport",
    "finite_weight",
    "gaussian_weight",
    "ratio_bound",
    "weight_limit_report",
    "IntegralEstimate",
    "MonteCarloSpec",
    "PushforwardCheck",
    "integrate_annulus",
    "integrate_ball",
    "integrate_sphere",
    "integrate_spacetime",
    "integrate_weighted",
    "integrate_window",
    "mc_mean",
    "pushforward_check_ball",
    "pushforward_check_sphere",
    "sample_mu_ball",
    "sample_sphere_uniform",
    "fields",
    "functionals",
    "__version__",
]
