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

from . import errors, fields, functionals, integrate, lift, weights
from .errors import *
from .lift import *
from .weights import *
from .integrate import *

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
__all__ = [
    *errors.__all__,
    *lift.__all__,
    *weights.__all__,
    *integrate.__all__,
    "fields",
    "functionals",
    "__version__",
]
