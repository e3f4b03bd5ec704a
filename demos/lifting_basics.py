"""
Lifting points and derivatives
==============================

A function u(x, t) on R^d x R_+ pulls back to v(y) = u(F(y)) on R^(n*d)
through the step map x_i = sum_j y_{i,j}, t = |y|^2 / (2d).  This script
walks the map on concrete points, checks the derivatives of the lifted
field against finite differences, and compares the push-forward of the
uniform sphere measure with the matching weighted quadrature.
"""

import numpy as np

from dimlift import MonteCarloSpec, lift_point_time, lifted_field
from dimlift import pushforward_check_sphere
from dimlift.fields import caloric_polynomial, fd_check_scalar, fd_check_spacetime

# ---------------------------------------------------------------------------
# the step map on a concrete point: d = 2 coordinates, n = 2 steps each

n = 2
y = np.array([1.0, 1.0, 2.0, -2.0])  # rows (1,1) and (2,-2)
x, t = lift_point_time(y, n)
print("lifted point:", x, "time:", t)  # x = (2, 0), t = |y|^2/4

# ---------------------------------------------------------------------------
# chain rule: the lift v(y) = u(F(y)) as a field on R^(n*d), read in rotated
# coordinates w whose first d axes are the unit step-sum directions

u = caloric_polynomial("x1cube", 2)  # x1^3 - 6 t x1, backward caloric
v = lifted_field(u, n)
rng = np.random.default_rng(7)
w = rng.standard_normal((25, v.N))

# finite differences of v directly in the lifted variable
h = 1e-3
lap_fd = sum((v.value(w + h * e) - 2 * v.value(w) + v.value(w - h * e)) / h**2 for e in np.eye(v.N))
worst = {"grad": fd_check_scalar(v, w), "laplacian": np.max(np.abs(v.laplacian(w) - lap_fd))}
print("lifted field vs finite differences:", {k: f"{e:.2e}" for k, e in worst.items()})

# the same field also passes its own derivative self-check
print("field self-check:", fd_check_spacetime(u, rng.standard_normal((20, 2)), np.linspace(0.5, 1.0, 20)))

# ---------------------------------------------------------------------------
# push-forward of the uniform measure on the lifted sphere |y| = sqrt(2dt):
# averaging phi(x(y)) equals integrating phi against the finite bump weight

mc = MonteCarloSpec(seed=11, samples=200_000)
res = pushforward_check_sphere(lambda x: x[..., 0] ** 4, d=1, n=6, t=0.8, mc=mc)
print("sphere push-forward, phi = x1^4:")
print("  monte carlo:", res.mc_value, "+/-", res.mc_std_error)
print("  quadrature :", res.quad_value)
print("  discrepancy:", res.discrepancy_in_std_errors, "standard errors")
