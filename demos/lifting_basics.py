"""
Lifting points and derivatives
==============================

A function u(x, t) on R^d x R_+ pulls back to v(y) = u(F(y)) on R^(n*d)
through the step map x_i = sum_j y_{i,j}, t = |y|^2 / (2d).  This script
walks the map on concrete points, checks the chain-rule identities against
finite differences, and compares the push-forward of the uniform sphere
measure with the matching weighted quadrature.
"""

import numpy as np

from dimlift import LiftConfig, MonteCarloSpec, lift_point_time, lifted_derivatives
from dimlift import pushforward_check_sphere
from dimlift.fields import caloric_polynomial, fd_check_spacetime

# ---------------------------------------------------------------------------
# the step map on a concrete point: d = 2 coordinates, n = 2 steps each

cfg = LiftConfig(d=2, n=2)
y = np.array([1.0, 1.0, 2.0, -2.0])  # rows (1,1) and (2,-2)
x, t = lift_point_time(cfg, y)
print("lifted point:", x, "time:", t)  # x = (2, 0), t = |y|^2/4

# ---------------------------------------------------------------------------
# chain rule: gradients and Laplacians of the composed map

u = caloric_polynomial("x1cube", 2)  # x1^3 - 6 t x1, backward caloric
rng = np.random.default_rng(7)
worst = {"grad": 0.0, "laplacian": 0.0, "radial": 0.0, "gradsq": 0.0}
for _ in range(25):
    y = rng.standard_normal(cfg.N)
    der = lifted_derivatives(cfg, u, y)

    # finite differences of v(y) = u(F(y)) directly in the lifted variable
    h = 1e-5
    def v(z):
        xx, tt = lift_point_time(cfg, z)
        return float(u.value(xx, tt))

    g_fd = np.array([(v(y + h * e) - v(y - h * e)) / (2 * h) for e in np.eye(cfg.N)])
    lap_fd = sum(
        (v(y + 1e-3 * e) - 2 * v(y) + v(y - 1e-3 * e)) / 1e-6 for e in np.eye(cfg.N)
    )
    worst["grad"] = max(worst["grad"], np.max(np.abs(der.grad_v - g_fd)))
    worst["laplacian"] = max(worst["laplacian"], abs(der.laplacian_v - lap_fd))
    worst["radial"] = max(worst["radial"], abs(der.radial_v - float(y @ g_fd)))
    worst["gradsq"] = max(worst["gradsq"], abs(der.gradsq_v - float(g_fd @ g_fd)))
print("chain rule vs finite differences:", {k: f"{v:.2e}" for k, v in worst.items()})

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
