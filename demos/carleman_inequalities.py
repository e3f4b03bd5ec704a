"""
Carleman inequalities with explicit constants
=============================================

Elliptic: || |y|^(2-gamma) Laplace(v) || >= c(gamma, N) || |y|^(-gamma) v ||
for v supported in an annulus away from the origin, with

    c(gamma, N) = min_l |(N/2 + l + gamma - 2)(N/2 + l - gamma)|.

Parabolic: a backward-Gaussian-weighted bound with constant 8/eps^2, where
eps is the distance from beta = 2*alpha - d/2 - 1 to the integers.
"""

import numpy as np

from dimlift.fields import bump_radial, bump_spacetime
from dimlift.functionals import (
    carleman_elliptic_check,
    carleman_elliptic_constant,
    carleman_parabolic_check,
)

# ---------------------------------------------------------------------------
# the constant: a one-line scan over spherical harmonic bands

print("c(1, 3) =", carleman_elliptic_constant(1.0, 3), "(expected 1/4)")
print("c(1, 4) =", carleman_elliptic_constant(1.0, 4), "(expected 1)")
print("c(N/2, N) =", carleman_elliptic_constant(2.5, 5), "(degenerate, 0)")

# ---------------------------------------------------------------------------
# elliptic inequality on annulus bumps; ratio = lhs/rhs stays >= 1

for gamma in (0.7, 1.5, 2.25):
    v = bump_radial(3, 1.0, 2.0, k=4)
    rep = carleman_elliptic_check(v, gamma)
    print(f"gamma = {gamma}: lhs = {rep.lhs:.4f}  rhs = {rep.rhs:.4f}  "
          f"ratio = {rep.ratio:.1f}  satisfied = {rep.satisfied}")

# the inequality is scaling invariant; rescaling the bump moves both sides
# by the same factor (up to the profile normalization)
v_wide = bump_radial(3, 2.0, 4.0, k=4)
rep = carleman_elliptic_check(v_wide, 1.5)
print("rescaled annulus, gamma = 1.5: ratio =", f"{rep.ratio:.6f}")

# ---------------------------------------------------------------------------
# parabolic inequality: admissible alpha keeps beta positive, non-integer

for alpha in (1.0, 1.875, 2.3):
    u = bump_spacetime(1, 0.5, 1.5, 0.25, 1.0, k=4)
    rep = carleman_parabolic_check(u, alpha)
    print(f"alpha = {alpha}: eps = {rep.epsilon}  constant = {rep.constant_used}  "
          f"lhs = {rep.lhs:.4e}  rhs = {rep.rhs:.4e}  satisfied = {rep.satisfied}")

# beta integer (alpha = 1.25, d = 1) is rejected: the constant blows up
try:
    carleman_parabolic_check(bump_spacetime(1, 0.5, 1.5, 0.25, 1.0), 1.25)
except ValueError as exc:
    print("alpha = 1.25 rejected:", exc)
