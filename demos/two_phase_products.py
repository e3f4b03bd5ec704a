"""
Two-phase monotonicity products
===============================

Two nonnegative functions with disjoint supports meeting along a free
boundary have a monotone product of scaled Dirichlet energies.  The
half-space pair (x1)^+ / (x1)^- saturates the classical values: pi^2/4
for the elliptic product at N = 2 and 1/4 for the caloric one.  The
lifted product equals its limit exactly at every n for the half-space
pair, and converges at rate 1/n for the cubic pair.
"""

import numpy as np

from dimlift.fields import half_space_pair, half_space_power_pair
from dimlift.functionals import (
    acf_phi,
    caffarelli_Phi,
    lifted_two_phase,
    psi,
    support_fraction,
)

# ---------------------------------------------------------------------------
# elliptic product at N = 2: phi(r) = pi^2/4 for the half-plane pair

v1, v2 = half_space_pair(2, kind="elliptic")
print("half-plane support fraction:", support_fraction(v1, 1.0))
for r in (0.5, 1.0, 2.0):
    rep = acf_phi(v1, v2, r)
    print(f"phi({r}) = {rep.value:.15f}   (pi^2/4 = {np.pi**2 / 4:.15f})")

# psi enters the nonhomogeneous derivative bound; spot values are exact
print("psi(1/4) =", psi(0.25), " psi(1/2) =", psi(0.5), " psi(1) =", psi(1.0))

# ---------------------------------------------------------------------------
# caloric product: Phi(tau) = 1/4 for the half-space pair

u1, u2 = half_space_pair(1, kind="parabolic")
for tau in (0.5, 1.0, 2.0):
    rep = caffarelli_Phi(u1, u2, tau)
    print(f"Phi({tau}) = {rep.value:.15f}")

# ---------------------------------------------------------------------------
# lifted product: exact for half-space, O(1/n) for the cubic pair

print("\nlifted half-space pair (should be 0.25 at every n):")
for n in [5, 20, 80]:
    rep = lifted_two_phase(u1, u2, n, 0.7)
    print(f"  n = {n:3d}   Phi_n = {rep.value:.15f}")

w1, w2 = half_space_power_pair(1, power=3)
limit = caffarelli_Phi(w1, w2, 0.7).value
print("\ncubic pair: Phi =", limit, "(closed form 9 tau^2 =", 9 * 0.49, ")")
for n in [5, 20, 80, 320]:
    rep = lifted_two_phase(w1, w2, n, 0.7)
    print(f"  n = {n:3d}   Phi_n = {rep.value:.10f}   error {abs(rep.value - limit):.2e}")
