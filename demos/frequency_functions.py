"""
Frequency functions, elliptic and parabolic
===========================================

The Almgren frequency L(r) = r D(r) / H(r) of a harmonic function counts
its homogeneity degree; the parabolic analogue of Poon is constant in t
for caloric polynomials and monotone in general.  The lifted finite-n
frequency L_n converges to twice the parabolic frequency.
"""

import numpy as np

from dimlift.fields import caloric_polynomial, harmonic_polynomial, heat_kernel_translate
from dimlift.functionals import almgren, lifted_frequency, monotonicity_sweep, poon

# ---------------------------------------------------------------------------
# elliptic: L recovers the polynomial degree at every radius

for kind, N, k in [("x1", 3, 1), ("x1x2", 3, 2)]:
    v = harmonic_polynomial(kind, N)
    values = [almgren(v, r).L for r in (0.5, 1.0, 2.0)]
    print(f"{kind}: degree {k}, L(r) =", np.round(values, 12))
v = harmonic_polynomial("re_zk", 2, k=3)
print("Re z^3: degree 3, L(1) =", almgren(v, 1.0).L)

# ---------------------------------------------------------------------------
# parabolic: constancy for caloric polynomials, monotonicity in general

for kind, half_degree in [("x1", 0.5), ("x1sq", 1.0), ("x1cube", 1.5)]:
    u = caloric_polynomial(kind, 1)
    values = [poon(u, t).L for t in (0.25, 1.0, 4.0)]
    print(f"{kind}: script-L =", np.round(values, 12), f"(expected {half_degree})")

# a translated heat kernel is caloric but not homogeneous; its frequency
# is no longer constant, only monotone nondecreasing
u = heat_kernel_translate(1, np.array([1.5]), 2.0)
sweep = monotonicity_sweep(lambda t: poon(u, t).L, np.linspace(0.1, 1.0, 16))
print("heat-kernel translate: violations =", sweep.violations,
      " min slope =", f"{sweep.min_slope:.4f}")

# ---------------------------------------------------------------------------
# lifted frequency: L_n -> 2 script-L; exact at every n for low degrees,
# O(1/n^2) for the cubic

u = caloric_polynomial("x1sq", 1)
print("\nx1sq: 2*script-L =", 2 * poon(u, 1.0).L)
for n in [10, 40]:
    print(f"  L_{n} =", lifted_frequency(u, n, 1.0))

u = caloric_polynomial("x1cube", 1)
limit = 2 * poon(u, 1.0).L
print("x1cube: 2*script-L =", limit)
for n in [10, 40, 160]:
    ln = lifted_frequency(u, n, 1.0)
    print(f"  L_{n} = {ln:.10f}   error {abs(ln - limit):.2e}")
