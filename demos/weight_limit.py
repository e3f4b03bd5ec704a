"""
Finite bump weights and their Gaussian limit
============================================

Pushing the uniform sphere measure down from R^(n*d) produces the compactly
supported weight

    G_{t,n}(x) = A_{n,d,t} (1 - |x|^2 / (2ndt))_+^((nd-d-2)/2),

which converges to the heat kernel G_t as n grows, at rate O(1/n).  The
script tabulates the sup relative error on a grid and checks the uniform
ratio bound G_{t,n} <= C(d,n) G_t.
"""

import numpy as np

from dimlift import finite_weight, gaussian_weight, ratio_bound, weight_limit_report

d, t = 1, 1.0
grid = np.linspace(-2.0, 2.0, 201)

report = weight_limit_report(t, grid, n_list=[8, 16, 32, 64, 128])
print("sup relative error of G_{t,n} vs G_t on [-2, 2]:")
for n, err in zip(report.n_list, report.sup_rel_error):
    print(f"  n = {n:4d}   {err:.6f}")
print("successive ratios (should hover near 2):", np.round(report.successive_ratios, 3))

# pointwise values at the origin for a feel of the convergence
x0 = np.zeros(1)
print("\nG_t(0) =", gaussian_weight(t, x0))
for n in [8, 32, 128]:
    print(f"G_(t,{n})(0) =", finite_weight(n, t, x0))

# the ratio bound is uniform in x and decreasing in n toward 1
print("\nuniform ratio bounds sup_x G_(t,n)/G_t:")
for n in [4, 8, 32, 128, 512]:
    print(f"  n = {n:4d}   {ratio_bound(d, n):.6f}")

# outside the support radius sqrt(2ndt) the finite weight vanishes exactly
far = np.array([5.0])
print("\npast the support rim: G_(t,4)(5) =", finite_weight(4, 1.0, far))
