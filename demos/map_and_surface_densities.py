"""
Energy densities for sphere-valued maps and graph surfaces
==========================================================

Four monotone densities from geometric analysis, computed on catalog
examples with known values:

* scaled ball energy of a harmonic map (equator map: 8 pi at N = 3),
* Gaussian energy of a harmonic map heat flow (circle map: exactly t),
* ball density of a minimal surface (planes: 1; offset planes: closed form),
* Gaussian density of a mean curvature flow graph (planes: (4 pi)^(d/2)).

Each has a finite-n analogue built from the lifted weight; several are
exact at every n, the constant graph converges at rate 1/n.
"""

import numpy as np

from dimlift.fields import circle_map, equator_map, graph_linear, graph_plane
from dimlift.functionals import (
    hm_phi,
    huisken_density,
    lifted_hm_Phi,
    lifted_mcf_density,
    mcf_residual,
    ms_density,
    ms_density_tilde,
    struwe_Phi,
)

# ---------------------------------------------------------------------------
# harmonic maps: equator map density and the circle-map heat flow

em = equator_map(3)
print("equator map, N = 3: phi(1) =", hm_phi(em, np.zeros(3), 1.0), "=", 8 * np.pi)
print("equator map, N = 4: phi(1) =", hm_phi(equator_map(4), np.zeros(4), 1.0),
      "=", 3 * np.pi**2)

cm = circle_map(1)
print("circle map: Phi(t) =", [struwe_Phi(cm, t) for t in (0.5, 1.0, 2.0)])
print("lifted circle map at t = 0.9:",
      [lifted_hm_Phi(cm, n, 0.9) for n in (5, 50)])
print("lifted equator map, d = 3 (exactly 1 at every n):",
      [lifted_hm_Phi(em, n, 0.7) for n in (4, 40)])

# ---------------------------------------------------------------------------
# minimal surfaces: plane densities and the offset-plane closed form

plane = graph_plane(2, 0.0)
tilted = graph_linear([0.3, -0.2])
print("\nplane density:", ms_density(plane, np.zeros(3), 1.0))
print("tilted plane density:", ms_density(tilted, np.zeros(3), 1.2))

delta = 0.4
center = np.array([0.0, 0.0, delta])
for r in (0.8, 1.0, 1.5):
    theta = ms_density(plane, center, r)
    print(f"offset plane, r = {r}: Theta = {theta:.10f}"
          f"   closed form {(1 - delta**2 / r**2):.10f}")

# the density derivative identity, boundary integral against closed form
rep = ms_density_tilde(plane, None, center, 1.0)
print("derivative rhs at r = 1:", rep.derivative_rhs, "(closed form 0.32)")

# ---------------------------------------------------------------------------
# mean curvature flow: Gaussian densities of static graphs

for name, surf in [("flat", graph_plane(1, 0.0)),
                   ("constant 0.7", graph_plane(1, 0.7)),
                   ("tilted", graph_linear([0.4]))]:
    vals = [huisken_density(surf, t) for t in (0.5, 1.0, 2.0)]
    print(f"\n{name} graph: theta(t) =", np.round(vals, 10))
    print("  flow residual at random points:",
          np.max(np.abs(mcf_residual(surf, np.linspace(-1, 1, 7)[:, None], 1.0))))

flat_limit = (4 * np.pi) ** 0.5
const = graph_plane(1, 0.7)
limit = huisken_density(const, 1.0)
print("\nlifted density of the constant graph (limit", f"{limit:.8f})")
for n in [10, 40, 160]:
    v = lifted_mcf_density(const, n, 1.0)
    print(f"  n = {n:3d}   Phi_n = {v:.8f}   error {abs(v - limit):.2e}")
print("tilted graph is exact at every n:",
      lifted_mcf_density(graph_linear([0.4]), 25, 1.0),
      "vs", huisken_density(graph_linear([0.4]), 1.0))
