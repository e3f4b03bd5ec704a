"""Every library input check raises its own error, with its own reason.

Each row below is one ``raise`` of the library that no other test reaches.
They are safety code: a row here keeps a later simplification from dropping
one of them unnoticed.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import dimlift.integrate
from dimlift.errors import AccuracyError, DegenerateDenominatorError, UnsupportedConfigError
from dimlift.fields import (
    GraphSurface,
    bump_radial,
    bump_spacetime,
    caloric_polynomial,
    circle_map,
    equator_map,
    graph_plane,
    half_space_pair,
    half_space_power_pair,
    harmonic_polynomial,
    heat_kernel_translate,
)
from dimlift.functionals import (
    acf_dphi_lower_bound,
    acf_phi,
    almgren,
    almgren_dL_lower_bound,
    caffarelli_Phi,
    carleman_elliptic_check,
    carleman_elliptic_constant,
    carleman_parabolic_check,
    hm_dphi_lower_bound,
    hm_phi,
    huisken_density,
    lifted_frequency,
    lifted_hm_Phi,
    lifted_mcf_density,
    lifted_two_phase,
    ms_density,
    ms_density_tilde,
    poon,
    struwe_Phi,
    support_fraction,
)
from dimlift.integrate import (
    MonteCarloSpec,
    integrate_annulus,
    integrate_ball,
    integrate_sphere,
    integrate_spacetime,
    integrate_weighted,
    integrate_window,
    pushforward_check_ball,
    pushforward_check_sphere,
    sample_mu_ball,
    sample_sphere_uniform,
)
from dimlift.lift import lift_point, lift_point_time, lifted_field, sphere_area
from dimlift.weights import finite_weight, gaussian_weight, ratio_bound, weight_limit_report

MC = MonteCarloSpec(samples=1000, seed=1)


def _one(x, *_):
    return np.ones(np.shape(x)[:-1])


def _sphere_band_sheet():
    """A graph over R^2 with a flat top at height 1/2 that joins the unit
    sphere around the origin and follows it down: over that band the sheet
    lies on the sphere, so |(w - w0)^T| vanishes on the slice."""

    def value(y, t):
        s = np.sum(np.asarray(y, float) ** 2, axis=-1)
        return np.minimum(0.5, np.sqrt(np.maximum(1.0 - s, 0.0)))

    def grad(y, t):
        y = np.asarray(y, float)
        h = np.sqrt(np.maximum(1.0 - np.sum(y * y, axis=-1), 1e-300))
        return np.where((h < 0.5)[..., None], -y / h[..., None], 0.0)

    return GraphSurface(dim=2, value=value, grad=grad, hessian=None, dt=None)


ZERO_H = lambda y: np.zeros(np.shape(y)[:-1])
ZERO_H_VEC = lambda y: np.zeros(np.shape(y))
X1 = harmonic_polynomial("x1", 2)
U1 = caloric_polynomial("x1", 1)
# 0 on the sphere of radius 0.5, and 0 at every time outside [1, 2]
HOLLOW = bump_radial(3, 1.0, 2.0)
LATE = bump_spacetime(1, 1.0, 2.0, 1.0, 2.0)


def _exact(reason):
    """A reason the error must give in full, not only contain."""
    return re.compile(f"^{re.escape(reason)}$")


CASES = [
    # fields
    ("x1 on R^0", lambda: harmonic_polynomial("x1", 0), ValueError, "need N >= 1"),
    ("x1x2 on R^1", lambda: harmonic_polynomial("x1x2", 1), ValueError, "x1x2 needs N >= 2"),
    ("re_zk on R^3", lambda: harmonic_polynomial("re_zk", 3, 2), ValueError, "re_zk lives on R^2"),
    ("re_zk without k", lambda: harmonic_polynomial("re_zk", 2), ValueError, "re_zk needs a degree k >= 1"),
    ("harmonic kind", lambda: harmonic_polynomial("x9", 2), ValueError, "unknown harmonic polynomial kind 'x9'"),
    ("caloric on R^0", lambda: caloric_polynomial("x1", 0), ValueError, "need d >= 1"),
    ("caloric kind", lambda: caloric_polynomial("x9", 1), ValueError, "unknown caloric polynomial kind 'x9'"),
    ("kernel s0", lambda: heat_kernel_translate(1, None, 0.0), ValueError, "need s0 > 0"),
    # a translate reads every coordinate: a 1-wide point is not (x_1, x_1)
    (
        "kernel 1-wide point",
        lambda: heat_kernel_translate(2, None, 3.0).value(np.zeros((3, 1)), 1.0),
        ValueError,
        "reads points of width d = 2, got width 1",
    ),
    (
        "kernel 3-wide point",
        lambda: heat_kernel_translate(2, None, 3.0).grad(np.zeros((3, 3)), 1.0),
        ValueError,
        "reads points of width d = 2, got width 3",
    ),
    ("half-space kind", lambda: half_space_pair(2, kind="other"), ValueError, "unknown kind 'other'"),
    ("power pair", lambda: half_space_power_pair(1, 1), ValueError, "power >= 2"),
    ("equator at 0", lambda: equator_map(3).energy(np.zeros(3)), ValueError, "equator map is undefined at the origin"),
    (
        "window order",
        lambda: bump_spacetime(1, 2.0, 1.0, 1.0, 2.0),
        ValueError,
        "need 0 < r_in < r_out and 0 < t_in < t_out",
    ),
    ("window k", lambda: bump_spacetime(1, 1.0, 2.0, 1.0, 2.0, k=2), ValueError, "need smoothness k >= 3"),
    ("annulus order", lambda: bump_radial(3, 0.0, 1.0), ValueError, "need 0 < r_in < r_out"),
    ("annulus k", lambda: bump_radial(3, 1.0, 2.0, k=2), ValueError, "need smoothness k >= 3"),
    # integrate
    ("weighted float n", lambda: integrate_weighted(_one, 1, 1.0, n=1.0), ValueError, "d and n must be integers, got d=1, n=1.0"),
    ("weighted t", lambda: integrate_weighted(_one, 1, 0.0), ValueError, "need t > 0, got t=0.0"),
    # the Gaussian weight (n = None) gates d itself, and every n gates coords
    ("weighted float d", lambda: integrate_weighted(_one, 2.5, 1.0), ValueError, "d must be an integer, got d=2.5"),
    ("weighted d = 1.0", lambda: integrate_weighted(_one, 1.0, 1.0), ValueError, "d must be an integer, got d=1.0"),
    ("spacetime float d", lambda: integrate_spacetime(_one, 2.5, 1.0), ValueError, "d must be an integer, got d=2.5"),
    (
        "weighted float coords",
        lambda: integrate_weighted(_one, 2, 1.0, coords=1.5),
        ValueError,
        "coords must be an integer, got coords=1.5",
    ),
    (
        "weighted float coords n = 5",
        lambda: integrate_weighted(_one, 2, 1.0, n=5, coords=1.5),
        ValueError,
        "coords must be an integer, got coords=1.5",
    ),
    (
        "spacetime float coords",
        lambda: integrate_spacetime(_one, 2, 1.0, coords=1.5),
        ValueError,
        "coords must be an integer, got coords=1.5",
    ),
    (
        "spacetime float coords n = 5",
        lambda: integrate_spacetime(_one, 2, 1.0, n=5, coords=1.0),
        ValueError,
        "coords must be an integer, got coords=1.0",
    ),
    ("spacetime tau", lambda: integrate_spacetime(_one, 1, 0.0), ValueError, "need tau > 0, got tau=0.0"),
    # d = 0 is refused as the d the caller passed, not as the N of a sphere
    ("weighted d = 0", lambda: integrate_weighted(_one, 0, 1.0), ValueError, "need d >= 1, got d=0"),
    ("spacetime d = 0", lambda: integrate_spacetime(_one, 0, 1.0), ValueError, "need d >= 1, got d=0"),
    ("ball r", lambda: integrate_ball(_one, 2, 0.0), ValueError, "need r > 0, got r=0.0"),
    (
        "ball power",
        lambda: integrate_ball(_one, 2, 1.0, radial_power=-2.0),
        ValueError,
        "radial_power must exceed -N",
    ),
    ("annulus radii", lambda: integrate_annulus(_one, 2, (1.0, 1.0)), ValueError, "need 0 <= r0 < r1"),
    ("sphere r", lambda: integrate_sphere(_one, 2, 0.0), ValueError, "need r > 0, got r=0.0"),
    (
        "window times",
        lambda: integrate_window(_one, 1, (0.0, 1.0), (1.0, 1.0)),
        ValueError,
        "need 0 <= r0 < r1 and 0 < t0 < t1",
    ),
    ("mc float samples", lambda: MonteCarloSpec(seed=1, samples=1e5), ValueError, "samples must be an integer"),
    ("mc float seed", lambda: MonteCarloSpec(seed=1.5), ValueError, "seed must be an integer in [0, 2**64)"),
    ("sphere sampler N", lambda: sample_sphere_uniform(0, 1.0, MC), ValueError, "need N >= 1"),
    ("ball sampler N", lambda: sample_mu_ball(0, 1.0, 1, MC), ValueError, "need N >= 1, got N=0"),
    # the sphere check names t, for every t <= 0, before the radius sqrt(2dt) is formed
    ("sphere check t = 0", lambda: pushforward_check_sphere(_one, 1, 5, 0.0, MC), ValueError, "need t > 0, got t=0.0"),
    (
        "sphere check t < 0",
        lambda: pushforward_check_sphere(_one, 1, 5, -1.0, MC),
        ValueError,
        "need t > 0, got t=-1.0",
    ),
    (
        "sphere check t nan",
        lambda: pushforward_check_sphere(_one, 1, 5, float("nan"), MC),
        ValueError,
        "need t > 0, got t=nan",
    ),
    # weights and lift
    ("gaussian t", lambda: gaussian_weight(0.0, [0.0]), ValueError, "need t > 0, got t=0.0"),
    ("ratio nd", lambda: ratio_bound(1, 3), UnsupportedConfigError, "ratio bound needs n*d >= d + 3"),
    ("empty grid", lambda: weight_limit_report(1.0, [], [4]), ValueError, "empty evaluation grid"),
    ("grid width", lambda: weight_limit_report(1.0, np.zeros((4, 0)), [8]), ValueError, "need d >= 1, got d=0"),
    ("finite float n", lambda: finite_weight(10.5, 1.0, [0.0]), ValueError, "d and n must be integers, got d=1, n=10.5"),
    ("ratio float n", lambda: ratio_bound(1, 10.5), ValueError, "d and n must be integers, got d=1, n=10.5"),
    # a flat grid holds points of R^1
    (
        "report float n",
        lambda: weight_limit_report(1.0, np.linspace(0.0, 1.0, 5), [10.5, 20]),
        ValueError,
        "d and n must be integers, got d=1, n=10.5",
    ),
    ("sphere area", lambda: sphere_area(0), ValueError, "need N >= 1, got N=0"),
    ("lift float n", lambda: lifted_field(U1, 10.5), ValueError, "d and n must be integers, got d=1, n=10.5"),
    (
        "lift float d",
        lambda: pushforward_check_sphere(_one, 2.0, 4, 1.0, MC),
        ValueError,
        "d and n must be integers, got d=2.0, n=4",
    ),
    (
        "lift width",
        lambda: lift_point(np.zeros(5), 3),
        ValueError,
        "lifted point has width 5, which is not a multiple of n = 3",
    ),
    # carleman
    ("constant N", lambda: carleman_elliptic_constant(0.5, 0), ValueError, "need N >= 1"),
    (
        "annulus at 0",
        lambda: carleman_elliptic_check(dataclasses.replace(HOLLOW, support=(0.0, 2.0)), 0.5),
        ValueError,
        "support must stay away from the origin",
    ),
    (
        "no window",
        lambda: carleman_parabolic_check(U1, 1.0),
        ValueError,
        "needs a field supported in a window away from t = 0",
    ),
    # frequency
    ("almgren r", lambda: almgren(X1, 0.0), ValueError, "need r > 0"),
    ("almgren bound r", lambda: almgren_dL_lower_bound(X1, ZERO_H, 0.0), ValueError, "need r > 0"),
    (
        "almgren bound H",
        lambda: almgren_dL_lower_bound(HOLLOW, ZERO_H, 0.5),
        DegenerateDenominatorError,
        "boundary mean H = 0.0 is below",
    ),
    ("poon t", lambda: poon(U1, 0.0), ValueError, "need t > 0"),
    ("poon H", lambda: poon(LATE, 0.5), DegenerateDenominatorError, "weighted mass H = 0.0 is below"),
    ("lifted frequency t", lambda: lifted_frequency(U1, 4, 0.0), ValueError, "need t > 0"),
    (
        "lifted frequency mass",
        lambda: lifted_frequency(LATE, 4, 0.5),
        DegenerateDenominatorError,
        "weighted mass 0.0 is below",
    ),
    # geometry
    ("center width", lambda: ms_density(graph_plane(2), np.zeros(2), 1.0), ValueError, "center must live in R^3"),
    ("tilde r", lambda: ms_density_tilde(graph_plane(2), None, np.zeros(3), 0.0), ValueError, "need r > 0"),
    ("ms density d = 0", lambda: ms_density(graph_plane(0), np.zeros(1), 1.0), ValueError, "need d >= 1, got d=0"),
    (
        "tilde d = 0",
        lambda: ms_density_tilde(graph_plane(0), None, np.zeros(1), 1.0),
        ValueError,
        "need d >= 1, got d=0",
    ),
    ("huisken d = 0", lambda: huisken_density(graph_plane(0), 1.0), ValueError, "need d >= 1, got d=0"),
    (
        "tangent slice",
        lambda: ms_density_tilde(_sphere_band_sheet(), None, np.zeros(3), 1.0),
        AccuracyError,
        "slice integrand blows up",
    ),
    ("mcf t", lambda: lifted_mcf_density(graph_plane(1), 4, 0.0), ValueError, "need t > 0"),
    # harmonic maps
    ("hm_phi r", lambda: hm_phi(equator_map(3), np.zeros(3), 0.0), ValueError, "need r > 0"),
    (
        "hm bound r",
        lambda: hm_dphi_lower_bound(equator_map(3), ZERO_H_VEC, np.zeros(3), 0.0),
        ValueError,
        "need r > 0",
    ),
    ("struwe t", lambda: struwe_Phi(circle_map(), 0.0), ValueError, "need t > 0"),
    ("struwe d = 0", lambda: struwe_Phi(circle_map(0), 1.0), ValueError, "need d >= 1, got d=0"),
    (
        "lifted map nd = 2",
        lambda: lifted_hm_Phi(circle_map(), 2, 1.0),
        UnsupportedConfigError,
        "needs n*d >= 3, got n*d = 2",
    ),
    ("lifted map t", lambda: lifted_hm_Phi(circle_map(), 4, 0.0), ValueError, "need t > 0"),
    # two-phase
    ("support r", lambda: support_fraction(X1, 0.0), ValueError, "need r > 0"),
    (
        "acf N",
        lambda: acf_phi(X1, harmonic_polynomial("x1", 3), 1.0),
        ValueError,
        "both phases must live on the same R^N",
    ),
    ("acf r", lambda: acf_phi(X1, X1, 0.0), ValueError, "need r > 0"),
    (
        "acf bound N",
        lambda: acf_dphi_lower_bound(X1, harmonic_polynomial("x1", 3), ZERO_H, ZERO_H, 1.0),
        ValueError,
        "both phases must live on the same R^N",
    ),
    (
        "caffarelli d",
        lambda: caffarelli_Phi(U1, caloric_polynomial("x1", 2), 1.0),
        ValueError,
        "both phases must live on the same R^d",
    ),
    ("caffarelli tau", lambda: caffarelli_Phi(U1, U1, 0.0), ValueError, "need tau > 0"),
    (
        "lifted two-phase d",
        lambda: lifted_two_phase(U1, caloric_polynomial("x1", 2), 4, 1.0),
        ValueError,
        "both phases must live on the same R^d",
    ),
    ("lifted two-phase tau", lambda: lifted_two_phase(U1, U1, 4, 0.0), ValueError, "need tau > 0"),
]

# every lift takes its step count n and reads d from what it lifts
_LIFTS = {
    "lifted_field": lambda n: lifted_field(U1, n),
    "lifted_frequency": lambda n: lifted_frequency(U1, n, 1.0),
    "lifted_two_phase": lambda n: lifted_two_phase(U1, U1, n, 1.0),
    "lifted_hm_Phi": lambda n: lifted_hm_Phi(circle_map(), n, 1.0),
    "lifted_mcf_density": lambda n: lifted_mcf_density(graph_plane(1), n, 1.0),
    "lift_point": lambda n: lift_point(np.zeros(4), n),
    "lift_point_time": lambda n: lift_point_time(np.zeros(4), n),
    # the weights and integrals of the finite weight G_(t,n) pass the same gate
    "integrate_weighted": lambda n: integrate_weighted(_one, 1, 1.0, n=n),
    "integrate_spacetime": lambda n: integrate_spacetime(_one, 1, 1.0, n=n),
    "finite_weight": lambda n: finite_weight(n, 1.0, [0.0]),
    "weight_limit_report": lambda n: weight_limit_report(1.0, np.linspace(0.0, 1.0, 5), [n]),
    "ratio_bound": lambda n: ratio_bound(1, n),
    "pushforward_check_sphere": lambda n: pushforward_check_sphere(_one, 1, n, 1.0, MC),
    "pushforward_check_ball": lambda n: pushforward_check_ball(_one, 1, n, 1.0, MC),
}
for _name, _lift in _LIFTS.items():
    CASES += [
        (f"{_name} n = 0", lambda f=_lift: f(0), ValueError, "need d >= 1 and n >= 1"),
        (f"{_name} n = 2.5", lambda f=_lift: f(2.5), ValueError, "d and n must be integers"),
    ]

# every t, tau, r (or radius, s0) is refused once, by the integral or the
# function that reads it, with its name and its value; an integral that
# already named a finite value is listed for inf only
_ANY, _INF = (0.0, -1.0, math.nan, math.inf), (math.inf,)
_GATED = [
    ("t", _ANY, {
        "poon": lambda t: poon(U1, t),
        "lifted_frequency": lambda t: lifted_frequency(U1, 4, t),
        "struwe_Phi": lambda t: struwe_Phi(circle_map(), t),
        "lifted_hm_Phi": lambda t: lifted_hm_Phi(circle_map(), 4, t),
        "huisken_density": lambda t: huisken_density(graph_plane(1), t),
        "lifted_mcf_density": lambda t: lifted_mcf_density(graph_plane(1), 4, t),
        "integrate_window": lambda t: integrate_window(_one, 1, (0.0, 1.0), (0.5, t)),
    }),
    ("t", _INF, {
        "integrate_weighted": lambda t: integrate_weighted(_one, 1, t),
        "pushforward_check_sphere": lambda t: pushforward_check_sphere(_one, 1, 5, t, MC),
        "gaussian_weight": lambda t: gaussian_weight(t, [0.0]),
        "finite_weight": lambda t: finite_weight(10, t, [0.0]),
    }),
    ("tau", _INF, {
        "caffarelli_Phi": lambda tau: caffarelli_Phi(U1, U1, tau),
        "lifted_two_phase": lambda tau: lifted_two_phase(U1, U1, 4, tau),
        "integrate_spacetime": lambda tau: integrate_spacetime(_one, 1, tau),
        "pushforward_check_ball": lambda tau: pushforward_check_ball(_one, 1, 5, tau, MC),
        "sample_mu_ball": lambda tau: sample_mu_ball(3, tau, 1, MC),
    }),
    ("r", _ANY, {
        "almgren": lambda r: almgren(X1, r),
        "almgren_dL_lower_bound": lambda r: almgren_dL_lower_bound(X1, ZERO_H, r),
        "support_fraction": lambda r: support_fraction(X1, r),
        "acf_phi": lambda r: acf_phi(X1, X1, r),
        "hm_phi": lambda r: hm_phi(equator_map(3), np.zeros(3), r),
        "hm_dphi_lower_bound": lambda r: hm_dphi_lower_bound(equator_map(3), ZERO_H_VEC, np.zeros(3), r),
        "ms_density": lambda r: ms_density(graph_plane(2), np.zeros(3), r),
        "integrate_window": lambda r: integrate_window(_one, 1, (0.0, r), (1.0, 2.0)),
    }),
    ("r", _INF, {
        "integrate_ball": lambda r: integrate_ball(_one, 2, r),
        "integrate_sphere": lambda r: integrate_sphere(_one, 2, r),
        "integrate_annulus": lambda r: integrate_annulus(_one, 2, (0.5, r)),
    }),
    ("radius", _ANY, {"sample_sphere_uniform": lambda r: sample_sphere_uniform(3, r, MC)}),
    ("s0", _ANY, {"heat_kernel_translate": lambda s0: heat_kernel_translate(1, None, s0)}),
]
for _arg, _values, _calls in _GATED:
    for _name, _call in _calls.items():
        for _v in _values:
            _need = f"need a finite {_arg}" if _v == math.inf else f"need {_arg} > 0"
            _reason = _exact(f"{_need}, got {_arg}={_v}")
            CASES.append((f"{_name} {_arg}={_v}", lambda f=_call, v=_v: f(v), ValueError, _reason))

# a dimension that is not an integer is refused by the name the caller gave
# it, before any rule is built: (row, name, value, call of the value)
_NOT_INTEGER = [
    ("integrate_ball", "N", 3.5, lambda N: integrate_ball(_one, N, 1.0, symmetry=0)),
    ("integrate_ball tensor rule", "N", 2.5, lambda N: integrate_ball(_one, N, 1.0)),
    ("integrate_sphere", "N", 3.5, lambda N: integrate_sphere(_one, N, 1.0, symmetry=0)),
    ("integrate_annulus", "N", 3.5, lambda N: integrate_annulus(_one, N, (0.5, 1.0))),
    ("integrate_window", "d", 3.5, lambda d: integrate_window(_one, d, (0.5, 1.0), (1.0, 2.0))),
    ("carleman_elliptic_check", "N", 3.5, lambda N: carleman_elliptic_check(bump_radial(N, 1.0, 2.0), 1.0)),
    ("hm_phi", "N", 3.5, lambda N: hm_phi(equator_map(N), None, 1.0)),
    ("ms_density", "d", 1.5, lambda d: ms_density(graph_plane(d), np.zeros(2), 1.0)),
    ("sample_sphere_uniform", "N", 2.5, lambda N: sample_sphere_uniform(N, 1.0, MC)),
    ("hm_dphi_lower_bound", "N", 3.5, lambda N: hm_dphi_lower_bound(circle_map(N), ZERO_H_VEC, None, 1.0)),
]
for _name, _arg, _v, _call in _NOT_INTEGER:
    _reason = _exact(f"{_arg} must be an integer, got {_arg}={_v}")
    CASES.append((f"{_name} {_arg}={_v}", lambda f=_call, v=_v: f(v), ValueError, _reason))

CASES += [
    # the shell gate refuses a weight that is not integrable at the center,
    # for an annulus from 0 as for a ball
    (
        "annulus power",
        lambda: integrate_annulus(_one, 3, (0.0, 1.0), radial_power=-3),
        ValueError,
        _exact("radial_power must exceed -N for an integrable weight, got radial_power=-3, N=3"),
    ),
    (
        "annulus radii values",
        lambda: integrate_annulus(_one, 2, (1.0, 1.0)),
        ValueError,
        _exact("need 0 <= r0 < r1, got r0=1.0, r1=1.0"),
    ),
    (
        "window range values",
        lambda: integrate_window(_one, 1, (0.0, 1.0), (1.0, 1.0)),
        ValueError,
        _exact("need 0 <= r0 < r1 and 0 < t0 < t1, got r_range=(0.0, 1.0), t_range=(1.0, 1.0)"),
    ),
]

# a center is a point of R^N: one that only broadcasts against the points,
# or that is wider than N, is refused by the shell gate with its shape
_CENTERS = [
    ("integrate_ball center", 3, (1,), lambda: integrate_ball(_one, 3, 1.0, center=[0.5])),
    ("integrate_ball center row", 3, (1, 3), lambda: integrate_ball(_one, 3, 1.0, center=np.zeros((1, 3)))),
    ("integrate_sphere center", 3, (), lambda: integrate_sphere(_one, 3, 1.0, center=0.5)),
    ("hm_phi y0", 3, (1,), lambda: hm_phi(equator_map(3), np.zeros(1), 1.0)),
    ("hm_phi circle y0", 2, (3,), lambda: hm_phi(circle_map(2), np.zeros(3), 1.0)),
    ("hm bound y0", 2, (3,), lambda: hm_dphi_lower_bound(circle_map(2), ZERO_H_VEC, np.zeros(3), 1.0)),
]
for _name, _N, _shape, _call in _CENTERS:
    _reason = _exact(f"center must be a point of R^{_N}, shape ({_N},), got shape {_shape}")
    CASES.append((_name, _call, ValueError, _reason))


# a declared width that is not an integer is refused by its name, before a
# rule is built: (row, name, value, call of the value)
_WIDTHS = [
    (f"{_name} symmetry={_v!r}", "symmetry", _v, _call)
    for _name, _call in {
        "integrate_ball": lambda k: integrate_ball(_one, 4, 1.0, symmetry=k),
        "integrate_sphere": lambda k: integrate_sphere(_one, 4, 1.0, symmetry=k),
        "integrate_annulus": lambda k: integrate_annulus(_one, 4, (0.5, 1.0), symmetry=k),
    }.items()
    for _v in (1.5, 2.0, "1")
]
_WIDTHS.append(
    (
        "almgren lifted coords",
        "coords",
        1.5,
        lambda k: almgren(lifted_field(dataclasses.replace(caloric_polynomial("x1", 2), coords=k), 4), 1.0),
    )
)
for _name, _arg, _v, _call in _WIDTHS:
    _reason = _exact(f"{_arg} must be an integer, got {_arg}={_v!r}")
    CASES.append((_name, lambda f=_call, v=_v: f(v), ValueError, _reason))

# an explicit worker count is an integer >= 1, as --threads is
for _check in (pushforward_check_sphere, pushforward_check_ball):
    for _v in (0, -3, 2.5, 1.5, "2"):
        if isinstance(_v, int):
            _reason = f"need threads >= 1, got threads={_v}"
        else:
            _reason = f"threads must be an integer, got threads={_v!r}"
        _call = lambda f=_check, v=_v: f(_one, 1, 5, 1.0, MC, threads=v)
        CASES.append((f"{_check.__name__} threads={_v!r}", _call, ValueError, _exact(_reason)))


def test_a_bool_symmetry_reads_as_its_integer():
    def f(y):
        return y[..., 0] ** 2 + np.sum(y * y, axis=-1)

    # True == 1 as a cache key, so the rule is built from True itself
    dimlift.integrate._sphere_nodes.cache_clear()
    true = integrate_ball(f, 4, 1.0, symmetry=True)
    one = integrate_ball(f, 4, 1.0, symmetry=1)
    assert true.evaluations == one.evaluations
    assert true.value.hex() == one.value.hex()


@pytest.mark.parametrize("call, error, reason", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_check_raises_its_reason(call, error, reason):
    with pytest.raises(error, match=reason if isinstance(reason, re.Pattern) else re.escape(reason)):
        call()
