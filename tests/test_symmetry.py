"""Reduced angular rules for fields that declare a symmetry: the rules
themselves, agreement with the tensor rule, the cases that fall back to the
tensor rule, and the node count they save."""

import dataclasses
import math

import numpy as np
import pytest

from dimlift.fields import NonhomTerm, ScalarField, bump_radial, equator_map, half_space_pair, harmonic_polynomial
from dimlift.functionals import (
    acf_phi,
    almgren,
    almgren_dL_lower_bound,
    carleman_elliptic_check,
    hm_dphi_lower_bound,
    hm_phi,
)
from dimlift.functionals.common import gradsq
from dimlift.functionals.frequency import _total
from dimlift.integrate import QuadratureSpec, _shell_mean, _sphere_nodes, integrate_ball, integrate_sphere

# The reduced rule is exact in the angle for the declared fields at every
# level, and so is the tensor rule for these integrands, so a coarse spec
# compares the two as well as the default one and keeps the N=4 tensor rule cheap.
SPEC = QuadratureSpec(radial_nodes=8)


def _undeclared(field):
    return dataclasses.replace(field, symmetry=None)


@pytest.mark.parametrize("N,k", [(3, 1), (4, 1), (4, 2), (5, 3), (7, 2), (40, 1), (40, 2), (40, 3)])
def test_reduced_rule_integrates_moments_of_the_first_k_coordinates(N, k):
    omega, wa = _sphere_nodes(N, 48, k)
    assert np.allclose(np.linalg.norm(omega, axis=-1), 1.0, rtol=0.0, atol=1e-15)
    assert np.all(omega[:, k + 1 :] == 0.0)
    # the weights are those of the uniform probability law on the sphere
    assert math.isclose(wa.sum(), 1.0, rel_tol=1e-13)
    # E[w1^2] = 1/N, E[w1^4] = 3/(N(N+2)), E[w1^2 w2^2] = 1/(N(N+2))
    assert math.isclose(wa @ omega[:, 0] ** 2, 1.0 / N, rel_tol=1e-13)
    assert math.isclose(wa @ omega[:, 0] ** 4, 3.0 / (N * (N + 2)), rel_tol=1e-13)
    if k >= 2:
        assert math.isclose(wa @ (omega[:, 0] * omega[:, 1]) ** 2, 1.0 / (N * (N + 2)), rel_tol=1e-13)
        assert abs(wa @ (omega[:, 0] * omega[:, 1])) < 1e-15


def test_radial_rule_is_one_node():
    omega, wa = _sphere_nodes(5, 48, 0)
    assert omega.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]]
    assert wa.tolist() == [1.0]


CASES = {
    "hm_phi equator": lambda N, undeclare: hm_phi(undeclare(equator_map(N)), np.zeros(N), 1.3, SPEC),
    "almgren x1": lambda N, undeclare: almgren(undeclare(harmonic_polynomial("x1", N)), 1.3, SPEC),
    "almgren x1x2": lambda N, undeclare: almgren(undeclare(harmonic_polynomial("x1x2", N)), 0.7, SPEC),
    "acf_phi half-space": lambda N, undeclare: acf_phi(
        *map(undeclare, half_space_pair(N, kind="elliptic")), 1.3, SPEC
    ),
    "carleman bump k=5": lambda N, undeclare: carleman_elliptic_check(
        undeclare(bump_radial(N, 0.5, 1.5, 5)), 0.7, SPEC
    ),
    "carleman bump k=4": lambda N, undeclare: carleman_elliptic_check(
        undeclare(bump_radial(N, 1.0, 2.0, 4)), 2.25, SPEC
    ),
}


def _numbers(result) -> list[float]:
    if isinstance(result, float):
        return [result]
    return [v for v in dataclasses.astuple(result) if isinstance(v, float)]


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_declared_fields_match_the_tensor_rule(case, N):
    reduced = _numbers(CASES[case](N, lambda field: field))
    tensor = _numbers(CASES[case](N, _undeclared))
    assert len(reduced) == len(tensor) >= 1
    for a, b in zip(reduced, tensor):
        assert abs(a - b) <= 1e-13 * abs(b)


def test_an_off_span_center_falls_back_to_the_tensor_rule():
    # the ball avoids the origin, so the equator energy is smooth on it
    vmap = equator_map(4)
    center = (0.1, 0.0, 0.0, 0.0)
    spec = QuadratureSpec(radial_nodes=8, target_rel_tol=1e-8)
    assert hm_phi(vmap, center, 0.05, spec) == hm_phi(_undeclared(vmap), center, 0.05, spec)

    def f(y):
        return np.sum(y * y, axis=-1)

    # about a center off the span of e_1, |y| depends on omega_2 too
    off = (0.0, 0.2, 0.0)
    assert integrate_ball(f, 3, 1.0, SPEC, center=off, symmetry=1).value == integrate_ball(f, 3, 1.0, SPEC, center=off).value
    on = (0.2, 0.0, 0.0)
    reduced = integrate_ball(f, 3, 1.0, SPEC, center=on, symmetry=1)
    tensor = integrate_ball(f, 3, 1.0, SPEC, center=on)
    assert reduced.evaluations < tensor.evaluations
    assert math.isclose(reduced.value, tensor.value, rel_tol=1e-13)


def test_a_declaration_that_reduces_no_dimension_keeps_the_tensor_rule():
    # k = N - 1 would need the Gauss-Jacobi parameter -1/2, which loses precision
    v = harmonic_polynomial("x1x2", 3)
    assert almgren(v, 1.3, SPEC) == almgren(_undeclared(v), 1.3, SPEC)


def test_an_undeclared_field_uses_the_tensor_rule():
    v = ScalarField(3, lambda y: np.asarray(y)[..., 0], lambda y: np.eye(3)[0] + 0.0 * np.asarray(y))
    fv = almgren(v, 1.3, SPEC)
    assert fv.H == integrate_sphere(lambda y: np.asarray(y)[..., 0] ** 2, 3, 1.3, SPEC).value
    assert fv.D == integrate_ball(gradsq(v), 3, 1.3, SPEC).value


def test_integrals_with_a_nonhomogeneous_term_use_the_tensor_rule():
    vmap = equator_map(3)
    H = NonhomTerm(lambda y: 0.1 * np.asarray(y, float), vector=True)
    bound = hm_dphi_lower_bound(vmap, H, np.zeros(3), 1.0, SPEC)
    assert bound == hm_dphi_lower_bound(_undeclared(vmap), H, np.zeros(3), 1.0, SPEC)
    v = harmonic_polynomial("x1", 3)
    h = NonhomTerm(lambda y: np.asarray(y, float)[..., 1] ** 2, bound=1.0)
    assert almgren_dL_lower_bound(v, h, 1.0, SPEC) == almgren_dL_lower_bound(_undeclared(v), h, 1.0, SPEC)


def test_a_radial_energy_costs_a_radial_rule():
    vmap = equator_map(4)
    est = integrate_ball(vmap.energy, 4, 1.0, symmetry=0)
    assert est.evaluations <= 1_000
    assert math.isclose(est.value, 3.0 * math.pi**2, rel_tol=1e-13)


# At N in the hundreds the totals |S^(N-1)| r^N underflow or leave the
# 1e-30 floor behind, but the means the functionals read do not.


@pytest.mark.parametrize("N", [160, 320])
def test_almgren_holds_at_hundreds_of_dimensions(N):
    assert abs(almgren(harmonic_polynomial("x1x2", N), 1.0).L - 2.0) < 1e-8


def test_almgren_reports_totals_past_the_float_range_and_keeps_its_frequency():
    # at N = 200, r = 50, r^(N-1) is past the float range but the totals are
    # not: H = |S^199| 50^199 H_mean is about 2e234
    fv = almgren(harmonic_polynomial("x1x2", 200), 50.0)
    assert abs(fv.L - 2.0) < 1e-12
    assert math.isfinite(fv.H) and math.isfinite(fv.D)
    assert math.isclose(fv.L, 50.0 * fv.D / fv.H, rel_tol=1e-12)
    # at r = 1000 the totals themselves are past it
    assert _total(1.0, 200, 1000.0, 199, 1) == _total(1.0, 200, 1000.0, 200, 200) == math.inf
    assert _total(0.0, 200, 1000.0, 199, 1) == 0.0


@pytest.mark.parametrize("r", [1.0, 50.0])
def test_the_ball_mean_of_a_radial_energy_holds_at_480_dimensions(r):
    # |Dv|^2 = (N-1)/|y|^2 and E[|y|^-2] = N r^-2/(N-2) on B_r; at r = 50,
    # r^(N-1) overflows, and the mean must not form it
    N = 480
    vmap = equator_map(N)
    mean = _shell_mean(vmap.energy, N, 0.0, r, symmetry=vmap.symmetry).value
    assert math.isclose(mean * r * r / N, 479.0 / 478.0, rel_tol=1e-12)


def test_hm_phi_underflows_with_the_sphere_measure_at_480_dimensions():
    # (N-1)/(N-2) |S^479| is about 1e-346.6, below the smallest subnormal
    assert hm_phi(equator_map(480), np.zeros(480), 1.0) == 0.0
