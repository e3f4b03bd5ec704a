"""Reduced angular rules for fields that declare a symmetry: the rules
themselves and the width of their points, the fields' contract for that
width, agreement with the tensor rule, the cases that fall back to the
tensor rule, and the node count they save."""

import dataclasses
import math

import numpy as np
import pytest

import dimlift.integrate
from dimlift import lifted_field
from dimlift.fields import (
    ScalarField,
    SphereField,
    bump_radial,
    caloric_polynomial,
    equator_map,
    half_space_pair,
    harmonic_polynomial,
    heat_kernel_translate,
)
from dimlift.functionals import (
    acf_dphi_lower_bound,
    acf_phi,
    almgren,
    almgren_dL_lower_bound,
    carleman_elliptic_check,
    hm_dphi_lower_bound,
    hm_phi,
)
from dimlift.functionals.common import dot, gradsq
from dimlift.integrate import (
    _shell_mean,
    _shell_total,
    _sphere_nodes,
    integrate_annulus,
    integrate_ball,
    integrate_sphere,
)
from dimlift.weights import _log_sphere_area


@pytest.fixture
def coarse(monkeypatch):
    # The reduced rule is exact in the angle for the declared fields at every
    # level, and so is the tensor rule for these integrands, so a coarse first
    # level compares the two as well as the default one and keeps the N=4
    # tensor rule cheap.
    monkeypatch.setattr(dimlift.integrate, "_FIRST_LEVEL", 8)


def _undeclared(field):
    return dataclasses.replace(field, symmetry=None)


@pytest.mark.parametrize("N,k", [(3, 1), (4, 1), (4, 2), (5, 3), (7, 2), (40, 1), (40, 2), (40, 3)])
def test_reduced_rule_integrates_moments_of_the_first_k_coordinates(N, k):
    omega, wa = _sphere_nodes(N, 48, k)
    assert np.allclose(np.linalg.norm(omega, axis=-1), 1.0, rtol=0.0, atol=1e-15)
    assert omega.shape[1] == k + 1
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
    assert omega.tolist() == [[1.0]]
    assert wa.tolist() == [1.0]


def _image(y, k):
    # the (k + 1)-wide point (y_1..y_k, |(y_(k+1), ..., y_N)|) with the same
    # y_1..y_k and |y| as y
    return np.concatenate([y[..., :k], np.linalg.norm(y[..., k:], axis=-1, keepdims=True)], axis=-1)


DECLARED = {
    "x1": lambda N: harmonic_polynomial("x1", N),
    "x1x2": lambda N: harmonic_polynomial("x1x2", N),
    "y1_plus": lambda N: half_space_pair(N, kind="elliptic")[0],
    "y1_minus": lambda N: half_space_pair(N, kind="elliptic")[1],
    "bump_radial": lambda N: bump_radial(N, 0.5, 1.5),
    "equator energy": equator_map,
    "lifted x1cube": lambda N: lifted_field(caloric_polynomial("x1cube", 1), N),
    "lifted heat kernel": lambda N: lifted_field(heat_kernel_translate(1, [1.5], 3.0), N),
}


def _terms(field, y):
    if isinstance(field, SphereField):
        return [field.energy(y)]
    g = field.grad(y)
    assert g.shape == y.shape
    return [field.value(y), dot(g, g), dot(y, g), field.laplacian(y)]


@pytest.mark.parametrize("N", [5, 40])
@pytest.mark.parametrize("name", sorted(DECLARED))
def test_a_declared_field_reads_a_point_through_its_k_plus_one_wide_image(name, N):
    # the reduced rule hands a field declaring symmetry = k points of width
    # k + 1; the field must give there what it gives at every N-wide point
    # with the same y_1..y_k and |y|
    field = DECLARED[name](N)
    rng = np.random.default_rng(N)
    y = rng.standard_normal((3, 4, N))
    # radii inside the bump's annulus, and both signs of y_1
    y *= (rng.uniform(0.6, 1.4, (3, 4)) / np.linalg.norm(y, axis=-1))[..., None]
    for wide, narrow in zip(_terms(field, y), _terms(field, _image(y, field.symmetry))):
        assert np.shape(narrow) == (3, 4)
        np.testing.assert_allclose(narrow, wide, rtol=1e-13, atol=1e-15)


def test_a_sphere_mean_at_480_dimensions_runs_on_four_wide_points():
    # E[1 + w1^2 + w2 w3 + w3^4] = 1 + 1/N + 0 + 3/(N(N+2)) on S^(N-1)
    N, widths = 480, set()

    def f(y):
        widths.add(y.shape[-1])
        return 1.0 + y[..., 0] ** 2 + y[..., 1] * y[..., 2] + y[..., 2] ** 4

    mean = _shell_mean(f, N, 1.0, 1.0, symmetry=3).value
    assert widths == {4}
    assert abs(mean - (1.0 + 1.0 / N + 3.0 / (N * (N + 2)))) <= 1e-13


def _acf_bound(N, undeclare):
    # smooth right-hand sides that read what their phases read: y_1 for x1,
    # and y_1 y_2 for x1x2
    v1, v2 = (undeclare(harmonic_polynomial(kind, N)) for kind in ("x1", "x1x2"))
    h1 = lambda y: np.asarray(y, float)[..., 0]
    h2 = lambda y: np.asarray(y, float)[..., 0] * np.asarray(y, float)[..., 1]
    return acf_dphi_lower_bound(v1, v2, h1, h2, 1.3)


CASES = {
    "hm_phi equator": lambda N, undeclare: hm_phi(undeclare(equator_map(N)), np.zeros(N), 1.3),
    "almgren x1": lambda N, undeclare: almgren(undeclare(harmonic_polynomial("x1", N)), 1.3),
    "almgren x1x2": lambda N, undeclare: almgren(undeclare(harmonic_polynomial("x1x2", N)), 0.7),
    "acf_phi half-space": lambda N, undeclare: acf_phi(*map(undeclare, half_space_pair(N, kind="elliptic")), 1.3),
    "acf bound x1, x1x2": lambda N, undeclare: _acf_bound(N, undeclare),
    "carleman bump k=5": lambda N, undeclare: carleman_elliptic_check(undeclare(bump_radial(N, 0.5, 1.5, 5)), 0.7),
    "carleman bump k=4": lambda N, undeclare: carleman_elliptic_check(undeclare(bump_radial(N, 1.0, 2.0, 4)), 2.25),
}


def _numbers(result) -> list[float]:
    if isinstance(result, float):
        return [result]
    return [v for v in dataclasses.astuple(result) if isinstance(v, float)]


@pytest.mark.usefixtures("coarse")
@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_declared_fields_match_the_tensor_rule(case, N):
    reduced = _numbers(CASES[case](N, lambda field: field))
    tensor = _numbers(CASES[case](N, _undeclared))
    assert len(reduced) == len(tensor) >= 1
    for a, b in zip(reduced, tensor):
        assert abs(a - b) <= 1e-13 * abs(b)


@pytest.mark.usefixtures("coarse")
def test_an_off_span_center_falls_back_to_the_tensor_rule():
    # the ball avoids the origin, so the equator energy is smooth on it
    vmap = equator_map(4)
    center = (0.1, 0.0, 0.0, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimlift.integrate, "_REL_TOL", 1e-8)
        assert hm_phi(vmap, center, 0.05) == hm_phi(_undeclared(vmap), center, 0.05)

    def f(y):
        return np.sum(y * y, axis=-1)

    # about a center off the span of e_1, |y| depends on omega_2 too
    off = (0.0, 0.2, 0.0)
    assert integrate_ball(f, 3, 1.0, center=off, symmetry=1).value == integrate_ball(f, 3, 1.0, center=off).value
    on = (0.2, 0.0, 0.0)
    reduced = integrate_ball(f, 3, 1.0, center=on, symmetry=1)
    tensor = integrate_ball(f, 3, 1.0, center=on)
    assert reduced.evaluations < tensor.evaluations
    assert math.isclose(reduced.value, tensor.value, rel_tol=1e-13)


@pytest.mark.usefixtures("coarse")
def test_a_declaration_that_reduces_no_dimension_keeps_the_tensor_rule():
    # k = N - 1 would need the Gauss-Jacobi parameter -1/2, which loses precision
    v = harmonic_polynomial("x1x2", 3)
    assert almgren(v, 1.3) == almgren(_undeclared(v), 1.3)


@pytest.mark.usefixtures("coarse")
def test_an_undeclared_field_uses_the_tensor_rule():
    v = ScalarField(3, lambda y: np.asarray(y)[..., 0], lambda y: np.eye(3)[0] + 0.0 * np.asarray(y))
    fv = almgren(v, 1.3)
    assert fv.H == integrate_sphere(lambda y: np.asarray(y)[..., 0] ** 2, 3, 1.3).value
    assert fv.D == integrate_ball(gradsq(v), 3, 1.3).value


@pytest.mark.usefixtures("coarse")
def test_integrals_with_a_nonhomogeneous_term_use_the_tensor_rule():
    # a SphereField's jacobian is N wide, so the harmonic-map bound runs the
    # tensor rule whatever the map declares
    vmap = equator_map(3)
    H = lambda y: 0.1 * np.asarray(y, float)
    bound = hm_dphi_lower_bound(vmap, H, np.zeros(3), 1.0)
    assert bound == hm_dphi_lower_bound(_undeclared(vmap), H, np.zeros(3), 1.0)
    # the frequency bound runs the rule its field declares, and h = Lap v,
    # which reads the points v reads, gets the reduced rule's 2-wide points;
    # its value is the tensor rule's
    u = heat_kernel_translate(1, [0.7], 3.0)
    for N in (3, 4):
        v = lifted_field(u, N)
        widths = set()

        def h(y):
            widths.add(np.shape(y)[-1])
            return v.laplacian(y)

        declared = almgren_dL_lower_bound(v, h, 1.0)
        assert widths == {v.symmetry + 1}
        tensor = almgren_dL_lower_bound(_undeclared(v), v.laplacian, 1.0)
        assert abs(declared - tensor) <= 1e-12 * abs(tensor)


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


def test_the_frequency_bound_on_a_declared_field_runs_at_hundreds_of_dimensions():
    # the lift of a heat-kernel translate at d = 2, n = 160 declares
    # symmetry 2, so each mean runs on 3-wide points; at r = sqrt(2dt), t = 1,
    # nd times the bound settles near -1.29 (the defect table of ROADMAP.md)
    v = lifted_field(heat_kernel_translate(2, (0.7, 0.7), 3.0), 160)
    assert v.N == 320
    bound = almgren_dL_lower_bound(v, v.laplacian, 2.0)
    assert math.isfinite(bound)
    assert abs(v.N * bound + 1.287) < 1e-3


def test_almgren_reports_totals_past_the_float_range_and_keeps_its_frequency():
    # at N = 200, r = 50, r^(N-1) is past the float range but the totals are
    # not: H = |S^199| 50^199 H_mean is about 2e234
    fv = almgren(harmonic_polynomial("x1x2", 200), 50.0)
    assert abs(fv.L - 2.0) < 1e-12
    assert math.isfinite(fv.H) and math.isfinite(fv.D)
    assert math.isclose(fv.L, 50.0 * fv.D / fv.H, rel_tol=1e-12)
    # at r = 1000 the totals themselves are past it
    assert _shell_total(1.0, 200, 1000.0, 1000.0) == _shell_total(1.0, 200, 0.0, 1000.0) == math.inf
    assert _shell_total(0.0, 200, 1000.0, 1000.0) == 0.0


def test_shell_integrals_report_totals_past_the_float_range():
    # at N = 200, r = 50, r^(N-1) and r^N overflow but the totals (about
    # 1e234) do not; each total is its mean times the log measure
    N, r = 200, 50.0
    f = lambda y: np.asarray(y, float)[..., 0] ** 2 - 0.01
    cases = [
        (integrate_sphere(f, N, r, symmetry=1), (r, r), (N - 1) * math.log(r)),
        (integrate_ball(f, N, r, symmetry=1), (0.0, r), N * math.log(r) - math.log(N)),
        (
            integrate_annulus(f, N, (0.5 * r, r), symmetry=1),
            (0.5 * r, r),
            N * math.log(r) + math.log1p(-(0.5**N)) - math.log(N),
        ),
    ]
    for total, (r0, r1), log_measure in cases:
        mean = _shell_mean(f, N, r0, r1, symmetry=1).value
        expected = mean * math.exp(_log_sphere_area(N) + log_measure)
        assert math.isfinite(expected) and expected > 1e230
        assert math.isclose(total.value, expected, rel_tol=1e-12)


def test_shell_totals_carry_the_sign_of_the_mean_and_of_a_negative_power():
    # N = 3 with radial power -4.5 gives rho^(-2.5), q = -1.5 (carleman's
    # elliptic weight at gamma = 2.25); from r0 = 1e-250, r0^q overflows
    N, r0, r1, q = 3, 1e-250, 2.0, -1.5
    log_measure = q * math.log(r0) + math.log(-math.expm1(q * math.log(r1 / r0))) - math.log(-q)
    expected = -math.exp(math.log(1e-100) + _log_sphere_area(N) + log_measure)
    total = _shell_total(-1e-100, N, r0, r1, radial_power=-4.5)
    assert expected < -1e270 and math.isclose(total, expected, rel_tol=1e-12)
    # in range, the total is the mean times the float measure, sign included
    assert _shell_total(-2.0, N, 1.0, r1, radial_power=-4.5) == -2.0 * (4.0 * math.pi * ((r1**q - 1.0) / q))
    totals = _shell_total(np.array([2.0, -2.0, 0.0]), 200, 1000.0, 1000.0)
    assert totals.tolist() == [math.inf, -math.inf, 0.0]


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
