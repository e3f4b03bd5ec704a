"""Lifting map contract: coordinate sums, lifted time, the lifted field, and
the finite-n agreement of the elliptic functionals on it with the hand-reduced
lifted formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlift import integrate_ball, lift_point, lift_point_time, lifted_field, sphere_area
from dimlift.fields import caloric_polynomial, heat_kernel_translate
from dimlift.functionals import almgren, lifted_frequency, lifted_two_phase
from dimlift.functionals.common import dot, gradsq


def test_row_major_flattening_is_the_contract():
    # y = (y_11, y_12, y_21, y_22): row i collects the n steps of coordinate i
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(lift_point(y, 2), [3.0, 7.0])
    x, t = lift_point_time(y, 2)
    assert np.array_equal(x, [3.0, 7.0])
    assert t == (1 + 4 + 9 + 16) / (2 * 2)


def test_single_step_lift_is_the_identity():
    y = np.array([0.7, -1.2, 2.5])
    assert np.array_equal(lift_point(y, 1), y)


def test_lift_point_accepts_batches():
    y = np.arange(12.0).reshape(2, 6)
    x = lift_point(y, 3)
    assert x.shape == (2, 2)
    assert np.array_equal(x[0], [0 + 1 + 2, 3 + 4 + 5])


@given(
    d=st.integers(1, 3),
    n=st.integers(1, 6),
    data=st.lists(st.floats(-5, 5, allow_nan=False), min_size=18, max_size=18),
)
@settings(max_examples=60, deadline=None)
def test_lifted_point_never_leaves_the_ball(d, n, data):
    # Cauchy-Schwarz on each row: |x|^2 <= n |y_row|^2, so |x|^2 <= 2 n d t
    y = np.asarray(data[: n * d])
    x, t = lift_point_time(y, n)
    assert float(np.sum(x * x)) <= 2.0 * n * d * t + 1e-9 * max(1.0, t)


def test_ball_bound_is_attained_exactly_on_constant_rows():
    y = np.repeat([1.3, -0.4], 4)
    x, t = lift_point_time(y, 4)
    assert math.isclose(float(np.sum(x * x)), 2 * 4 * 2 * t, rel_tol=1e-14)


def test_sphere_area_closed_forms():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == 2 * math.pi
    assert math.isclose(sphere_area(3), 4 * math.pi, rel_tol=1e-15)
    assert math.isclose(sphere_area(4), 2 * math.pi**2, rel_tol=1e-15)


def test_config_and_point_validation():
    # d is the width over n: a point of width 0 has no base dimension, and a
    # batch is split as one point is
    with pytest.raises(ValueError, match="need d >= 1 and n >= 1, got d=0, n=3"):
        lift_point(np.zeros(0), 3)
    with pytest.raises(ValueError, match="width 5"):
        lift_point_time(np.zeros((2, 5)), 3)


def _composed(u, n, y):
    x, t = lift_point_time(y, n)
    return float(u.value(x, t))


def test_lifted_field_declares_the_base_dimension():
    # a field of x_1 alone keeps that declaration; the heat kernel reads all of x
    v = lifted_field(caloric_polynomial("x1cube", 2), 7)
    assert (v.N, v.symmetry) == (14, 1)
    v = lifted_field(heat_kernel_translate(2, [0.5, 0.0], 3.0), 7)
    assert (v.N, v.symmetry) == (14, 2)


@pytest.mark.parametrize("field_name", ["x1", "x1sq", "x1cube", "radial"])
def test_chain_rule_matches_finite_differences(field_name, rng, step_sum_rotation):
    # modest N keeps the FD Laplacian affordable; acceptance runs the full
    # matrix.  The reference differences the row-major composition in y; the
    # field is read at w = Q y, so its y-gradient is Q^T grad v(w)
    d, n = 2, 3
    u = caloric_polynomial(field_name, d)
    v = lifted_field(u, n)
    Q = step_sum_rotation(d, n)
    h, h2 = 1e-5, 1e-3
    for _ in range(10):
        y = rng.uniform(-1.0, 1.0, size=v.N)
        y *= math.sqrt(2 * d * rng.uniform(0.3, 1.5)) / np.linalg.norm(y)
        w = Q @ y
        grad_w = v.grad(w)
        lap_v = float(v.laplacian(w))

        grad_fd = np.empty(v.N)
        lap_fd = 0.0
        f0 = _composed(u, n, y)
        for k in range(v.N):
            e = np.zeros(v.N)
            e[k] = 1.0
            grad_fd[k] = (_composed(u, n, y + h * e) - _composed(u, n, y - h * e)) / (2 * h)
            lap_fd += (_composed(u, n, y + h2 * e) - 2 * f0 + _composed(u, n, y - h2 * e)) / h2**2

        radial_v = float(dot(w, grad_w))
        gradsq_v = float(dot(grad_w, grad_w))
        scale = max(1.0, float(np.max(np.abs(grad_fd))))
        assert abs(float(v.value(w)) - f0) < 1e-12 * max(1.0, abs(f0))
        assert np.max(np.abs(Q.T @ grad_w - grad_fd)) < 1e-6 * scale
        assert abs(lap_v - lap_fd) < 1e-4 * max(1.0, abs(lap_fd))
        assert abs(radial_v - float(y @ grad_fd)) < 1e-6 * max(1.0, abs(radial_v))
        assert abs(gradsq_v - float(grad_fd @ grad_fd)) < 1e-5 * max(1.0, gradsq_v)


def test_lifted_laplacian_closed_form(rng, step_sum_rotation):
    # Lap v = n (Lap u + du/dt) + (2/d) x . grad(du/dt) + (2t/d) d^2u/dt^2;
    # for caloric u only the two 1/n-order correction terms survive
    d, n = 1, 7
    u = heat_kernel_translate(d, np.array([1.5]), 2.0)
    v = lifted_field(u, n)
    Q = step_sum_rotation(d, n)
    for _ in range(20):
        y = rng.uniform(-0.8, 0.8, size=v.N)
        if np.linalg.norm(y) < 1e-3:
            continue
        x, t = lift_point_time(y, n)
        got = float(v.laplacian(Q @ y))
        expected = (
            n * (float(u.laplacian(x, t)) + float(u.dt(x, t)))
            + (2.0 / d) * float(np.dot(x, np.atleast_1d(u.grad_dt(x, t))))
            + (2.0 * t / d) * float(u.dtt(x, t))
        )
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


# The elliptic functionals on the lifted field against the hand-reduced
# lifted formulas, at each finite n.  On the sphere of radius sqrt(2dt) the
# frequency is the same number; the two-phase ball integral with weight
# |w|^(2-nd) on the ball of radius sqrt(2d tau) is nd |S^(nd-1)| times each
# factor of lifted_two_phase.  x1sq and radial have u_t != 0, which the
# 2/nd term of the two-phase energy reads; x1cube and the heat kernel have
# grad u_t != 0, which the frequency's history term reads.
_ORACLE_FIELDS = {
    "x1sq": lambda d: caloric_polynomial("x1sq", d),
    "x1cube": lambda d: caloric_polynomial("x1cube", d),
    "radial": lambda d: caloric_polynomial("radial", d),
    "heat kernel": lambda d: heat_kernel_translate(d, [0.5], 3.0),
}
_ORACLE_CASES = [(name, 1, n) for name in _ORACLE_FIELDS for n in (4, 10, 40, 160, 320)] + [
    (name, 2, n) for name in ("x1sq", "x1cube") for n in (4, 40, 160)
]


@pytest.mark.parametrize("name,d,n", _ORACLE_CASES)
def test_elliptic_functionals_of_the_lift_match_the_lifted_formulas(name, d, n):
    u = _ORACLE_FIELDS[name](d)
    v = lifted_field(u, n)
    t, tau = 1.0, 0.7

    elliptic = almgren(v, math.sqrt(2 * d * t)).L
    assert abs(elliptic - lifted_frequency(u, n, t)) <= 1e-10 * abs(elliptic)

    N = v.N
    energy = integrate_ball(gradsq(v), N, math.sqrt(2 * d * tau), radial_power=2 - N, symmetry=v.symmetry).value
    factor = lifted_two_phase(u, u, n, tau).factor1
    assert abs(energy - N * sphere_area(N) * factor) <= 1e-10 * abs(energy)
