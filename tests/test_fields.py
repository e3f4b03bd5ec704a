"""Catalog fields: derivative self-checks, caloric residuals, supports."""

import hashlib
import dataclasses

import numpy as np
import pytest

import dimlift.fields
from dimlift.fields import (
    bump_radial,
    bump_spacetime,
    caloric_polynomial,
    caloric_residual,
    circle_map,
    equator_map,
    fd_check_scalar,
    fd_check_spacetime,
    graph_linear,
    graph_paraboloid,
    graph_plane,
    half_space_pair,
    half_space_power_pair,
    harmonic_polynomial,
    heat_kernel_translate,
)

FD_TOL = 1e-6


# ---------------------------------------------------------------------------
# elliptic catalog


@pytest.mark.parametrize(
    "field",
    [
        harmonic_polynomial("x1", 3),
        harmonic_polynomial("x1x2", 4),
        harmonic_polynomial("re_zk", 2, k=3),
        bump_radial(3, 1.0, 2.0, 4),
    ],
    ids=lambda f: f.name,
)
def test_scalar_fields_pass_derivative_self_checks(field, rng):
    pts = rng.uniform(0.6, 1.4, size=(100, field.N)) * rng.choice([-1.0, 1.0], size=(100, field.N))
    assert fd_check_scalar(field, pts) < FD_TOL


@pytest.mark.parametrize("kind,k", [("x1", 1), ("x1x2", 2), ("re_zk", 5)])
def test_harmonic_polynomials_are_harmonic(kind, k, rng):
    field = harmonic_polynomial(kind, 2, k=k) if kind == "re_zk" else harmonic_polynomial(kind, 3)
    pts = rng.uniform(-2.0, 2.0, size=(200, field.N))
    assert np.max(np.abs(field.laplacian(pts))) < 1e-10
    # homogeneity of degree k: v(2y) = 2^k v(y)
    assert np.allclose(field.value(2.0 * pts), 2.0**k * np.asarray(field.value(pts)), rtol=1e-12, atol=1e-12)


def test_radial_bump_support(rng):
    field = bump_radial(3, 1.0, 2.0, 4)
    assert field.support == (1.0, 2.0)
    outside = np.concatenate([rng.uniform(-0.5, 0.5, (50, 3)), 3.0 * rng.normal(size=(50, 3))])
    r = np.linalg.norm(outside, axis=1)
    outside = outside[(r < 0.9) | (r > 2.1)]
    assert np.all(field.value(outside) == 0.0)
    assert np.all(field.grad(outside) == 0.0)
    inside = np.array([[1.5, 0.0, 0.0]])
    assert field.value(inside)[0] > 0.0


# ---------------------------------------------------------------------------
# parabolic catalog


@pytest.mark.parametrize("kind", ["x1", "x1sq", "x1cube", "radial"])
def test_caloric_polynomials(kind, rng):
    u = caloric_polynomial(kind, 2)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    ts = rng.uniform(0.1, 2.0, size=100)
    checks = fd_check_spacetime(u, pts, ts)
    assert max(checks["grad"], checks["dt"]) < FD_TOL
    assert np.max(np.abs(caloric_residual(u, pts, ts))) < 1e-10


def test_heat_kernel_translate_is_caloric(rng):
    u = heat_kernel_translate(2, np.array([1.5, 1.5]), 3.0)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    ts = rng.uniform(0.1, 1.0, size=100)
    checks = fd_check_spacetime(u, pts, ts)
    assert max(checks["grad"], checks["dt"], checks["grad_dt"]) < FD_TOL
    assert np.max(np.abs(caloric_residual(u, pts, ts))) < 1e-10


def test_spacetime_bump_window(rng):
    u = bump_spacetime(1, 0.5, 1.5, 0.25, 1.0, 4)
    assert u.window == (0.5, 1.5, 0.25, 1.0)
    assert float(u.value(np.array([[1.0]]), 0.6)[0]) > 0.0
    assert float(u.value(np.array([[1.0]]), 0.1)[0]) == 0.0
    assert float(u.value(np.array([[0.2]]), 0.6)[0]) == 0.0
    pts = rng.uniform(-1.6, 1.6, size=(100, 1))
    ts = rng.uniform(0.2, 1.1, size=100)
    checks = fd_check_spacetime(u, pts, ts)
    assert max(checks["grad"], checks["dt"]) < FD_TOL
    # the quartic bump has a large fourth derivative near the cutoffs, so the
    # second-difference estimate is the noisy side here
    assert checks["laplacian"] < 1e-3


def test_half_space_pairs_split_the_domain(rng):
    up, um = half_space_pair(1)
    x = rng.uniform(-2.0, 2.0, size=(200, 1))
    t = 1.0
    vp = np.asarray(up.value(x, t))
    vm = np.asarray(um.value(x, t))
    assert np.all(vp * vm == 0.0)  # disjoint supports
    assert np.allclose(vp - vm, x[:, 0], rtol=0, atol=0)

    cube, lin = half_space_power_pair(1, 3)
    x1 = x[:, 0]
    assert np.allclose(np.asarray(cube.value(x, t)), np.maximum(x1, 0.0) ** 3)
    # subcaloric on its support: Lap u + du/dt = 6 (x1)_+ >= 0
    res = np.asarray(cube.laplacian(x, t)) + np.asarray(cube.dt(x, t))
    assert np.all(res >= 0.0)


def test_half_space_derivatives_broadcast_against_the_time(rng):
    x = rng.uniform(-2.0, 2.0, size=(3, 5, 2))
    x[0, :2, 0] = [0.0, -0.0]  # the interface, where the mask applies
    for t in (0.5, rng.uniform(0.1, 1.0, size=(3, 1)), rng.uniform(0.1, 1.0, size=(4, 3, 5)), np.ones((2, 3, 1))):
        lead = np.broadcast_shapes(x.shape[:-1], np.shape(t))
        for u in half_space_pair(2) + half_space_power_pair(2, 3):
            assert np.shape(u.dt(x, t)) == lead
            assert np.shape(u.grad_dt(x, t)) == lead + (2,)
            assert np.shape(u.laplacian(x, t)) == lead
            g = np.asarray(u.grad(x, t))
            assert g.shape == lead + (2,)
            assert np.all(g[..., 1] == 0.0)
    # (x1)_+^3 has gradient 3 (x1)_+^2 e1, and (x1)_- has -e1 on x1 < 0 and 0 elsewhere
    cube, lin = half_space_power_pair(2, 3)
    x1 = x[..., 0]
    np.testing.assert_array_equal(cube.grad(x, 0.5)[..., 0], 3.0 * np.maximum(x1, 0.0) ** 2)
    np.testing.assert_array_equal(lin.grad(x, 0.5)[..., 0], np.where(x1 < 0.0, -1.0, 0.0))
    # the linear pair is harmonic off the interface, and at it
    for u in half_space_pair(2):
        np.testing.assert_array_equal(u.laplacian(x, 0.5), np.zeros(x.shape[:-1]))


def test_a_time_array_may_widen_the_points_leading_shape(rng):
    # t (5, 4) widens the length-1 axis of x (5, 1, 2): the same as broadcasting x first
    x = rng.uniform(-2.0, 2.0, size=(5, 1, 2))
    t = rng.uniform(0.1, 1.0, size=(5, 4))
    wide = np.broadcast_to(x, (5, 4, 2))
    fields = [caloric_polynomial(kind, 2) for kind in ("x1sq", "x1cube", "radial")]
    fields += list(half_space_pair(2)) + [heat_kernel_translate(2, [0.5, -0.3], 3.0)]
    for u in fields:
        for part in ("value", "grad", "dt", "laplacian", "grad_dt", "dtt"):
            got = getattr(u, part)(x, t)
            assert np.shape(got)[:2] == (5, 4)
            np.testing.assert_array_equal(got, getattr(u, part)(wide, t))


def test_kernel_fields_reject_times_past_the_data_time(rng):
    # a translate is exact up to its singular time, and no further
    u = heat_kernel_translate(1, [0.5], 2.0)
    x = rng.uniform(-1.0, 1.0, size=(5, 1))
    assert np.all(np.isfinite(u.value(x, 1.9995)))
    for t in (2.0, 2.5):
        for part in ("value", "grad", "dtt"):
            with pytest.raises(ValueError, match="needs t < T"):
                getattr(u, part)(x, t)


def test_fd_check_spacetime_calls_the_field_once_per_stencil_offset(rng):
    u = caloric_polynomial("x1cube", 2)
    shapes = []

    def value(x, t):
        shapes.append((np.shape(x), np.shape(t)))
        return u.value(x, t)

    pts = rng.uniform(-2.0, 2.0, size=(30, 2))
    ts = rng.uniform(0.1, 2.0, size=30)
    checks = fd_check_spacetime(dataclasses.replace(u, value=value), pts, ts)
    assert max(checks.values()) < 1e-5
    # the center, 2 per axis for grad and Laplacian, 4 per axis for grad_dt,
    # and 2 each for dt and dtt
    assert len(shapes) == 1 + 2 * 2 + 2 * 2 + 4 * 2 + 2 + 2
    assert set(shapes) == {((30, 2), (30,))}


# ---------------------------------------------------------------------------
# sphere-valued maps and graph surfaces


def test_sphere_maps_are_unit_norm(rng):
    em = equator_map(3)
    y = rng.normal(size=(200, 3))
    y = y[np.linalg.norm(y, axis=1) > 0.1]
    v = np.asarray(em.value(y))
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < 1e-12
    # |Dv|^2 = (N-1)/|y|^2 in closed form
    e = np.asarray(em.energy(y))
    assert np.allclose(e, 2.0 / np.sum(y * y, axis=-1), rtol=1e-12)

    cm = circle_map(1)
    x = rng.normal(size=(200, 1))
    vc = np.asarray(cm.value(x))
    assert np.max(np.abs(np.linalg.norm(vc, axis=-1) - 1.0)) < 1e-12
    assert np.allclose(np.asarray(cm.energy(x)), 1.0)


def test_equator_map_needs_three_dimensions():
    with pytest.raises(ValueError):
        equator_map(2)


def test_graph_surfaces(rng):
    y = rng.uniform(-1.0, 1.0, size=(100, 2))
    plane = graph_plane(2, 0.7)
    assert np.all(np.asarray(plane.value(y, 0.0)) == 0.7)
    assert np.all(np.asarray(plane.grad(y, 0.0)) == 0.0)

    a = np.array([0.3, -0.2])
    lin = graph_linear(a)
    assert np.allclose(np.asarray(lin.value(y, 0.0)), y @ a)
    assert np.allclose(np.asarray(lin.grad(y, 0.0)), a)

    par = graph_paraboloid(2, 0.4)
    assert np.allclose(np.asarray(par.value(y, 0.0)), 0.2 * np.sum(y * y, axis=-1))
    hess = np.asarray(par.hessian(y, 0.0))
    assert np.allclose(hess, 0.4 * np.eye(2))


# ---------------------------------------------------------------------------
# pinned bits of the catalog's one-variable profiles


def _bits_points(width: int) -> np.ndarray:
    """(3, 4, width) points: signed zeros in every column, the origin and
    the signed-zero point, and radii inside and outside the annulus 1 < |x| < 2."""
    vals = np.array([0.0, -0.0, 0.35, -0.8, 1.2, -1.45, 1.7, -1.95, 0.6, -0.25, 2.3, -1.1])
    x = np.stack([np.roll(vals, 5 * i) for i in range(width)], axis=-1) / np.sqrt(width)
    x[0] = 0.0
    x[1] = -0.0
    return x.reshape(3, 4, width)


# a scalar time, one time per row and one per point, inside and outside (1, 2)
_BITS_TIMES = (1.3, np.array([[0.9], [1.4], [1.75]]), np.linspace(0.95, 2.05, 12).reshape(3, 4))

_BITS_FIELDS = {
    "x1": lambda d: [caloric_polynomial("x1", d)],
    "x1sq": lambda d: [caloric_polynomial("x1sq", d)],
    "x1cube": lambda d: [caloric_polynomial("x1cube", d)],
    "x1_plus": lambda d: [half_space_pair(d)[0]],
    "x1_minus": lambda d: [half_space_pair(d)[1]],
    "x1_plus^p": lambda d: [half_space_power_pair(d, p)[0] for p in (2, 3, 5)],
    "bump_spacetime": lambda d: [bump_spacetime(d, 1.0, 2.0, 1.0, 2.0, k) for k in (3, 4)],
    "bump_radial": lambda d: [bump_radial(d, 1.0, 2.0, k) for k in (3, 4)],
    "y1_pair": lambda d: list(half_space_pair(d, kind="elliptic")),
}


def _field_bits(name: str) -> str:
    """sha256 of the shape and bytes of every part of the named fields, at
    d in {1, 2, 3}, at widths 1 and d, and at each of _BITS_TIMES."""
    h = hashlib.sha256()

    def put(out):
        out = np.asarray(out)
        h.update(f"{out.dtype}{out.shape}".encode())
        h.update(np.ascontiguousarray(out).tobytes())

    for d in (1, 2, 3):
        for u in _BITS_FIELDS[name](d):
            for width in sorted({1, d}):
                x = _bits_points(width)
                if isinstance(u, dimlift.fields.ScalarField):
                    for part in ("value", "grad", "laplacian"):
                        put(getattr(u, part)(x))
                    continue
                for t in _BITS_TIMES:
                    for part in ("value", "grad", "dt", "laplacian", "grad_dt", "dtt"):
                        put(getattr(u, part)(x, t))
    return h.hexdigest()


# recorded under numpy 2.4.6; a rewrite of these constructors keeps the bits
_FIELD_BITS_SHA256 = {
    "bump_radial": "e01787b897a261289cb61e7e6deff36094696994e9af90b6dbba15dfeb7250a7",
    "bump_spacetime": "1d92679fcfbd3d4959b3166997561ac21a2682d43fb708d7f3dc1d916355d2b6",
    "x1": "115b09d73ec4a3879d0e95bf076e19972fd93a18e7eed71fdbd44e36a0e033aa",
    "x1_minus": "abd8421b06a354e335d76c718857602cb0b57564a70886359c5bd62ed603ecab",
    "x1_plus": "bc14044012ee7ba9407cc358db34a2da03645970b2f127effd1b1deccb03f3f0",
    "x1_plus^p": "e7227aa356202005c1755e1a868c306e952ad130b468696e67ea2d28ffad258a",
    "x1cube": "0097a7de2adec4ab2da8bd82b60f4204205d7729ccea53179ad4555ee9416915",
    "x1sq": "99c99fbd05102cf21e183213d087ae405b7f48ae8f984074aa312050d0fb68ea",
    "y1_pair": "aa5f26e4b24654668eae60322ed9c3919301741c3409e3636258859054d2744c",
}


@pytest.mark.parametrize("name", sorted(_BITS_FIELDS))
def test_one_variable_profiles_keep_their_bits(name):
    assert _field_bits(name) == _FIELD_BITS_SHA256[name]


def test_heat_kernel_translates_keep_their_bits():
    # every part at d in {1, 2, 3}, on the points of _bits_points(d), which
    # include each x0: the origin and one point of the set.  There a column
    # of grad is 0, and it reads as +0.0.  Recorded under numpy 2.4.6
    h = hashlib.sha256()
    for d in (1, 2, 3):
        x = _bits_points(d)
        for u in (heat_kernel_translate(d, None, 3.0), heat_kernel_translate(d, x[2, 1], 3.0)):
            for t in _BITS_TIMES:
                for part in ("value", "grad", "dt", "laplacian", "grad_dt", "dtt"):
                    out = getattr(u, part)(x, t)
                    h.update(f"{out.dtype}{out.shape}".encode())
                    h.update(out.tobytes())
    assert h.hexdigest() == "f6476b4954f05a50c47e641360e7939ebed0f8c5b45b980d5faf08a9ac2c6f73"
