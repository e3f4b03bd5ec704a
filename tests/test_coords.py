"""Space-time fields and sphere-valued maps that declare coords = k, a
dependence on x_1..x_k alone: the weighted rule in R^k against the
k-marginal of the weight, its agreement with the rule of R^d, the exact
identity with the d = 1 functionals at nd steps, and the fields' contract
for k-wide points."""

import dataclasses
import math

import numpy as np
import pytest

from dimlift.fields import SphereField, caloric_polynomial, circle_map, half_space_pair, half_space_power_pair
from dimlift.functionals import caffarelli_Phi, lifted_frequency, lifted_hm_Phi, lifted_two_phase, poon, struwe_Phi
from dimlift.integrate import _weighted_sums, integrate_spacetime, integrate_weighted


def _moments(k):
    # smooth integrands of x_1..x_k alone, several at once
    def phi(x, t=1.0):
        x1 = x[..., 0]
        cols = [1.0 + x1 * x1 + 0.0 * t, x1**4, np.cos(x1) * np.exp(-t)]
        if k >= 2:
            cols.append((x1 * x[..., 1]) ** 2 + x[..., 1] ** 4)
        return np.stack(cols, axis=-1)

    return phi


def _angular_count(k: int, level: int) -> int:
    # S^0 has 2 nodes, the circle 4 max(4, L/2), S^2 that times max(6, L/2)
    return {1: 2, 2: 4 * max(4, level // 2), 3: 4 * max(4, level // 2) * max(6, level // 2)}[k]


def _radial_count(dim: int, level: int, n) -> int:
    # the Gaussian takes a Legendre rule of `level` nodes; the finite weight
    # the even half of a symmetric rule in odd dimension, `level` nodes in
    # even dimension, and one radius at n = 1
    if n is None:
        return level
    if n == 1:
        return 1
    return (level + level % 2) // 2 if dim % 2 else level


CASES = [(d, k, n) for d in (2, 3) for k in range(1, d) for n in (None, 1, 2, 5, 40)]


@pytest.mark.parametrize("d,k,n", CASES)
def test_the_k_marginal_rule_matches_the_rule_of_r_d(d, k, n):
    phi = _moments(k)
    reduced = integrate_weighted(phi, d, 0.7, n=n, coords=k).value
    full = integrate_weighted(phi, d, 0.7, n=n).value
    np.testing.assert_allclose(reduced, full, rtol=1e-12, atol=0.0)
    if d > 2:
        return  # the time-stacked rule of R^3 takes seconds; the time axis is the same at d = 2
    reduced = integrate_spacetime(phi, d, 0.7, n=n, coords=k).value
    full = integrate_spacetime(phi, d, 0.7, n=n).value
    np.testing.assert_allclose(reduced, full, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d,k,n", CASES)
def test_the_k_marginal_rule_runs_on_k_wide_points_with_its_node_count(d, k, n):
    level, ts = 48, np.array([0.3, 0.7, 1.1])
    widths = set()

    def phi(x, t):
        widths.add(x.shape[-1])
        return x[..., 0] ** 2 + 0.0 * t

    _, count = _weighted_sums(phi, d, ts, level, n, coords=k)
    # at n = 1 the weight is a law on a sphere of R^d, and the rule of R^d is kept
    dim = d if n == 1 else k
    assert widths == {dim}
    assert count == len(ts) * _radial_count(dim, level, n) * _angular_count(dim, level)
    widths.clear()
    _, count = _weighted_sums(phi, d, ts, level, n)
    assert widths == {d}
    assert count == len(ts) * _radial_count(d, level, n) * _angular_count(d, level)


def test_coords_that_reduce_nothing_keep_the_rule_of_r_d():
    phi = _moments(1)
    for n in (5, None):
        full = integrate_weighted(phi, 2, 0.7, n=n)
        for coords in (0, 2, 3):
            est = integrate_weighted(phi, 2, 0.7, n=n, coords=coords)
            assert est.evaluations == full.evaluations
            assert np.array_equal(est.value, full.value)


def test_a_sphere_law_marginal_is_not_its_radius():
    # E[x1^2] = 2t on the sphere |x| = sqrt(6t) of R^3 (n = 1), where the
    # one radius read in R^1 would give 6t
    x1sq = integrate_weighted(lambda x: x[..., 0] ** 2, 3, 0.7, n=1, coords=1).value
    assert math.isclose(x1sq, 1.4, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# a field of x_1 alone sees only nd: its functionals at (d, n) are the d = 1
# ones at nd steps, bit for bit

STEPS = [(2, 2), (2, 5), (3, 4), (2, 20)]


@pytest.mark.parametrize("pair", ["half", "power"])
def test_two_phase_of_a_first_coordinate_pair_is_the_one_dimensional_one(pair):
    make = half_space_pair if pair == "half" else half_space_power_pair
    base = make(1)
    for d in (2, 3):
        assert caffarelli_Phi(*make(d), 0.7) == caffarelli_Phi(*base, 0.7)
    for d, n in STEPS:
        assert lifted_two_phase(*make(d), n, 0.7) == lifted_two_phase(*base, n * d, 0.7)


@pytest.mark.parametrize("kind", ["x1", "x1sq", "x1cube"])
def test_frequency_of_a_first_coordinate_field_is_the_one_dimensional_one(kind):
    base = caloric_polynomial(kind, 1)
    assert poon(caloric_polynomial(kind, 3), 0.7) == poon(base, 0.7)
    for d, n in STEPS:
        u = caloric_polynomial(kind, d)
        assert lifted_frequency(u, n, 0.7) == lifted_frequency(base, n * d, 0.7)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_the_circle_maps_energy_densities_are_the_one_dimensional_ones(t):
    base = circle_map(1)
    for d in (2, 3):
        assert struwe_Phi(circle_map(d), t) == struwe_Phi(base, t)
    for d, n in STEPS:
        assert lifted_hm_Phi(circle_map(d), n, t) == lifted_hm_Phi(base, n * d, t)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (3, 4), (2, 40), (3, 40), (2, 160)])
def test_the_cubic_lifted_frequency_is_exact_at_every_nd(d, n):
    # L_n = 3 - 12/(N^2 - 3N + 12), N = nd, from the Beta moments of the
    # finite weight; it tends to 3 = 2 script-L at rate 12/N^2
    N = n * d
    exact = 3.0 - 12.0 / (N * N - 3 * N + 12)
    for t in (0.7, 1.0):
        got = lifted_frequency(caloric_polynomial("x1cube", d), n, t)
        assert abs(got - exact) <= 1e-12 * exact


# ---------------------------------------------------------------------------
# the contract of a declared field: on a k-wide point it gives what it gives
# on every d-wide point with the same x_1..x_k

DECLARED = {
    "x1": lambda d: caloric_polynomial("x1", d),
    "x1sq": lambda d: caloric_polynomial("x1sq", d),
    "x1cube": lambda d: caloric_polynomial("x1cube", d),
    "x1_plus": lambda d: half_space_pair(d)[0],
    "x1_minus": lambda d: half_space_pair(d)[1],
    "x1_plussq": lambda d: half_space_power_pair(d, 2)[0],
    "x1_pluscube": lambda d: half_space_power_pair(d, 3)[0],
    "x1_plus^5": lambda d: half_space_power_pair(d, 5)[0],
}


def _check_reads_only_its_coords(u, seed: int) -> None:
    k = u.coords
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (3, 4, u.d))
    t = rng.uniform(0.1, 1.5, (3, 4))
    narrow = x[..., :k]
    for name in ("value", "dt", "laplacian", "dtt"):
        wide_v = np.broadcast_to(getattr(u, name)(x, t), (3, 4))
        narrow_v = np.broadcast_to(getattr(u, name)(narrow, t), (3, 4))
        np.testing.assert_allclose(narrow_v, wide_v, rtol=1e-13, atol=1e-15, err_msg=name)
    for name in ("grad", "grad_dt"):
        wide_v = np.broadcast_to(getattr(u, name)(x, t), (3, 4, u.d))
        narrow_v = getattr(u, name)(narrow, t)
        assert narrow_v.shape == (3, 4, k), name
        np.testing.assert_allclose(narrow_v, wide_v[..., :k], rtol=1e-13, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", sorted(DECLARED))
def test_a_declared_field_reads_a_point_through_its_first_k_coordinates(name, d):
    u = DECLARED[name](d)
    assert u.coords == 1
    _check_reads_only_its_coords(u, d)


def test_the_contract_check_refuses_a_false_declaration():
    # |x|^2 - 2dt reads every coordinate
    u = dataclasses.replace(caloric_polynomial("radial", 2), coords=1)
    with pytest.raises(AssertionError):
        _check_reads_only_its_coords(u, 2)


def _check_map_reads_only_its_coords(umap, seed: int) -> None:
    k, d = umap.coords, umap.dim_domain
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 4, d))
    narrow = x[..., :k]
    for name in ("value", "energy"):
        wide_v = np.asarray(getattr(umap, name)(x), float)
        narrow_v = np.asarray(getattr(umap, name)(narrow), float)
        np.testing.assert_allclose(narrow_v, wide_v, rtol=1e-13, atol=1e-15, err_msg=name)
    wide_j = np.asarray(umap.jacobian(x), float)
    narrow_j = np.asarray(umap.jacobian(narrow), float)
    assert narrow_j.shape == wide_j.shape[:-1] + (k,)
    np.testing.assert_allclose(narrow_j, wide_j[..., :k], rtol=1e-13, atol=1e-15, err_msg="jacobian")
    # a map of x_1..x_k alone has no derivative along x_(k+1)..x_d
    np.testing.assert_array_equal(wide_j[..., k:], 0.0, err_msg="jacobian")


@pytest.mark.parametrize("d", [2, 5])
def test_the_circle_map_reads_a_point_through_its_first_coordinate(d):
    umap = circle_map(d)
    assert umap.coords == 1
    _check_map_reads_only_its_coords(umap, d)


def test_the_map_contract_check_refuses_a_false_declaration():
    # (cos(x1 + x2), sin(x1 + x2)) reads x_2
    def phase(x):
        return np.sum(np.asarray(x, float)[..., :2], axis=-1)

    def jacobian(x):
        x, p = np.asarray(x, float), phase(x)
        j = np.zeros(x.shape[:-1] + (2, x.shape[-1]))
        j[..., 0, :2] = -np.sin(p)[..., None]
        j[..., 1, :2] = np.cos(p)[..., None]
        return j

    umap = SphereField(
        dim_domain=2,
        value=lambda x: np.stack([np.cos(phase(x)), np.sin(phase(x))], axis=-1),
        jacobian=jacobian,
        energy=lambda x: 2.0 * np.ones(np.shape(x)[:-1]),
        name="x1 + x2 phase",
        coords=1,
    )
    with pytest.raises(AssertionError):
        _check_map_reads_only_its_coords(umap, 2)
