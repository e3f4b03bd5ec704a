"""Deterministic quadrature against closed-form moments, and seeded sampling."""

import concurrent.futures
import contextlib
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from dimlift import (
    MonteCarloSpec,
    integrate_annulus,
    integrate_ball,
    integrate_sphere,
    integrate_spacetime,
    integrate_weighted,
    integrate_window,
    mc_mean,
    pushforward_check_ball,
    pushforward_check_sphere,
    sample_mu_ball,
    sample_sphere_uniform,
    sphere_area,
)
import dimlift.integrate
from dimlift.errors import AccuracyError, UnsupportedConfigError
from dimlift.integrate import _use_threads
from dimlift.lift import lift_point_time


def _x1sq(x):
    return np.asarray(x, dtype=float)[..., 0] ** 2


def _x1quart(x):
    return np.asarray(x, dtype=float)[..., 0] ** 4


# ---------------------------------------------------------------------------
# weighted moments


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_gaussian_moments(d, t):
    est = integrate_weighted(_x1sq, d, t)
    assert abs(est.value - 2 * t) < 1e-10 * max(1.0, 2 * t)
    quart = integrate_weighted(_x1quart, d, t).value
    assert abs(quart - 12 * t * t) < 1e-9 * max(1.0, 12 * t * t)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 5), (2, 2), (2, 20), (3, 4)])
def test_finite_weight_moments(d, n):
    # second moment 2t at every n; fourth moment 12 n d t^2 / (nd + 2),
    # from the beta-function moments of (1 - r^2/R^2)^((nd-d-2)/2)
    t = 0.8
    nd = n * d
    assert abs(integrate_weighted(_x1sq, d, t, n=n).value - 2 * t) < 1e-10
    quart = integrate_weighted(_x1quart, d, t, n=n).value
    assert abs(quart - 12 * nd * t * t / (nd + 2)) < 1e-9


def test_single_step_weight_is_the_sphere_average():
    # n = 1: the push-forward law is uniform on |x| = sqrt(2dt), so the
    # second moment is 2dt/d and the fourth is (2dt)^2 * 3/(d(d+2)) at d = 2
    d, t = 2, 0.7
    assert abs(integrate_weighted(_x1sq, d, t, n=1).value - 2 * t) < 1e-12
    quart = integrate_weighted(_x1quart, d, t, n=1).value
    assert abs(quart - (2 * d * t) ** 2 * 3 / (d * (d + 2))) < 1e-12


def test_stacked_integrands_share_the_node_sweep():
    def both(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.ones_like(x[..., 0]), x[..., 0] ** 2], axis=-1)

    est = integrate_weighted(both, 2, 1.0)
    assert np.asarray(est.value).shape == (2,)
    assert np.allclose(est.value, [1.0, 2.0], atol=1e-10)


def test_doubling_radial_nodes_leaves_moments_fixed(monkeypatch):
    t = 1.0
    monkeypatch.setattr(dimlift.integrate, "_FIRST_LEVEL", 48)
    a = integrate_weighted(_x1quart, 1, t).value
    monkeypatch.setattr(dimlift.integrate, "_FIRST_LEVEL", 96)
    b = integrate_weighted(_x1quart, 1, t).value
    assert abs(a - b) < 1e-9 * abs(a)


def test_jump_integrand_raises_accuracy_error():
    def jump(x):
        return (np.asarray(x, dtype=float)[..., 0] > 0.3).astype(float)

    with pytest.raises(AccuracyError) as exc:
        integrate_weighted(jump, 1, 1.0)
    assert exc.value.last_two is not None and len(exc.value.last_two) == 2
    # the last two levels, not the last one twice
    assert exc.value.last_two[0] != exc.value.last_two[1]
    # every level with its node count (L radial nodes times 2 directions),
    # and the last |delta| against its bound
    assert str(exc.value).startswith(
        "quadrature did not stabilize after 4 node doublings: levels 24 (48 points), 48 (96 points),"
        " 96 (192 points), 192 (384 points), 384 (768 points); last |delta| "
    )
    delta, bound = re.search(r"last \|delta\| (\S+) > tol\*scale (\S+) ", str(exc.value)).groups()
    assert float(delta) == pytest.approx(abs(exc.value.last_two[1] - exc.value.last_two[0]), rel=1e-2)
    assert float(bound) == 1e-11


def _stub_levels(values: dict):
    """An eval_at_level that returns values[level], counts level points and
    records the levels asked for."""
    asked = []

    def eval_at(level):
        asked.append(level)
        return values[level], level

    return eval_at, asked


def test_refine_returns_at_the_first_agreeing_pair():
    # (24, 48) and (48, 96) differ by more than 1e-11; (96, 192) agree
    values = {24: 1.0, 48: 1.0 + 1e-6, 96: 1.0 + 2e-12, 192: 1.0 + 3e-12, 384: 1.0}
    eval_at, asked = _stub_levels(values)
    est = dimlift.integrate._refine(eval_at)
    assert asked == [24, 48, 96, 192]
    assert est.value == values[192] and est.evaluations == 24 + 48 + 96 + 192


@pytest.mark.parametrize("accept", [48, 96, 192])
def test_refine_keeps_the_value_of_a_pair_from_level_48(accept, monkeypatch):
    # a stub that settles at the pair (accept, 2 accept) and not before: the
    # first level 24 returns the level-2L value bit for bit, as the schedule
    # from level 48 does, and only adds the level-24 points
    values = {24: 0.5, 48: 0.7, 96: 0.9, 192: 1.1, 384: 1.3}
    for level in values:
        if level > accept:
            values[level] = values[accept] + 1e-13 * (level // accept)
    eval_at, _ = _stub_levels(values)
    est = dimlift.integrate._refine(eval_at)
    monkeypatch.setattr(dimlift.integrate, "_FIRST_LEVEL", 48)
    eval_at, _ = _stub_levels(values)
    old = dimlift.integrate._refine(eval_at)
    assert np.float64(est.value).tobytes() == np.float64(old.value).tobytes() == np.float64(values[2 * accept]).tobytes()
    assert est.evaluations == old.evaluations + 24


def _narrow_bump_expected(sigma, c, t):
    s2 = sigma * sigma + 2.0 * t
    return sigma / math.sqrt(s2) * math.exp(-c * c / (2.0 * s2))


# int exp(-(x1 - c)^2 / 2 sigma^2) G_t dx at d = 1, t = 1, against the closed
# form: a bump at least 0.1 wide is resolved; one of 0.02 to 0.05 is resolved
# or refused.  Narrower ones (sigma <= 0.01 at c = 1.3) fall between the nodes
# of the levels 24 and 48 and are returned wrong (README, "Resolution").
@pytest.mark.parametrize("c", [0.0, 1.3])
@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02])
def test_a_narrow_gaussian_bump_is_resolved_or_refused(sigma, c):
    expected = _narrow_bump_expected(sigma, c, 1.0)

    def bump(x):
        return np.exp(-((x[..., 0] - c) ** 2) / (2.0 * sigma * sigma))

    try:
        value = integrate_weighted(bump, 1, 1.0).value
    except AccuracyError:
        assert sigma <= 0.05
        return
    assert abs(value - expected) <= 1e-10 * expected


def test_nan_integrand_fails_at_the_first_level():
    shapes = []

    def nan(y):
        shapes.append(y.shape)
        return np.full(y.shape[:-1], np.nan)

    with pytest.raises(AccuracyError, match="not finite at level 24"):
        integrate_ball(nan, 3, 1.0)
    # one level: 24 radial rows, each of the 12 x 48 product-gauss directions
    assert sum(math.prod(s[:-1]) for s in shapes) == 24 * 12 * 48


def test_chunked_sums_match_one_block(monkeypatch):
    cases = {
        "ball": lambda f: integrate_ball(f, 2, 1.3, center=[0.2, -0.1], radial_power=0.5),
        "annulus": lambda f: integrate_annulus(f, 2, (0.4, 1.2), radial_power=-1.0),
        "sphere": lambda f: integrate_sphere(f, 2, 1.1, center=[0.3, 0.0]),
        "gaussian": lambda f: integrate_weighted(f, 2, 0.7),
        "finite": lambda f: integrate_weighted(f, 2, 0.7, n=7),
        "window": lambda f: integrate_window(lambda x, t: f(x) * t[..., None], 2, (0.3, 1.4), (0.2, 0.9)),
    }

    def run(case, budget, threads):
        monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", budget)
        largest = []

        def f(x):
            largest.append(math.prod(x.shape[:-1]))
            return np.stack([np.cos(x[..., 0]) * np.exp(-np.sum(x * x, axis=-1)), x[..., 1] ** 2], axis=-1)

        with _use_threads(threads):
            return np.asarray(cases[case](f).value), max(largest)

    # counts are clamped to the CPU count; with 4 CPUs, 2 and 4 threads both
    # run, and with no cost cutoff every sum of several blocks is threaded
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    for case in cases:
        whole, whole_max = run(case, 1 << 21, 1)
        assert whole_max > 1000 or case == "sphere", case  # a sphere rule has one radial row
        chunked = {}
        for threads in (1, 2, 4):
            chunked[threads], chunked_max = run(case, 1000, threads)
            assert chunked_max <= 1000, (case, threads)
        np.testing.assert_allclose(chunked[1], whole, rtol=1e-14, atol=0.0, err_msg=case)
        for threads in (2, 4):
            assert chunked[threads].tobytes() == chunked[1].tobytes(), (case, threads)


def _per_node_estimate(case, phi, d, n, shapes):
    """The estimate of the time-axis case with the engine called once per
    time node, and the weighted slices added one node at a time; shapes gets
    (time nodes, radial nodes, directions) of each level tried."""
    I = dimlift.integrate

    def eval_at(level: int):
        if case == "window":
            ts, wt = I._legendre_rule(level, 0.2, 0.9)
            omega, wa = I._sphere_nodes(d, level)
            rho, wr = I._legendre_rule(level, 0.3, 1.4, d - 1)
            wr = sphere_area(d) * wr

            def one(q):
                return I._polar_sum(phi, rho[None], wr[None], omega, wa, t=ts[q : q + 1])

        else:
            ts, wt = I._legendre_rule(level, 0.0, 0.7)

            def one(q):
                return I._weighted_sums(phi, d, ts[q : q + 1], level, n)

        ka = I._sphere_nodes(d, level)[0].shape[0]
        total, count = None, 0
        for q in range(len(ts)):
            values, cnt = one(q)
            total = wt[q] * values[0] if total is None else total + wt[q] * values[0]
            count += cnt
        shapes.append((len(ts), cnt // ka, ka))
        return total, count

    return I._refine(eval_at)


def _block_count(T: int, kr: int, ka: int, budget: int) -> int:
    # blocks of whole slices, or pieces of a slice larger than a block
    step = max(1, budget // ka)
    return T * -(-kr // step) if kr > step else -(-T // (step // kr))


@pytest.mark.parametrize(
    "case, n", [("gaussian", None), ("finite", 1), ("finite", 7), ("window", None)], ids=["gauss", "n1", "n7", "window"]
)
@pytest.mark.parametrize("d", [1, 2])
def test_time_axis_matches_the_per_node_loop(case, n, d, monkeypatch):
    calls = []

    def phi(x, t):
        calls.append(x.shape)
        rr = np.sum(x * x, axis=-1)
        a = np.exp(-t * rr) * (1.0 + x[..., 0] ** 2)
        if d == 1:
            return a
        return np.stack([a, t * t * x[..., 1] ** 2 + t], axis=-1)

    def stacked():
        if case == "window":
            return integrate_window(phi, d, (0.3, 1.4), (0.2, 0.9))
        return integrate_spacetime(phi, d, 0.7, n=n)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    for budget in (dimlift.integrate._CHUNK_POINTS, 1000):
        monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", budget)
        shapes = []
        with _use_threads(1):
            ref = _per_node_estimate(case, phi, d, n, shapes)
        for threads in (1, 2, 4):
            calls.clear()
            with _use_threads(threads):
                got = stacked()
            assert np.asarray(got.value).tobytes() == np.asarray(ref.value).tobytes(), (budget, threads)
            assert got.evaluations == ref.evaluations
            assert len(calls) == sum(_block_count(*shape, budget) for shape in shapes), (budget, threads)
            # some block holds the rows of several time nodes, unless every
            # slice is over the budget
            kr_of = {ka: kr for _, kr, ka in shapes}
            assert any(rows > kr_of[ka] for rows, ka, _ in calls) or (d == 2 and budget == 1000)
            assert max(math.prod(s[:-1]) for s in calls) <= budget


def _one_time_rule(d, t, level, n, k):
    """The radial rule of the weight at one time t, built on its own: the
    reference the time-stacked rows must match bit for bit."""
    I = dimlift.integrate
    if n is None:
        r, radial_w = I._legendre_rule(level, 0.0, I.TAIL_FACTOR * math.sqrt(t), k - 1)
        return r, sphere_area(k) * radial_w * np.exp(-r * r / (4.0 * t) - 0.5 * k * math.log(4.0 * math.pi * t))
    if n == 1:
        return np.array([math.sqrt(2.0 * d * t)]), np.ones(1)
    nd = n * d
    return I._ball_rule(level, k, 0.5 * (nd - k - 2), math.sqrt(2.0 * nd * t))


@pytest.mark.parametrize(
    "d, n, k",
    [
        (1, None, 1),
        (2, None, 2),
        (3, None, 3),
        (3, None, 1),
        (1, 1, 1),
        (2, 1, 2),
        (1, 2, 1),
        (1, 7, 1),
        (2, 5, 2),
        (2, 40, 1),
        (3, 2, 3),
        (3, 7, 2),
    ],
)
@pytest.mark.parametrize("tau", [0.7, 16.0])
def test_time_stacked_rules_match_the_one_time_rule_bit_for_bit(d, n, k, tau):
    for level in (24, 48, 96, 192, 384):
        ts, _ = dimlift.integrate._legendre_rule(level, 0.0, tau)
        r, w = dimlift.integrate._weighted_rules(d, ts, level, n, k)
        rules = [_one_time_rule(d, tq, level, n, k) for tq in ts]
        assert r.tobytes() == np.stack([rq for rq, _ in rules]).tobytes(), level
        assert np.ascontiguousarray(w).tobytes() == np.stack([wq for _, wq in rules]).tobytes(), level


@pytest.fixture(autouse=True)
def _fresh_pools():
    # the worker pools live for the process; each test starts and ends without any
    dimlift.integrate._close_pools()
    yield
    dimlift.integrate._close_pools()


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    submitted call at once, so no thread is started."""

    def __init__(self, max_workers, created):
        created.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


def _record_pools(monkeypatch) -> list:
    created = []
    monkeypatch.setattr(
        dimlift.integrate, "ThreadPoolExecutor", lambda max_workers, **_: _SerialPool(max_workers, created)
    )
    return created


def _ones(x):
    return np.ones(x.shape[:-1])


@contextlib.contextmanager
def _first_level(level):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimlift.integrate, "_FIRST_LEVEL", level)
        yield


def test_an_integrand_error_in_a_middle_block_propagates(monkeypatch):
    # 50 radial rows of 100 directions in blocks of 10 rows: the error is in
    # block 2 of 0..4, which runs on a worker with no cost cutoff
    monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", 1000)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    omega, wa = dimlift.integrate._sphere_nodes(2, 50)
    assert omega.shape[0] == 100
    r = np.arange(50.0)

    def f(x, rho):
        if rho[0] == 20.0:
            raise RuntimeError("middle block")
        return _ones(x)

    for threads in (1, 2):
        with _use_threads(threads), pytest.raises(RuntimeError, match="middle block"):
            dimlift.integrate._polar_sum(f, r, np.ones(50), omega, wa)


def test_sphere_rules_need_a_dimension_of_at_least_one():
    # N = 0 once recursed past the N = 1 and N = 2 base cases
    with pytest.raises(ValueError, match="N >= 1"):
        integrate_sphere(_ones, 0, 1.0)


def test_a_single_block_sum_starts_no_pool(monkeypatch):
    created = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with _use_threads(4):
        # 24 rows of 48 directions at the first level, 48 of 96 at the next
        with _first_level(24):
            value = integrate_ball(_ones, 2, 1.0).value
        # one row of 12 x 48, then of 24 x 96 directions
        integrate_sphere(_ones, 3, 1.0)
        # 12 rows of 2 directions, then 24 of 2
        integrate_weighted(_x1sq, 1, 0.7, n=7)
        # 24 time nodes of 24 rows of 2 directions, then 48 of 48 of 2
        with _first_level(24):
            mass = integrate_spacetime(lambda x, t: np.ones(x.shape[:-1]), 1, 0.8).value
    assert abs(value - math.pi) < 1e-11
    assert abs(mass - 0.8) < 1e-10
    assert created == []


def test_the_first_level_is_read_at_call_time(monkeypatch):
    # bound as a default when a function is defined, it would not follow a patch
    # 24 radial rows of 48 directions, then 48 of 96
    assert integrate_ball(_ones, 2, 1.0).evaluations == 24 * 48 + 48 * 96
    monkeypatch.setattr(dimlift.integrate, "_FIRST_LEVEL", 8)
    # 8 rows of 16 directions, then 16 of 32
    assert integrate_ball(_ones, 2, 1.0).evaluations == 8 * 16 + 16 * 32


def test_the_batch_size_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1024)
    batches = list(sample_sphere_uniform(3, 1.0, MonteCarloSpec(seed=1, samples=5000)))
    assert [len(b) for b in batches] == [1024] * 4 + [904]


def test_thread_count_is_clamped_to_the_cpu_count(monkeypatch):
    created = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", 1000)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    with _use_threads(1):
        serial = integrate_ball(_x1sq, 2, 1.0)
    assert created == []
    with _use_threads(10**6):
        requested = integrate_ball(_x1sq, 2, 1.0)
    assert created and set(created) == {3}
    assert requested.value == serial.value
    # the DIMLIFT_THREADS default and a push-forward check's count are clamped the same way
    # a pool is built once per count, so drop it to see the next count chosen
    dimlift.integrate._close_pools()
    created.clear()
    monkeypatch.setenv("DIMLIFT_THREADS", str(10**6))
    integrate_ball(_x1sq, 2, 1.0)
    assert created and set(created) == {3}
    dimlift.integrate._close_pools()
    created.clear()
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1024)
    pushforward_check_sphere(_x1sq, 1, 3, 0.5, MonteCarloSpec(seed=1, samples=4096), threads=10**6)
    assert created == [3]


def _two_block_sum(threads, f=None):
    # 50 radial rows of 100 directions in blocks of 10 rows: five blocks
    omega, wa = dimlift.integrate._sphere_nodes(2, 50)
    r = np.linspace(0.1, 1.0, 50)
    f = f or (lambda x, rho: np.cos(x[..., 0]) * np.exp(-x[..., 1] ** 2))
    with _use_threads(threads):
        return dimlift.integrate._polar_sum(f, r, np.full(50, 0.02), omega, wa)


def test_consecutive_threaded_sums_share_one_pool(monkeypatch):
    monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", 1000)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    built = []
    real = dimlift.integrate.ThreadPoolExecutor
    monkeypatch.setattr(dimlift.integrate, "ThreadPoolExecutor", lambda **kw: built.append(kw) or real(**kw))
    serial = _two_block_sum(1)
    assert built == []
    first = _two_block_sum(2)
    second = _two_block_sum(2)
    assert [kw["max_workers"] for kw in built] == [2]
    assert first == second == serial


def test_a_sum_nested_in_a_threaded_integrand_runs_inline(monkeypatch):
    # with one shared pool, an inner sum that queued its blocks behind the
    # outer ones would wait on the workers that are waiting on it
    monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", 1000)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    inner_threads = []

    def outer(threads):
        def f(x, rho):
            inner_threads.append(threading.current_thread().name)
            inner, _ = _two_block_sum(2)
            return np.cos(x[..., 0]) * inner

        return _two_block_sum(threads, f)

    serial = outer(1)
    inner_threads.clear()
    done = []
    runner = threading.Thread(target=lambda: done.append(outer(2)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested sum deadlocked"
    assert np.asarray(done[0][0]).tobytes() == np.asarray(serial[0]).tobytes()
    assert done[0][1] == serial[1]
    # the first outer block runs on the calling thread, the other four on workers
    assert len(inner_threads) == 5 and inner_threads[0] == runner.name
    assert all(name.startswith("dimlift") for name in inner_threads[1:])
    assert list(dimlift.integrate._pools) == [2]


class _Clock:
    """Stands in for the time module of dimlift.integrate: every
    perf_counter_ns call reads `step` nanoseconds later than the last."""

    def __init__(self, step):
        self.now, self.step = 0, step

    def perf_counter_ns(self):
        self.now += self.step
        return self.now


def _block_threads(monkeypatch, threads, cutoff, f, ns_per_point=None):
    """The value of a sum of five blocks of 16,000 points, the thread each
    block ran on, in block order, and the max_workers of each pool built.
    With ns_per_point the first block is timed at that cost per point."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dimlift.integrate, "_THREAD_NS_PER_POINT", cutoff)
    if ns_per_point is not None:
        monkeypatch.setattr(dimlift.integrate, "time", _Clock(ns_per_point * 16_000))
    built = []
    real = dimlift.integrate.ThreadPoolExecutor
    monkeypatch.setattr(dimlift.integrate, "ThreadPoolExecutor", lambda **kw: built.append(kw) or real(**kw))
    # 200 radial rows of 400 directions, in blocks of 40 rows
    omega, wa = dimlift.integrate._sphere_nodes(2, 200)
    r = np.linspace(0.01, 2.0, 200)
    ran = {}

    def g(x, rho):
        ran[float(rho[0])] = threading.current_thread().name
        return f(x)

    with _use_threads(threads):
        value, count = dimlift.integrate._polar_sum(g, r, np.full(200, 0.01), omega, wa)
    assert count == 200 * 400
    return value, [ran[float(r[i])] for i in range(0, 200, 40)], [kw["max_workers"] for kw in built]


def _cheap(x):
    return x[..., 0] * x[..., 1]


def test_a_cheap_integrand_runs_every_block_on_the_calling_thread(monkeypatch):
    # a product per point: this sum took 5-11 ns per point on 2 cores, but
    # the clock is stubbed, so that a loaded machine cannot make it look dear
    cutoff = dimlift.integrate._THREAD_NS_PER_POINT
    _, ran, built = _block_threads(monkeypatch, 2, cutoff, _cheap, ns_per_point=cutoff - 1)
    assert ran == [threading.current_thread().name] * 5
    assert built == []


def test_a_first_block_at_the_cutoff_sends_the_rest_to_workers(monkeypatch):
    cutoff = dimlift.integrate._THREAD_NS_PER_POINT
    for ns_per_point, pool_cutoff in ((cutoff, cutoff), (None, 0)):
        dimlift.integrate._close_pools()
        _, ran, built = _block_threads(monkeypatch, 2, pool_cutoff, _cheap, ns_per_point)
        assert ran[0] == threading.current_thread().name
        assert all(name.startswith("dimlift") for name in ran[1:])
        assert built == [2]


def test_where_the_blocks_run_moves_no_bit(monkeypatch):
    def f(x):
        return np.stack([np.cos(x[..., 0]) * np.exp(-np.sum(x * x, axis=-1)), x[..., 1] ** 2], axis=-1)

    serial, ran, _ = _block_threads(monkeypatch, 1, 0, f)
    assert len(set(ran)) == 1
    for cutoff in (0, float("inf")):
        value, _, _ = _block_threads(monkeypatch, 2, cutoff, f)
        assert value.tobytes() == serial.tobytes(), cutoff


def _held_calls(monkeypatch, first):
    """A call recording its item, and a wait that frees the held calls: call
    0 does `first`, every later call holds until the generator, having
    cancelled what was still queued, waits for the running calls."""
    started = []
    release = threading.Event()
    real_wait = dimlift.integrate.wait

    def releasing_wait(futures):
        release.set()
        return real_wait(futures)

    monkeypatch.setattr(dimlift.integrate, "wait", releasing_wait)

    def call(k):
        started.append(k)
        if k == 0:
            return first()
        release.wait(timeout=30)
        return k

    return call, started


def _assert_nothing_queued_ran(started):
    # calls 0 and 1 ran, and call 2 if a worker took it before the
    # cancel; a call run after ours would have been queued before it
    ran = list(started)
    dimlift.integrate._pools[2].submit(lambda: None).result(timeout=30)
    assert started == ran and set(ran) <= {0, 1, 2}


def test_a_closed_ordered_map_cancels_its_queued_calls(monkeypatch):
    call, started = _held_calls(monkeypatch, lambda: 0)
    out = dimlift.integrate._ordered_map(call, range(20), 2)
    assert next(out) == 0  # all twenty calls are submitted by now
    out.close()
    _assert_nothing_queued_ran(started)


def test_an_ordered_map_that_raises_cancels_its_queued_calls(monkeypatch):
    def fail():
        raise RuntimeError("first call")

    call, started = _held_calls(monkeypatch, fail)
    out = dimlift.integrate._ordered_map(call, range(20), 2)
    with pytest.raises(RuntimeError, match="first call"):
        next(out)
    _assert_nothing_queued_ran(started)


# ---------------------------------------------------------------------------
# plain geometric integrals


def test_ball_and_sphere_closed_forms():
    vol = integrate_ball(lambda y: np.ones(y.shape[:-1]), 3, 2.0).value
    assert abs(vol - 4 / 3 * math.pi * 8) < 1e-9
    area = integrate_sphere(lambda y: np.ones(y.shape[:-1]), 3, 2.0).value
    assert abs(area - 4 * math.pi * 4) < 1e-9
    # integrable singularity |y|^(2-N) folded into the radial rule
    sing = integrate_ball(lambda y: np.ones(y.shape[:-1]), 3, 1.0, radial_power=-1.0).value
    assert abs(sing - sphere_area(3) / 2) < 1e-9


def test_annulus_total_past_the_float_range_at_q_zero():
    # |S^479| underflows to 0.0, so with |y|^-480 (q = N + power = 0) the
    # total 1e300 |S^479| log 2 is formed in logs
    assert sphere_area(480) == 0.0
    got = integrate_annulus(
        lambda y: np.full(np.shape(y)[:-1], 1e300), 480, (1.0, 2.0), radial_power=-480.0, symmetry=0
    ).value
    log_area = math.log(2.0) + 240.0 * math.log(math.pi) - math.lgamma(240.0)
    want = math.exp(math.log(1e300) + log_area + math.log(math.log(2.0)))
    assert abs(got - want) <= 1e-13 * want


def test_ball_with_a_non_integer_radial_power():
    # int_{-1.3}^{1.3} |y|^0.5 dy: the total radial power is not an integer,
    # so no Legendre rule resolves rho^0.5 at the origin to 1e-11
    got = integrate_ball(lambda y: np.ones(y.shape[:-1]), 1, 1.3, radial_power=0.5).value
    exact = 2.0 * 1.3**1.5 / 1.5
    assert abs(got - exact) <= 1e-11 * exact
    ring = integrate_annulus(lambda y: np.ones(y.shape[:-1]), 2, (0.0, 1.3), radial_power=-0.5).value
    assert abs(ring - 2.0 * math.pi * 1.3**1.5 / 1.5) <= 1e-11 * ring


def test_ball_center_shift():
    c = np.array([5.0, -1.0])
    got = integrate_ball(lambda y: y[..., 0], 2, 1.0, center=c).value
    assert abs(got - 5.0 * math.pi) < 1e-9


def test_annulus_matches_ball_difference():
    f = _x1sq
    outer = integrate_ball(f, 2, 2.0).value
    inner = integrate_ball(f, 2, 1.0).value
    ann = integrate_annulus(f, 2, (1.0, 2.0)).value
    assert abs(ann - (outer - inner)) < 1e-9


def test_window_integral_is_separable():
    got = integrate_window(lambda x, t: t * np.ones(x.shape[:-1]), 1, (0.5, 1.5), (1.0, 3.0)).value
    assert abs(got - 2.0 * 4.0) < 1e-10  # (2 * |[0.5,1.5]|) * int_1^3 t dt


def test_spacetime_masses():
    tau = 0.8
    mass = integrate_spacetime(lambda x, t: np.ones(x.shape[:-1]), 1, tau).value
    assert abs(mass - tau) < 1e-10
    mass_n = integrate_spacetime(lambda x, t: np.ones(x.shape[:-1]), 2, tau, n=5).value
    assert abs(mass_n - tau) < 1e-10
    # int_0^tau int x1^2 G_t dx dt = int_0^tau 2t dt = tau^2
    sq = integrate_spacetime(lambda x, t: _x1sq(x), 1, tau, n=4).value
    assert abs(sq - tau * tau) < 1e-10


def test_estimate_and_spec_validation():
    with pytest.raises(ValueError):
        MonteCarloSpec(seed=1, samples=10)
    with pytest.raises(ValueError):
        MonteCarloSpec(seed=-1)
    # batch k is keyed with seed + (k << 64): seed 2^64 batch 0 would be seed 0 batch 1
    MonteCarloSpec(seed=2**64 - 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        MonteCarloSpec(seed=2**64)


# ---------------------------------------------------------------------------
# seeded Monte Carlo


def test_sphere_sampler_is_a_pure_function_of_seed(monkeypatch):
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1024)
    mc = MonteCarloSpec(seed=42, samples=5000)
    a = np.concatenate(list(sample_sphere_uniform(5, 2.0, mc)))
    b = np.concatenate(list(sample_sphere_uniform(5, 2.0, mc)))
    assert np.array_equal(a, b)
    assert a.shape == (5000, 5)
    assert np.allclose(np.linalg.norm(a, axis=1), 2.0, rtol=1e-12)
    c = np.concatenate(list(sample_sphere_uniform(5, 2.0, MonteCarloSpec(seed=43, samples=5000))))
    assert not np.array_equal(a, c)
    # a numpy integer seed draws every batch of the same int seed
    n = np.concatenate(list(sample_sphere_uniform(5, 2.0, MonteCarloSpec(seed=np.uint64(42), samples=5000))))
    assert np.array_equal(a, n)
    # E x1^2 on the unit sphere in R^6 is 1/6
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 4096)
    m, s, _ = mc_mean(sample_sphere_uniform(6, 1.0, MonteCarloSpec(seed=7, samples=50_000)), _x1sq)
    assert abs(m - 1 / 6) < 4 * s


def test_mu_ball_sampler_radial_law():
    # normalized law: r^2/(2 d tau) is uniform on (0, 1], so E r^2 = d tau
    d, tau, N = 2, 1.5, 8
    mc = MonteCarloSpec(seed=3, samples=40_000)
    y = np.concatenate(list(sample_mu_ball(N, tau, d, mc)))
    r2 = np.sum(y * y, axis=1)
    assert np.max(r2) <= 2 * d * tau * (1 + 1e-12)
    se = np.std(r2) / math.sqrt(len(r2))
    assert abs(np.mean(r2) - d * tau) < 4 * se


def test_mc_mean_variance_keeps_precision_at_a_large_mean():
    mc = MonteCarloSpec(seed=3, samples=40_000)

    def phi(y):
        return 1e6 + y[:, 0]

    _, se, count = mc_mean(sample_sphere_uniform(3, 1.0, mc), phi)
    vals = phi(np.concatenate(list(sample_sphere_uniform(3, 1.0, mc))))
    two_pass = math.sqrt(np.var(vals) / count)
    assert abs(se - two_pass) <= 1e-10 * two_pass


def test_mc_mean_draws_batches_as_it_reduces_them(monkeypatch):
    lock = threading.Lock()
    state = {"drawn": 0, "reduced": 0, "most_ahead": 0}
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1024)
    mc = MonteCarloSpec(seed=1, samples=40 * 1024)

    def batches():
        for y in sample_sphere_uniform(3, 1.0, mc):
            with lock:
                state["drawn"] += 1
                state["most_ahead"] = max(state["most_ahead"], state["drawn"] - state["reduced"])
            yield y

    def phi(y):
        with lock:
            state["reduced"] += 1
        return y[:, 0] ** 2

    mean, _, count = mc_mean(batches(), phi)
    assert state["drawn"] == state["reduced"] == 40 and count == 40 * 1024
    assert state["most_ahead"] == 1
    streamed = mc_mean(sample_sphere_uniform(3, 1.0, mc), lambda y: y[:, 0] ** 2)
    assert streamed[0] == mean


def _recording(phi, seen):
    # records the number of points of each call
    def rec(x, *args):
        seen.append(int(np.prod(np.shape(x)[:-1])))
        return phi(x, *args)

    return rec


def _stack(x, tt=None):
    x = np.asarray(x, dtype=float)
    return np.stack([np.ones(x.shape[:-1]), x[..., 0] ** 2, np.exp(-np.sum(x * x, axis=-1))], axis=-1)


def test_pushforward_quadrature_is_computed_once_per_phi():
    seen = []
    phi = _recording(_stack, seen)
    first = pushforward_check_ball(phi, 2, 4, 0.7, MonteCarloSpec(seed=1, samples=5000), threads=2)
    assert sum(seen) > 5000
    seen.clear()
    second = pushforward_check_ball(phi, 2, 4, 0.7, MonteCarloSpec(seed=2, samples=5000), threads=2)
    # only the Monte Carlo samples reach phi; the quadrature is the same bits
    assert sum(seen) == 5000
    assert first.quad_value.tobytes() == second.quad_value.tobytes()
    assert not np.array_equal(first.mc_value, second.mc_value)
    seen.clear()
    pushforward_check_sphere(phi, 2, 4, 0.7, MonteCarloSpec(seed=2, samples=5000))
    pushforward_check_sphere(phi, 2, 4, 0.7, MonteCarloSpec(seed=3, samples=5000))
    assert sum(seen) > 10_000  # the sphere check has its own quadrature
    seen.clear()
    pushforward_check_sphere(phi, 2, 4, 0.7, MonteCarloSpec(seed=4, samples=5000))
    assert sum(seen) == 5000


def test_pushforward_quadrature_is_redone_for_a_new_phi_object():
    mc = MonteCarloSpec(seed=1, samples=5000)
    for scale in (1.0, 2.0, 3.0):
        seen = []

        def phi(x, tt, scale=scale):
            return scale * _stack(x)

        res = pushforward_check_ball(_recording(phi, seen), 1, 5, 0.5, mc)
        assert sum(seen) > 5000
        assert abs(res.quad_value[0] - scale * 0.5) < 1e-10


def test_writing_into_quad_value_leaves_the_next_result_intact():
    mc = MonteCarloSpec(seed=1, samples=5000)
    first = pushforward_check_sphere(_stack, 1, 5, 0.9, mc)
    kept = first.quad_value.copy()
    first.quad_value[:] = -1.0
    again = pushforward_check_sphere(_stack, 1, 5, 0.9, mc)
    assert again.quad_value.tobytes() == kept.tobytes()


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
def test_sphere_check_needs_a_positive_time(t):
    # checked before the radius sqrt(2 d t) is taken, so every t <= 0 gives one reason
    with pytest.raises(ValueError, match="need radius > 0"):
        pushforward_check_sphere(_stack, 1, 5, t, MonteCarloSpec(seed=0, samples=1000))


def test_integrand_constant_on_the_sampled_sphere_is_no_discrepancy():
    # at n = 1 every sample has |x| = sqrt(2 d t), so x1^2 (d = 1) and
    # exp(-|x|^2) are constant up to rounding and their standard error is ~1e-15
    mc = MonteCarloSpec(seed=0, samples=20_000)
    for d in (1, 2):
        chk = pushforward_check_sphere(_stack, d, 1, 0.8, mc)
        assert np.all(chk.discrepancy_in_std_errors < 3.0), (d, chk)


def _check_bits(res) -> tuple:
    return tuple(np.asarray(v, dtype=float).tobytes() for v in res.__dict__.values())


def _lifted_sphere_batches(d, n, radius, mc):
    # the batches of pushforward_check_sphere, each in a new array
    return (
        dimlift.integrate._lifted_sphere_batch(np.empty((m, d)), mc.seed, k, n, radius)
        for k, m in enumerate(dimlift.integrate._batch_sizes(mc))
    )


def _lifted_ball_batches(d, n, tau, mc):
    # the (x, t) batches of pushforward_check_ball, each in new arrays
    return (
        dimlift.integrate._lifted_ball_batch(np.empty((m, d + 1)), mc.seed, k, n, tau)
        for k, m in enumerate(dimlift.integrate._batch_sizes(mc))
    )


def test_pushforward_checks_draw_on_workers_with_the_bits_of_the_samplers(monkeypatch):
    # 20 batches, drawn on the workers; the bits must match at every thread
    # count, with more workers than cores and frequent thread switches, and
    # match mc_mean over the reduced-dimension batches drawn one by one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    d, n, t = 2, 5, 0.7
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1024)
    mc = MonteCarloSpec(seed=11, samples=20 * 1024 - 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sphere = {th: pushforward_check_sphere(_stack, d, n, t, mc, threads=th) for th in (1, 2, 4)}
        ball = {th: pushforward_check_ball(_stack, d, n, t, mc, threads=th) for th in (1, 2, 4)}
    finally:
        sys.setswitchinterval(interval)
    for results in (sphere, ball):
        assert _check_bits(results[2]) == _check_bits(results[1])
        assert _check_bits(results[4]) == _check_bits(results[1])

    mean, se, count = mc_mean(_lifted_sphere_batches(d, n, math.sqrt(2 * d * t), mc), _stack)
    assert count == mc.samples
    assert sphere[1].mc_value.tobytes() == mean.tobytes()
    assert sphere[1].mc_std_error.tobytes() == se.tobytes()
    assert sphere[1].quad_value.tobytes() == integrate_weighted(_stack, d, t, n=n).value.tobytes()

    mean, se, _ = mc_mean(_lifted_ball_batches(d, n, t, mc), lambda xt: _stack(*xt))
    assert ball[1].mc_value.tobytes() == (mean * t).tobytes()
    assert ball[1].mc_std_error.tobytes() == (se * t).tobytes()
    assert ball[1].quad_value.tobytes() == integrate_spacetime(_stack, d, t, n=n).value.tobytes()


def test_pushforward_checks_draw_into_one_buffer_per_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    buffers = []  # kept alive, so no two buffers can share an identity
    draws = {
        "_lifted_sphere_batch": dimlift.integrate._lifted_sphere_batch,
        "_lifted_ball_batch": dimlift.integrate._lifted_ball_batch,
    }
    for name, draw in draws.items():

        def recorded(out, *args, draw=draw):
            buffers.append(out.base)
            return draw(out, *args)

        monkeypatch.setattr(dimlift.integrate, name, recorded)
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1000)
    mc = MonteCarloSpec(seed=3, samples=20 * 1000)
    d = 1
    for threads in (1, 2, 4):
        # one row of d numbers per sample on the sphere, and d + 1 (x, t) in the ball
        for check, width in ((pushforward_check_sphere, d), (pushforward_check_ball, d + 1)):
            buffers.clear()
            check(_stack, d, 6, 0.5, mc, threads=threads)
            assert len(buffers) == 20
            distinct = {id(b) for b in buffers}
            assert 1 <= len(distinct) <= threads
            assert all(b is not None and b.shape == (1000, width) for b in buffers)


def test_pushforward_checks_reject_bad_arguments_before_drawing(monkeypatch):
    def draw(*args):
        raise AssertionError("a batch was drawn before the arguments were checked")

    for name in ("_sphere_batch", "_mu_ball_batch", "_lifted_sphere_batch", "_lifted_ball_batch"):
        monkeypatch.setattr(dimlift.integrate, name, draw)
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 1000)
    mc = MonteCarloSpec(seed=1, samples=5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^need radius > 0$"):
            pushforward_check_sphere(_stack, 1, 5, 0.0, mc, threads=2)
        for tau in (0.0, -0.5):
            with pytest.raises(ValueError, match=r"^need tau > 0$"):
                pushforward_check_ball(_stack, 1, 5, tau, mc, threads=2)
        # the public samplers check at the call, before the first batch
        with pytest.raises(ValueError, match=r"^need radius > 0$"):
            sample_sphere_uniform(3, 0.0, mc)
        with pytest.raises(ValueError, match=r"^need tau > 0$"):
            sample_mu_ball(3, -1.0, 1, mc)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_reduced_draw_has_the_law_of_the_lifted_samplers(d, n, monkeypatch):
    # the checks draw (x, t) from d normals and one chi-square(nd - d); the
    # public samplers draw nd normals and lift them: the means of _stack must
    # agree within 4 combined standard errors, plus 1e-12 for the columns that
    # are constant up to rounding (the mass; on the sphere at n = 1,
    # exp(-|x|^2), and x1^2 when d = 1 too)
    t = 0.7
    radius = math.sqrt(2 * d * t)
    reduced = MonteCarloSpec(seed=100 + 10 * d + n, samples=40_000)
    full = MonteCarloSpec(seed=200 + 10 * d + n, samples=40_000)
    pairs = [
        (
            pushforward_check_sphere(_stack, d, n, t, reduced, threads=2),
            mc_mean(sample_sphere_uniform(n * d, radius, full), lambda y: _stack(lift_point_time(y, n)[0])),
            1.0,
        ),
        (
            pushforward_check_ball(_stack, d, n, t, reduced, threads=2),
            mc_mean(sample_mu_ball(n * d, t, d, full), lambda y: _stack(*lift_point_time(y, n))),
            t,
        ),
    ]
    for chk, (mean, se, _), scale in pairs:
        combined = np.hypot(chk.mc_std_error, se * scale)
        assert np.all(np.abs(chk.mc_value - mean * scale) <= 4.0 * combined + 1e-12), (chk, mean * scale, combined)

    # exact structure of the reduced batches: sphere points lie in the ball
    # |x|^2 <= 2 n d t of R^d, on its boundary at n = 1; ball points lie in
    # |x|^2 <= 2 n d t at their time t, which lies in [0, tau)
    monkeypatch.setattr(dimlift.integrate, "_MC_BATCH", 2000)
    mc = MonteCarloSpec(seed=7, samples=5000)
    x = np.concatenate(list(_lifted_sphere_batches(d, n, radius, mc)))
    x2 = np.sum(x * x, axis=-1)
    assert x.shape == (5000, d) and np.all(np.isfinite(x))
    assert np.all(x2 <= 2 * n * d * t * (1 + 1e-14))
    if n == 1:
        assert np.allclose(np.sqrt(x2), radius, rtol=1e-14, atol=0.0)
    xs, ts = zip(*_lifted_ball_batches(d, n, t, mc))
    x, tt = np.concatenate(xs), np.concatenate(ts)
    assert np.all((tt >= 0.0) & (tt < t))
    x2 = np.sum(x * x, axis=-1)
    assert np.all(x2 <= 2 * n * d * tt * (1 + 1e-14))
    if n == 1:
        assert np.allclose(x2, 2 * d * tt, rtol=1e-14, atol=0.0)


def test_pushforward_sphere_single_seed():
    chk = pushforward_check_sphere(_x1sq, d=1, n=5, t=1.0, mc=MonteCarloSpec(seed=5, samples=20_000))
    assert abs(chk.quad_value - 2.0) < 1e-10
    assert chk.discrepancy_in_std_errors < 5.0


def test_pushforward_ball_single_seed():
    chk = pushforward_check_ball(
        lambda x, t: np.ones(np.asarray(x, dtype=float).shape[:-1]),
        d=2,
        n=4,
        tau=0.5,
        mc=MonteCarloSpec(seed=5, samples=20_000),
    )
    assert abs(chk.quad_value - 0.5) < 1e-10  # total mass of the lifted measure is tau
    assert chk.discrepancy_in_std_errors < 5.0


def test_a_component_axis_of_length_one_gives_floats_in_both_checks():
    mc = MonteCarloSpec(seed=5, samples=20_000)
    # E x1^2 = 2t under the finite weight; int_0^tau 2t dt = tau^2
    assert integrate_weighted(lambda x: x[..., :1] ** 2, 1, 0.7, n=5).value == integrate_weighted(_x1sq, 1, 0.7, n=5).value
    sphere = pushforward_check_sphere(lambda x: x[..., :1] ** 2, 1, 5, 0.7, mc)
    ball = pushforward_check_ball(lambda x, t: x[..., :1] ** 2, 1, 5, 0.7, mc)
    for chk, exact in ((sphere, 1.4), (ball, 0.49)):
        fields = (chk.mc_value, chk.mc_std_error, chk.quad_value, chk.discrepancy_in_std_errors)
        assert all(type(v) is float for v in fields), fields
        assert abs(chk.quad_value - exact) < 1e-10
        assert chk.discrepancy_in_std_errors < 5.0


@pytest.mark.parametrize(
    "k, alpha, beta",
    [
        (24, 0.0, 0.0),
        (48, 158.0, 0.0),
        (96, 158.0, 0.0),
        (96, 158.0, 78.5),
        (192, 158.0, 0.0),
        (192, 238.5, 238.5),
        (96, 0.0, -0.5),
    ],
)
def test_jacobi_rule_has_the_moments_of_its_beta_law(k, alpha, beta):
    # under the density proportional to (1 - x)^alpha (1 + x)^beta, y = (1 + x)/2
    # follows Beta(beta + 1, alpha + 1), with the moments
    # E[y^j] = prod_{i<j} (beta + 1 + i) / (alpha + beta + 2 + i).  Weights taken
    # as squared first eigenvector components miss these far in the light
    # tail when alpha >> beta.
    x, w = dimlift.integrate._jacobi(k, alpha, beta)
    assert len(x) == len(w) == k
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0.0)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-12)
    y = 0.5 * (1.0 + x)
    expected = 1.0
    for j in range(min(2 * k, 40)):
        assert math.isclose(w @ y**j, expected, rel_tol=1e-12), j
        expected *= (beta + 1.0 + j) / (alpha + beta + 2.0 + j)


def test_jacobi_rule_raises_where_its_weights_would_underflow():
    with pytest.raises(UnsupportedConfigError, match="out of range"):
        dimlift.integrate._jacobi(384, 300.0, 0.0)
