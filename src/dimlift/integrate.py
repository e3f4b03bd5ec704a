"""Deterministic weighted quadrature and seeded Monte Carlo for lifted measures.

Quadrature rules are polar: a radial Gauss rule times an angular rule on the
unit sphere, summed by _polar_sum in blocks of whole radial rows so memory
stays bounded.  The rules are probability rules, with weights that sum to 1:
the angular rule averages over the uniform law on the sphere, and the
Gauss-Jacobi rules (built with numpy, _jacobi) over a Beta law.  A ball,
annulus or sphere integral is refined as a mean, which stays of the size of
the integrand for any N, and multiplied once by the measure in closed form.
A space-time integral stacks its time nodes as leading rows of one such sum,
so the integrand is called once per block, not once per node.  The weights
scale parabolically, w_t(x) = t^(-d/2) w_1(x / sqrt t), so at one level the
radial rule of every time node is one t-free rule dilated by sqrt(t), and
_weighted_rules builds all its rows at once.  A weighted integral on R^d
whose integrand is declared to read x only through x_1..x_k (coords = k < d)
runs that sum in R^k instead, against the k-marginal of the weight, on
k-wide points; the finite weight at n = 1, a law on a sphere with no
density, keeps the rule of R^d (see integrate_spacetime).

The angular rule is a tensor product of one-dimensional Gauss rules,
unless the integrand is declared to depend on y only through y_1..y_k and
|y|: the ball, sphere and annulus integrals then integrate over the
push-forward of the sphere's measure to those k coordinates, with O(level^k)
directions for any N instead of O(level^(N-1)), on points k + 1 wide instead
of N (see integrate_ball for what a declared integrand must then accept).
The blocks of one sum run on worker threads when the first block shows that
the integrand costs enough per point to pay for the handoff, and are added
in block order wherever they ran, so the bits do not depend on the thread
count.  Every deterministic estimate starts at level _FIRST_LEVEL (24) and
is refined by node doubling until two successive values agree to the
relative tolerance _REL_TOL; if four doublings (to level 384) do not
stabilize the value, an AccuracyError is raised with every level tried and
the last two estimates, and a non-finite value raises at once.

Two levels can agree on a wrong value when a feature of the integrand is
narrower than the node spacing of both, so the first pair sets the width of
the narrowest feature that is resolved or refused rather than missed.  With
the Gaussian weight at t = 1 in d = 1, a bump exp(-(x_1 - 1.3)^2/2 sigma^2)
is resolved at sigma >= 0.07, refused at 0.02 <= sigma <= 0.05, and returned
wrong at sigma <= 0.01; a first level of 48 missed it at sigma <= 0.005 and
refused it at 0.01 (tests/test_integrate.py).

Monte Carlo sampling is counter-based: batch k of a run is a pure function of
(seed, k), and partial sums are combined in batch order, so results are
bit-identical for any thread count.  The push-forward checks draw only what
the lift reads, the d step sums and the lifted time, from d normals and one
chi-square per sample (exact in law), each batch on the worker thread that
reduces it, into a buffer reused within the call.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import AccuracyError, UnsupportedConfigError
from .lift import _lifted_dim, sphere_area
from .weights import _is_integer, _log_sphere_area

__all__ = [
    "MonteCarloSpec",
    "IntegralEstimate",
    "PushforwardCheck",
    "integrate_weighted",
    "integrate_spacetime",
    "integrate_ball",
    "integrate_annulus",
    "integrate_sphere",
    "integrate_window",
    "sample_sphere_uniform",
    "sample_mu_ball",
    "mc_mean",
    "pushforward_check_sphere",
    "pushforward_check_ball",
]

# Tail cut for the Gaussian weight: exp(-R^2/4t) = 1e-16 at R = TAIL_FACTOR * sqrt(t).
TAIL_FACTOR = 2.0 * math.sqrt(16.0 * math.log(10.0))

# Most points one integrand call receives, and so the size of one block of a
# polar sum.  Radial rows are never split, so a single row (one angular rule)
# larger than this still goes in one call.  The block size does not depend on
# the thread count, which keeps the sums bit-identical for any count; when a
# sum is threaded, up to `threads` blocks are in flight at once.  At 2^14
# points a block's coordinates and the integrand's temporaries stay in a
# core's L2 cache, and the time-stacked sums of d <= 2 split into enough
# blocks for every worker; larger blocks ran faster on two workers but held
# more memory in flight.
_CHUNK_POINTS = 1 << 14

# Least cost per point, in nanoseconds, of a sum's first block (points,
# integrand and contraction, timed on the calling thread) at which the other
# blocks go to the worker threads.  Below it the handoffs and the page faults
# of a worker's fresh memory cost more than a second core saves: on 2 cores
# the half-space two-phase energies and the shell means of the tensor rule
# (about 20-70 ns per point) ran slower threaded, and the x1cube frequency
# history and the moment integrands of the push-forward checks (about
# 140-450 ns) faster.  Read when a sum runs, like _CHUNK_POINTS, so a test
# can set it to 0.
_THREAD_NS_PER_POINT = 80

# The first refinement level of every deterministic estimate (its radial,
# time and polar node counts scale with it), and the relative tolerance at
# which two successive levels are accepted.  Like _CHUNK_POINTS and
# _MC_BATCH, they are read when an estimate runs, never bound as defaults,
# so a test can set them low.  _refine tries five levels, 24 to 384: every
# pair that levels 48 to 384 tried, and (24, 48) first.  Where that pair
# agrees, the confirming sum has 2^-m of the points of a level-96 one, for a
# rule with m node axes.
_FIRST_LEVEL = 24
_REL_TOL = 1e-11

# Samples per Monte Carlo batch; the last batch of a plan holds the rest.
_MC_BATCH = 16_384


@dataclass(frozen=True)
class MonteCarloSpec:
    """Seeded sampling plan; estimates are a pure function of (seed, samples)."""

    seed: int
    samples: int = 100_000

    def __post_init__(self) -> None:
        if not _is_integer(self.samples):
            raise ValueError(f"samples must be an integer; got {self.samples!r}")
        if self.samples < 1_000:
            raise ValueError("samples must be >= 1000")
        # Philox is keyed with seed + (batch << 64), so a larger seed would
        # replay another seed's batches, and a float one would round there
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64); got {self.seed}")


@dataclass(frozen=True)
class IntegralEstimate:
    """A quadrature value and the number of integrand points it took."""

    value: float | np.ndarray
    evaluations: int


# ---------------------------------------------------------------------------
# worker threads

# the thread count the CLI's --threads sets around a subcommand; None means
# the default
_requested_threads: contextvars.ContextVar[int | None] = contextvars.ContextVar("dimlift_threads", default=None)


def _default_threads() -> int:
    """DIMLIFT_THREADS if it is set, else the CPU count."""
    env = os.environ.get("DIMLIFT_THREADS")
    if not env:
        return os.cpu_count() or 1
    threads = int(env) if env.strip().isdecimal() else 0
    if threads < 1:
        raise ValueError(f"DIMLIFT_THREADS must be a positive integer, got {env!r}")
    return threads


def _worker_count(requested: int | None = None) -> int:
    """Threads to use: requested, else the count set by _use_threads, else
    _default_threads(); at least 1 and at most the CPU count.

    Memory grows with the work in flight and no result depends on the count,
    so more threads than CPUs would only cost memory.
    """
    if requested is None:
        requested = _requested_threads.get()
    if requested is None:
        requested = _default_threads()
    return max(1, min(requested, os.cpu_count() or 1))


@contextlib.contextmanager
def _use_threads(threads: int) -> Iterator[None]:
    """Run the quadratures of the enclosed code on `threads` worker threads."""
    token = _requested_threads.set(threads)
    try:
        yield
    finally:
        _requested_threads.reset(token)


# one pool per worker count, built on first use and kept for the life of the
# process; a forked child starts without them, since their threads stay behind
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_in_worker = threading.local()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pools.clear)


def _mark_worker() -> None:
    _in_worker.active = True


def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of `threads` workers, built on first use."""
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="dimlift", initializer=_mark_worker)
            _pools[threads] = pool
        return pool


def _close_pools() -> None:
    """Shut down and forget every pool; the next threaded call builds a new one."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def _ordered_map(fn, items: Iterable, threads: int) -> Iterator:
    """fn(item) for each item, yielded in item order.

    With threads > 1 every call is submitted at once to the process's pool
    of that many worker threads, built on the first such call and reused by
    every later one; the pool runs at most `threads` calls at a time, and the
    rest wait in its queue, so the workers stay busy past a slow call at the
    head of the order.  The caller chooses `threads`: _polar_sum passes 1
    for an integrand too cheap to pay for the handoff.  With threads <= 1,
    or when called from a pool worker (an integrand that runs a sum of its
    own), the calls run in the calling thread: a worker waiting on calls
    queued behind its own could wait forever.  An exception raised by fn is
    raised here when its result is reached.  When the generator is closed
    early or raises, the calls still queued are cancelled and the running
    ones are waited for.
    """
    if threads <= 1 or getattr(_in_worker, "active", False):
        yield from map(fn, items)
        return
    pool = _pool(threads)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


# ---------------------------------------------------------------------------
# cached 1-d rules


@lru_cache(maxsize=None)
def _leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(k)


@lru_cache(maxsize=None)
def _jacobi(k: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes (ascending) and weights summing to 1 for the
    probability density proportional to (1 - x)^alpha (1 + x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal polynomials p_j.  The weights are the Christoffel numbers
    1 / sum_j p_j(x_i)^2, with the p_j from the three-term recurrence; unlike
    the squared first components of the eigenvectors, they keep their
    relative precision far out in the light tail when alpha >> beta.  The
    j = 0 and j = 1 coefficients are written with alpha + beta (+ 1)
    cancelled, so alpha + beta = 0 or -1 needs no special case.  A rule whose
    sums overflow (k in the hundreds at large alpha) raises rather than
    return zero weights.
    """
    ab = alpha + beta
    j = np.arange(1.0, k)
    s = 2.0 * j + ab
    diag = np.concatenate([[(beta - alpha) / (ab + 2.0)], (beta * beta - alpha * alpha) / (s * (s + 2.0))])
    j, s = j[1:], s[1:]
    off = np.sqrt(
        np.concatenate(
            [
                [4.0 * (1.0 + alpha) * (1.0 + beta) / ((ab + 2.0) ** 2 * (ab + 3.0))],
                4.0 * j * (j + alpha) * (j + beta) * (j + ab) / (s * s * (s + 1.0) * (s - 1.0)),
            ]
        )[: k - 1]
    )
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if alpha == beta:
        x = 0.5 * (x - x[::-1])  # exactly symmetric, with an exact 0 for odd k
    p_prev, p = np.zeros(k), np.ones(k)  # p_(-1) = 0 and p_0 = 1
    total = np.ones(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k - 1):
            p, p_prev = ((x - diag[i]) * p - off[i - 1] * p_prev) / off[i], p
            total += p * p
    if not np.all(np.isfinite(total)):
        raise UnsupportedConfigError(
            f"Gauss-Jacobi rule with k={k}, alpha={alpha}, beta={beta} is out of range: its weights underflow"
        )
    w = 1.0 / total
    return x, w / w.sum()


# ---------------------------------------------------------------------------
# angular rules on the unit sphere S^(N-1)


def _azimuth_count(level: int) -> int:
    # multiple of 4 so coordinate half-planes and quadrants split the nodes exactly
    return 4 * max(4, level // 2)


def _polar_count(level: int) -> int:
    return max(6, level // 2)


@lru_cache(maxsize=None)
def _circle_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    m = _azimuth_count(level)
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return pts, np.full(m, 1.0 / m)


@lru_cache(maxsize=None)
def _sphere_nodes(N: int, level: int, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, N) and weights (m,) with sum 1 for the uniform probability
    measure on S^(N-1): sum_j wa_j g(omega_j) is the mean of g over the sphere.

    k = None gives the tensor product rule on S^(N-1).  0 <= k < N gives the
    reduced rule, exact only for integrands of omega_1..omega_k alone: the
    uniform law on S^(N-1) pushed forward to those coordinates has density
    proportional to (1 - |z|^2)^((N-k-2)/2) on the ball B^k, so each node is
    the unit vector omega = (z, sqrt(1 - |z|^2)) of R^(k+1) for a node z of
    that density, and the nodes are (m, k + 1).  The coordinates past k + 1,
    which would all be 0, are left out: an integrand of omega_1..omega_k and
    |omega| reads the same value from the shorter vector.
    """
    if N < 1:
        raise ValueError(f"the unit sphere S^(N-1) needs N >= 1, got N = {N}")
    if k is not None:
        return _reduced_sphere_nodes(N, level, k)
    if N == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if N == 2:
        return _circle_nodes(level)

    sub_pts, sub_w = _sphere_nodes(N - 1, level)
    # x = (sin(theta) w', cos(theta)); Gauss-Jacobi absorbs sin^(N-2)
    u, wu = _jacobi(_polar_count(level), 0.5 * (N - 3), 0.5 * (N - 3))
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    pts = np.concatenate(
        [s[:, None, None] * sub_pts[None, :, :], np.broadcast_to(u[:, None, None], (len(u), len(sub_w), 1))],
        axis=-1,
    ).reshape(-1, N)
    w = (wu[:, None] * sub_w[None, :]).reshape(-1)
    return pts, w


def _reduced_sphere_nodes(N: int, level: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    if k == 0:
        return np.ones((1, 1)), np.ones(1)
    # z = |z| theta: the push-forward density in |z|, with as many nodes as
    # the tensor rule's polar factor, times a rule on S^(k-1)
    rz, wz = _ball_rule(_polar_count(level), k, 0.5 * (N - k - 2), 1.0)
    theta, wt = _sphere_nodes(k, level)
    omega = np.empty((len(rz), len(wt), k + 1))
    omega[..., :k] = rz[:, None, None] * theta
    omega[..., k] = np.sqrt(np.maximum(0.0, 1.0 - rz * rz))[:, None]
    return omega.reshape(-1, k + 1), (wz[:, None] * wt).reshape(-1)


def _reduced_k(N: int, symmetry: int | None, center) -> tuple[int | None, np.ndarray | None]:
    """The k of the reduced angular rule for an integrand declared to depend
    on y only through y_1..y_k and |y|, or None for the tensor rule, and the
    center the rule's points are offset by: for the reduced rule, whose
    points are k + 1 wide, the first k + 1 entries of the center.

    The reduction needs a center in the span of e_1..e_k, so that the
    integrand is still a function of omega_1..omega_k on every sphere about
    the center, and the entries cut off are 0.  It is used for k <= N - 2
    only: at k = N - 1 it saves at most half the directions, and its
    Gauss-Jacobi parameter -1/2 loses 1e-14 to 7e-14 in the moments of
    omega_1 up to degree 6 at level 96 (N = 3..5), against at most 6e-15 at
    k <= N - 2.  At N <= 2 the tensor rule is a single circle rule and is
    kept.
    """
    if symmetry is None or N < 3 or not 0 <= symmetry <= N - 2:
        return None, center
    if center is not None and np.any(center[symmetry:] != 0.0):
        return None, center
    return symmetry, (None if center is None else center[: symmetry + 1])


# ---------------------------------------------------------------------------
# node-doubling driver


def _as_vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


def _unwrap_one(v):
    """A float for a value of one number, a scalar or a component axis of
    length 1, as the Monte Carlo means give; else the array."""
    v = _as_vector(v)
    return float(v[0]) if v.size == 1 else v


def _refine(eval_at_level: Callable[[int], tuple]) -> IntegralEstimate:
    """Run eval_at_level at _FIRST_LEVEL, twice that, ... until two values agree.

    eval_at_level returns (value, evaluation_count); the estimate holds the
    last value and the count of every level tried.  Convergence test:
    max |v_new - v_old| <= _REL_TOL * max(||v_new||_inf, 1).  At most five
    levels are tried (24 to 384 at the default first level).  A
    non-finite value raises at once, since doubling the nodes cannot repair
    it; a value that never settles raises with every level tried, its node
    count and the last |delta| against its bound.
    """
    tried = []
    total = 0
    delta = bound = math.nan
    for k in range(5):
        level = _FIRST_LEVEL << k
        cur, cnt = eval_at_level(level)
        total += cnt
        cur_v = _as_vector(cur)
        if not np.all(np.isfinite(cur_v)):
            raise AccuracyError(f"quadrature value is not finite at level {level}: {cur!r}")
        if tried:
            delta = float(np.max(np.abs(cur_v - tried[-1][3])))
            bound = _REL_TOL * max(float(np.max(np.abs(cur_v))), 1.0)
            if delta <= bound:
                return IntegralEstimate(value=cur, evaluations=total)
        tried.append((level, cnt, cur, cur_v))
    levels = ", ".join(f"{level} ({cnt} points)" for level, cnt, _, _ in tried)
    raise AccuracyError(
        f"quadrature did not stabilize after {len(tried) - 1} node doublings: levels {levels};"
        f" last |delta| {delta:.3g} > tol*scale {bound:.3g}",
        tuple(v if np.ndim(v) == 0 else v_vec for _, _, v, v_vec in tried[-2:]),
    )


# ---------------------------------------------------------------------------
# polar rules: a radial rule times an angular rule


def _legendre_rule(k: int, a: float, b: float, power: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [a, b] and weights times node**power."""
    xs, wleg = _leggauss(k)
    half = 0.5 * (b - a)
    nodes = half * (xs + 1.0) + a
    return nodes, half * wleg * nodes**power


def _contract(w: np.ndarray, wa: np.ndarray, vals: np.ndarray):
    """sum_ij w_i wa_j vals[i, j, ...] over one slice's rows of a block."""
    if w.ndim == 1:
        # angular axis first, then radial, with the dot calls np.tensordot
        # makes: another order, or one dot over several slices, changes the
        # last bits (BLAS treats output columns in groups)
        ang = np.dot(wa[None, :], vals.swapaxes(0, 1).reshape(len(wa), -1))
        return np.dot(w[None, :], ang.reshape(len(w), -1)).reshape(vals.shape[2:])
    # per-direction weights: one pairwise sum over the block per component,
    # taken on a contiguous copy, since numpy adds the rows of a strided
    # reduction one by one
    wv = np.moveaxis((w * wa).reshape(w.shape + (1,) * (vals.ndim - 2)) * vals, (0, 1), (-2, -1))
    return np.sum(np.ascontiguousarray(wv).reshape(wv.shape[:-2] + (-1,)), axis=-1)


def _polar_sum(f, r: np.ndarray, wr: np.ndarray, omega: np.ndarray, wa: np.ndarray, center=None, t=None):
    """sum_ij wr_i wa_j f(center + r_i omega_j), with the point count.

    r and wr are radial nodes and weights, shape (kr,) or per direction
    (kr, ka); omega (ka, N) and wa (ka,) are the angular rule.  f(x, rho)
    gets the points x (rows, ka, N) of a block of whole radial rows and rho,
    the same rows of r.  f returns (rows, ka) or (rows, ka, K); the component
    axis is kept.

    With node times t (T,) the sum has a leading time axis: r and wr are
    (T, kr), one radial rule per time node, each row is a (time node, radial
    node) pair, and the result is the T unweighted sums, shape (T,) or
    (T, K).  f(x, t) then gets the times of the rows, shape (rows, 1).

    A block has at most _CHUNK_POINTS points unless one row is larger.  It
    holds whole slices (the rows of one time node) or, when a slice is larger
    than a block, one piece of a slice, cut every _CHUNK_POINTS // ka rows.
    Each slice is contracted on its own and its pieces are added in order, so
    its sum has the same bits whatever other slices share its blocks.  The
    first block runs on the calling thread and is timed.  If the sum has more
    blocks and the first cost at least _THREAD_NS_PER_POINT nanoseconds per
    point, the rest run on _worker_count() threads, each block's points, f
    and contraction on one thread; otherwise they run on the calling thread
    too.  The partials are added in block order either way, so the bits do
    not depend on where a block ran or on the thread count.  f must be safe
    to call from several threads at once.
    """
    ka = omega.shape[0]
    step = max(1, _CHUNK_POINTS // ka)
    timed = t is not None
    if not timed:
        r, wr = r[None], wr[None]
    T, kr = r.shape[:2]
    if kr > step:
        blocks = [(i, i + 1, lo, min(lo + step, kr)) for i in range(T) for lo in range(0, kr, step)]
    else:
        per = step // kr
        blocks = [(i, min(i + per, T), 0, kr) for i in range(0, T, per)]

    def block(bounds):
        i0, i1, lo, hi = bounds
        m = hi - lo
        rho = r[i0:i1, lo:hi].reshape((-1,) + r.shape[2:])
        x = rho.reshape(len(rho), -1, 1) * omega
        if center is not None:
            x += center  # in place: a second copy would double the block's largest array
        vals = np.asarray(f(x, np.repeat(t[i0:i1], m)[:, None] if timed else rho), dtype=float)
        del x  # free the points before the contraction
        return [_contract(wr[i, lo:hi], wa, vals[(i - i0) * m : (i - i0 + 1) * m]) for i in range(i0, i1)]

    acc = [0.0] * T

    def add(bounds, partials):
        for i, partial in enumerate(partials, bounds[0]):
            acc[i] = acc[i] + partial

    first, rest = blocks[0], blocks[1:]
    start = time.perf_counter_ns()
    add(first, block(first))
    i0, i1, lo, hi = first
    ns_per_point = (time.perf_counter_ns() - start) / ((i1 - i0) * (hi - lo) * ka)
    threads = _worker_count() if rest and ns_per_point >= _THREAD_NS_PER_POINT else 1
    for bounds, partials in zip(rest, _ordered_map(block, rest, threads)):
        add(bounds, partials)
    count = T * kr * ka
    if timed:
        return np.array(acc), count
    value = np.asarray(acc[0])
    return (float(value) if value.ndim == 0 else value), count


# ---------------------------------------------------------------------------
# weighted integrals on R^d


def _ball_rule(level: int, d: int, expo: float, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes r and weights w, with sum 1, for the probability density
    proportional to (1 - |x|^2/r_max^2)^expo on the ball |x| <= r_max in R^d:

        sum_ij w_i wa_j g(r_i omega_j) ~ E[g(x)]

    with (omega, wa) = _sphere_nodes(d, level).  Projecting the uniform law
    on a sphere in R^N onto d coordinates gives this density with
    expo = (N - d - 2)/2.
    """
    if d % 2 == 1:
        # r = R s with the symmetric rule for (1 - s^2)^expo; folding the
        # +-s node pairs into the antipodal angular pairs keeps r^{d-1}
        # times the angular average smooth even when g has an integrable
        # pole at the origin, and it avoids the Jacobi parameter -1/2 of
        # the generic substitution, which loses ~1e-11 at high degree
        lev = level + (level % 2)
        s, ws = _jacobi(lev, expo, expo)
        half = lev // 2
        w = ws[half:] * s[half:] ** (d - 1)
        return r_max * s[half:], w / w.sum()
    # s = 2 r^2 / R^2 - 1 turns the law of r into a Gauss-Jacobi weight
    s, ws = _jacobi(level, expo, 0.5 * d - 1.0)
    return r_max * np.sqrt(0.5 * (1.0 + s)), ws


def _weighted_rules(d: int, ts: np.ndarray, level: int, n: int | None, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes and weights (T, kr), one row per time t of ts (T,), of
    the marginal of the weight w_t on x_1..x_k, a probability density on R^k:

        sum_ij w_qi wa_j phi(r_qi omega_j) ~ int phi(x_1..x_k) w_t(x) dx

    with (omega, wa) = _sphere_nodes(k, level); k = d gives w_t itself.
    w_t is the finite weight G_(t,n) of n steps per coordinate, or its
    n -> infinity limit, the Gaussian G_t, for n = None.  The radial weights
    are those of the law of |(x_1..x_k)|.  The marginal of G_t is G_t on
    R^k.  For n >= 2 the marginal of G_(t,n), as of the uniform law on the
    sphere of R^(nd), has density proportional to
    (1 - |z|^2/2ndt)^((nd-k-2)/2) on the ball of radius sqrt(2ndt) in R^k.
    The finite weight at n = 1 is the uniform law on the sphere
    |x| = sqrt(2dt), with no density; its rule is that one radius with
    weight 1, a rule of R^d only, so k < d needs n None or n >= 2.

    Both weights scale parabolically, w_t(x) = t^(-d/2) w_1(x / sqrt t), so
    every row is one t-free rule with its nodes dilated by sqrt(t): the
    t-free pieces are built once, and the rows are formed by broadcasting
    over a column of times, with the same float operations per element as a
    rule built for one t alone.
    """
    col = ts[:, None]
    if n is None:
        # the density of |x| is |S^(k-1)| r^(k-1) G_t(r), cut where
        # G_t < 1e-16 G_t(0): a Legendre rule on [0, TAIL_FACTOR sqrt(t)].
        # The normalizer takes math.log per time, as numpy's log need not
        # round as libm does.
        xs, wleg = _leggauss(level)
        half = 0.5 * (TAIL_FACTOR * np.sqrt(col))
        r = half * (xs + 1.0)
        log_norm = np.array([0.5 * k * math.log(4.0 * math.pi * tq) for tq in ts])[:, None]
        return r, sphere_area(k) * (half * wleg * r ** (k - 1)) * np.exp(-r * r / (4.0 * col) - log_norm)
    if n < 1:
        raise UnsupportedConfigError(f"finite weight needs n >= 1; got n={n}")
    if n == 1:
        # single step per coordinate: the push-forward measure is the
        # uniform law on the sphere, with no density at all
        return np.sqrt(2.0 * d * col), np.ones((len(ts), 1))
    nd = n * d
    unit, w = _ball_rule(level, k, 0.5 * (nd - k - 2), 1.0)
    return np.sqrt(2.0 * nd * col) * unit, np.broadcast_to(w, (len(ts), len(w)))


def _weighted_sums(f, d: int, ts: np.ndarray, level: int, n: int | None, coords: int | None = None):
    """int f(x, t) w_t(x) dx at each time of ts (T,) in one polar sum: the T
    values, shape (T,) or (T, K), and the evaluation count.  f(x, t) gets t
    of shape (rows, 1).

    coords = k with 1 <= k < d declares that f reads x only through
    x_1..x_k: the sum then runs in R^k against the k-marginal of w_t
    (_weighted_rules), and f gets k-wide points.  At n = 1, and for any other
    coords, the sum runs in R^d.
    """
    k = coords if coords is not None and 1 <= coords < d and (n is None or n >= 2) else d
    omega, wa = _sphere_nodes(k, level)
    r, wr = _weighted_rules(d, ts, level, n, k)
    return _polar_sum(f, r, wr, omega, wa, t=ts)


def _time_sum(wt: np.ndarray, values: np.ndarray):
    """sum_q wt_q values_q, added in node order."""
    return np.cumsum(wt.reshape((-1,) + (1,) * (values.ndim - 1)) * values, axis=0)[-1]


def integrate_weighted(phi, d: int, t: float, n: int | None = None, coords: int | None = None) -> IntegralEstimate:
    """int_{R^d} phi(x) w(x) dx for w the finite weight G_(t,n), or for
    n = None its limit, the Gaussian G_t.

    phi must be vectorized over leading axes of x with shape (..., d); it may
    return a trailing component axis to integrate several integrands at once.
    A result of one number, with or without a component axis of length 1,
    is a float, as in integrate_spacetime.  coords = k declares that phi
    reads x only through x_1..x_k, as in integrate_spacetime.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got t={t}")

    def eval_at(level: int):
        # the one-time-node case of the time-stacked sum
        values, count = _weighted_sums(lambda x, _: phi(x), d, np.array([t]), level, n, coords)
        return _unwrap_one(values[0]), count

    return _refine(eval_at)


def integrate_spacetime(phi, d: int, tau: float, n: int | None = None, coords: int | None = None) -> IntegralEstimate:
    """int_0^tau int_{R^d} phi(x, t) w_t(x) dx dt, with w_t as in integrate_weighted.

    Time nodes are Gauss points interior to (0, tau); integrands that blow up
    as t -> 0 are usable as long as they are integrable there.  All time
    nodes go through one polar sum, so phi(x, t) gets the points x of
    several nodes at once, shape (rows, ka, d), and t as an array of shape
    (rows, 1) that broadcasts against x[..., 0]; an integrand with a
    component axis needs t[..., None] to broadcast against that axis.

    coords = k declares that phi depends on x only through x_1..x_k, as
    SpaceTimeField.coords does (|x| is not allowed).  For 1 <= k < d and
    n None or n >= 2 the integral then runs in R^k, against the k-marginal
    of w_t, and phi gets points of width k instead of d.  The k = 1
    marginal of the finite weight depends on n and d only through nd, so
    the integral of a phi of x_1 alone at (d, n) is, bit for bit, its
    d = 1 integral at nd steps.  At n = 1 the weight is a law on the
    sphere, whose marginal the rule does not take, so there, and for any
    other k, the rule of R^d is used.
    """
    if not tau > 0.0:
        raise ValueError(f"need tau > 0, got tau={tau}")

    def eval_at(level: int):
        # as many time nodes as radial ones
        ts, wt = _legendre_rule(level, 0.0, tau)
        values, count = _weighted_sums(phi, d, ts, level, n, coords)
        return _unwrap_one(_time_sum(wt, values)), count

    return _refine(eval_at)


# ---------------------------------------------------------------------------
# plain ball / sphere / window integrals (no probability weight)
#
# A ball, annulus or sphere integral refines the mean of f under the uniform
# law on the sphere times the normalized radial law, which stays of the size
# of f for any N, and multiplies it once by the measure, in closed form.


def _shell_mean(
    f,
    N: int,
    r0: float,
    r1: float,
    center=None,
    radial_power: float = 0.0,
    symmetry: int | None = None,
) -> IntegralEstimate:
    """Mean of f on r0 <= |y - center| <= r1 under the uniform law on the
    sphere times the probability density proportional to rho^(N-1+radial_power)
    on [r0, r1]; a ball has r0 = 0 and a sphere r0 = r1.  The arguments are
    those of integrate_ball and integrate_sphere, which check them."""
    c = None if center is None else np.asarray(center, dtype=float)
    power = N - 1 + radial_power
    k, c = _reduced_k(N, symmetry, c)

    def eval_at(level: int):
        omega, wa = _sphere_nodes(N, level, k)
        if r0 == r1:
            rho, wr = np.array([r1]), np.ones(1)
        elif r0 == 0.0 and not float(power).is_integer():
            # rho = r1 (1 + s) / 2: Gauss-Jacobi(0, power) absorbs the
            # non-smooth rho^power, which no Legendre rule resolves at the origin
            s, wr = _jacobi(level, 0.0, power)
            rho = 0.5 * r1 * (1.0 + s)
        else:
            # (rho/r1)^power, normalized by its own sum: the rule takes the
            # mean of a constant exactly, and r1^power, which overflows at N
            # in the hundreds, never forms
            rho, wr = _legendre_rule(level, r0, r1)
            wr = wr * (rho / r1) ** power
            wr = wr / wr.sum()
        return _polar_sum(lambda x, _: f(x), rho, wr, omega, wa, c)

    return _refine(eval_at)


def _shell_total(mean, N: int, r0: float, r1: float, radial_power: float = 0.0):
    """mean |S^(N-1)| m, the total that a _shell_mean stands for: m is
    r1^(N-1) on a sphere (r0 == r1) and int_r0^r1 rho^(N-1+radial_power) drho
    on a ball (r0 = 0) or annulus.

    While the measure is a positive float it is formed as a float and the
    total is mean times it.  Otherwise the total is taken in logs, with the
    sign of the mean, so a total past the float range is +-inf (or 0), not
    an OverflowError.
    """
    q = N - 1 + radial_power + 1.0
    with np.errstate(over="ignore"):
        try:
            if r0 == r1:
                measure = sphere_area(N) * r1 ** (N - 1)
            elif q == 0.0:
                measure = sphere_area(N) * math.log(r1 / r0)
            else:
                measure = sphere_area(N) * ((r1**q - r0**q) / q)
        except OverflowError:
            measure = math.inf
    if math.isfinite(measure) and measure > 0.0:
        return mean * measure
    if r0 == r1:
        log_m = (N - 1) * math.log(r1)
    elif q == 0.0:
        log_m = math.log(math.log(r1 / r0))
    else:
        # log |r1^q - r0^q| / |q|, from the larger of the two powers
        a, b = q * math.log(r1), (q * math.log(r0) if r0 > 0.0 else -math.inf)
        log_m = max(a, b) + math.log(-math.expm1(-abs(a - b))) - math.log(abs(q))
    with np.errstate(divide="ignore", over="ignore"):
        total = np.sign(mean) * np.exp(np.log(np.abs(mean)) + _log_sphere_area(N) + log_m)
    return float(total) if np.ndim(total) == 0 else total


def integrate_ball(
    f,
    N: int,
    r: float,
    center=None,
    radial_power: float = 0.0,
    symmetry: int | None = None,
) -> IntegralEstimate:
    """int_{B_r(center)} f(y) |y - center|^radial_power dy.

    The power can be as singular as 1 - N; it is folded into the radial rule.
    symmetry = k declares that f depends on y only through y_1..y_k and |y|;
    the reduced angular rule of _sphere_nodes is then used where it applies
    (see _reduced_k), and the tensor rule everywhere else.  Under the reduced
    rule f gets points y of width k + 1, not N, as the (k + 1)-wide image
    (y_1..y_k, |(y_(k+1), ..., y_N)|) of an N-wide point, so a declared f
    must accept any width of at least k + 1 and read N, where it needs it,
    from its own closure, never from the width of y.
    """
    if not r > 0.0:
        raise ValueError(f"need r > 0, got r={r}")
    if radial_power <= -N:
        raise ValueError("radial_power must exceed -N for an integrable weight")
    mean = _shell_mean(f, N, 0.0, r, center, radial_power, symmetry)
    return replace(mean, value=_shell_total(mean.value, N, 0.0, r, radial_power))


def integrate_annulus(
    f,
    N: int,
    r_range: tuple[float, float],
    radial_power: float = 0.0,
    symmetry: int | None = None,
) -> IntegralEstimate:
    """int_{r0 <= |y| <= r1} f(y) |y|^radial_power dy; symmetry as in integrate_ball."""
    r0, r1 = r_range
    if not 0.0 <= r0 < r1:
        raise ValueError("need 0 <= r0 < r1")
    mean = _shell_mean(f, N, r0, r1, None, radial_power, symmetry)
    return replace(mean, value=_shell_total(mean.value, N, r0, r1, radial_power))


def integrate_sphere(f, N: int, r: float, center=None, symmetry: int | None = None) -> IntegralEstimate:
    """Surface integral int_{bd B_r(center)} f dS; symmetry as in integrate_ball."""
    if not r > 0.0:
        raise ValueError(f"need r > 0, got r={r}")
    mean = _shell_mean(f, N, r, r, center, symmetry=symmetry)
    return replace(mean, value=_shell_total(mean.value, N, r, r))


def integrate_window(f, d: int, r_range: tuple[float, float], t_range: tuple[float, float]) -> IntegralEstimate:
    """int_{t0}^{t1} int_{r0 <= |x| <= r1} f(x, t) dx dt over a smooth window.

    All time nodes go through one polar sum: f(x, t) gets t as an array of
    shape (rows, 1) that broadcasts against x[..., 0], as in
    integrate_spacetime.
    """
    r0, r1 = r_range
    t0, t1 = t_range
    if not (0.0 <= r0 < r1 and 0.0 < t0 < t1):
        raise ValueError("need 0 <= r0 < r1 and 0 < t0 < t1")

    def eval_at(level: int):
        omega, wa = _sphere_nodes(d, level)
        rho, wr = _legendre_rule(level, r0, r1, d - 1)
        wr = sphere_area(d) * wr
        ts, wt = _legendre_rule(level, t0, t1)
        shape = (len(ts), len(rho))
        values, count = _polar_sum(f, np.broadcast_to(rho, shape), np.broadcast_to(wr, shape), omega, wa, t=ts)
        return _time_sum(wt, values), count

    return _refine(eval_at)


# ---------------------------------------------------------------------------
# seeded Monte Carlo


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    # pure function of (seed, index); Philox keys are 128-bit counters.  A
    # numpy integer seed is made a Python int first: it cannot hold the key
    return np.random.Generator(np.random.Philox(key=operator.index(seed) + (index << 64)))


def _batch_sizes(mc: MonteCarloSpec) -> list[int]:
    full, rem = divmod(mc.samples, _MC_BATCH)
    sizes = [_MC_BATCH] * full
    if rem:
        sizes.append(rem)
    return sizes


def _check_sphere_args(N: int, radius: float) -> None:
    if N < 1:
        raise ValueError("need N >= 1")
    if not radius > 0.0:
        raise ValueError("need radius > 0")


def _check_mu_ball_args(N: int, tau: float, d: int) -> None:
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    if not tau > 0.0:
        raise ValueError("need tau > 0")


def _sphere_batch(out: np.ndarray, seed: int, k: int, radius: float) -> np.ndarray:
    """Batch k of sample_sphere_uniform, drawn into out, shape (m, N), and returned.

    Normalized Gaussian vectors scaled to the radius, a pure function of
    (seed, k, m); the arithmetic is done in place.
    """
    _batch_rng(seed, k).standard_normal(out=out)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out *= radius
    return out


def _mu_ball_batch(out: np.ndarray, seed: int, k: int, tau: float, d: int) -> np.ndarray:
    """Batch k of sample_mu_ball, drawn into out, shape (m, N), and returned.

    Uniform directions times radii r with r^2 uniform on [0, 2 d tau], a pure
    function of (seed, k, m); the arithmetic is done in place.
    """
    rng = _batch_rng(seed, k)
    rng.standard_normal(out=out)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out *= np.sqrt(2.0 * d * tau * rng.random(len(out)))[:, None]
    return out


def _gaussian_norms(rng: np.random.Generator, a: np.ndarray, n: int) -> np.ndarray:
    """|g|^2 of m Gaussian vectors g in R^(nd) read through their d step sums.

    Draws a ~ N(0, I_d) into a, shape (m, d), so that the step sums of g are
    sqrt(n) a, then one chi-square(nd - d) variate per row, independent of a,
    and returns |a|^2 + chi^2, shape (m,): in law, the pair (sqrt(n) a, |g|^2).
    At n = 1 there is no chi-square term and no second draw.
    """
    rng.standard_normal(out=a)
    q = np.einsum("ij,ij->i", a, a)
    if n > 1:
        q += rng.chisquare((n - 1) * a.shape[1], len(a))
    return q


def _lifted_sphere_batch(out: np.ndarray, seed: int, k: int, n: int, radius: float) -> np.ndarray:
    """Batch k of lifted sphere points, drawn into out, shape (m, d), and returned.

    Row i is the step sum x of a uniform point y on the sphere of the given
    radius in R^(nd), drawn in the reduced dimension: with a and |g|^2 from
    _gaussian_norms, x = radius sqrt(n) a / |g|.  A pure function of
    (seed, k, m); the draw order is the d normals of every row, then the m
    chi-squares.
    """
    q = _gaussian_norms(_batch_rng(seed, k), out, n)
    np.divide(radius * math.sqrt(n), np.sqrt(q, out=q), out=q)
    out *= q[:, None]
    return out


def _lifted_ball_batch(out: np.ndarray, seed: int, k: int, n: int, tau: float):
    """Batch k of lifted (x, t) of sample_mu_ball's law, drawn into out, and
    returned as views (x, t) of out.

    out has shape (m, d + 1) and is C-contiguous: its first m d numbers hold
    x, shape (m, d), and its last m the times t, shape (m,).  The time is
    t = tau u with u uniform on [0, 1), the lifted time |y|^2 / 2d of a
    radius r = sqrt(2 d tau u); with a and |g|^2 from _gaussian_norms,
    x = r sqrt(n) a / |g|.  A pure function of (seed, k, m); the draw order
    is the d normals of every row, then the m chi-squares, then the m
    uniforms.
    """
    m, d = out.shape[0], out.shape[1] - 1
    flat = out.reshape(-1)
    x, tt = flat[: m * d].reshape(m, d), flat[m * d :]
    rng = _batch_rng(seed, k)
    q = _gaussian_norms(rng, x, n)
    rng.random(out=tt)
    tt *= tau
    # |x|^2 = n r^2 |a|^2 / |g|^2 with r^2 = 2 d t
    np.divide(tt, q, out=q)
    q *= 2.0 * d * n
    x *= np.sqrt(q, out=q)[:, None]
    return x, tt


def sample_sphere_uniform(N: int, radius: float, mc: MonteCarloSpec) -> Iterator[np.ndarray]:
    """Uniform points on the sphere of given radius in R^N, yielded in batches.

    Batch k is a pure function of (mc.seed, k): normalized Gaussian vectors
    scaled to the radius (_sphere_batch).  The concatenation of all batches
    is the sample stream; its order never depends on scheduling.  Each batch
    is a new array.  The arguments are checked at the call, before any batch
    is drawn.
    """
    _check_sphere_args(N, radius)
    return (_sphere_batch(np.empty((m, N)), mc.seed, k, radius) for k, m in enumerate(_batch_sizes(mc)))


def sample_mu_ball(N: int, tau: float, d: int, mc: MonteCarloSpec) -> Iterator[np.ndarray]:
    """Samples of the lifted space-time measure on the ball of radius sqrt(2 d tau) in R^N.

    The measure has total mass tau; normalized, its radial law makes r^2
    uniform on [0, 2 d tau] (so the lifted time |y|^2/2d is uniform on
    (0, tau]) and its angular law is uniform.  Yields batches like
    sample_sphere_uniform, each drawn by _mu_ball_batch.
    """
    _check_mu_ball_args(N, tau, d)
    return (_mu_ball_batch(np.empty((m, N)), mc.seed, k, tau, d) for k, m in enumerate(_batch_sizes(mc)))


def _batch_moments(vals) -> tuple[np.ndarray, np.ndarray, int]:
    """(sum, M2, count) of one batch of values, shape (m,) or (m, K)."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    m = vals.shape[0]
    p1 = vals.sum(axis=0)
    # one (m, K) temporary, squared in place
    dev = np.subtract(vals, p1 / m)
    np.multiply(dev, dev, out=dev)
    return p1, dev.sum(axis=0), m


def _merge_moments(parts: Iterable[tuple[np.ndarray, np.ndarray, int]]):
    """Mean, standard error and count from per-batch (sum, M2, count) triples.

    The triples are merged in the order given.  The mean is the plain sum
    over the count; the variance merges the (count, mean, M2) pairs (Chan,
    Golub & LeVeque 1983), which keeps its precision when |mean| is much
    larger than the spread.  A single component gives floats.
    """
    s1 = None
    m2 = None
    count = 0
    for p1, q2, m in parts:
        if s1 is None:
            s1, m2, count = p1, q2, m
            continue
        delta = p1 / m - s1 / count
        m2 = m2 + q2 + delta * delta * (count * m / (count + m))
        s1 = s1 + p1
        count += m
    mean = s1 / count
    se = np.sqrt(m2 / count / count)
    if mean.size == 1:
        return float(mean[0]), float(se[0]), count
    return mean, se, count


def mc_mean(sample_batches: Iterator[np.ndarray], phi):
    """Mean and standard error of phi over a batched sample stream.

    Batches are drawn lazily and reduced one at a time, in the calling
    thread, so memory holds one batch; the partials are merged in batch
    order by _merge_moments.  phi maps a batch, such as (m, N), to (m,) or
    (m, K).  The push-forward checks draw and reduce their batches on worker
    threads instead (_drawn_mc_mean), with the bits of mc_mean over the same
    batches for any thread count.
    """
    return _merge_moments(_batch_moments(phi(y)) for y in sample_batches)


def _drawn_mc_mean(draw, width: int, mc: MonteCarloSpec, phi, threads: int):
    """mc_mean of phi over the batches draw(out, k) of the plan mc, with its bits.

    Each batch is drawn, passed to phi and reduced by one call on a worker
    thread.  The call draws into one of a fixed set of buffers of
    min(_MC_BATCH, mc.samples) rows of `width` numbers, allocated here, one
    per worker, and handed out through a free list: no more calls run at
    once than there are workers, so a buffer is never shared, and the memory
    the workers' allocator arenas keep stays small.  draw gets the first m
    rows, a C-contiguous block.  phi must not keep a view of what draw
    returns.
    """
    sizes = _batch_sizes(mc)
    workers = 1 if len(sizes) < 2 else _worker_count(threads)
    rows = min(_MC_BATCH, mc.samples)
    free = deque(np.empty((rows, width)) for _ in range(min(workers, len(sizes))))

    def reduce_one(item):
        k, m = item
        buf = free.pop()
        try:
            return _batch_moments(phi(draw(buf[:m], k)))
        finally:
            free.append(buf)

    return _merge_moments(_ordered_map(reduce_one, enumerate(sizes), workers))


# ---------------------------------------------------------------------------
# push-forward identity checks


@dataclass(frozen=True)
class PushforwardCheck:
    """Monte Carlo average through the lift vs. weighted quadrature downstairs."""

    mc_value: float | np.ndarray
    mc_std_error: float | np.ndarray
    quad_value: float | np.ndarray
    discrepancy_in_std_errors: float | np.ndarray


# The quadrature side of a check does not depend on the sampling plan, so it
# is kept for the last few (kind, phi, d, n, t).  A function hashes by
# identity, and an entry holds a reference to its phi, so that phi's entry
# cannot be taken by another object while it lives.
@lru_cache(maxsize=32)
def _memo_quad(kind: str, phi, d: int, n: int, t: float):
    if kind == "sphere":
        return integrate_weighted(phi, d, t, n=n).value
    return integrate_spacetime(phi, d, t, n=n).value


def _pushforward_quad(kind: str, phi, d: int, n: int, t: float):
    """Finite-weight quadrature of a push-forward check, once per (kind, phi, d, n, t)."""
    value = _memo_quad(kind, phi, d, n, t)
    # a copy, so a caller writing into quad_value leaves the memo intact
    return value.copy() if isinstance(value, np.ndarray) else value


def _discrepancy(mean, se, quad):
    """|mean - quad| in standard errors; a standard error of exactly 0 gives 0.

    The quadrature is only known to the tolerance _refine accepted it at, so
    a smaller standard error, as for an integrand that is constant on the
    sampled support up to rounding, is replaced by that tolerance.
    """
    se = np.asarray(se)
    floor = _REL_TOL * max(float(np.max(np.abs(quad))), 1.0)
    return np.abs(mean - quad) / np.where(se > 0.0, np.maximum(se, floor), np.inf)


def _pushforward_check(kind: str, phi, d: int, n: int, t: float, mc, threads: int, draw, width: int, batch_phi, scale):
    """The check of `kind` ("sphere" or "ball"): the Monte Carlo mean and
    standard error of batch_phi over the batches draw(out, k) of mc, of
    `width` numbers per sample, times scale, against the memoized quadrature.

    One component gives floats: the two sides are 0-d together.
    """
    mean, se, _ = _drawn_mc_mean(draw, width, mc, batch_phi, threads)
    mean = np.asarray(mean) * scale
    se = np.asarray(se) * scale
    quad = _pushforward_quad(kind, phi, d, n, t)
    disc = _discrepancy(mean, se, quad)
    if np.ndim(quad) == 0:
        mean, se, disc = float(mean), float(se), float(disc)
    return PushforwardCheck(mc_value=mean, mc_std_error=se, quad_value=quad, discrepancy_in_std_errors=disc)


def pushforward_check_sphere(
    phi, d: int, n: int, t: float, mc: MonteCarloSpec, threads: int | None = None
) -> PushforwardCheck:
    """Sphere average of phi(step-sum) vs. the finite-weight integral of phi.

    phi must be a pure function: its quadrature side is computed once per
    phi object (and d, n, t) and reused for every later seed.  The Monte
    Carlo side draws the step sums in the reduced dimension
    (_lifted_sphere_batch): d normals and one chi-square per sample, exact
    in law for the uniform sphere of radius sqrt(2 d t) in R^(nd), where
    sample_sphere_uniform draws nd normals.  Batches are drawn and reduced on
    `threads` workers (_drawn_mc_mean), with the bits of mc_mean over the
    same batches for any thread count; None takes the count every
    quadrature sum reads (_worker_count).
    """
    N = _lifted_dim(d, n)
    # t <= 0 (or NaN) fails the radius check rather than the square root
    radius = math.sqrt(2.0 * d * t) if t > 0.0 else 0.0
    _check_sphere_args(N, radius)

    def draw(out, k):
        return _lifted_sphere_batch(out, mc.seed, k, n, radius)

    return _pushforward_check("sphere", phi, d, n, t, mc, threads, draw, width=d, batch_phi=phi, scale=1.0)


def pushforward_check_ball(
    phi, d: int, n: int, tau: float, mc: MonteCarloSpec, threads: int | None = None
) -> PushforwardCheck:
    """Lifted-measure average of phi(lift) times tau vs. the space-time integral.

    phi must be a pure function: its quadrature side is computed once per
    phi object (and d, n, tau) and reused for every later seed.  The Monte
    Carlo side draws (x, t) of sample_mu_ball's law in the reduced dimension
    (_lifted_ball_batch), on the workers as in pushforward_check_sphere.
    """
    _check_mu_ball_args(_lifted_dim(d, n), tau, d)

    def draw(out, k):
        return _lifted_ball_batch(out, mc.seed, k, n, tau)

    return _pushforward_check(
        "ball", phi, d, n, tau, mc, threads, draw, width=d + 1, batch_phi=lambda xt: phi(*xt), scale=tau
    )
