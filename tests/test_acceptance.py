"""Acceptance suite: one test per advertised guarantee.

Each test prints one ``[PASS]``/``[FAIL]`` line with its elapsed time (run
pytest with ``-s`` to see the lines for passing tests) and pins the
tolerances and runtime budgets the package promises.
"""

import json
import math
import time

import numpy as np

from dimlift.cli import main as cli_main
from dimlift.fields import (
    ScalarField,
    bump_radial,
    bump_spacetime,
    caloric_polynomial,
    circle_map,
    equator_map,
    graph_linear,
    graph_plane,
    half_space_pair,
    harmonic_polynomial,
    heat_kernel_translate,
)
from dimlift.functionals import (
    acf_dphi_lower_bound,
    acf_phi,
    almgren,
    caffarelli_Phi,
    carleman_elliptic_check,
    carleman_elliptic_constant,
    carleman_parabolic_check,
    hm_phi,
    huisken_density,
    lifted_frequency,
    lifted_hm_Phi,
    lifted_mcf_density,
    lifted_two_phase,
    mcf_residual,
    monotonicity_sweep,
    ms_density,
    ms_density_tilde,
    poon,
    psi,
    struwe_Phi,
)
from dimlift.integrate import MonteCarloSpec, pushforward_check_ball, pushforward_check_sphere
from dimlift.lift import lift_point_time
from dimlift.weights import weight_limit_report


def _finish(num, name, started, problems, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    tail = f"{elapsed:.1f}s" if budget is None else f"{elapsed:.1f}s < {budget:.0f}s"
    line = f"[{status}] criterion {num}: {name} ({tail})"
    print(line, flush=True)
    assert not problems, line + " :: " + "; ".join(problems)


def _check(problems, cond, msg):
    if not cond:
        problems.append(msg)


# ---------------------------------------------------------------------------
# 1. push-forward identities


def _stack_phi(x):
    x = np.asarray(x, float)
    return np.stack(
        [
            np.ones(x.shape[:-1]),
            x[..., 0],
            x[..., 0] ** 2,
            x[..., 0] ** 4,
            np.exp(-np.sum(x * x, axis=-1)),
        ],
        axis=-1,
    )


def test_criterion_1_push_forward_identities():
    started = time.perf_counter()
    problems = []
    n_seeds, need = 20, 19  # 95% of 20

    # one object for every seed, so the seeds share one ball quadrature
    def ball_phi(x, tt):
        return _stack_phi(x)

    for d in (1, 2):
        for n in (1, 2, 5, 20):
            for t in (0.5, 1.0):
                for domain in ("sphere", "ball"):
                    ok = np.zeros(5, dtype=int)
                    quad = None
                    for seed in range(n_seeds):
                        mc = MonteCarloSpec(seed=seed, samples=100_000)
                        if domain == "sphere":
                            res = pushforward_check_sphere(_stack_phi, d, n, t, mc, threads=4)
                        else:
                            res = pushforward_check_ball(ball_phi, d, n, t, mc, threads=4)
                        ok += np.abs(np.asarray(res.discrepancy_in_std_errors)) <= 3.0
                        quad = np.asarray(res.quad_value)
                    for j, count in enumerate(ok):
                        _check(
                            problems,
                            count >= need,
                            f"{domain} d={d} n={n} t={t} phi#{j}: only {count}/{n_seeds} seeds within 3 sigma",
                        )
                    if domain == "sphere":
                        _check(problems, abs(quad[0] - 1.0) < 1e-8, f"sphere mass d={d} n={n} t={t}")
                        _check(problems, abs(quad[2] - 2.0 * t) < 1e-8, f"sphere x1^2 d={d} n={n} t={t}")
                    else:
                        _check(problems, abs(quad[0] - t) < 1e-8, f"ball mass d={d} n={n} tau={t}")
    _finish(1, "push-forward identities", started, problems, budget=120.0)


# ---------------------------------------------------------------------------
# 2. weight limit


def test_criterion_2_weight_limit():
    started = time.perf_counter()
    problems = []
    report = weight_limit_report(1.0, np.linspace(-2.0, 2.0, 201), [8, 16, 32, 64, 128])
    errs = np.asarray(report.sup_rel_error)
    _check(problems, np.all(np.diff(errs) < 0.0), f"errors not strictly decreasing: {errs}")
    ratios = errs[:-1] / errs[1:]
    _check(
        problems,
        np.all((ratios >= 1.6) & (ratios <= 2.4)),
        f"halving ratios outside [1.6, 2.4]: {ratios}",
    )
    _finish(2, "weight limit", started, problems, budget=10.0)


# ---------------------------------------------------------------------------
# 3. chain-rule lifting


def _fd_lifted(n, u, y, h=1e-5, h2=1e-3):
    def v(z):
        x, t = lift_point_time(z, n)
        return float(u.value(x, t))

    N = y.size
    grad = np.empty(N)
    lap = 0.0
    v0 = v(y)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        grad[j] = (v(y + h * e) - v(y - h * e)) / (2.0 * h)
        lap += (v(y + h2 * e) - 2.0 * v0 + v(y - h2 * e)) / (h2 * h2)
    return grad, lap


def test_criterion_3_chain_rule_lifting(step_sum_rotation):
    # the lifted field reads w = Q y; its y-gradient is Q^T grad v(w), and
    # the reference differences the row-major composition in y
    from dimlift.lift import lifted_field

    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(4242)
    fields = [
        (caloric_polynomial("x1", 2), 5),
        (caloric_polynomial("x1sq", 1), 12),
        (caloric_polynomial("x1cube", 3), 4),
        (caloric_polynomial("radial", 2), 6),
        (heat_kernel_translate(1, np.array([1.5]), 3.0), 8),
    ]
    for u, n in fields:
        v = lifted_field(u, n)
        Q = step_sum_rotation(u.d, n)
        worst = {"grad": 0.0, "radial": 0.0, "gradsq": 0.0, "laplacian": 0.0}
        for _ in range(100):
            y = rng.normal(size=v.N)
            y *= rng.uniform(0.8, 1.6) / np.linalg.norm(y)
            w = Q @ y
            grad_w = v.grad(w)
            grad_v = Q.T @ grad_w
            radial_v = float(w @ grad_w)
            gradsq_v = float(grad_w @ grad_w)
            laplacian_v = float(v.laplacian(w))
            fd_grad, fd_lap = _fd_lifted(n, u, y)
            scale = max(1.0, float(np.max(np.abs(grad_v))))
            worst["grad"] = max(worst["grad"], float(np.max(np.abs(fd_grad - grad_v))) / scale)
            worst["radial"] = max(
                worst["radial"],
                abs(float(y @ fd_grad) - radial_v) / max(1.0, abs(radial_v)),
            )
            worst["gradsq"] = max(
                worst["gradsq"],
                abs(float(fd_grad @ fd_grad) - gradsq_v) / max(1.0, abs(gradsq_v)),
            )
            worst["laplacian"] = max(worst["laplacian"], abs(fd_lap - laplacian_v) / max(1.0, abs(laplacian_v)))
        for key in ("grad", "radial", "gradsq"):
            _check(problems, worst[key] < 1e-6, f"{u.name} {key} off by {worst[key]:.2e}")
        _check(problems, worst["laplacian"] < 1e-4, f"{u.name} laplacian off by {worst['laplacian']:.2e}")
    _finish(3, "chain-rule lifting", started, problems, budget=30.0)


# ---------------------------------------------------------------------------
# 4. frequency constancy and monotonicity


def test_criterion_4_frequency():
    started = time.perf_counter()
    problems = []
    for v, deg in [
        (harmonic_polynomial("x1", 3), 1.0),
        (harmonic_polynomial("x1x2", 4), 2.0),
        (harmonic_polynomial("re_zk", 2, 5), 5.0),
    ]:
        for r in (0.7, 1.3):
            _check(problems, abs(almgren(v, r).L - deg) < 1e-8, f"{v.name} L at r={r}")
    for u, val in [(caloric_polynomial("x1", 1), 0.5), (caloric_polynomial("x1sq", 1), 1.0)]:
        for t in (0.25, 1.0):
            _check(problems, abs(poon(u, t).L - val) < 1e-8, f"{u.name} script-L at t={t}")
    hk = heat_kernel_translate(1, np.array([1.5]), 2.0)
    sweep = monotonicity_sweep(lambda t: poon(hk, t).L, np.linspace(0.1, 1.0, 16))
    _check(problems, sweep.violations == 0, f"{sweep.violations} monotonicity violations")
    cube = caloric_polynomial("x1cube", 1)
    errs = [abs(lifted_frequency(cube, n, 1.0) - 3.0) for n in (10, 40, 160)]
    _check(problems, errs[0] > errs[1] > errs[2], f"lifted errors not decreasing: {errs}")
    _check(problems, errs[2] < 0.05 * 3.0, f"lifted error at n=160 is {errs[2]:.3f}")
    _finish(4, "frequency constancy and monotonicity", started, problems, budget=60.0)


# ---------------------------------------------------------------------------
# 5. weighted inequalities


def _scan_constant(gamma, N):
    ells = np.arange(4001, dtype=float)
    return float(np.min(np.abs((0.5 * N + ells + gamma - 2.0) * (0.5 * N + ells - gamma))))


def test_criterion_5_carleman():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(505)
    for _ in range(50):
        gamma = float(rng.uniform(-10.0, 50.0))
        N = int(rng.integers(1, 13))
        _check(
            problems,
            carleman_elliptic_constant(gamma, N) == _scan_constant(gamma, N),
            f"constant mismatch at gamma={gamma}, N={N}",
        )
    elliptic = [bump_radial(3, 1.0, 2.0, 4), bump_radial(4, 0.5, 1.5, 5), bump_radial(3, 1.0, 3.0, 6)]
    for gamma in (0.7, 1.5, 2.25):
        for v in elliptic:
            rep = carleman_elliptic_check(v, gamma)
            _check(problems, rep.satisfied, f"elliptic {v.name} fails at gamma={gamma}")
    parabolic = [
        bump_spacetime(1, 0.5, 1.5, 0.25, 1.0, 4),
        bump_spacetime(1, 1.0, 2.0, 0.5, 1.5, 5),
        bump_spacetime(1, 0.25, 1.25, 0.2, 0.8, 4),
    ]
    for alpha in (1.0, 1.875, 2.3):
        for u in parabolic:
            rep = carleman_parabolic_check(u, alpha)
            _check(problems, rep.satisfied, f"parabolic {u.name} fails at alpha={alpha}")
            _check(
                problems,
                rep.constant_used == 8.0 / rep.epsilon**2,
                f"constant is not 8/eps^2 at alpha={alpha}",
            )
    _finish(5, "carleman inequalities", started, problems, budget=120.0)


# ---------------------------------------------------------------------------
# 6. two-phase products


def _cube_pair():
    def cube_val(y):
        return np.maximum(np.asarray(y, float)[..., 0], 0.0) ** 3

    def cube_grad(y):
        y = np.asarray(y, float)
        g = np.zeros_like(y)
        g[..., 0] = 3.0 * np.maximum(y[..., 0], 0.0) ** 2
        return g

    def cube_lap(y):
        return 6.0 * np.maximum(np.asarray(y, float)[..., 0], 0.0)

    def neg_val(y):
        return np.maximum(-np.asarray(y, float)[..., 0], 0.0)

    def neg_grad(y):
        y = np.asarray(y, float)
        g = np.zeros_like(y)
        g[..., 0] = -1.0 * (y[..., 0] < 0.0)
        return g

    zero = lambda y: np.zeros(np.asarray(y, float).shape[:-1])
    v1 = ScalarField(2, cube_val, cube_grad, laplacian=cube_lap)
    v2 = ScalarField(2, neg_val, neg_grad, laplacian=zero)
    return v1, v2, cube_lap, zero


def test_criterion_6_two_phase():
    started = time.perf_counter()
    problems = []
    _check(problems, psi(0.5) == 1.0 and psi(0.25) == 1.5 and psi(1.0) == 0.0, "psi spot values")
    vp, vn = half_space_pair(2, kind="elliptic")
    for r in (0.5, 1.0, 2.0):
        _check(problems, abs(acf_phi(vp, vn, r).value - math.pi**2 / 4) < 1e-6, f"phi at r={r}")
    up, un = half_space_pair(1)
    for tau in (0.5, 1.0, 2.0):
        _check(problems, abs(caffarelli_Phi(up, un, tau).value - 0.25) < 1e-8, f"Phi at tau={tau}")
    for n in (3, 7, 20, 80):
        got = lifted_two_phase(up, un, n, 1.0).value
        _check(problems, abs(got - 0.25) < 1e-8, f"lifted Phi at n={n}")
    v1, v2, h1, h0 = _cube_pair()
    for r in (0.8, 1.25):
        dr = 1e-4
        fd = (acf_phi(v1, v2, r + dr).value - acf_phi(v1, v2, r - dr).value) / (2 * dr)
        bound = acf_dphi_lower_bound(v1, v2, h1, h0, r)
        _check(problems, fd >= bound - 1e-4, f"derivative bound at r={r}: fd={fd:.4f} < {bound:.4f}")
    _finish(6, "two-phase products", started, problems, budget=60.0)


# ---------------------------------------------------------------------------
# 7. harmonic map densities


def test_criterion_7_harmonic_maps():
    started = time.perf_counter()
    problems = []
    for N, want in [(3, 8.0 * math.pi), (4, 3.0 * math.pi**2)]:
        vmap = equator_map(N)
        y0 = np.zeros(N)
        for r in (0.5, 1.0, 2.0):
            _check(problems, abs(hm_phi(vmap, y0, r) - want) < 1e-6, f"equator phi N={N} r={r}")
        sweep = monotonicity_sweep(lambda r: hm_phi(vmap, y0, r), np.geomspace(0.5, 2.0, 8))
        _check(problems, sweep.violations == 0, f"{sweep.violations} violations at N={N}")
    cm = circle_map()
    for t in (0.25, 1.0, 4.0):
        _check(problems, abs(struwe_Phi(cm, t) - t) < 1e-8, f"circle Phi at t={t}")
    got = lifted_hm_Phi(cm, 160, 1.0)
    _check(problems, abs(got - 1.0) < 0.05, f"lifted circle value at n=160: {got}")
    _finish(7, "harmonic map densities", started, problems, budget=60.0)


# ---------------------------------------------------------------------------
# 8. surface densities and flow


def test_criterion_8_surface_densities():
    started = time.perf_counter()
    problems = []
    for surf, amb in [(graph_plane(2, 0.0), 3), (graph_linear([0.3, -0.2]), 3)]:
        for r in (0.5, 1.0, 2.0):
            _check(problems, abs(ms_density(surf, np.zeros(amb), r) - 1.0) < 1e-8, f"plane Theta r={r}")
    for d in (1, 2):
        flat = graph_plane(d, 0.0)
        for t in (0.5, 1.0, 2.0):
            _check(
                problems,
                abs(huisken_density(flat, t) - (4 * math.pi) ** (d / 2)) < 1e-8,
                f"flat gaussian density d={d} t={t}",
            )
    delta = 0.4
    plane = graph_plane(2, 0.0)
    center = np.array([0.0, 0.0, delta])
    for r in (0.8, 1.0, 1.5):
        want = 1.0 - delta**2 / r**2
        _check(problems, abs(ms_density(plane, center, r) - want) < 1e-6, f"offset Theta r={r}")
    rep = ms_density_tilde(plane, None, center, 1.0)
    dr = 1e-3
    fd = (
        ms_density_tilde(plane, None, center, 1.0 + dr).theta_tilde
        - ms_density_tilde(plane, None, center, 1.0 - dr).theta_tilde
    ) / (2 * dr)
    _check(problems, abs(fd - rep.derivative_rhs) < 1e-4, f"offset derivative: fd={fd}, rhs={rep.derivative_rhs}")
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    for surf in (graph_plane(1, 0.0), graph_plane(1, 0.7)):
        _check(problems, bool(np.all(mcf_residual(surf, pts, 1.0) == 0.0)), "flow residual not exactly zero")
    const = graph_plane(1, 0.7)
    limit = huisken_density(const, 1.0)
    errs = [abs(lifted_mcf_density(const, n, 1.0) - limit) for n in (10, 40, 160)]
    _check(problems, errs[0] > errs[1] > errs[2], f"lifted errors not decreasing: {errs}")
    _finish(8, "surface densities and flow", started, problems, budget=60.0)


# ---------------------------------------------------------------------------
# 9. CLI determinism


CLI_MANIFESTS = {
    "gn-limit": ["gn-limit"],
    "pushforward": ["pushforward", "--samples", "20000"],
    "frequency": ["frequency", "--elliptic", "--field", "x1"],
    "carleman": ["carleman", "--elliptic", "--gamma", "0.7"],
    "two-phase": ["two-phase"],
    "harmonic-map": ["harmonic-map"],
    "mcf": ["mcf"],
    "lift-demo": ["lift-demo"],
}


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()
    problems = []
    payloads = {}
    for label, threads in [("t1a", 1), ("t1b", 1), ("t4a", 4), ("t4b", 4)]:
        base = tmp_path / label
        base.mkdir()
        monkeypatch.chdir(base)
        for name, argv in CLI_MANIFESTS.items():
            rc = cli_main(argv + ["--out", "run", "--threads", str(threads)])
            _check(problems, rc == 0, f"{name} exited {rc} at threads={threads}")
            payloads[label, name] = (
                (base / "run.csv").read_bytes(),
                (base / "run.json").read_bytes(),
            )
            manifest = json.loads((base / "run.json").read_text())["manifest"]
            _check(problems, "threads" not in manifest.get("parameters", {}), "manifest leaks thread count")
            for ext in (".csv", ".json"):
                (base / f"run{ext}").unlink()
    for name in CLI_MANIFESTS:
        _check(problems, payloads["t1a", name] == payloads["t1b", name], f"{name} differs between runs at threads=1")
        _check(problems, payloads["t4a", name] == payloads["t4b", name], f"{name} differs between runs at threads=4")
        _check(problems, payloads["t1a", name] == payloads["t4a", name], f"{name} differs between thread counts")
    _finish(9, "CLI determinism", started, problems)
