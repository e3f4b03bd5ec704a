"""The benchmark's three workloads.

Each workload is a list of checks.  A check calls the program on inputs made
from the workload seed and compares the result with its closed-form
reference or with the CLI's own pass rule.  Its outcome is one of

* ``pass``;
* ``error``: the program refused with a reason (an exception, or CLI exit 1);
* ``wrong``: the program gave an answer and the answer is wrong (outside the
  tolerance, not finite, CLI exit 2 or status fail, or a byte mismatch).

Functions are looked up on the dimlift modules at call time, so the wrappers
that ``instrument.Instrument.install`` put there are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
import time

import numpy as np

import dimlift.cli
import dimlift.fields as F
import dimlift.functionals as FN
import dimlift.integrate as I

# Monte Carlo discrepancy limit, in standard errors.  The CLI's per-run rule
# is 3; Tier-1 allows one seed in twenty beyond 3.  The benchmark draws fresh
# seeds on every run and makes ~16 checks of 5 integrands each, so at 3 a
# correct program would fail a few percent of runs by chance; at 5 the chance
# is ~1e-7 per integrand.
MC_SIGMA = 5.0


# The host's speed drifts: the same pure-Python loop takes from 0.33 to 0.58 s
# within seconds, and whole workloads ran 1.5x slower for minutes at a time.
# A fixed kernel timed between checks tracks that drift, so run.py can scale
# times to one reference speed.  Interpreter speed and memory speed drift
# apart, and the workloads lean on them in different shares, so the kernel
# spends about half its time on each.
CALIBRATION_LOOPS = 200_000
CALIBRATION_DOUBLES = 2_000_000  # 16 MB, beyond the caches
CALIBRATION_PASSES = 10


def calibrate() -> float:
    """Seconds of one fixed kernel: the host's speed right now."""
    start = time.perf_counter()
    x = 0
    for k in range(CALIBRATION_LOOPS):
        x += k * k
    a = np.ones(CALIBRATION_DOUBLES)
    for _ in range(CALIBRATION_PASSES):
        a *= 1.0001
    return time.perf_counter() - start


def _sphere_area(N: int) -> float:
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


class Checks:
    """Runs checks and records (name, outcome, detail), each check's time, and
    a calibration before the first check and after each."""

    def __init__(self) -> None:
        self.results: list[tuple[str, str, str]] = []
        self.check_s: list[float] = []
        self.calib_s: list[float] = [calibrate()]

    def run(self, name: str, compute, verify) -> None:
        """compute() -> value; verify(value) -> None if right, else a reason."""
        start = time.perf_counter()
        outcome, detail = _outcome(compute, verify)
        self.check_s.append(time.perf_counter() - start)
        self.results.append((name, outcome, detail))
        self.calib_s.append(calibrate())


def _outcome(compute, verify) -> tuple[str, str]:
    try:
        value = compute()
    except Exception as exc:  # any failure of the program under test is a failed check
        return "error", f"{type(exc).__name__}: {exc}"
    try:
        reason = verify(value)
    except Exception as exc:  # an answer that cannot be read is a wrong answer
        reason = f"unreadable result: {type(exc).__name__}: {exc}"
    return ("pass", "") if reason is None else ("wrong", reason)


def _close(ref: float, tol: float):
    def verify(value) -> str | None:
        v = float(value)
        if not math.isfinite(v):
            return f"non-finite value {v!r}"
        if abs(v - ref) >= tol:
            return f"value {v!r} vs reference {ref!r} (tol {tol})"
        return None

    return verify


# ---------------------------------------------------------------------------
# elliptic-tensor


def elliptic_tensor(seed: int, inst) -> Checks:
    """Tensor-product ball/sphere quadrature in R^3 and R^4, library calls only.

    N >= 5 is left out on purpose: with the current tensor rules they exhaust a
    7 GB machine.  acf_phi and carleman_elliptic_check run in R^3 only; in R^4
    they take 8 s and 11 s per call.
    """
    rng = random.Random(seed)
    checks = Checks()
    for N in (3, 4):
        r = rng.uniform(0.5, 2.0)
        checks.run(
            f"hm_phi equator N={N} r={r:.4f}",
            lambda: FN.hm_phi(F.equator_map(N), np.zeros(N), r),
            _close((N - 1) * _sphere_area(N) / (N - 2), 1e-6),
        )
    for N in (3, 4):
        r = rng.uniform(0.5, 2.0)
        checks.run(
            f"almgren x1x2 N={N} r={r:.4f}",
            lambda: FN.almgren(F.harmonic_polynomial("x1x2", N), r).L,
            _close(2.0, 1e-8),
        )
    # r^-4 prod_i int_{B_r, y1 >< 0} |y|^(2-N) dy = (|S^(N-1)| / 4)^2, which is
    # pi^2/4 at N = 2 and pi^2 at N = 3
    r = rng.uniform(0.5, 2.0)
    checks.run(
        f"acf_phi half-space N=3 r={r:.4f}",
        lambda: FN.acf_phi(*F.half_space_pair(3, kind="elliptic"), r).value,
        _close((_sphere_area(3) / 4.0) ** 2, 1e-6),
    )
    for r_in, r_out, k in ((1.0, 2.0, 4), (0.5, 1.5, 5), (1.0, 3.0, 6)):
        gamma = rng.uniform(0.5, 2.5)

        def satisfied(rep) -> str | None:
            if not (math.isfinite(rep.lhs) and math.isfinite(rep.rhs)):
                return f"non-finite sides lhs={rep.lhs!r} rhs={rep.rhs!r}"
            return None if rep.satisfied else f"lhs {rep.lhs!r} < rhs {rep.rhs!r}"

        checks.run(
            f"carleman bump N=3 [{r_in},{r_out}] k={k} gamma={gamma:.4f}",
            lambda: FN.carleman_elliptic_check(F.bump_radial(3, r_in, r_out, k), gamma),
            satisfied,
        )
    return checks


# ---------------------------------------------------------------------------
# pushforward-mc


def _moments(x):
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


def _pushforward_verify(domain: str, t: float):
    def verify(res) -> str | None:
        disc = np.asarray(res.discrepancy_in_std_errors, float)
        quad = np.asarray(res.quad_value, float)
        if not (np.all(np.isfinite(disc)) and np.all(np.isfinite(quad))):
            return "non-finite discrepancy or quadrature value"
        if np.any(np.abs(disc) > MC_SIGMA):
            return f"discrepancies {disc.tolist()} exceed {MC_SIGMA} standard errors"
        # the constant integrand has standard error 0, so the discrepancy test
        # cannot see it: its Monte Carlo mean is exact instead
        mass = 1.0 if domain == "sphere" else t
        mc_mass = float(np.asarray(res.mc_value, float)[0])
        if abs(mc_mass - mass) >= 1e-12:
            return f"Monte Carlo mass {mc_mass!r} vs {mass!r}"
        # exact moments of the quadrature side, as in Tier-1 criterion 1
        if domain == "sphere":
            if abs(quad[0] - 1.0) >= 1e-8 or abs(quad[2] - 2.0 * t) >= 1e-8:
                return f"sphere mass {quad[0]!r} or x1^2 moment {quad[2]!r} off"
        elif abs(quad[0] - t) >= 1e-8:
            return f"ball mass {quad[0]!r} vs {t!r}"
        return None

    return verify


def _bits(res) -> bytes:
    return b"".join(
        np.ascontiguousarray(np.asarray(v, float)).tobytes()
        for v in (res.mc_value, res.mc_std_error, res.quad_value, res.discrepancy_in_std_errors)
    )


def pushforward_mc(seed: int, inst) -> Checks:
    """Sphere and ball push-forward checks, 100k samples, several seeds each."""
    rng = random.Random(seed)
    checks = Checks()
    phi = inst.integrand(_moments)

    def ball_phi(x, tt):
        return phi(x)

    balls = {}
    for d, n in ((1, 5), (2, 20)):
        t = rng.uniform(0.5, 1.0)
        for s in [rng.randrange(2**62) for _ in range(4)]:
            mc = I.MonteCarloSpec(seed=s, samples=100_000)
            checks.run(
                f"sphere d={d} n={n} t={t:.4f} seed={s}",
                lambda: I.pushforward_check_sphere(phi, d, n, t, mc, threads=2),
                _pushforward_verify("sphere", t),
            )

            def run_ball():
                balls[d, s] = I.pushforward_check_ball(ball_phi, d, n, t, mc, threads=2)
                return balls[d, s]

            checks.run(f"ball d={d} n={n} t={t:.4f} seed={s}", run_ball, _pushforward_verify("ball", t))

    # thread-count invariance: the last d = 2 ball seed again, at threads=1
    ref = balls.get((d, s))
    checks.run(
        f"ball d={d} n={n} seed={s} threads=1 vs 2",
        lambda: I.pushforward_check_ball(ball_phi, d, n, t, mc, threads=1),
        lambda res: None if ref is not None and _bits(res) == _bits(ref) else "results differ between thread counts",
    )
    return checks


# ---------------------------------------------------------------------------
# cli-lowdim


def _cli_cases(rng: random.Random) -> list[list[str]]:
    def t() -> str:
        return repr(round(rng.uniform(0.5, 1.5), 4))

    return [
        ["gn-limit", "--d", "1"],
        ["gn-limit", "--d", "2"],
        ["frequency", "--parabolic", "--field", "x1sq", "--d", "1"],
        ["frequency", "--parabolic", "--field", "x1cube", "--d", "2"],
        ["frequency", "--parabolic", "--field", "hk", "--d", "2"],
        ["carleman", "--parabolic", "--d", "1"],
        ["two-phase", "--kind", "parabolic", "--pair", "half", "--d", "1"],
        ["two-phase", "--kind", "parabolic", "--pair", "power", "--d", "2"],
        ["two-phase", "--kind", "lifted", "--pair", "half", "--d", "1", "--t", t()],
        ["two-phase", "--kind", "lifted", "--pair", "power", "--d", "2", "--t", t()],
        ["harmonic-map", "--which", "struwe", "--map", "circle", "--d", "2"],
        ["harmonic-map", "--which", "lifted", "--map", "circle", "--d", "2", "--t", t()],
        ["mcf", "--which", "huisken", "--surface", "const", "--d", "2"],
        ["mcf", "--which", "lifted", "--d", "1", "--t", t()],
        # known defect: at n*d = 320 the rim factor overflows in
        # lifted_mcf_density and the CLI exits 1; kept so the fix shows
        ["mcf", "--which", "lifted", "--d", "2"],
        ["lift-demo", "--which", "frequency", "--field", "x1cube", "--d", "2", "--t", t()],
        ["lift-demo", "--which", "two-phase", "--field", "half", "--d", "2", "--t", t()],
        ["lift-demo", "--which", "harmonic-map", "--field", "circle", "--d", "1", "--t", t()],
        ["lift-demo", "--which", "mcf", "--field", "const", "--d", "1", "--t", t()],
    ]


def _cli(argv: list[str], out: str, threads: int, inst) -> tuple[int, bytes, bytes]:
    """Run dimlift.cli.main; return its exit code and the CSV and summary bytes."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = dimlift.cli.main(argv + ["--out", out, "--threads", str(threads)])
    paths = [f"{out}.csv", f"{out}.json", f"{out}.manifest.json"]
    inst.cli_bytes += sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    if rc == 1:
        lines = sink.getvalue().strip().splitlines()
        raise RuntimeError(f"exit 1: {lines[-1] if lines else ''}")
    with open(f"{out}.csv", "rb") as f:
        csv_bytes = f.read()
    with open(f"{out}.json", "rb") as f:
        json_bytes = f.read()
    return rc, csv_bytes, json_bytes


def _cli_verify(result) -> str | None:
    rc, _, json_bytes = result
    status = json.loads(json_bytes)["status"]
    if rc != 0 or status != "pass":
        return f"exit {rc}, status {status}"
    return None


def cli_lowdim(seed: int, inst) -> Checks:
    """Every subcommand but pushforward, in its d in {1, 2} modes, in-process."""
    rng = random.Random(seed)
    checks = Checks()
    cases = _cli_cases(rng)
    # case 8 (two-phase --kind lifted --pair half --d 1, 0.2 s) is rerun at
    # --threads 1 under the same --out name in another directory, so the
    # manifest's output paths match byte for byte.  Only the pushforward
    # subcommand reads --threads, so this checks that a rerun gives the same
    # bytes; thread-count invariance is checked in pushforward-mc
    rerun = 8
    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=os.environ.get("PERFBENCH_WORK")) as tmp:
        try:
            os.chdir(tmp)
            for i, argv in enumerate(cases):

                def call(argv=argv, out=f"case{i}"):
                    outputs[out] = _cli(argv, out, 2, inst)
                    return outputs[out]

                checks.run(" ".join(argv), call, _cli_verify)
            os.mkdir("threads1")
            os.chdir("threads1")
            ref = outputs.get(f"case{rerun}")
            checks.run(
                " ".join(cases[rerun]) + " rerun at --threads 1: same bytes",
                lambda: _cli(cases[rerun], f"case{rerun}", 1, inst),
                lambda res: None if ref is not None and res[1:] == ref[1:] else "CSV/JSON bytes differ",
            )
        finally:
            os.chdir(cwd)
    return checks


WORKLOADS = {
    "elliptic-tensor": elliptic_tensor,
    "pushforward-mc": pushforward_mc,
    "cli-lowdim": cli_lowdim,
}
