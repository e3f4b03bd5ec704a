"""dimlift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh child processes
(``child.py``), one at a time, as a CLI user gets it: cold caches, import paid
once.  A run repeats the workload's check list in new children for about
``--seconds`` seconds and interleaves bare import probes, then prints one JSON
object as the last line of stdout:

* ``--trace 0``: the end-to-end metrics, medians over the children of the run;
* ``--trace 1``: the per-layer metrics of traced children, plus the tracing
  overhead measured against untraced children run alternately with them.

Times (``setup_s``, ``wall_s``) are reported at one reference host speed: each
is scaled by a calibration kernel timed in the same child (see ``_at_ref``).
The "#" lines before the result give them as measured, too.

The workloads, metrics and their bounds are listed in BENCHMARK.json; the
notes in perfbench/NOTES.md map each layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")

SPEC = os.path.join(ROOT, "BENCHMARK.json")  # workload and metric names, units, bounds
THREADS = 2  # nproc of the reference machine; BLAS/OpenMP are capped to match
MIN_SETUP_SAMPLES = 11  # single imports vary by +-25%; the median of 11 holds steady
PROBES_PER_CHILD = 2
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
# workloads.calibrate() on the 2-core reference VM at its usual speed; times
# are reported at this speed (see _at_ref)
CALIB_REF_S = 0.025


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DIMLIFT_THREADS"):
        env[var] = str(THREADS)
    # string hashing decides dict/set order and with it the allocation pattern:
    # with random seeds a child's page faults swing between ~0.24M and ~0.5M
    # and its wall time by ~20%; one fixed seed makes children repeat
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_WORK"] = WORK
    return env


def _run(cmd: list[str], capture_stderr: bool = False):
    """Start a child, time it to its ``ready`` line, wait for it to end."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
        text=True,
    )
    try:
        if capture_stderr:
            # -X importtime writes to stderr before ``ready``: read both at once
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            ready_s = None
        else:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - started
            rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            out = first + rest
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {out[-2000:]!r}")
    return ready_s, lines, err


def _at_ref(seconds: float, calib_s: float) -> float:
    """Seconds at the reference speed: the host's speed drifts by up to 1.5x,
    and the calibration kernel timed alongside tracks it."""
    return seconds * CALIB_REF_S / calib_s


def _check_list_s(child: dict) -> float:
    """A child's check-list time at the reference speed: the calibrations
    between its checks give the child's mean speed."""
    return _at_ref(child["wall_s"], statistics.mean(child["calib_s"]))


def probe() -> tuple[float, float]:
    """Set-up seconds of a bare child, as measured and at the reference speed."""
    ready_s, lines, _ = _run([sys.executable, CHILD, "--probe"])
    return ready_s, _at_ref(ready_s, json.loads(lines[-1])["calib_s"])


def import_profile() -> dict:
    """Import seconds from ``-X importtime``: the total, and for numpy and scipy
    the cumulative time of their imports that no numpy or scipy import caused.
    That includes whatever they pull in: it is the time a lazy import would
    save."""
    _, _, err = _run([sys.executable, "-X", "importtime", CHILD, "--probe"], capture_stderr=True)
    rows = []  # (depth, top-level package, self us, cumulative us), children before parents
    for line in err.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip().split(".")[0], int(parts[0]), int(parts[1])))
    total = {"import.total_s": sum(r[2] for r in rows) / 1e6, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    ancestors = []
    for depth, top, _, cumulative in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top in ("scipy", "numpy") and all(a[1] not in ("scipy", "numpy") for a in ancestors):
            total[f"import.{top}_s"] += cumulative / 1e6
        ancestors.append((depth, top))
    return total


def workload_child(workload: str, seed: int, trace: int) -> tuple[tuple[float, float], dict]:
    ready_s, lines, _ = _run(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    )
    res = json.loads(lines[-1])
    return (ready_s, _at_ref(ready_s, res["ready_calib_s"])), res


def _outcomes(res: dict) -> list:
    return [(name, outcome) for name, outcome, _ in res["checks"]]


def _summary(children: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the children of one run.

    Children of a run get the same inputs, so they must agree exactly in
    outcomes and points; a wrong answer anywhere makes the run incorrect.
    """
    attempted = sum(len(c["checks"]) for c in children)
    failed = sum(1 for c in children for _, outcome, _ in c["checks"] if outcome != "pass")
    wrong = any(outcome == "wrong" for c in children for _, outcome, _ in c["checks"])
    agree = all(_outcomes(c) == _outcomes(children[0]) and c["points"] == children[0]["points"] for c in children)
    if not agree:
        print("# children of one run disagree in outcomes or points", flush=True)
    for name, outcome, detail in children[0]["checks"]:
        if outcome != "pass":
            print(f"# {outcome}: {name}: {detail}", flush=True)
    return (not wrong) and agree, attempted, failed


def _metrics(values: dict, kind: str) -> dict:
    """The BENCHMARK.json metrics of one kind ("end_to_end" or "per_layer")."""
    with open(SPEC) as f:
        listed = json.load(f)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    probe()  # warm the bytecode and page caches; not measured
    setup, children, costs = [], [], []
    while True:
        t0 = time.perf_counter()
        ready, res = workload_child(workload, seed, 0)
        setup.append(ready)
        children.append(res)
        setup.extend(probe() for _ in range(PROBES_PER_CHILD))
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(costs) > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(probe())
    correct, attempted, failed = _summary(children)
    walls = [_check_list_s(c) for c in children]
    print(
        f"# {workload} seed={seed}: {len(children)} children, wall_s {walls}"
        f" (as measured {[c['wall_s'] for c in children]}), setup_s n={len(setup)}"
        f" {statistics.median(s[1] for s in setup)} (as measured {statistics.median(s[0] for s in setup)})",
        flush=True,
    )
    values = {
        "setup_s": statistics.median(s[1] for s in setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "points_evaluated": children[0]["points"],
        "passed_frac": 1.0 - failed / attempted,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": _metrics(values, "end_to_end")}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    probe()
    imports = [import_profile() for _ in range(IMPORTTIME_PROBES)]
    plain, traced, costs = [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(workload_child(workload, seed, 0)[1])
        traced.append(workload_child(workload, seed, 1)[1])
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(costs) > seconds:
            break
    correct, attempted, failed = _summary(plain + traced)
    values = {name: statistics.median(p[name] for p in imports) for name in imports[0]}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(c["layers"][name] for c in traced)
    plain_wall = statistics.median(_check_list_s(c) for c in plain)
    traced_wall = statistics.median(_check_list_s(c) for c in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    print(f"# {workload} seed={seed}: {len(traced)} traced / untraced pairs, wall_s {traced_wall} / {plain_wall}", flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": _metrics(values, "per_layer")}


def main(argv=None) -> int:
    with open(SPEC) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dimlift", "__init__.py")):
        print(f"perfbench: no dimlift sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        run = per_layer if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
