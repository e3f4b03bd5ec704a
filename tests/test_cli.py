"""Command-line front end: exit codes, output files, and reproducibility."""

import argparse
import csv
import importlib.metadata
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimlift.integrate
from dimlift import cli
from dimlift.cli import _verdict, main

REPO = Path(__file__).resolve().parents[1]

# one fast invocation per subcommand
FAST_ARGS = {
    "gn-limit": ["gn-limit"],
    "pushforward": ["pushforward", "--samples", "20000"],
    "frequency": ["frequency", "--elliptic", "--field", "x1"],
    "carleman": ["carleman", "--elliptic", "--gamma", "0.7"],
    "two-phase": ["two-phase"],
    "harmonic-map": ["harmonic-map"],
    "mcf": ["mcf"],
    "lift-demo": ["lift-demo"],
}


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/cli_golden.py records the CLI bytes that a refactor must keep
GOLDEN = _load(REPO / "tools" / "cli_golden.py")


def _run(tmp, argv):
    return main(argv + ["--out", "run", "--threads", "2"]), tmp / "run"


@pytest.mark.parametrize("name", sorted(FAST_ARGS))
def test_subcommand_writes_three_files_with_the_summary_schema(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _ = _run(tmp_path, FAST_ARGS[name])
    assert rc == 0
    for ext in (".csv", ".json", ".manifest.json"):
        assert (tmp_path / f"run{ext}").exists()
    summary = json.loads((tmp_path / "run.json").read_text())
    assert sorted(summary) == ["manifest", "max_error", "status", "worst_violation"]
    assert summary["status"] == "pass"
    manifest = summary["manifest"]
    assert sorted(manifest) == ["outputs", "parameters", "seed", "subcommand"]
    assert manifest["subcommand"] == name
    assert manifest["outputs"] == ["run.csv", "run.json"]
    assert "out" not in manifest["parameters"] and "threads" not in manifest["parameters"]
    full = json.loads((tmp_path / "run.manifest.json").read_text())
    assert full["threads"] == 2
    assert full["wall_time"] >= 0.0
    for key in ("subcommand", "parameters", "seed", "outputs"):
        assert full[key] == manifest[key]


def test_reruns_and_thread_counts_are_byte_identical(tmp_path, monkeypatch):
    # counts are clamped to the CPU count; with 4 CPUs, --threads 4 runs 4 workers
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    payloads = {}
    # at the default block size the N=2 sums of level 96 and up already span
    # several blocks; at 1000 points the N=2 and N=3 sums span many blocks,
    # run on the pool
    runs = [("a", 4, None), ("b", 4, None), ("c", 1, None), ("small4", 4, 1000), ("small1", 1, 1000)]
    for label, threads, budget in runs:
        if budget is not None:
            monkeypatch.setattr(dimlift.integrate, "_CHUNK_POINTS", budget)
        d = tmp_path / label
        d.mkdir()
        monkeypatch.chdir(d)
        for name, argv in FAST_ARGS.items():
            assert main(argv + ["--out", "run", "--threads", str(threads)]) == 0
            payloads[label, name] = ((d / "run.csv").read_bytes(), (d / "run.json").read_bytes())
            (d / "run.csv").unlink()
            (d / "run.json").unlink()
    for name in FAST_ARGS:
        assert payloads["a", name] == payloads["b", name]
        assert payloads["a", name] == payloads["c", name]
        assert payloads["small4", name] == payloads["small1", name]


def test_failing_check_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # reversing the step counts makes the error sequence increase
    rc = main(["gn-limit", "--n", "64,8", "--out", "bad"])
    assert rc == 2
    summary = json.loads((tmp_path / "bad.json").read_text())
    assert summary["status"] == "fail"
    assert summary["worst_violation"] > 0.0


@pytest.mark.parametrize(
    "argv, rc",
    [
        # a repeated step count gives errors that do not fall: the lifted
        # value is not seen converging, and the check fails
        (["lift-demo", "--which", "two-phase", "--field", "power", "--n", "10,10"], 2),
        (["two-phase", "--kind", "lifted", "--pair", "power", "--n", "10,10"], 2),
        # unless every error is already below the tolerance
        (["mcf", "--which", "lifted", "--n", "10,10"], 0),
    ],
)
def test_lifted_errors_must_fall_or_stay_below_tolerance(argv, rc, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == rc
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["status"] == ("pass" if rc == 0 else "fail")


@pytest.mark.parametrize(
    "argv",
    [
        # the Gaussian underflows to 0 far out, so every relative error is NaN
        ["--grid=-60:60:5"],
        # the grid reaches past every finite weight's support: errors all 1.0
        ["--grid=-40:40:5"],
        # one step count: the error is not seen to fall
        ["--n", "64"],
    ],
)
def test_gn_limit_fails_on_errors_that_are_nan_or_do_not_fall(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gn-limit", *argv, "--out", "run"]) == 2
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "fail"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", ["values", "errors"])
@pytest.mark.parametrize("mode", ["plateau", "converging"])
def test_verdict_fails_on_a_non_finite_entry(mode, where, bad):
    values = [1.0, 1.0, 1.0]
    errs = [1e-9, 1e-10, 1e-11]
    assert _verdict(mode, values, errs, 1e-8)[0]
    (values if where == "values" else errs)[1] = bad
    assert not _verdict(mode, values, errs, 1e-8)[0]


# each argv with the start of the reason it must print
_DOMAIN_ERRORS = [
    (["mcf", "--which", "ms", "--surface", "const"], "for the ball density use --surface plane"),
    (["two-phase", "--kind", "elliptic", "--pair", "power"], "the elliptic product is cataloged"),
    (["frequency", "--elliptic", "--r-grid", "1:2"], "grid must look like a:b:k"),
    (["frequency", "--parabolic", "--field", "nope"], "unknown parabolic field 'nope'"),
    (["harmonic-map", "--which", "lifted", "--map", "equator", "--N", "2"], "equator map needs N >= 3"),
    # empty comma lists
    (["carleman", "--elliptic", "--gamma", ","], "--gamma needs a comma list"),
    (["gn-limit", "--n", ","], "--n needs a comma list"),
    (["lift-demo", "--n", ","], "--n needs a comma list"),
    # grids must run from a to a finite b > a
    (["frequency", "--elliptic", "--r-grid", "2:0.5:8"], "grid needs finite endpoints with b > a"),
    (["frequency", "--parabolic", "--field", "hk", "--t-grid", "4:0.25:16"], "grid needs finite endpoints"),
    (["gn-limit", "--grid", "1:1e400:5"], "grid needs finite endpoints with b > a"),
    (["pushforward", "--t", "-1"], "need radius > 0"),
    # dimension 0 has no unit sphere
    (["two-phase", "--kind", "parabolic", "--d", "0"], "the unit sphere S^(N-1) needs N >= 1"),
    (["harmonic-map", "--which", "struwe", "--map", "circle", "--d", "0"], "the unit sphere S^(N-1) needs N >= 1"),
    (["mcf", "--which", "huisken", "--d", "0"], "the unit sphere S^(N-1) needs N >= 1"),
    (["mcf", "--which", "ms", "--d", "0"], "the unit sphere S^(N-1) needs N >= 1"),
    # and no heat kernel, bump or weight either
    (["frequency", "--parabolic", "--field", "hk", "--d", "0"], "need d >= 1, got d=0"),
    (["carleman", "--parabolic", "--d", "0"], "need d >= 1, got d=0"),
    (["gn-limit", "--d", "0"], "need d >= 1, got d=0"),
    # grids of one point and geometric grids from 0
    (["frequency", "--elliptic", "--r-grid", "1:2:1"], "grid needs at least 2 points"),
    (["frequency", "--parabolic", "--t-grid", "0:1:4"], "geometric grid needs positive endpoints"),
    # names outside a catalog
    (["pushforward", "--phi", "x1,nope"], "unknown phi 'nope'"),
    (["frequency", "--elliptic", "--field", "nope"], "unknown elliptic field 'nope'"),
    (["harmonic-map", "--which", "phi", "--map", "circle"], "the ball-energy density is cataloged"),
    (["lift-demo", "--which", "mcf", "--field", "x1"], "--which mcf accepts --field from"),
    # offsets: on the plane only, and inside the smallest radius
    (["mcf", "--which", "ms", "--surface", "tilted", "--delta", "0.1"], "offset reference values are cataloged"),
    (["mcf", "--which", "ms", "--delta", "0.8"], "--delta must stay below the smallest grid radius"),
    # a tilted plane needs one slope per coordinate, and the equator map a
    # domain of 3 or more dimensions
    (["mcf", "--which", "huisken", "--surface", "tilted", "--d", "2", "--a", "0.4"], "--a needs at least 2 entries"),
    (["lift-demo", "--which", "harmonic-map", "--field", "equator", "--d", "2"], "the equator map needs --d >= 3"),
]


@pytest.mark.parametrize("argv, reason", _DOMAIN_ERRORS, ids=[f"argv{i}" for i in range(len(_DOMAIN_ERRORS))])
def test_domain_errors_exit_one(argv, reason, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "err"]) == 1
    assert f"error: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "err.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["carleman", "--elliptic", "--gamma", "inf"], "--gamma"),
        (["carleman", "--elliptic", "--gamma", "0.7,nan"], "--gamma"),
        (["carleman", "--parabolic", "--alpha", "inf"], "--alpha"),
        (["gn-limit", "--t", "inf"], "--t"),
        (["lift-demo", "--t", "1e400"], "--t"),
        (["mcf", "--which", "ms", "--delta", "nan"], "--delta"),
        (["mcf", "--which", "ms", "--surface", "tilted", "--a", "0.4,-inf"], "--a"),
        # the value and the reference would both be 0, and the check would pass
        (["mcf", "--which", "huisken", "--surface", "const", "--c", "inf"], "--c"),
    ],
)
def test_non_finite_floats_exit_one_and_name_the_flag(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "err"]) == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "env, argv, reason",
    [
        pytest.param("abc", [], "DIMLIFT_THREADS must be a positive integer", id="abc"),
        pytest.param("0", [], "DIMLIFT_THREADS must be a positive integer", id="0"),
        pytest.param("-2", [], "DIMLIFT_THREADS must be a positive integer", id="-2"),
        pytest.param(None, ["--threads", "0"], "--threads must be a positive integer", id="threads=0"),
        pytest.param(None, ["--threads", "-3"], "--threads must be a positive integer", id="threads=-3"),
    ],
)
def test_bad_thread_environment_exits_one(env, argv, reason, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("DIMLIFT_THREADS", raising=False)
    else:
        monkeypatch.setenv("DIMLIFT_THREADS", env)
    assert main(["gn-limit", "--out", "err"] + argv) == 1
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "err.json").exists()
    assert not (tmp_path / "err.manifest.json").exists()


def test_seed_beyond_64_bits_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["pushforward", "--seed", str(2**64), "--out", "err"]) == 1
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "err.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # (|S^2| / 4)^2 = pi^2 in R^3
        ["two-phase", "--kind", "elliptic", "--N", "3"],
        # n*d = 320 at the largest default n
        ["mcf", "--which", "lifted", "--d", "2"],
        # N >= 5 through the reduced angular rules of the declared fields
        ["harmonic-map", "--which", "phi", "--N", "5"],
        ["frequency", "--elliptic", "--field", "x1x2", "--N", "10"],
        ["carleman", "--elliptic", "--N", "6"],
    ],
)
def test_checks_beyond_the_default_dimension_pass(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "pass"


# the benchmark's cli-lowdim cases at --t 1.0, and the elliptic, Monte Carlo
# and graph branches they leave out
_LOWDIM_CASES = [["1.0" if a == "T" else a for a in argv] for argv in GOLDEN.LOWDIM_ARGS] + [
    ["frequency", "--elliptic", "--field", "re_z3"],
    ["pushforward", "--domain", "ball", "--samples", "20000"],
    ["mcf", "--which", "huisken", "--surface", "tilted", "--d", "2"],
]


@pytest.mark.parametrize("argv", _LOWDIM_CASES, ids=" ".join)
def test_low_dimensional_cases_pass(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "pass"


@pytest.mark.parametrize("argv", [["no-such-command"], ["gn-limit", "--bogus"], []])
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_golden_record_reaches_every_choice_and_catalog_field():
    # without running the CLI, the golden record's cases reach every branch
    assert GOLDEN.FAST_ARGS == FAST_ARGS
    # the benchmark's cli-lowdim cases, with each drawn --t read as "T"
    lowdim = _load(REPO / "perfbench" / "workloads.py")._cli_cases(random.Random(0))
    for argv in lowdim:
        argv[:] = ["T" if key == "--t" else a for key, a in zip([None, *argv], argv)]
    assert GOLDEN.LOWDIM_ARGS == lowdim

    parser = cli._build_parser()
    parsed = [parser.parse_args(argv) for argv in GOLDEN.cases("1.0").values()]
    reached = {(a.subcommand, key, value) for a in parsed for key, value in vars(a).items()}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {
        (name, action.dest, choice)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for choice in action.choices or ()
    }
    assert choices - reached == set()

    # (lift-demo, family, field) and (frequency, parabolic, field)
    fields = {
        (a.subcommand, a.which if a.subcommand == "lift-demo" else a.parabolic, a.field)
        for a in parsed
        if "field" in a
    }
    catalog = {("lift-demo", which, f) for which, names in cli._DEMO_FIELDS.items() for f in names}
    catalog |= {("frequency", True, f) for f in cli._CALORIC_DEGREES}
    catalog |= {("frequency", False, f) for f in cli._HARMONIC_DEGREES}
    assert catalog - fields == set()


def test_csv_numbers_round_trip_and_booleans_are_lowercase(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["frequency", "--elliptic", "--field", "x1", "--out", "freq"]) == 0
    with open(tmp_path / "freq.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["param", "H", "D", "L"]
    radii = np.array([float(r[0]) for r in rows[1:]])
    assert np.array_equal(radii, np.linspace(0.5, 2.0, 8))
    for row in rows[1:]:
        for cell in row:
            assert repr(float(cell)) == cell

    assert main(["carleman", "--elliptic", "--gamma", "0.7", "--out", "carl"]) == 0
    with open(tmp_path / "carl.csv", newline="") as f:
        crows = list(csv.reader(f))
    assert all(row[-1] in ("true", "false") for row in crows[1:])


def _declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["dimlift"]


def _check_gn_limit(cmd, out_dir, env=None):
    out_dir.mkdir()
    proc = subprocess.run(
        cmd + ["gn-limit", "--out", str(out_dir / "cli")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "cli.json").exists()
    assert "gn-limit: pass" in proc.stdout


def test_console_script_is_installed(tmp_path):
    # The entry point pyproject.toml declares, launched the way a console-script
    # wrapper launches it, from this checkout's sources; no install needed.
    target = _declared_entry_point()
    module, attr = target.split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_gn_limit([sys.executable, "-c", launcher], tmp_path / "source", env)

    # Where the package is installed, the wrapper on PATH and its metadata agree.
    exe = shutil.which("dimlift")
    if exe:
        _check_gn_limit([exe], tmp_path / "installed")
    try:
        dist = importlib.metadata.distribution("dimlift")
    except importlib.metadata.PackageNotFoundError:
        return
    scripts = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert scripts.get("dimlift") == target


def test_importing_the_package_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = "import sys, dimlift, dimlift.cli; print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
