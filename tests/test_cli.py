"""Command-line front end: exit codes, output files, and reproducibility."""

import argparse
import csv
import importlib.metadata
import importlib.util
import json
import math
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

def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/cli_golden.py records the CLI bytes that a refactor must keep
GOLDEN = _load(REPO / "tools" / "cli_golden.py")


def _run(tmp, argv):
    return main(argv + ["--out", "run", "--threads", "2"]), tmp / "run"


@pytest.mark.parametrize("name", sorted(GOLDEN.FAST_ARGS))
def test_subcommand_writes_three_files_with_the_summary_schema(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _ = _run(tmp_path, GOLDEN.FAST_ARGS[name])
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
        for name, argv in GOLDEN.FAST_ARGS.items():
            assert main(argv + ["--out", "run", "--threads", str(threads)]) == 0
            payloads[label, name] = ((d / "run.csv").read_bytes(), (d / "run.json").read_bytes())
            (d / "run.csv").unlink()
            (d / "run.json").unlink()
    for name in GOLDEN.FAST_ARGS:
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
        ["mcf", "--which", "ms", "--d", "3", "--r-grid", "1e-120:2e-120:2"],
        ["mcf", "--which", "ms", "--d", "2", "--r-grid", "1e-200:2e-200:2"],
        ["mcf", "--which", "ms", "--d", "2", "--r-grid", "1e160:2e160:2"],
        ["mcf", "--which", "ms", "--d", "2", "--delta", "4e-201", "--r-grid", "1e-200:2e-200:2"],
    ],
)
def test_ball_density_passes_at_radii_far_from_one(argv, tmp_path, monkeypatch):
    # the density and its reference are formed from ratios of lengths, so
    # r^N neither underflows to 0 nor overflows
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "pass"


@pytest.mark.parametrize("grid", ["1e-120:2e-120:2", "1e100:2e100:2"])
def test_two_phase_product_passes_at_radii_far_from_one(grid, tmp_path, monkeypatch):
    # each factor is divided by r^2 on its own, so neither r^4 nor the
    # product of the factors under- or overflows
    monkeypatch.chdir(tmp_path)
    assert main(["two-phase", "--kind", "elliptic", "--r-grid", grid, "--out", "run"]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        # the grid reaches past where the Gaussian underflows to 0: errors all 1.0
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


@pytest.mark.parametrize("where", ["values", "errors"])
@pytest.mark.parametrize("mode", ["plateau", "converging"])
def test_verdict_fails_on_two_successive_infinite_entries(mode, where):
    # the steps between them are inf - inf: NaN margins, and no warning
    values = [1.0, 1.0, 1.0]
    errs = [1e-9, 1e-10, 1e-11]
    (values if where == "values" else errs)[1:] = [math.inf, math.inf]
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
    (["pushforward", "--t", "-1"], "need t > 0, got t=-1.0"),
    # dimension 0 is refused by the --d it came from: no weight, ball density,
    # heat kernel or bump
    (["two-phase", "--kind", "parabolic", "--d", "0"], "need d >= 1, got d=0"),
    (["harmonic-map", "--which", "struwe", "--map", "circle", "--d", "0"], "need d >= 1, got d=0"),
    (["mcf", "--which", "huisken", "--d", "0"], "need d >= 1, got d=0"),
    (["mcf", "--which", "ms", "--d", "0"], "need d >= 1, got d=0"),
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
    # r^2 overflows, and the energy mean underflows
    (["harmonic-map", "--which", "phi", "--r-grid", "1e160:2e160:2"], "hm_phi at r = 1e+160 is out of floating-point range"),
    # a lift of 0 steps
    (["two-phase", "--kind", "lifted", "--n", "0,5"], "need d >= 1 and n >= 1, got d=1, n=0"),
    # the ball domain's --t is its tau, and the refusal names the value
    (["pushforward", "--domain", "ball", "--t", "-1"], "need tau > 0, got tau=-1.0"),
    # re_z<k> needs a degree k of digits; anything else is an unknown field
    (["frequency", "--elliptic", "--field", "re_zx"], "unknown elliptic field 're_zx'"),
    (["frequency", "--elliptic", "--field", "re_z"], "unknown elliptic field 're_z'"),
]


@pytest.mark.parametrize("argv, reason", _DOMAIN_ERRORS, ids=[f"argv{i}" for i in range(len(_DOMAIN_ERRORS))])
def test_domain_errors_exit_one(argv, reason, tmp_path, monkeypatch, capsys, recwarn):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "err"]) == 1
    assert f"error: {reason}" in capsys.readouterr().err
    # pytest holds warnings back from stderr, where a user would see them
    # above the error line; recwarn holds them instead
    assert [f"{w.category.__name__}: {w.message}" for w in recwarn] == []
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
        # a Unicode digit that int() does not read
        pytest.param("²", [], "DIMLIFT_THREADS must be a positive integer", id="superscript-two"),
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


# the benchmark's cli-lowdim cases at --t 1.0, and the elliptic, Monte Carlo,
# graph and lifted-surface branches they leave out
_LOWDIM_CASES = [["1.0" if a == "T" else a for a in argv] for argv in GOLDEN.LOWDIM_ARGS] + [
    ["frequency", "--elliptic", "--field", "re_z3"],
    ["pushforward", "--domain", "ball", "--samples", "20000"],
    ["mcf", "--which", "huisken", "--surface", "tilted", "--d", "2"],
    ["lift-demo", "--which", "mcf", "--field", "tilted", "--d", "2"],
    ["lift-demo", "--which", "mcf", "--field", "plane"],
]


# sha256 of each case's CSV and summary JSON, as tools/cli_golden.py hashes
# them, recorded under numpy 2.4.6.  A change that moves these bytes on
# purpose updates this table and lists every moved value in CHANGES.md
# (tools/cli_golden.py diff gives them).
_LOWDIM_SHA256 = {
    "gn-limit --d 1": (
        "560b7e2f9964613f90c20661e8c265db43dfb9d9bfca5fc564515b52f9d77ed0",
        "06862a8f781555a30f82168941686964111695a0fdee50e6032b471ae11b3a91",
    ),
    "gn-limit --d 2": (
        "b290a0f4658de05937252cf8772884f5880169d690964aa26f0a8870d10b35d3",
        "50a3e79057b0f60ecf8b1020b515e87ee3f7bb9646d3b7f2e0c3f082620e297e",
    ),
    "frequency --parabolic --field x1sq --d 1": (
        "fe3a1a94550016892efc1c77a142b57d912829016c8f3b5d04d91dec1e32c4a1",
        "0826ab5125cfaba856e83a9d0fe3c6785eab289fe40b1ee0a239d918fd960c5b",
    ),
    "frequency --parabolic --field x1cube --d 2": (
        "65514cbf2ea74b6473c54ccd200ba476aa1e0a443ce67ad1e8156e9918806064",
        "011c0d65897676b12e7a8627c3855b786978a9f2720bae7d44c6513cb48fd83f",
    ),
    "frequency --parabolic --field hk --d 2": (
        "cb8ee6c7dad0fdd01e3bd010b54a224e1d5ce18eb4f08beb79105ebe2ff2212b",
        "83918d6b98ef4d291bbe0371962b84bc3822589b708dff70e54fe80b7e395f27",
    ),
    "carleman --parabolic --d 1": (
        "c368377ff056fd1311f984d24fd6d2f249f337b960cd18ede6953fa645254b6a",
        "cad2a15306c4330745d2c45d3f1bd85883df7e847d98acca7472bae3cae1bad4",
    ),
    "two-phase --kind parabolic --pair half --d 1": (
        "cd7e8b4939ed4613d674795df029d2666a4e0fac19c2b69a30a52e4cdc1b6f3b",
        "8b8ff52b0c842bb14c246ec36dcfb7489e706c57d8a5816e4695126abd7e3fe4",
    ),
    "two-phase --kind parabolic --pair power --d 2": (
        "314747b299f596973c5c15e85e56ec3e2d4d98c7300f14161c932cc0a83ba90a",
        "2a296c0e725fffbf5ec6e3af1b19fbd693b30a4933a78944baa7fa8b47201e70",
    ),
    "two-phase --kind lifted --pair half --d 1 --t 1.0": (
        "4f3d778105dab3caa39652738fa3d6b50e783e2014f3e3c24bb737ae2b8412f5",
        "0f796757a62342a74cca6204ed16ecacae7fa4b444afa89aafd54f216d7fdfcc",
    ),
    "two-phase --kind lifted --pair power --d 2 --t 1.0": (
        "0381903d00975275852f375056a489ff3cc91991f095d872ce70f40ff3fac786",
        "13e67a2e08e183a7f27d58a26d1286d791af19a8a219033f8460309b83dd7e1a",
    ),
    "harmonic-map --which struwe --map circle --d 2": (
        "b43982365126af32dee110efb51a5536ac0f4ec6eb5ccbfaa3a74ab26819c429",
        "bc5a4069db86059609b7d6d3cc511ec274548163c0ae3ec85100944e26bf8a0d",
    ),
    "harmonic-map --which lifted --map circle --d 2 --t 1.0": (
        "bc29f5738afd762f3b168d38001015be720abd7e8e27dba044f556125ea7482a",
        "62301986d39c48a52f5f2c75a0f194e26875557bcda995c610ab2c2322be7218",
    ),
    "mcf --which huisken --surface const --d 2": (
        "d34f4c5db928eafd4a9bab595c808ab0fb6867d33c603708c2a6732709c7dcc2",
        "c0f3327b51606067997d16e19d77153e9317d48685cfa69aa2b6ab6594c1cfbe",
    ),
    "mcf --which lifted --d 1 --t 1.0": (
        "ee53a0bd4e34ca1fee1a067a52c72b16d08e9f426b35eb2a06d4b212e36b7889",
        "729cbd9b26da4880f39c5993040fea65fe28b003b4bc62a0191185f04da29e5b",
    ),
    "mcf --which lifted --d 2": (
        "f96ae3037ba332ef29451e2fa197c09feda894e76186a6c150d365edcd0d5aad",
        "d1d4960009ba45c6444687a4e3ac34c824a980ca0aa1e0e2e11a1848d06f0076",
    ),
    "lift-demo --which frequency --field x1cube --d 2 --t 1.0": (
        "4b1b7b9bac4bdddff6892bd4885eb688d93691d66b910c13724f6069151ba479",
        "0712d431bfff02305c52e9dfc18698c667150742c85befc3a266042020f9fc8f",
    ),
    "lift-demo --which two-phase --field half --d 2 --t 1.0": (
        "bbe78d5aded077a400723749916cd9faa8ea1e3ce15a11d81a00f20b3e7e5b5e",
        "23993a596609cba3ff4f1d82cced8d44ac6e474cba368adc1053f558fd8770aa",
    ),
    "lift-demo --which harmonic-map --field circle --d 1 --t 1.0": (
        "d57a448f24731f7eca76a06258007fb18ad26f7976d96b1330c363129c5cec63",
        "b2e33f99f74b46fd7576860cdf1c267585c10090f8ae1cfdf59eebd4f3da61b8",
    ),
    "lift-demo --which mcf --field const --d 1 --t 1.0": (
        "5e5a51fd5adf3e73f323b9787cf592dd4a97cd343001b63ed99fa9b9c3bf42cf",
        "d0f6c9d842a8875dba06dca9ac40039750daac60a66fa8946d423491a658af11",
    ),
    "frequency --elliptic --field re_z3": (
        "fd2abb2cb686a25211b4cf36052a5ba4bd031a319e689b929bb683001c323610",
        "197394e8b89f5a135e8e74670b719d00234d93cbb6f5b5240ae2d7678f1e779d",
    ),
    "pushforward --domain ball --samples 20000": (
        "5d6db9594fbb5c7b437e2b4158f3669090ab9e7d78891f3dc76c8dbb2730f0f3",
        "7fc640af679491e7ab574f3c8d91fc104e1b14230da6b688e83b145701ab80e1",
    ),
    "mcf --which huisken --surface tilted --d 2": (
        "9eee0090fb0d492a95590a7c3b3bf50e14111e4d9858ee24aafb56ccf81de8aa",
        "91e8d88e7fe10bdebcf0de9d04f2e863e79b93f206dc4ab6a6a6418b9c2c5f27",
    ),
    "lift-demo --which mcf --field tilted --d 2": (
        "ec0627b746003d07ab7144e72f2966317c3fe707a82b46073bb24ae02a31d6ea",
        "5dc08d51a87a585ec7c60b756bd92307028c667e4f4b22f5c7e3a50e09d779cf",
    ),
    "lift-demo --which mcf --field plane": (
        "b5be7c74f610204eac1cc280750de594fd9ea0dc70ce3aee83add5b0ad2cd527",
        "4e97ef0dea94985257d640936add4a74f31e6a3d61db66a53c917ac17edd941e",
    ),
}


@pytest.mark.parametrize("argv", _LOWDIM_CASES, ids=" ".join)
def test_low_dimensional_cases_pass(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["status"] == "pass"
    hashes = tuple(GOLDEN._sha((tmp_path / f"run.{ext}").read_text()) for ext in ("csv", "json"))
    assert hashes == _LOWDIM_SHA256[" ".join(argv)]


@pytest.mark.parametrize("argv", [["no-such-command"], ["gn-limit", "--bogus"], []])
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_the_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # a usage error and --help leave the one parser as they found it: a
    # cli-lowdim case run after them, twice, gives its pinned bytes each time
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gn-limit", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    argv = ["gn-limit", "--d", "1"]
    for _ in range(2):
        assert main(argv + ["--out", "run"]) == 0
        hashes = tuple(GOLDEN._sha((tmp_path / f"run.{ext}").read_text()) for ext in ("csv", "json"))
        assert hashes == _LOWDIM_SHA256[" ".join(argv)]


def test_golden_record_reaches_every_choice_and_catalog_field():
    # without running the CLI, the golden record's cases reach every branch
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


def test_golden_diff_ends_with_the_largest_value_move(tmp_path, capsys):
    # an error column and a value that is zero up to rounding move by more
    # than the value cell, and neither is named
    def record(path, value, error, odd):
        csv_text = f"phi,quad_value,abs_error\none,{value},{error}\nx1,{odd},0.0\n"
        case = {"argv": ["pushforward"], "rc": 0, "csv": csv_text, "csv_sha256": GOLDEN._sha(csv_text)}
        path.write_text(json.dumps({"cases": {"mc": case}}))
        return str(path)

    old = record(tmp_path / "old.json", 1.0, 1e-16, -5e-17)
    new = record(tmp_path / "new.json", 1.0000000000001, 1e-13, -7e-17)
    assert GOLDEN.diff(old, new) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "largest value move: relative 1e-13 in mc: csv row 0 quad_value: 1.0 -> 1.0000000000001"
    assert GOLDEN.diff(old, old) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["0 of 1 cases differ", "largest value move: none"]


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
