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
        "cba34e531523759b31a3ca6c953dfd3257d4f740dbd2a6fe91d901de32ceda59",
        "11e02f9a3b60d631ea25450d7a91714ca35c7d16b11638ffacbfa95bec54dc4f",
    ),
    "frequency --parabolic --field x1cube --d 2": (
        "7b410631f7341b08eca7f6a31cc72d70d069a11ee30cb8aba73c08bae18da06a",
        "bde0b6d139832da6cb8fe04bc7120b466fdcc28d2b6070e2e3448dadfcc7c2ce",
    ),
    "frequency --parabolic --field hk --d 2": (
        "d3bbd2d9c9e7045a692496a1e37851127a95547417a70a855d1d6dce616f87fc",
        "83918d6b98ef4d291bbe0371962b84bc3822589b708dff70e54fe80b7e395f27",
    ),
    "carleman --parabolic --d 1": (
        "b40a2ebcf944d17186bc53b6a549faf68c1183be9d1594ec2d435d84591372ce",
        "cad2a15306c4330745d2c45d3f1bd85883df7e847d98acca7472bae3cae1bad4",
    ),
    "two-phase --kind parabolic --pair half --d 1": (
        "87c846e3f859a438257ed8f8f504750d18cbd8648cc4de3767f79a56caa00dd4",
        "b682f48f21c6fa85420e854e0357bd3dd32d0669178eb8ba442eceb504b28c25",
    ),
    "two-phase --kind parabolic --pair power --d 2": (
        "3560dc536307e84d108133610233884c2f6f1e2511b138137f61d83ad43fe75a",
        "3286195982e80c126061b52a2f0f4754fc09fb4fe937967bda5afa6c286265ce",
    ),
    "two-phase --kind lifted --pair half --d 1 --t 1.0": (
        "03bc275bd82b2cfdf2d7e1a116892d38d4eaed38a621b82903273efe90e72197",
        "a807dcc21d140afee149ecc1e0d1ddf2c97eac13bb756050a55930eea464bb5f",
    ),
    "two-phase --kind lifted --pair power --d 2 --t 1.0": (
        "62053cbf85e5f4abb369648c6b44441fb72309717c81ea614d40397d25df2257",
        "d6c4adc7aecea86bf747883f7812c38f9f29f22bcee966690d37b1a2d8cd026b",
    ),
    "harmonic-map --which struwe --map circle --d 2": (
        "538952e1042866fa16dfa6bfdfef2e82d4cb26cd3f952ad29466f7d37d9c99ca",
        "19f4941a2b1ce9769f4678dd30a80690cd98fd0deb1bcf57e3a2ebed253507de",
    ),
    "harmonic-map --which lifted --map circle --d 2 --t 1.0": (
        "d8c2a1ae91fb4a8c785f3d1c9df8fb9f02bb56a5ded1f99bb6fec98cdcf1ab87",
        "08463f7ce5e2e4f4f29cdbf15031d8d065649bde0f66aa4bb7d22cb581b77289",
    ),
    "mcf --which huisken --surface const --d 2": (
        "aff65f8c36107abacdef697123abd02a613b6805c21a5256b8b9f70a11bb1cd6",
        "c0f3327b51606067997d16e19d77153e9317d48685cfa69aa2b6ab6594c1cfbe",
    ),
    "mcf --which lifted --d 1 --t 1.0": (
        "fe6d1a9f4bed79f20b62d007da5d6a0da6bd04598fa8054409d16f8b5d6f9fea",
        "fb586379e59d8f34d020192f3f99e3a821c3ba081b3a6060adf6763c401439a0",
    ),
    "mcf --which lifted --d 2": (
        "158c8569a7ae671f318d519cfd5e32da5b73040202ff2e79039a2f9cd4da17df",
        "5b985bcf5ab5bfba7be61ecc571c9c08dfe56c84c3e41ce79b5448603547fb86",
    ),
    "lift-demo --which frequency --field x1cube --d 2 --t 1.0": (
        "30f3aa6d198d8c02fa129907140e0b00769f58bf068bfe3cfb646e2cd9210448",
        "b3a5cc6589bef71f34b0e6d349df4ed0ed4d84bf50c59d8dff43dde8378d1493",
    ),
    "lift-demo --which two-phase --field half --d 2 --t 1.0": (
        "d3a27e53c21c8c8ebeff0cb3f5dd4de81c26a23ec543e7cab252bbe43dcae9d0",
        "bef94fbe5088c3bfc2e28756bcadd62c9a16647cfbab23e28d08bdf9a9a199a5",
    ),
    "lift-demo --which harmonic-map --field circle --d 1 --t 1.0": (
        "8b35ef082606a2d37899b5d16cf0e590dbe1c5b89beeb75b299705261a603919",
        "b8fff1f30c9c85fbb1503d033746d7f22a87f67cca3e861a0bd528263d081157",
    ),
    "lift-demo --which mcf --field const --d 1 --t 1.0": (
        "e2dada99b2e884d317832414f46a359ce119a10a0b59a86bb7494a8c37e2949f",
        "dc90a9a4998f102be6e3083ea495a5d8c34a6fd3af7a08ac1d8c43247be7fae1",
    ),
    "frequency --elliptic --field re_z3": (
        "b10aba728d82d5d82a7e181dae4222502b34eac7afde24690c691497445ba5fa",
        "b137d465f0e7f77d3c44c2f35755aa91e62553e22f5a8b4dc84715ec37e91f79",
    ),
    "pushforward --domain ball --samples 20000": (
        "01355bb891f0bb346fb96d31bd77f3ab9bad0577d5749e49ddfbb0c1cfe4ae39",
        "6920b57be0d3ae78a636fc39bf910a184bec79e72f23027e060a2ad05c6955ab",
    ),
    "mcf --which huisken --surface tilted --d 2": (
        "dde35a8e062fdfbbb364ad3316de8b425d67ee018600d4f45060490a2246659e",
        "5a1ffbae3161dcc51892d908e00e313e342604ed3ca87a88f1f57766747cce98",
    ),
    "lift-demo --which mcf --field tilted --d 2": (
        "aab696fd304a07815f7df13d1781d3c4ea2db1665e2fb4b73d8b46f0d037ce2c",
        "16237b706f0db57b1e6f1190f442ad0afe46fa8f5e6f78c5edcc47fa7399bef4",
    ),
    "lift-demo --which mcf --field plane": (
        "798d343b15fd57ea2621e682ebb3124d4b22c4797a95031452971682c64ce521",
        "675b3f122e3141340ac959beb730e270b5aa32cd0f9703e81e557fe9b2569052",
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
