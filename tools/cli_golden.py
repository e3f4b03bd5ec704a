"""Golden records of the CLI's output bytes, and a diff of two records.

    PYTHONPATH=src python tools/cli_golden.py record OUT.json [--threads N] [--t T] [--block POINTS]
    python tools/cli_golden.py diff OLD.json NEW.json

``record`` runs, in-process and in a temporary directory, the eight quick
cases of ``tests/test_cli.py`` (``FAST_ARGS``), the nineteen argv lists of
the benchmark's ``cli-lowdim`` workload, with every ``--t`` set to one fixed
value, two ``pushforward`` cases whose Monte Carlo runs in seven batches,
so that a record at two or more threads covers batches drawn on workers,
and one case for each handler branch, ``choices`` value and catalog field
the others miss (``BRANCH_ARGS``), failing checks included, with the odd
d = 3 of the finite weight and of the lifted MCF density.
For each case it writes the exit code, the sha256 of the CSV and of the
summary JSON, and both texts.  The manifest file is left out: it holds
the wall time and may differ between byte-identical runs.  ``--block`` sets
the polar-sum block size (points per block) for the run.

To record another checkout, put its ``src`` first on PYTHONPATH.

``diff`` lists every case whose exit code, CSV or summary differs.  For each
number that moved it prints the old and new value, the relative change and
the distance in units in the last place.  For a ``pushforward`` case it then
says whether any ``quad_value`` moved and gives the worst
``discrepancy_in_std_errors`` of the new record, so a moved Monte Carlo
stream reads as one line per case.  Its last line gives the largest relative
move among value cells, with its case and cell.  Error columns (a name with
"error" or "violation" in it) are left out there, and so is a value that is
zero up to rounding: at most 1e-12 of the largest magnitude of its column in
that case, as an odd moment's quadrature is.  It exits 0 when the records
match and 1 otherwise.  Only the standard library and dimlift are used.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile

# one fast invocation per subcommand; tests/test_cli.py runs these
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

# the argv lists of perfbench's cli-lowdim workload; "T" stands for the fixed --t
LOWDIM_ARGS = [
    ["gn-limit", "--d", "1"],
    ["gn-limit", "--d", "2"],
    ["frequency", "--parabolic", "--field", "x1sq", "--d", "1"],
    ["frequency", "--parabolic", "--field", "x1cube", "--d", "2"],
    ["frequency", "--parabolic", "--field", "hk", "--d", "2"],
    ["carleman", "--parabolic", "--d", "1"],
    ["two-phase", "--kind", "parabolic", "--pair", "half", "--d", "1"],
    ["two-phase", "--kind", "parabolic", "--pair", "power", "--d", "2"],
    ["two-phase", "--kind", "lifted", "--pair", "half", "--d", "1", "--t", "T"],
    ["two-phase", "--kind", "lifted", "--pair", "power", "--d", "2", "--t", "T"],
    ["harmonic-map", "--which", "struwe", "--map", "circle", "--d", "2"],
    ["harmonic-map", "--which", "lifted", "--map", "circle", "--d", "2", "--t", "T"],
    ["mcf", "--which", "huisken", "--surface", "const", "--d", "2"],
    ["mcf", "--which", "lifted", "--d", "1", "--t", "T"],
    ["mcf", "--which", "lifted", "--d", "2"],
    ["lift-demo", "--which", "frequency", "--field", "x1cube", "--d", "2", "--t", "T"],
    ["lift-demo", "--which", "two-phase", "--field", "half", "--d", "2", "--t", "T"],
    ["lift-demo", "--which", "harmonic-map", "--field", "circle", "--d", "1", "--t", "T"],
    ["lift-demo", "--which", "mcf", "--field", "const", "--d", "1", "--t", "T"],
]

# push-forward checks at N = 40 with 100,000 samples: seven Monte Carlo batches
MC_ARGS = [
    ["pushforward", "--domain", domain, "--d", "2", "--n", "20", "--samples", "100000"] for domain in ("sphere", "ball")
]


# every handler branch, choice and catalog field that the lists above leave
# out, checks that fail, and d = 3 for gn-limit and the lifted MCF density
BRANCH_ARGS = [
    ["frequency", "--elliptic", "--field", "x1x2", "--N", "3"],
    ["frequency", "--elliptic", "--field", "re_z3"],
    ["frequency", "--parabolic", "--field", "radial", "--d", "2"],
    ["frequency", "--parabolic", "--field", "x1"],
    ["two-phase", "--kind", "parabolic", "--pair", "power", "--power", "2"],
    ["two-phase", "--kind", "parabolic", "--pair", "half", "--d", "3"],
    ["two-phase", "--kind", "parabolic", "--pair", "power", "--power", "5", "--d", "2"],
    ["harmonic-map", "--which", "struwe", "--map", "equator", "--N", "3"],
    ["harmonic-map", "--which", "lifted", "--map", "equator", "--N", "3"],
    ["mcf", "--which", "ms", "--delta", "0.4"],
    ["mcf", "--which", "ms", "--surface", "tilted", "--d", "2"],
    ["mcf", "--which", "ms", "--d", "3", "--r-grid", "1e-120:2e-120:2"],
    ["two-phase", "--kind", "elliptic", "--r-grid", "1e-120:2e-120:2"],
    ["two-phase", "--kind", "elliptic", "--r-grid", "1e100:2e100:2"],
    ["mcf", "--which", "huisken", "--surface", "tilted", "--d", "2"],
    ["mcf", "--which", "lifted", "--surface", "tilted", "--d", "1"],
    ["mcf", "--which", "lifted", "--n", "10,10"],
    ["lift-demo", "--which", "harmonic-map", "--field", "equator", "--d", "3"],
    ["lift-demo", "--which", "mcf", "--field", "tilted", "--d", "2"],
    ["lift-demo", "--which", "two-phase", "--field", "power"],
    ["lift-demo", "--which", "frequency", "--field", "radial", "--d", "2"],
    ["lift-demo", "--which", "frequency", "--field", "x1"],
    ["lift-demo", "--which", "mcf", "--field", "plane"],
    ["carleman", "--elliptic"],
    ["gn-limit", "--n", "64,8"],
    ["gn-limit", "--d", "3"],
    ["mcf", "--which", "lifted", "--d", "3"],
    ["lift-demo", "--which", "two-phase", "--field", "power", "--n", "10,10"],
    ["two-phase", "--kind", "lifted", "--pair", "power", "--n", "10,10"],
]


def cases(t: str) -> dict[str, list[str]]:
    """Case name -> argv, in run order."""
    out = {f"fast {name}": argv for name, argv in FAST_ARGS.items()}
    for argv in LOWDIM_ARGS:
        argv = [t if a == "T" else a for a in argv]
        out["lowdim " + " ".join(argv)] = argv
    for argv in MC_ARGS:
        out["mc " + " ".join(argv)] = argv
    for argv in BRANCH_ARGS:
        out["branch " + " ".join(argv)] = argv
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(path: str, threads: int, t: str, block: int | None) -> None:
    import dimlift.cli
    import dimlift.integrate

    if block is not None:
        dimlift.integrate._CHUNK_POINTS = block
    result = {"threads": threads, "t": t, "block": block, "cases": {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv in cases(t).items():
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = dimlift.cli.main(argv + ["--out", "run", "--threads", str(threads)])
                entry = {"argv": argv, "rc": rc}
                for ext in ("csv", "json"):
                    if os.path.exists(f"run.{ext}"):
                        with open(f"run.{ext}") as f:
                            text = f.read()
                        entry[ext] = text
                        entry[f"{ext}_sha256"] = _sha(text)
                        os.remove(f"run.{ext}")
                result["cases"][name] = entry
                print(f"{rc} {name}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    with open(path, "w") as f:
        json.dump(result, f, indent=1)


def _number(cell):
    if isinstance(cell, bool) or cell is None:
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _ulps(a: float, b: float) -> int:
    """Distance between two finite doubles in units in the last place."""

    def key(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(key(a) - key(b))


def _cells(entry: dict) -> dict[str, object]:
    """Every CSV cell and JSON leaf of a case, by a readable location."""
    out = {}
    if "csv" in entry:
        rows = list(csv.reader(io.StringIO(entry["csv"])))
        header = rows[0] if rows else []
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row):
                col = header[j] if j < len(header) else str(j)
                out[f"csv row {i} {col}"] = cell

    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}.{k}", v)
        elif isinstance(node, list):
            for k, v in enumerate(node):
                walk(f"{prefix}[{k}]", v)
        else:
            out[prefix] = node

    if "json" in entry:
        walk("json", json.loads(entry["json"]))
    return out


def _monte_carlo_summary(ca: dict, cb: dict) -> str:
    """Whether a pushforward case's quadrature moved, and its new worst discrepancy."""
    moved = [loc for loc in ca if loc.endswith(" quad_value") and ca[loc] != cb.get(loc)]
    discs = [abs(_number(c)) for loc, c in cb.items() if loc.endswith(" discrepancy_in_std_errors")]
    quad = "quad_value moved in " + ", ".join(moved) if moved else "no quad_value moved"
    return f"{quad}; worst discrepancy now {max(discs, default=math.nan):.3g} standard errors"


# a value at most this share of its column's largest magnitude is zero up to rounding
_ZERO_SHARE = 1e-12


def _column(loc: str) -> str:
    """The column of a CSV cell ("csv row 3 value" -> "value"), else the JSON location."""
    return loc.rsplit(" ", 1)[-1] if loc.startswith("csv row ") else loc


def _largest_value_move(ca: dict, cb: dict) -> tuple[float, str] | None:
    """(relative move, "loc: old -> new") of the value cell of one case that
    moved most, leaving out error columns and values zero up to rounding."""
    scale: dict[str, float] = {}
    for cells in (ca, cb):
        for loc, cell in cells.items():
            x = _number(cell)
            if x is not None and math.isfinite(x):
                col = _column(loc)
                scale[col] = max(scale.get(col, 0.0), abs(x))
    best = None
    for loc in ca:
        fa, fb = _number(ca[loc]), _number(cb.get(loc))
        col = _column(loc)
        if fa is None or fb is None or fa == fb or "error" in col or "violation" in col:
            continue
        if not (math.isfinite(fa) and math.isfinite(fb)) or max(abs(fa), abs(fb)) <= _ZERO_SHARE * scale[col]:
            continue
        rel = abs(fa - fb) / max(abs(fa), abs(fb))
        if best is None or rel > best[0]:
            best = (rel, f"{loc}: {ca[loc]} -> {cb[loc]}")
    return best


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)["cases"]
    with open(new_path) as f:
        new = json.load(f)["cases"]
    differing = 0
    largest = None
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"{name}: only in {'new' if a is None else 'old'} record")
            differing += 1
            continue
        same = a["rc"] == b["rc"] and all(a.get(f"{e}_sha256") == b.get(f"{e}_sha256") for e in ("csv", "json"))
        if same:
            continue
        differing += 1
        print(f"{name}: exit {a['rc']} -> {b['rc']}")
        ca, cb = _cells(a), _cells(b)
        for loc in list(ca) + [k for k in cb if k not in ca]:
            va, vb = ca.get(loc), cb.get(loc)
            if va == vb:
                continue
            fa, fb = _number(va), _number(vb)
            if fa is None or fb is None or not (math.isfinite(fa) and math.isfinite(fb)):
                print(f"  {loc}: {va!r} -> {vb!r}")
                continue
            rel = abs(fa - fb) / max(abs(fa), abs(fb)) if fa != fb else 0.0
            print(f"  {loc}: {va} -> {vb} (relative {rel:.2g}, {_ulps(fa, fb)} ulp)")
        if b["argv"][0] == "pushforward":
            print("  " + _monte_carlo_summary(ca, cb))
        move = _largest_value_move(ca, cb)
        if move is not None and (largest is None or move[0] > largest[0]):
            largest = (move[0], f"{name}: {move[1]}")
    print(f"{differing} of {len(set(old) | set(new))} cases differ")
    if largest is None:
        print("largest value move: none")
    else:
        print(f"largest value move: relative {largest[0]:.2g} in {largest[1]}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the cases and write a record")
    rec.add_argument("out")
    rec.add_argument("--threads", type=int, default=2)
    rec.add_argument("--t", default="0.8731", help="the --t of every case that takes one")
    rec.add_argument("--block", type=int, default=None, help="points per polar-sum block")
    dif = sub.add_parser("diff", help="compare two records")
    dif.add_argument("old")
    dif.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out, args.threads, args.t, args.block)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
