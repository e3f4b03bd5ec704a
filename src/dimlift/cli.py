"""Command-line front end.

Every subcommand evaluates one verification family and writes three files:

* ``<out>.csv``       one row per grid or parameter point,
* ``<out>.json``      summary ``{status, worst_violation, max_error, manifest}``,
* ``<out>.manifest.json``  the run manifest again, plus wall time and thread
  count, which are execution details and may differ between byte-identical
  runs.

Exit codes: 0 all checks passed, 2 a check failed, 1 usage or domain error.
Grids are written ``a:b:k`` (k points, endpoints included); time grids are
geometric, radius and spatial grids linear.  Numbers in the CSV use the
shortest decimal form that round-trips.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from .errors import AccuracyError, DegenerateDenominatorError
from .fields import (
    caloric_polynomial,
    circle_map,
    equator_map,
    graph_linear,
    graph_plane,
    half_space_pair,
    half_space_power_pair,
    harmonic_polynomial,
    heat_kernel_translate,
    bump_radial,
    bump_spacetime,
)
from .functionals import (
    acf_phi,
    almgren,
    caffarelli_Phi,
    carleman_elliptic_check,
    carleman_parabolic_check,
    hm_phi,
    huisken_density,
    lifted_frequency,
    lifted_hm_Phi,
    lifted_mcf_density,
    lifted_two_phase,
    ms_density,
    poon,
    struwe_Phi,
)
from .functionals.sweeps import _step_margins
from .integrate import (
    MonteCarloSpec,
    _default_threads,
    _use_threads,
    pushforward_check_ball,
    pushforward_check_sphere,
)
from .lift import sphere_area
from .weights import weight_limit_report

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_grid(text: str, geometric: bool) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like a:b:k, got {text!r}")
    a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    if k < 2:
        raise ValueError("grid needs at least 2 points")
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"grid needs finite endpoints with b > a, got {text!r}")
    if geometric:
        if a <= 0.0 or b <= 0.0:
            raise ValueError("geometric grid needs positive endpoints")
        return np.geomspace(a, b, k)
    return np.linspace(a, b, k)


def _parse_list(args, key: str, kind=int) -> list:
    """The entries of the comma list --key; float entries must be finite."""
    text = getattr(args, key)
    values = [kind(p) for p in text.split(",") if p]
    if not values:
        raise ValueError(f"--{key} needs a comma list with at least one entry, got {text!r}")
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError(f"--{key} entries must be finite, got {text!r}")
    return values


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _decrease_margin(values) -> float:
    """Worst monotonicity violation: positive when some step falls by more
    than sweeps.SWEEP_TOL relative to the local scale, 0 otherwise; NaN if a value is."""
    return float(np.max(_step_margins(np.asarray(values, dtype=float)), initial=0.0))


def _increase_margin(values) -> float:
    """Worst rise of an error sequence: 0 if it never rises; NaN if an error
    is, or if two successive errors are inf."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return float(np.max(np.diff(np.asarray(values, dtype=float)), initial=0.0))


def _verdict(mode: str, values, errs, tol: float) -> tuple[bool, float, float]:
    """(ok, worst violation, max error) of a family's rows.

    "plateau": the values never fall and every error is below tol.
    "converging": every error is below tol, or the errors never rise and end
    below where they start.
    A non-finite value or error fails either mode.
    """
    finite = bool(np.all(np.isfinite(np.asarray(values, dtype=float))) and np.all(np.isfinite(errs)))
    max_err = float(np.max(errs))
    if mode == "plateau":
        worst = _decrease_margin(values)
        return finite and worst == 0.0 and max_err < tol, worst, max_err
    if finite and max_err < tol:
        return True, 0.0, max_err
    worst = _increase_margin(errs)
    return finite and worst == 0.0 and errs[-1] < errs[0], worst, max_err


# The three kinds of sequence a check runs along: radii r (elliptic), times t
# (parabolic) and step counts n (the lifted limit).  The axis decides where
# the parameters come from, the pass rule and the tolerance.
_AXES = {
    "r": (lambda args: _parse_grid(args.r_grid, geometric=False).tolist(), "plateau", 1e-6),
    "t": (lambda args: _parse_grid(args.t_grid, geometric=True).tolist(), "plateau", 1e-8),
    "n": (lambda args: _parse_list(args, "n"), "converging", 1e-8),
}


def _sequence(args, axis: str, header: list[str], evaluate):
    """The handler result of a check along one axis of _AXES.

    evaluate(p) returns [*cells, reference] at each parameter p, where cells
    ends with the value and a reference of None stands for the value itself.
    Each row is [p, *cells, reference, |value - reference|].
    """
    params, mode, tol = _AXES[axis]
    rows = []
    for p in params(args):
        *cells, ref = evaluate(p)
        ref = cells[-1] if ref is None else ref
        rows.append([p, *cells, ref, abs(cells[-1] - ref)])
    return (header, rows, *_verdict(mode, [row[-3] for row in rows], [row[-1] for row in rows], tol))


# the pair and map constructors are looked up by name at call time, so that
# a constructor rebound on this module after import is the one called


def _pair(name: str, d: int, power: int = 3):
    if name == "half":
        return half_space_pair(d, kind="parabolic")
    return half_space_power_pair(d, power)


def _sphere_map(name: str, dim: int):
    return circle_map(dim) if name == "circle" else equator_map(dim)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (header, rows, status, worst, max_error)


def _run_gn_limit(args):
    n_list = _parse_list(args, "n")
    grid = _parse_grid(args.grid, geometric=False)
    if args.d < 1:
        raise ValueError(f"need d >= 1, got d={args.d}")
    pts = np.zeros((grid.size, args.d))
    pts[:, 0] = grid
    report = weight_limit_report(args.t, pts, n_list)
    errs = report.sup_rel_error
    header = ["n", "sup_rel_error", "ratio_to_previous"]
    rows = []
    for i, n in enumerate(n_list):
        ratio = "" if i == 0 else report.successive_ratios[i - 1]
        rows.append([n, float(errs[i]), ratio])
    return (header, rows, *_verdict("converging", errs, errs, 0.0))


_PHI_CATALOG = {
    "one": lambda x: np.ones(x.shape[:-1]),
    "x1": lambda x: x[..., 0],
    "x1sq": lambda x: x[..., 0] ** 2,
    "x1quart": lambda x: x[..., 0] ** 4,
    "gauss": lambda x: np.exp(-np.sum(x * x, axis=-1)),
}


def _run_pushforward(args):
    names = list(_PHI_CATALOG) if args.phi == "all" else args.phi.split(",")
    for name in names:
        if name not in _PHI_CATALOG:
            raise ValueError(f"unknown phi {name!r}; choose from {sorted(_PHI_CATALOG)}")
    mc = MonteCarloSpec(seed=args.seed, samples=args.samples)
    header = ["phi", "mc_value", "mc_std_error", "quad_value", "discrepancy_in_std_errors"]
    rows = []
    worst_disc = 0.0
    max_err = 0.0
    for name in names:
        base = _PHI_CATALOG[name]
        if args.domain == "sphere":
            res = pushforward_check_sphere(base, args.d, args.n, args.t, mc)
        else:
            # the ball identity integrates space-time functions; spatial phi
            # just ignores the time argument
            res = pushforward_check_ball(lambda x, tt, f=base: f(x), args.d, args.n, args.t, mc)
        rows.append(
            [name, res.mc_value, res.mc_std_error, res.quad_value, res.discrepancy_in_std_errors]
        )
        worst_disc = max(worst_disc, abs(res.discrepancy_in_std_errors))
        max_err = max(max_err, abs(res.mc_value - res.quad_value))
    worst = max(0.0, worst_disc - 3.0)
    return header, rows, worst == 0.0, worst, max_err


_HARMONIC_DEGREES = {"x1": 1, "x1x2": 2}
_CALORIC_DEGREES = {"x1": 0.5, "x1sq": 1.0, "x1cube": 1.5, "radial": 1.0}


def _run_frequency(args):
    # the grids of _AXES, but rows without a reference and 1e-8 on both
    grid = _AXES["t" if args.parabolic else "r"][0](args)
    if args.parabolic:
        if args.field == "hk":
            u = heat_kernel_translate(args.d, 1.5 * np.ones(args.d), 2.0 * grid[-1])
            expected = None
        elif args.field in _CALORIC_DEGREES:
            u = caloric_polynomial(args.field, args.d)
            expected = _CALORIC_DEGREES[args.field]
        else:
            raise ValueError(f"unknown parabolic field {args.field!r}")
        functional = lambda t: poon(u, t)
    else:
        if args.field.startswith("re_z") and args.field[4:].isdecimal():
            k = int(args.field[4:])
            v = harmonic_polynomial("re_zk", args.N, k)
            expected = float(k)
        elif args.field in _HARMONIC_DEGREES:
            v = harmonic_polynomial(args.field, args.N)
            expected = float(_HARMONIC_DEGREES[args.field])
        else:
            raise ValueError(f"unknown elliptic field {args.field!r}")
        functional = lambda r: almgren(v, r)
    rows = []
    for p in grid:
        fv = functional(p)
        rows.append([p, fv.H, fv.D, fv.L])
    values = [row[3] for row in rows]
    # without a known degree only monotonicity is checked
    errs = [0.0 if expected is None else abs(v - expected) for v in values]
    return (["param", "H", "D", "L"], rows, *_verdict("plateau", values, errs, 1e-8))


_ELLIPTIC_BUMPS = [(1.0, 2.0, 4), (0.5, 1.5, 5), (1.0, 3.0, 6)]
_PARABOLIC_BUMPS = [
    (0.5, 1.5, 0.25, 1.0, 4),
    (1.0, 2.0, 0.5, 1.5, 5),
    (0.25, 1.25, 0.2, 0.8, 4),
]


def _run_carleman(args):
    rows = []
    worst = 0.0
    if args.parabolic:
        header = ["bump", "alpha", "epsilon", "lhs", "rhs", "constant_used", "satisfied"]
        for alpha in _parse_list(args, "alpha", float):
            for spec_tuple in _PARABOLIC_BUMPS:
                u = bump_spacetime(args.d, *spec_tuple)
                rep = carleman_parabolic_check(u, alpha)
                rows.append(
                    [u.name, alpha, rep.epsilon, rep.lhs, rep.rhs, rep.constant_used, rep.satisfied]
                )
                worst = max(worst, max(0.0, rep.lhs - rep.rhs))
    else:
        header = ["bump", "gamma", "lhs", "rhs", "constant_used", "satisfied"]
        for gamma in _parse_list(args, "gamma", float):
            for r_in, r_out, k in _ELLIPTIC_BUMPS:
                v = bump_radial(args.N, r_in, r_out, k)
                rep = carleman_elliptic_check(v, gamma)
                rows.append([v.name, gamma, rep.lhs, rep.rhs, rep.constant_used, rep.satisfied])
                worst = max(worst, max(0.0, rep.rhs - rep.lhs))
    ok = all(row[-1] for row in rows)
    return header, rows, ok, worst, worst


def _run_two_phase(args):
    header = ["param", "factor1", "factor2", "value", "reference", "abs_error"]
    cells = lambda rep, ref: [rep.factor1, rep.factor2, rep.value, ref]
    if args.kind == "elliptic":
        if args.pair != "half":
            raise ValueError("the elliptic product is cataloged for the half-space pair only")
        v1, v2 = half_space_pair(args.N, kind="elliptic")
        ref = (sphere_area(args.N) / 4.0) ** 2
        return _sequence(args, "r", header, lambda r: cells(acf_phi(v1, v2, r), ref))
    u1, u2 = _pair(args.pair, args.d, args.power)
    if args.kind == "lifted":
        ref = 0.25 if args.pair == "half" else caffarelli_Phi(u1, u2, args.t).value
        return _sequence(args, "n", header, lambda n: cells(lifted_two_phase(u1, u2, n, args.t), ref))
    # closed forms for the half pair and the cubic pair; other powers are
    # compared to themselves (monotonicity is still checked)
    ref_at = lambda tau: 0.25 if args.pair == "half" else (9.0 * tau * tau if args.power == 3 else None)
    return _sequence(args, "t", header, lambda tau: cells(caffarelli_Phi(u1, u2, tau), ref_at(tau)))


def _run_harmonic_map(args):
    header = ["param", "value", "reference", "abs_error"]
    if args.which == "phi":
        if args.map != "equator":
            raise ValueError("the ball-energy density is cataloged for the equator map")
        vmap = equator_map(args.N)
        ref = (args.N - 1) * sphere_area(args.N) / (args.N - 2)
        return _sequence(args, "r", header, lambda r: [hm_phi(vmap, np.zeros(args.N), r), ref])
    dim = args.d if args.map == "circle" else args.N
    umap = _sphere_map(args.map, dim)
    ref_at = lambda t: t if args.map == "circle" else 1.0
    if args.which == "lifted":
        return _sequence(args, "n", header, lambda n: [lifted_hm_Phi(umap, n, args.t), ref_at(args.t)])
    return _sequence(args, "t", header, lambda t: [struwe_Phi(umap, t), ref_at(t)])


def _surface(args):
    if args.surface == "plane":
        return graph_plane(args.d, 0.0)
    if args.surface == "const":
        return graph_plane(args.d, args.c)
    slopes = _parse_list(args, "a", float)
    if len(slopes) < args.d:
        raise ValueError(f"--a needs at least {args.d} entries for --d {args.d}")
    return graph_linear(slopes[: args.d])


def _run_mcf(args):
    header = ["param", "value", "reference", "abs_error"]
    if args.which == "ms":
        if args.surface == "const":
            raise ValueError("for the ball density use --surface plane with --delta for offsets")
        if args.surface == "tilted" and args.delta != 0.0:
            raise ValueError("offset reference values are cataloged for --surface plane")
        surface = _surface(args)
        w0 = np.zeros(args.d + 1)
        w0[-1] = args.delta

        def at(r):
            # the first radius is the smallest
            if args.delta != 0.0 and args.delta >= r:
                raise ValueError("--delta must stay below the smallest grid radius")
            # density of a d-dimensional plane at distance delta from the center
            ref = (1.0 - (args.delta / r) ** 2) ** (0.5 * args.d) if args.surface == "plane" else 1.0
            return [ms_density(surface, w0, r), ref]

        return _sequence(args, "r", header, at)
    surface = _surface(args)
    if args.which == "lifted":
        ref = huisken_density(surface, args.t)
        return _sequence(args, "n", header, lambda n: [lifted_mcf_density(surface, n, args.t), ref])
    flat = (4.0 * math.pi) ** (0.5 * args.d)
    ref_at = lambda t: flat * math.exp(-args.c**2 / (4.0 * t)) if args.surface == "const" else flat
    return _sequence(args, "t", header, lambda t: [huisken_density(surface, t), ref_at(t)])


_DEMO_FIELDS = {
    "frequency": ("x1", "x1sq", "x1cube", "radial"),
    "two-phase": ("half", "power"),
    "harmonic-map": ("circle", "equator"),
    "mcf": ("plane", "const", "tilted"),
}


def _run_lift_demo(args):
    if args.field not in _DEMO_FIELDS[args.which]:
        raise ValueError(
            f"--which {args.which} accepts --field from {_DEMO_FIELDS[args.which]}"
        )
    if args.which == "frequency":
        u = caloric_polynomial(args.field, args.d)
        limit = 2.0 * poon(u, args.t).L
        lifted = lambda n: lifted_frequency(u, n, args.t)
    elif args.which == "two-phase":
        u1, u2 = _pair(args.field, args.d)
        limit = caffarelli_Phi(u1, u2, args.t).value
        lifted = lambda n: lifted_two_phase(u1, u2, n, args.t).value
    elif args.which == "harmonic-map":
        if args.field == "equator" and args.d < 3:
            raise ValueError("the equator map needs --d >= 3")
        umap = _sphere_map(args.field, args.d)
        limit = struwe_Phi(umap, args.t)
        lifted = lambda n: lifted_hm_Phi(umap, n, args.t)
    else:
        if args.field == "tilted":
            surface = graph_linear([0.4] * args.d)
        elif args.field == "const":
            surface = graph_plane(args.d, 0.7)
        else:
            surface = graph_plane(args.d, 0.0)
        limit = huisken_density(surface, args.t)
        lifted = lambda n: lifted_mcf_density(surface, n, args.t)
    header = ["n", "lifted_value", "limit_value", "abs_error"]
    return _sequence(args, "n", header, lambda n: [lifted(n), limit])


# ---------------------------------------------------------------------------
# parser construction and orchestration

_GRID_HELP = "grid a:b:k (k points from a to b inclusive; %s)"


# built on the first main() call, not at import, and reused by every later
# call in the process: parse_args keeps no state between calls
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dimlift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--out", default=name, help="output file prefix (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads for the quadrature (and pushforward's Monte Carlo); "
            "default DIMLIFT_THREADS or the CPU count, at most the CPU count; "
            "memory in flight grows with it",
        )
        return p

    p = add("gn-limit", "finite bump weights converging to the Gaussian")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", default="8,16,32,64", help="comma list of step counts")
    p.add_argument("--grid", default="-2:2:201", help=_GRID_HELP % "linear, first coordinate")

    p = add("pushforward", "Monte Carlo vs quadrature for lifted surface/ball measures")
    p.add_argument("--domain", choices=["sphere", "ball"], default="sphere")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--t", type=float, default=1.0, help="time (sphere) or horizon (ball)")
    p.add_argument("--phi", default="all", help="comma list from one,x1,x1sq,x1quart,gauss")
    p.add_argument("--samples", type=int, default=100_000)

    p = add("frequency", "Almgren / Poon frequency along a radius or time grid")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--elliptic", action="store_true")
    mode.add_argument("--parabolic", action="store_true")
    p.add_argument("--field", default="x1", help="x1,x1x2,re_z<k> or x1,x1sq,x1cube,radial,hk")
    p.add_argument("--N", type=int, default=2, help="elliptic domain dimension")
    p.add_argument("--d", type=int, default=1, help="parabolic space dimension")
    p.add_argument("--r-grid", default="0.5:2:8", help=_GRID_HELP % "linear")
    p.add_argument("--t-grid", default="0.25:4:16", help=_GRID_HELP % "geometric")

    p = add("carleman", "weighted inequalities on catalog bump fields")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--elliptic", action="store_true")
    mode.add_argument("--parabolic", action="store_true")
    p.add_argument("--gamma", default="0.7,1.5,2.25", help="elliptic exponents, comma list")
    p.add_argument("--alpha", default="1.0,1.875,2.3", help="parabolic exponents, comma list")
    p.add_argument("--N", type=int, default=3, help="elliptic dimension")
    p.add_argument("--d", type=int, default=1, help="parabolic space dimension")

    p = add("two-phase", "two-phase energy products and their lifted analogue")
    p.add_argument("--kind", choices=["elliptic", "parabolic", "lifted"], default="elliptic")
    p.add_argument("--pair", choices=["half", "power"], default="half")
    p.add_argument("--N", type=int, default=2, help="elliptic dimension")
    p.add_argument("--d", type=int, default=1, help="parabolic space dimension")
    p.add_argument("--power", type=int, default=3, help="exponent for the power pair")
    p.add_argument("--t", type=float, default=0.7, help="horizon for --kind lifted")
    p.add_argument("--r-grid", default="0.5:2:8", help=_GRID_HELP % "linear")
    p.add_argument("--t-grid", default="0.25:2:8", help=_GRID_HELP % "geometric")
    p.add_argument("--n", default="5,10,20,40", help="comma list of step counts")

    p = add("harmonic-map", "sphere-valued map energy densities")
    p.add_argument("--which", choices=["phi", "struwe", "lifted"], default="phi")
    p.add_argument("--map", choices=["equator", "circle"], default="equator")
    p.add_argument("--N", type=int, default=3, help="equator map dimension")
    p.add_argument("--d", type=int, default=1, help="circle map space dimension")
    p.add_argument("--t", type=float, default=0.7, help="time for --which lifted")
    p.add_argument("--r-grid", default="0.5:2:8", help=_GRID_HELP % "linear")
    p.add_argument("--t-grid", default="0.25:4:12", help=_GRID_HELP % "geometric")
    p.add_argument("--n", default="4,10,40,160", help="comma list of step counts")

    p = add("mcf", "graph densities for minimal surfaces and mean curvature flow")
    p.add_argument("--which", choices=["ms", "huisken", "lifted"], default="huisken")
    p.add_argument("--surface", choices=["plane", "const", "tilted"], default="plane")
    p.add_argument("--d", type=int, default=1, help="graph domain dimension")
    p.add_argument("--c", type=float, default=0.7, help="height of the constant graph")
    p.add_argument("--a", default="0.4,0.3,0.2", help="slope entries for the tilted graph")
    p.add_argument("--delta", type=float, default=0.0, help="center offset for --which ms")
    p.add_argument("--t", type=float, default=1.0, help="time for --which lifted")
    p.add_argument("--r-grid", default="0.8:2:8", help=_GRID_HELP % "linear")
    p.add_argument("--t-grid", default="0.5:2:8", help=_GRID_HELP % "geometric")
    p.add_argument("--n", default="10,40,160", help="comma list of step counts")

    p = add("lift-demo", "finite-n functionals converging to their parabolic limits")
    p.add_argument(
        "--which",
        choices=["frequency", "two-phase", "harmonic-map", "mcf"],
        default="frequency",
    )
    p.add_argument("--field", default="x1sq", help="catalog entry for the chosen family")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", default="10,40,160", help="comma list of step counts")

    return parser


_HANDLERS = {
    "gn-limit": _run_gn_limit,
    "pushforward": _run_pushforward,
    "frequency": _run_frequency,
    "carleman": _run_carleman,
    "two-phase": _run_two_phase,
    "harmonic-map": _run_harmonic_map,
    "mcf": _run_mcf,
    "lift-demo": _run_lift_demo,
}

# execution details, kept out of the summary so reruns are byte-identical
_EXECUTION_KEYS = ("out", "threads")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.threads is None:
            args.threads = _default_threads()
        elif args.threads < 1:
            raise ValueError(f"--threads must be a positive integer, got {args.threads}")
        # every float flag is finite, as every entry of a float list (_parse_list)
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{key} must be finite, got {value}")
        with _use_threads(args.threads):
            header, rows, ok, worst, max_err = _HANDLERS[args.subcommand](args)
    except (ValueError, DegenerateDenominatorError, AccuracyError) as exc:
        print(f"dimlift {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _EXECUTION_KEYS and key not in ("subcommand", "seed")
    }
    manifest = {
        "subcommand": args.subcommand,
        "parameters": parameters,
        "seed": args.seed,
        "outputs": [csv_path, json_path],
    }
    summary = {
        "status": "pass" if ok else "fail",
        "worst_violation": worst,
        "max_error": max_err,
        "manifest": manifest,
    }
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(f"{args.out}.manifest.json", "w") as f:
        json.dump({**manifest, "threads": args.threads, "wall_time": wall}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{args.subcommand}: {summary['status']} ({csv_path}, {json_path})")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
