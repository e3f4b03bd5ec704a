"""Catalog of closed-form fields the functionals are evaluated on.

Every evaluator is vectorized over leading axes: spatial arguments have shape
(..., dim) and return shape (...) for scalars, (..., dim) for gradients, and
(..., dim, dim) for a graph's Hessian.  Time arguments broadcast against the
leading axes.  The caloric convention throughout is the backward one: a field u is
caloric when Lap u + du/dt = 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError

__all__ = [
    "ScalarField",
    "SpaceTimeField",
    "SphereField",
    "GraphSurface",
    "NonhomTerm",
    "harmonic_polynomial",
    "caloric_polynomial",
    "heat_kernel_translate",
    "half_space_pair",
    "half_space_power_pair",
    "equator_map",
    "circle_map",
    "bump_spacetime",
    "bump_radial",
    "caloric_from_data",
    "caloric_from_csv",
    "graph_plane",
    "graph_linear",
    "graph_paraboloid",
    "fd_check_scalar",
    "fd_check_spacetime",
    "caloric_residual",
]


@dataclass(frozen=True)
class ScalarField:
    """A function v on R^N with gradient and (optionally) Laplacian."""

    N: int
    value: Callable
    grad: Callable
    laplacian: Callable | None = None
    name: str = ""
    support: tuple | None = None  # (r_in, r_out) of an annulus, or None for all of R^N
    # k when v(y) depends on y only through y_1..y_k and |y|, that is, v is
    # unchanged by every rotation fixing e_1..e_k; None declares nothing.  A
    # field that declares k reads only y_1..y_k and |y|: it accepts points of
    # any width of at least k + 1, such as the (k + 1)-wide points of the
    # reduced rule, returns a gradient of the width it was given, and takes N
    # from the field, never from the width of y
    symmetry: int | None = None


@dataclass(frozen=True)
class SpaceTimeField:
    """A function u(x, t) on R^d x (0, inf) with the derivatives the lift needs."""

    d: int
    value: Callable
    grad: Callable
    dt: Callable
    laplacian: Callable
    grad_dt: Callable
    dtt: Callable
    name: str = ""
    window: tuple | None = None  # (r_in, r_out, t_in, t_out) support box, or None
    # k when u(x, t) depends on x only through x_1..x_k; None declares
    # nothing.  Unlike symmetry, |x| is not allowed.  A field that declares k
    # reads only x_1..x_k: it accepts points of any width of at least k, such
    # as the k-wide points of the weighted rule in R^k, and returns a
    # gradient of the width it was given
    coords: int | None = None


@dataclass(frozen=True)
class SphereField:
    """A map into a unit sphere, |value| = 1 pointwise."""

    dim_domain: int
    value: Callable  # (..., dim_domain) -> (..., target dimension)
    jacobian: Callable  # -> (..., target dimension, dim_domain)
    energy: Callable  # |Dv|^2, the squared Frobenius norm of the jacobian
    name: str = ""
    # k when the energy |Dv|^2 depends on y only through y_1..y_k and |y|;
    # None declares nothing.  A map that declares k accepts points of any
    # width of at least k + 1 in energy, as a ScalarField does; value and
    # jacobian stay N wide
    symmetry: int | None = None


@dataclass(frozen=True)
class GraphSurface:
    """A hypersurface given as a graph x_{dim+1} = v(y, t)."""

    dim: int
    value: Callable
    grad: Callable
    hessian: Callable
    dt: Callable
    name: str = ""


@dataclass(frozen=True)
class NonhomTerm:
    """Bounded right-hand side h (scalar) or H (vector) of a perturbed equation."""

    value: Callable
    vector: bool = False
    name: str = ""


def _lead_shape(x: np.ndarray, t) -> tuple:
    """The shape of x[..., 0] broadcast against t.  A t that fits in it, as
    a scalar or the (rows, 1) times of a space-time sum do, skips
    np.broadcast_shapes, which costs more than a small field call."""
    lead, ts = x.shape[:-1], np.shape(t)
    skip = len(lead) - len(ts)
    if skip >= 0:
        for a, b in zip(lead[skip:], ts):
            if b != 1 and b != a:
                break
        else:
            return lead
    return np.broadcast_shapes(lead, ts)


def _zeros(x, t=0.0) -> np.ndarray:
    """Zeros of the shape of x[..., 0] broadcast against t."""
    return np.zeros(_lead_shape(np.asarray(x), t))


def _zeros_vec(x, t=0.0) -> np.ndarray:
    """Zeros of the shape of x[..., 0] broadcast against t, times x's last axis."""
    x = np.asarray(x)
    return np.zeros(_lead_shape(x, t) + x.shape[-1:])


# ---------------------------------------------------------------------------
# harmonic and caloric polynomials


def harmonic_polynomial(kind: str, N: int, k: int | None = None) -> ScalarField:
    """Homogeneous harmonic polynomials: "x1", "x1x2", or "re_zk" (N = 2 only)."""
    if kind == "x1":
        if N < 1:
            raise ValueError("need N >= 1")

        def val(y):
            return np.asarray(y, float)[..., 0]

        def grad(y):
            g = _zeros_vec(y)
            g[..., 0] = 1.0
            return g

        return ScalarField(
            N=N,
            value=val,
            grad=grad,
            laplacian=_zeros,
            name="x1",
            symmetry=1,
        )
    if kind == "x1x2":
        if N < 2:
            raise ValueError("x1x2 needs N >= 2")

        def val(y):
            y = np.asarray(y, float)
            return y[..., 0] * y[..., 1]

        def grad(y):
            y = np.asarray(y, float)
            g = _zeros_vec(y)
            g[..., 0] = y[..., 1]
            g[..., 1] = y[..., 0]
            return g

        return ScalarField(
            N=N,
            value=val,
            grad=grad,
            laplacian=_zeros,
            name="x1x2",
            symmetry=2,
        )
    if kind == "re_zk":
        if N != 2:
            raise ValueError("re_zk lives on R^2")
        if k is None or k < 1:
            raise ValueError("re_zk needs a degree k >= 1")

        def val(y):
            y = np.asarray(y, float)
            return ((y[..., 0] + 1j * y[..., 1]) ** k).real

        def grad(y):
            y = np.asarray(y, float)
            w = k * (y[..., 0] + 1j * y[..., 1]) ** (k - 1)
            # d/dy1 Re z^k = Re k z^(k-1), d/dy2 Re z^k = -Im k z^(k-1)
            return np.stack([w.real, -w.imag], axis=-1)

        return ScalarField(
            N=2,
            value=val,
            grad=grad,
            laplacian=_zeros,
            name=f"re_z{k}",
        )
    raise ValueError(f"unknown harmonic polynomial kind {kind!r}")


def _x1_field(d: int, name: str, value, dx, dt=None, dxx=None, dxt=None) -> SpaceTimeField:
    """The field u(x, t) = f(x_1, t) on R^d, declared coords = 1.

    value, dx, dt, dxx and dxt are f and its derivatives d/dx_1, d/dt,
    d^2/dx_1^2 and d^2/dx_1 dt.  Each is a callable of (x_1, t), a constant,
    or None for 0; d^2 f/dt^2 is 0.  The gradients are zeros of x's width
    with column 0 written, so a point of any width of at least 1 is read.
    """

    def scalar(term):
        if term is None:
            return _zeros
        if callable(term):
            return lambda x, t: term(np.asarray(x, float)[..., 0], np.asarray(t))
        return lambda x, t: term + _zeros(x, t)

    def column(term):
        if term is None:
            return _zeros_vec

        def g(x, t):
            x = np.asarray(x, float)
            out = _zeros_vec(x, t)
            out[..., 0] = term(x[..., 0], np.asarray(t)) if callable(term) else term
            return out

        return g

    return SpaceTimeField(
        d=d,
        value=scalar(value),
        grad=column(dx),
        dt=scalar(dt),
        laplacian=scalar(dxx),
        grad_dt=column(dxt),
        dtt=_zeros,
        name=name,
        coords=1,
    )


def caloric_polynomial(kind: str, d: int) -> SpaceTimeField:
    """Backward caloric polynomials: x1, x1^2 - 2t, x1^3 - 6 x1 t, |x|^2 - 2dt."""
    if d < 1:
        raise ValueError("need d >= 1")
    if kind == "x1":
        return _x1_field(d, "x1", lambda x1, t: x1 + 0.0 * t, 1.0)
    if kind == "x1sq":
        return _x1_field(d, "x1sq", lambda x1, t: x1**2 - 2.0 * t, lambda x1, t: 2.0 * x1, dt=-2.0, dxx=2.0)
    if kind == "x1cube":
        return _x1_field(
            d,
            "x1cube",
            lambda x1, t: x1**3 - 6.0 * x1 * t,
            lambda x1, t: 3.0 * x1**2 - 6.0 * t,
            dt=lambda x1, t: -6.0 * x1 + 0.0 * t,
            dxx=lambda x1, t: 6.0 * x1 + 0.0 * t,
            dxt=-6.0,
        )
    if kind == "radial":

        def grad_radial(x, t):
            x = np.asarray(x, float)
            return 2.0 * x + _zeros_vec(x, t)

        return SpaceTimeField(
            d=d,
            value=lambda x, t: np.sum(np.asarray(x, float) ** 2, axis=-1) - 2.0 * d * np.asarray(t),
            grad=grad_radial,
            dt=lambda x, t: -2.0 * d + _zeros(x, t),
            laplacian=lambda x, t: 2.0 * d + _zeros(x, t),
            grad_dt=_zeros_vec,
            dtt=_zeros,
            name="radial",
        )
    raise ValueError(f"unknown caloric polynomial kind {kind!r}")


# ---------------------------------------------------------------------------
# heat kernel translates and kernel superpositions


def _kernel_term(z: np.ndarray, s, d: int, term: int) -> np.ndarray:
    """Term 0..4 of G(z, s): G, grad G, Lap G, grad Lap G and d^2 G / ds^2,
    with s an array that broadcasts against z[..., 0]."""
    rr = np.sum(z * z, axis=-1)
    g = np.exp(-rr / (4.0 * s) - 0.5 * d * np.log(4.0 * math.pi * s))
    if term == 0:
        return g
    if term == 1:
        return -z / (2.0 * s[..., None]) * g[..., None]
    a = rr / (4.0 * s**2) - d / (2.0 * s)  # Lap G = a G ( = dG/ds)
    if term == 2:
        return a * g
    if term == 3:
        # grad(a G) = z G (1/(2 s^2) - a/(2 s))
        return z * (g * (1.0 / (2.0 * s**2) - a / (2.0 * s)))[..., None]
    a_s = -rr / (2.0 * s**3) + d / (2.0 * s**2)
    return (a * a + a_s) * g


def heat_kernel_translate(d: int, x0, s0: float) -> SpaceTimeField:
    """u(x, t) = G(x - x0, s0 - t): backward caloric for t < s0, singular at t = s0."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).reshape(d)
    if not s0 > 0.0:
        raise ValueError("need s0 > 0")
    name = f"heat_kernel_translate(x0={x0.tolist()}, s0={s0})"
    return _kernel_sum_field(x0[None], np.ones(1), s0, d, name, width=0.0)


def caloric_from_data(g, T: float, d: int = 1, radius: float | None = None, nodes: int = 128) -> SpaceTimeField:
    """Backward caloric extension u(x, t) = int G(x - xi, T - t) g(xi) dxi of data g at time T.

    g is a vectorized callable on R^d.  The integral is discretized once on a
    tensor Gauss-Legendre grid over [-radius, radius]^d; all derivatives are
    then exact derivatives of the discretized sum, so the caloric residual
    vanishes identically.  Evaluation within 1e-3 of the data time raises.
    """
    if not T > 0.0:
        raise ValueError("need T > 0")
    if radius is None:
        radius = 4.0 + 2.0 * math.sqrt(16.0 * math.log(10.0) * T)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    axis = radius * xs
    waxis = radius * ws
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    xi = np.stack([gg.ravel() for gg in grids], axis=-1)
    wg = np.meshgrid(*([waxis] * d), indexing="ij")
    w = np.ones(xi.shape[0])
    for gg in wg:
        w = w * gg.ravel()
    coeff = w * np.asarray(g(xi), float)  # (M,)
    return _kernel_sum_field(xi, coeff, T, d, name=f"caloric_from_data(T={T})")


def caloric_from_csv(path, T: float) -> SpaceTimeField:
    """Like caloric_from_data but with tabulated data.

    The CSV must have a header ``x1,...,xd,value`` describing a full regular
    tensor grid (uniform spacing along each axis); quadrature weights are the
    grid cell volumes.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [c.strip() for c in rows[0]]
    if header[-1] != "value" or not all(h == f"x{i + 1}" for i, h in enumerate(header[:-1])):
        raise ValueError("expected CSV header x1,...,xd,value")
    d = len(header) - 1
    data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    xi, vals = data[:, :d], data[:, d]
    cell, expected = 1.0, 1
    for i in range(d):
        levels = np.unique(xi[:, i])
        if len(levels) < 2:
            raise ValueError(f"axis x{i + 1} needs at least two grid levels")
        steps = np.diff(levels)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError(f"axis x{i + 1} is not uniformly spaced")
        cell *= steps[0]
        expected *= len(levels)
    if len(xi) != expected:
        raise ValueError("grid rows do not form a full tensor product")
    return _kernel_sum_field(xi, cell * vals, T, d, name=f"caloric_from_csv(T={T})")


# Largest (points, M, d) temporary a kernel-sum field builds at once, in
# bytes; longer point lists are evaluated in chunks of points.
_KERNEL_CHUNK_BYTES = 32 << 20


def _kernel_sum_field(
    xi: np.ndarray, coeff: np.ndarray, T: float, d: int, name: str, width: float = 1e-3
) -> SpaceTimeField:
    """u(x, t) = sum_m coeff_m G(x - xi_m, T - t), backward caloric for t < T.

    Evaluation within width of T raises AccuracyError (the discretized data
    fields keep 1e-3; a single translate is exact up to T), and at t >= T
    ValueError, since the kernel is undefined there.
    """
    xi = np.asarray(xi, float).reshape(-1, d)
    coeff = np.asarray(coeff, float)

    def kernel_sum(x, t, term: int, vector: bool):
        """sum_m coeff_m K(x - xi_m, T - t) for the kernel term K of
        _kernel_term, over the points of x (..., d) and the times t that
        broadcast against x[..., 0].  Each point's sum is one pairwise sum
        over m, so the bits do not depend on the chunking."""
        t = np.asarray(t, float)
        if np.any(np.abs(T - t) < width):
            raise AccuracyError(f"cannot evaluate within {width} of the data time T = {T}")
        if np.any(t >= T):
            raise ValueError(f"{name} needs t < T = {T}")
        x = np.asarray(x, float)
        lead = np.broadcast_shapes(x.shape[:-1], t.shape)
        pts = np.broadcast_to(x, lead + (d,)).reshape(-1, d)
        # one time for every point stays one value, so its terms form once
        one_time = t.size == 1
        s = np.reshape(T - t, (1, 1)) if one_time else np.broadcast_to(T - t, lead).reshape(-1, 1)
        w = coeff[:, None] if vector else coeff
        chunk = max(1, _KERNEL_CHUNK_BYTES // (8 * len(xi) * d))
        out = np.empty((len(pts), d) if vector else len(pts))
        for lo in range(0, len(pts), chunk):
            z = pts[lo : lo + chunk, None, :] - xi  # (chunk, M, d)
            k = _kernel_term(z, s if one_time else s[lo : lo + chunk], d, term)
            del z
            np.sum(k * w, axis=1, out=out[lo : lo + chunk])
        return out.reshape(lead + out.shape[1:])

    def value(x, t):
        return kernel_sum(x, t, 0, False)

    def grad(x, t):
        return kernel_sum(x, t, 1, True)

    def laplacian(x, t):
        return kernel_sum(x, t, 2, False)

    def dt(x, t):
        # du/dt = -dG/ds = -Lap G
        return -laplacian(x, t)

    def grad_dt(x, t):
        return -kernel_sum(x, t, 3, True)

    def dtt(x, t):
        return kernel_sum(x, t, 4, False)

    return SpaceTimeField(
        d=d,
        value=value,
        grad=grad,
        dt=dt,
        laplacian=laplacian,
        grad_dt=grad_dt,
        dtt=dtt,
        name=name,
    )


# ---------------------------------------------------------------------------
# half-space pairs (two-phase catalog)


def _half_space_field(d: int, sign: float, power: int) -> SpaceTimeField:
    # sign +1: supported on x1 > 0; sign -1: on x1 < 0.  u = (sign * x1)_+ ^ power.
    def part(x1):
        return np.maximum(sign * x1, 0.0)

    if power == 1:
        # the mask kills the 0^0 = 1 artifact at the interface, and sign
        # times it is the column
        dx, dxx = (lambda x1, t: sign * (part(x1) > 0.0)), None
    else:
        # 0^(power-1) is 0 unmasked
        dx = lambda x1, t: (sign * power) * part(x1) ** (power - 1)
        dxx = lambda x1, t: power * (power - 1) * part(x1) ** (power - 2) * (part(x1) > 0.0) + 0.0 * t
    tag = {1: "", 2: "sq", 3: "cube"}.get(power, f"^{power}")
    side = "plus" if sign > 0 else "minus"
    return _x1_field(d, f"x1_{side}{tag}", lambda x1, t: part(x1) ** power + 0.0 * t, dx, dxx=dxx)


def half_space_pair(dim: int, kind: str = "parabolic"):
    """The complementary pair (x1)_+ and (x1)_-, caloric or harmonic off the interface.

    kind "parabolic" returns SpaceTimeFields on R^dim x (0, inf); "elliptic"
    returns ScalarFields on R^dim.
    """
    if kind == "parabolic":
        return _half_space_field(dim, +1.0, 1), _half_space_field(dim, -1.0, 1)
    if kind == "elliptic":
        # the parabolic pair read at t = 0; it does not depend on t
        def at_rest(sign: float) -> ScalarField:
            u = _half_space_field(dim, sign, 1)
            return ScalarField(
                N=dim,
                value=lambda y: u.value(y, 0.0),
                grad=lambda y: u.grad(y, 0.0),
                laplacian=_zeros,
                name="y1_plus" if sign > 0 else "y1_minus",
                symmetry=1,
            )

        return at_rest(+1.0), at_rest(-1.0)
    raise ValueError(f"unknown kind {kind!r}")


def half_space_power_pair(dim: int, power: int = 3):
    """Disjointly supported pair ((x1)_+)^power and (x1)_-; the first is strictly subcaloric."""
    if power < 2:
        raise ValueError("power >= 2 (use half_space_pair for the linear pair)")
    return _half_space_field(dim, +1.0, power), _half_space_field(dim, -1.0, 1)


# ---------------------------------------------------------------------------
# sphere-valued maps


def equator_map(N: int) -> SphereField:
    """v(y) = y / |y| from R^N to S^(N-1); |Dv|^2 = (N - 1)/|y|^2.  Undefined at 0."""
    if N < 3:
        raise ValueError("equator map needs N >= 3 for finite local energy")

    def norms(y):
        y = np.asarray(y, float)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.linalg.norm(y, axis=-1)
            if not np.all(np.isfinite(r)):
                # |y|^2 overflows: there, take the norm of y over its largest entry
                m = np.max(np.abs(y), axis=-1, keepdims=True)
                r = np.where(np.isfinite(r), r, m[..., 0] * np.linalg.norm(y / m, axis=-1))
        if np.any(r == 0.0):
            raise ValueError("equator map is undefined at the origin")
        return y, r

    def value(y):
        y, r = norms(y)
        return y / r[..., None]

    def jacobian(y):
        y, r = norms(y)
        eye = np.eye(N)
        with np.errstate(over="ignore"):
            r3 = r**3
        big = ~np.isfinite(r3)
        if np.any(big):
            # r^3 overflows: there, (I - u u^T)/|y| from the unit vector u = y/|y|
            y = np.where(big[..., None], y / r[..., None], y)
            r3 = np.where(big, r, r3)
        return eye / r[..., None, None] - y[..., :, None] * y[..., None, :] / r3[..., None, None]

    def energy(y):
        _, r = norms(y)
        with np.errstate(over="ignore"):  # 0 where r^2 overflows
            return (N - 1) / r**2

    return SphereField(
        dim_domain=N,
        value=value,
        jacobian=jacobian,
        energy=energy,
        name=f"equator_map(N={N})",
        symmetry=0,
    )


def circle_map(d: int = 1) -> SphereField:
    """u(x) = (cos x1, sin x1): a time-independent unit-energy harmonic map into S^1."""

    def value(x):
        x1 = np.asarray(x, float)[..., 0]
        return np.stack([np.cos(x1), np.sin(x1)], axis=-1)

    def jacobian(x):
        x1 = np.asarray(x, float)[..., 0]
        j = np.zeros(x1.shape + (2, d))
        j[..., 0, 0] = -np.sin(x1)
        j[..., 1, 0] = np.cos(x1)
        return j

    def energy(x):
        return np.ones(np.asarray(x).shape[:-1])

    return SphereField(
        dim_domain=d,
        value=value,
        jacobian=jacobian,
        energy=energy,
        name="circle_map",
    )


# ---------------------------------------------------------------------------
# compactly supported bumps


def _bump_profile(a: float, b: float, k: int):
    """c ((r - a)(b - r))_+^k normalized to 1 at the midpoint; returns (p, p', p'')."""
    c = (0.25 * (b - a) ** 2) ** (-k)

    def parts(r):
        r = np.asarray(r, float)
        q = (r - a) * (b - r)
        inside = (r > a) & (r < b)
        q = np.where(inside, q, 0.0)
        dq = a + b - 2.0 * r
        p = c * q**k
        dp = np.where(inside, c * k * q ** (k - 1) * dq, 0.0)
        ddp = np.where(inside, c * k * ((k - 1) * q ** (k - 2) * dq**2 - 2.0 * q ** (k - 1)), 0.0)
        return p, dp, ddp

    return parts


def _radial_bump(rho, N: int):
    """value, grad and laplacian of rho(|x|) on R^N for the profile rho of
    _bump_profile, each times a factor s that defaults to 1.  grad and
    laplacian divide by |x| only where it is positive."""

    def value(x, s=1.0):
        return rho(np.linalg.norm(np.asarray(x, float), axis=-1))[0] * s

    def grad(x, s=1.0):
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1)
        safe = np.where(r > 0.0, r, 1.0)
        return (s * rho(r)[1] / safe)[..., None] * x

    def laplacian(x, s=1.0):
        r = np.linalg.norm(np.asarray(x, float), axis=-1)
        _, dp, ddp = rho(r)
        safe = np.where(r > 0.0, r, 1.0)
        return s * (ddp + (N - 1) * dp / safe)

    return value, grad, laplacian


def bump_spacetime(d: int, r_in: float, r_out: float, t_in: float, t_out: float, k: int = 4) -> SpaceTimeField:
    """Separable bump rho(|x|) sigma(t) supported on the annulus-window away from the origin.

    Both factors are polynomial splines ((s - a)(b - s))^k scaled so the value
    at the window center (|x| and t at the midpoints) is exactly 1.  All
    derivatives, hence the caloric residual, are closed-form.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if not (0.0 < r_in < r_out and 0.0 < t_in < t_out):
        raise ValueError("need 0 < r_in < r_out and 0 < t_in < t_out")
    if k < 3:
        raise ValueError("need smoothness k >= 3")
    value, grad, laplacian = _radial_bump(_bump_profile(r_in, r_out, k), d)
    sig = _bump_profile(t_in, t_out, k)
    return SpaceTimeField(
        d=d,
        value=lambda x, t: value(x, sig(t)[0]),
        grad=lambda x, t: grad(x, sig(t)[0]),
        dt=lambda x, t: value(x, sig(t)[1]),
        laplacian=lambda x, t: laplacian(x, sig(t)[0]),
        grad_dt=lambda x, t: grad(x, sig(t)[1]),
        dtt=lambda x, t: value(x, sig(t)[2]),
        name=f"bump(r=[{r_in},{r_out}], t=[{t_in},{t_out}], k={k})",
        window=(r_in, r_out, t_in, t_out),
    )


def bump_radial(N: int, r_in: float, r_out: float, k: int = 4) -> ScalarField:
    """Radial bump on the annulus r_in < |y| < r_out, 1 at the middle radius."""
    if not 0.0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    if k < 3:
        raise ValueError("need smoothness k >= 3")
    value, grad, laplacian = _radial_bump(_bump_profile(r_in, r_out, k), N)
    return ScalarField(
        N=N,
        value=value,
        grad=grad,
        laplacian=laplacian,
        name=f"bump_radial([{r_in},{r_out}], k={k})",
        support=(r_in, r_out),
        symmetry=0,
    )


# ---------------------------------------------------------------------------
# graph surfaces


def graph_plane(dim: int, c: float = 0.0) -> GraphSurface:
    """Horizontal plane x_{dim+1} = c."""

    return GraphSurface(
        dim=dim,
        value=lambda y, t: np.full(np.asarray(y).shape[:-1], float(c)),
        grad=_zeros_vec,
        hessian=lambda y, t: np.zeros(np.asarray(y).shape + (dim,)),
        dt=_zeros,
        name=f"plane(c={c})",
    )


def graph_linear(a) -> GraphSurface:
    """Tilted plane x_{dim+1} = a . y."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]

    return GraphSurface(
        dim=dim,
        value=lambda y, t: np.asarray(y, float) @ a,
        grad=lambda y, t: np.broadcast_to(a, np.asarray(y).shape).copy(),
        hessian=lambda y, t: np.zeros(np.asarray(y).shape + (dim,)),
        dt=_zeros,
        name=f"linear(a={a.tolist()})",
    )


def graph_paraboloid(dim: int, eps: float) -> GraphSurface:
    """Shallow paraboloid x_{dim+1} = eps |y|^2 / 2; mean curvature eps * dim at the origin."""

    return GraphSurface(
        dim=dim,
        value=lambda y, t: 0.5 * eps * np.sum(np.asarray(y, float) ** 2, axis=-1),
        grad=lambda y, t: eps * np.asarray(y, float),
        hessian=lambda y, t: np.broadcast_to(eps * np.eye(dim), np.asarray(y).shape + (dim,)).copy(),
        dt=_zeros,
        name=f"paraboloid(eps={eps})",
    )


# ---------------------------------------------------------------------------
# finite-difference self checks


def _rel(err: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(err) / np.maximum(np.abs(ref), 1.0)))


def fd_check_scalar(field: ScalarField, points: np.ndarray) -> float:
    """Max relative mismatch between field.grad and central differences of field.value, step 1e-5."""
    h = 1e-5
    points = np.asarray(points, dtype=float)
    an = np.asarray(field.grad(points), float)
    fd = np.empty_like(an)
    for i in range(field.N):
        e = np.zeros(field.N)
        e[i] = h
        fd[..., i] = (field.value(points + e) - field.value(points - e)) / (2.0 * h)
    return _rel(fd - an, an)


def fd_check_spacetime(u: SpaceTimeField, points: np.ndarray, ts: np.ndarray) -> dict:
    """Relative FD mismatches for all stored derivatives of a space-time field.

    ts broadcasts against points[..., 0], and each stencil offset is one call
    of u.value on all points.  First derivatives use step h = 1e-5; the
    Laplacian and dtt use the larger step h2 = 1e-3 to keep the
    second-difference roundoff below the check tolerance.
    """
    h, h2 = 1e-5, 1e-3
    x = np.asarray(points, dtype=float)
    t = np.asarray(ts, dtype=float)
    steps = np.eye(u.d)

    def v(dx=0.0, dt=0.0):
        return np.asarray(u.value(x + dx, t + dt), float)

    v0 = v()
    fd = {
        "grad": np.stack([(v(h * e) - v(-h * e)) / (2.0 * h) for e in steps], axis=-1),
        "dt": (v(dt=h) - v(dt=-h)) / (2.0 * h),
        "laplacian": sum((v(h2 * e) - 2.0 * v0 + v(-h2 * e)) / h2**2 for e in steps),
        "grad_dt": np.stack(
            [(v(h * e, h) - v(-h * e, h) - v(h * e, -h) + v(-h * e, -h)) / (4.0 * h * h) for e in steps], axis=-1
        ),
        "dtt": (v(dt=h2) - 2.0 * v0 + v(dt=-h2)) / h2**2,
    }
    out = {}
    for name, approx in fd.items():
        an = np.asarray(getattr(u, name)(x, t), float)
        out[name] = _rel(approx - an, an)
    return out


def caloric_residual(u: SpaceTimeField, x, t):
    """Lap u + du/dt, zero for backward caloric fields."""
    return np.asarray(u.laplacian(x, t)) + np.asarray(u.dt(x, t))
