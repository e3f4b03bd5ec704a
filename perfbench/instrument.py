"""Counting and timing wrappers that the benchmark installs on dimlift at run time.

Nothing here edits the package's files.  ``Instrument.install`` replaces the
package's public functions with wrappers, on every dimlift module that binds
them: the functionals and the CLI use ``from .. import`` and hold their own
references, so patching only the defining module would miss most calls.

Two kinds of wrapper exist:

* counting wrappers, always on: every field built through ``dimlift.fields``
  (and every integrand the benchmark builds itself) counts the points it is
  asked to evaluate.  They read no clock.
* span wrappers, on only when tracing: each call into a layer's public
  functions is a span.  A layer's self time is its spans' time minus the time
  of the spans they caused, on the same thread.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import threading
import time
import weakref

# layers that are reported; "integrate.mc.sample" is the time spent inside
# the sampler generators and is reported as integrate.mc.sample_s
LAYERS = ("cli", "functionals", "integrate", "integrate.mc", "integrate.mc.sample", "fields", "lift", "weights")

_MARK = "_perfbench_wrapped"


class _Layer:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0  # outermost spans of the layer only, so nesting is not counted twice
        self.self_s = 0.0


class Tracer:
    """In-memory span accounting per layer; spans nest per thread."""

    def __init__(self) -> None:
        self.layers = {name: _Layer() for name in LAYERS}
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, layer: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]  # [layer, time covered by child spans]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if parent is not None:
                parent[1] += dur
            with self._lock:
                rec = self.layers[layer]
                rec.calls += 1
                rec.self_s += dur - frame[1]
                if parent is None or parent[0] != layer:
                    rec.total_s += dur


def _leading_points(x) -> tuple[int, int]:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1, 0
    return math.prod(shape[:-1]), int(getattr(x, "nbytes", 0))


def _ref(obj):
    """A weak reference to obj, or a dead one if obj cannot be referenced."""
    try:
        return weakref.ref(obj)
    except TypeError:
        return lambda: None


class _Same:
    """An array argument, compared by identity and not kept alive."""

    __slots__ = ("ref",)

    def __init__(self, arr) -> None:
        self.ref = _ref(arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Same) and self.ref() is not None and self.ref() is other.ref()

    __hash__ = None


def _token(arg):
    """An extra argument as compared between calls: arrays by identity,
    anything else by value."""
    return _Same(arg) if getattr(arg, "ndim", 0) else arg


def _equal(key_a: tuple, key_b: tuple) -> bool:
    try:
        return bool(key_a == key_b)
    except Exception:  # a value that cannot be compared is taken as new
        return False


class Instrument:
    """Counters for one benchmark child, plus an optional tracer."""

    def __init__(self, trace: bool) -> None:
        self.tracer = Tracer() if trace else None
        self._lock = threading.Lock()
        self.points = 0
        self.max_batch_points = 0
        self.max_batch_bytes = 0
        self.evaluations = 0
        self.cli_bytes = 0
        self.mc_batches = 0
        self.mc_samples = 0
        self.mc_reduce_s = 0.0
        self.mc_quad_s = 0.0
        self.quad_calls = 0
        self.quad_repeats = 0
        self._quad_keys: set = set()

    # -- counting -------------------------------------------------------

    def _count(self, seen: threading.local, fn, x, args, kwargs) -> None:
        # callables of one field applied to one point set (value and grad on
        # the same x at the same t) evaluate it once; a repeated callable, a
        # new x or new extra arguments (the next time node) is a new point set
        key = tuple(map(_token, args)) + tuple((k, _token(v)) for k, v in sorted(kwargs.items()))
        last = getattr(seen, "last", None)
        if last is not None and last[0]() is x and fn not in last[2] and _equal(last[1], key):
            last[2].add(fn)
            return
        seen.last = (_ref(x), key, {fn})
        pts, nbytes = _leading_points(x)
        with self._lock:
            self.points += pts
            self.max_batch_points = max(self.max_batch_points, pts)
            self.max_batch_bytes = max(self.max_batch_bytes, nbytes)

    def integrand(self, fn, seen: threading.local | None = None):
        """Wrap a field callable or benchmark-built integrand f(x, ...).

        ``seen`` is shared by the callables of one field; a lone integrand
        gets its own.
        """
        if getattr(fn, _MARK, False):
            return fn
        tracer = self.tracer
        if seen is None:
            seen = threading.local()

        def counted(x, *args, **kwargs):
            self._count(seen, fn, x, args, kwargs)
            if tracer is None:
                return fn(x, *args, **kwargs)
            return tracer.call("fields", fn, (x,) + args, kwargs)

        setattr(counted, _MARK, True)
        return counted

    def field(self, obj):
        """Return the field (or tuple of fields) with every callable counted."""
        if isinstance(obj, tuple):
            return tuple(self.field(o) for o in obj)
        if not dataclasses.is_dataclass(obj):
            return obj
        seen = threading.local()
        changes = {
            f.name: self.integrand(getattr(obj, f.name), seen)
            for f in dataclasses.fields(obj)
            if callable(getattr(obj, f.name))
        }
        return dataclasses.replace(obj, **changes) if changes else obj

    # -- patching -------------------------------------------------------

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "dimlift" and not name.startswith("dimlift."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)

    @staticmethod
    def _public_functions(mod) -> list:
        return [getattr(mod, n) for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]

    def install(self) -> None:
        import dimlift.cli
        import dimlift.fields
        import dimlift.functionals
        import dimlift.integrate
        import dimlift.lift
        import dimlift.weights

        for ctor in self._public_functions(dimlift.fields):
            self._rebind(ctor, self._constructor(ctor))
        if self.tracer is None:
            return

        special = {
            "sample_sphere_uniform": self._sampler,
            "sample_mu_ball": self._sampler,
            "mc_mean": self._mc_mean,
            "pushforward_check_sphere": self._pushforward,
            "pushforward_check_ball": self._pushforward,
        }
        for fn in self._public_functions(dimlift.integrate):
            self._rebind(fn, special.get(fn.__name__, self._quadrature)(fn))
        for layer, mod in (
            ("functionals", dimlift.functionals),
            ("lift", dimlift.lift),
            ("weights", dimlift.weights),
        ):
            for fn in self._public_functions(mod):
                self._rebind(fn, self._span(layer, fn))
        self._rebind(dimlift.cli.main, self._span("cli", dimlift.cli.main))

    def _constructor(self, ctor):
        def build(*args, **kwargs):
            return self.field(ctor(*args, **kwargs))

        return build

    def _span(self, layer: str, fn):
        tracer = self.tracer

        def spanned(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)

        return spanned

    def _quadrature(self, fn):
        tracer = self.tracer

        def spanned(*args, **kwargs):
            est = tracer.call("integrate", fn, args, kwargs)
            self.evaluations += est.evaluations
            return est

        return spanned

    def _sampler(self, gen_fn):
        tracer = self.tracer

        def sampled(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                try:
                    batch = tracer.call("integrate.mc.sample", next, (gen,), {})
                except StopIteration:
                    return
                self.mc_batches += 1
                self.mc_samples += len(batch)
                yield batch

        return sampled

    def _mc_mean(self, fn):
        tracer = self.tracer
        sample = tracer.layers["integrate.mc.sample"]

        def reduced(*args, **kwargs):
            sampled_before = sample.total_s
            start = time.perf_counter()
            try:
                return tracer.call("integrate.mc", fn, args, kwargs)
            finally:
                self.mc_reduce_s += time.perf_counter() - start - (sample.total_s - sampled_before)

        return reduced

    def _pushforward(self, fn):
        tracer = self.tracer
        quad = tracer.layers["integrate"]
        params = list(inspect.signature(fn).parameters)

        def checked(*args, **kwargs):
            bound = dict(zip(params, args), **kwargs)
            # the quadrature side depends on everything but the sampling plan
            key = (fn.__name__,) + tuple(
                (k, v) for k, v in sorted(bound.items(), key=lambda kv: kv[0]) if k not in ("mc", "threads")
            )
            self.quad_calls += 1
            if key in self._quad_keys:
                self.quad_repeats += 1
            self._quad_keys.add(key)
            quad_before = quad.total_s
            try:
                return tracer.call("integrate.mc", fn, args, kwargs)
            finally:
                self.mc_quad_s += quad.total_s - quad_before

        return checked

    # -- report ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of a traced child (the tracer must be on)."""
        lay = self.tracer.layers
        out = {}
        for name in ("cli", "functionals", "integrate", "fields", "lift", "weights"):
            out[f"{name}.calls"] = lay[name].calls
            out[f"{name}.self_s"] = lay[name].self_s
        out["cli.bytes_written"] = self.cli_bytes
        out["integrate.evaluations"] = self.evaluations
        out["fields.points"] = self.points
        out["fields.max_batch_points"] = self.max_batch_points
        out["fields.max_batch_mb"] = self.max_batch_bytes / 2**20
        out["integrate.mc.batches"] = self.mc_batches
        out["integrate.mc.samples"] = self.mc_samples
        out["integrate.mc.sample_s"] = lay["integrate.mc.sample"].total_s
        out["integrate.mc.reduce_s"] = self.mc_reduce_s
        out["integrate.mc.quad_s"] = self.mc_quad_s
        out["integrate.mc.quad_repeat_frac"] = self.quad_repeats / self.quad_calls if self.quad_calls else 0.0
        return out
