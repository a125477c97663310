"""Per-layer tracing from outside the library.

The tracer replaces the public functions of each module with timing
wrappers, on every module of the package that holds a reference to them
(``integrate_line`` lives in quadrature, functions and measures, for
example), and restores them afterwards.  Nothing under ``src/`` changes.

A span is (name, parent, start, end).  Spans are aggregated per
(name, parent) into a call count, an inclusive time and a self time, so a
run with millions of point evaluations keeps bounded memory.  Self time is
the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings

from scipy.integrate import IntegrationWarning

#: Where the kernel functions live: the active backend module, which the
#: kernels, functions and measures modules call through ``impl``, or the
#: kernels module itself once it holds them.
KERNELS = ("backend.impl", "kernels")

# (owner, attribute, span name); an owner is a dotted path under the
# package, or a tuple of them of which the first that has the attribute is
# used.
# Owners or attributes the library does not have are skipped and listed in
# ``Tracer.missing``, so that a refactor of the library does not break the
# benchmark; their counters then read 0.
SPANS = [
    (KERNELS, "kernel_k", "kernels.kernel_k"),
    (KERNELS, "n_factor", "kernels.n_factor"),
    (KERNELS, "symmetry_sum", "kernels.symmetry_sum"),
    (KERNELS, "alternating_sum", "kernels.alternating_sum"),
    ("quadrature", "integrate_rn", "quadrature.integrate_rn"),
    ("measures", "integrate", "measures.integrate"),
    ("measures", "check_growth", "measures.check_growth"),
    ("measures", "nevanlinna_residual", "measures.nevanlinna_residual"),
    ("functions.CauchyTypeFunction", "evaluate", "functions.evaluate"),
    ("functions.HerglotzFunction", "evaluate", "functions.evaluate"),
    ("functions.UpperRestriction", "evaluate", "functions.evaluate"),
    ("functions.ClosedFormFunction", "__call__", "functions.evaluate"),
    ("cli", "main", "cli.main"),
] + [
    ("analysis", fn, f"analysis.{fn}")
    for fn in (
        "stieltjes_cauchy_type",
        "stieltjes_classic",
        "alternating_boundary_sum",
        "characterize",
        "stoltz_limit",
        "symmetry_check",
        "positivity_check",
        "nondependence_test",
        "reconstruct_from_upper",
    )
]

ANALYSIS_FNS = [name for owner, _, name in SPANS if owner == "analysis"]

#: Per-layer metrics with their units, in the order they are reported.
LAYER_METRICS = (
    [("core.points", "count")]
    + [
        ("kernels.kernel_k.calls", "count"),
        ("kernels.kernel_k.self_s", "s"),
        ("kernels.n_factor.calls", "count"),
        ("kernels.a_line_integral.calls", "count"),
        ("kernels.a_line_integral.self_s", "s"),
        ("kernels.a_line_integral.warnings", "count"),
        ("quadrature.integrate_line.calls", "count"),
        ("quadrature.integrate_line.self_s", "s"),
        ("quadrature.integrate_rn.calls", "count"),
        ("quadrature.integrate_rn.self_s", "s"),
        ("quadrature.integrand.evals", "count"),
        ("measures.integrate.calls", "count"),
        ("measures.integrate.self_s", "s"),
        ("measures.check_growth.calls", "count"),
        ("measures.check_growth.self_s", "s"),
        ("measures.nevanlinna_residual.calls", "count"),
        ("measures.nevanlinna_residual.self_s", "s"),
        ("functions.evaluate.calls", "count"),
        ("functions.evaluate.self_s", "s"),
        ("functions.a_integral.hits", "count"),
        ("functions.a_integral.misses", "count"),
        ("functions.a_integral.hit_ratio", "ratio"),
        ("functions.a_integral.cache_size", "count"),
    ]
    + [(f"{fn}.{kind}", unit) for fn in ANALYSIS_FNS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("analysis.y_step.max_s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_frac", "ratio"),
    ]
)


def lookup(path: str):
    """The object at a dotted path under the package, or None."""
    module, *rest = path.split(".")
    try:
        obj = importlib.import_module(f"polyherglotz.{module}")
    except ImportError:
        return None
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyherglotz" or name.startswith("polyherglotz."))]


class Tracer:
    """Installs the wrappers, aggregates spans and counts, and restores."""

    def __init__(self):
        self.stack = []  # frames: [name, child time, integrate_rn children]
        self.spans = {}  # (name, parent) -> [calls, inclusive s, self s]
        self.y_steps = []  # (stieltjes span, index in the y ladder, seconds)
        self.points = 0
        self.line_calls = 0
        self.leaf_evals = 0
        self.line_warnings = 0
        self.patched = []  # (owner, attribute, original)
        self.missing = []  # targets the library does not have

    # -- spans -------------------------------------------------------------

    def _timed(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def close(frame, start):
            dur = clock() - start
            stack.pop()
            parent = stack[-1] if stack else None
            key = (name, parent[0] if parent else None)
            rec = spans.get(key)
            if rec is None:
                rec = spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
                if name == "quadrature.integrate_rn" and parent[0].startswith("analysis.stieltjes_"):
                    self.y_steps.append((parent[0], parent[2], dur))
                    parent[2] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start)

        return wrapper

    def _integrate_line(self, fn):
        """Also counts leaf integrand evaluations: those that do not open a
        nested integrate_line (the outer axes of integrate_rn do)."""
        timed = self._timed("quadrature.integrate_line", fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(t):
                before = self.line_calls
                value = f(t)
                if self.line_calls == before:
                    self.leaf_evals += 1
                return value

            self.line_calls += 1
            return timed(counted, *args, **kwargs)

        return wrapper

    def _a_line_integral(self, fn):
        """Also counts the IntegrationWarnings the backend lets through."""
        timed = self._timed("kernels.a_line_integral", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                value = timed(*args, **kwargs)
            self.line_warnings += sum(issubclass(w.category, IntegrationWarning) for w in caught)
            return value

        return wrapper

    def _count_points(self, fn):
        @functools.wraps(fn)
        def wrapper(point):
            self.points += 1
            return fn(point)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, path, attr, make_wrapper):
        """Patch a method on its class, or a function on every module of
        the package that holds it, under whatever name."""
        paths = path if isinstance(path, tuple) else (path,)
        owners = [o for o in map(lookup, paths) if o is not None and attr in vars(o)]
        if not owners:
            self.missing.append(f"{paths[0]}.{attr}")
            return
        owner = owners[0]
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        holders = [owner] if isinstance(owner, type) else package_modules()
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self.patched.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def install(self):
        self._replace("core.CutPlanePoint", "__post_init__", self._count_points)
        self._replace(KERNELS, "a_line_integral", self._a_line_integral)
        self._replace("quadrature", "integrate_line", self._integrate_line)
        for path, attr, name in SPANS:
            self._replace(path, attr, lambda fn, name=name: self._timed(name, fn))
        return self

    def uninstall(self):
        for holder, name, original in reversed(self.patched):
            setattr(holder, name, original)
        self.patched.clear()

    # -- report ------------------------------------------------------------

    def metrics(self, traced_wall, overhead_s, cache_info):
        calls, self_s = {}, {}
        root_s = 0.0
        for (name, parent), (n, incl, own) in self.spans.items():
            if parent is None:
                root_s += incl
            if not (name == parent == "functions.evaluate"):  # a wrapper's inner call is not a second evaluation
                calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        values = {"core.points": self.points}
        for metric, _unit in LAYER_METRICS:
            prefix, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls.get(prefix, 0)
            elif kind == "self_s":
                values[metric] = self_s.get(prefix, 0.0)
        values["kernels.a_line_integral.warnings"] = self.line_warnings
        values["quadrature.integrand.evals"] = self.leaf_evals
        hits, misses, size = cache_info
        values["functions.a_integral.hits"] = hits
        values["functions.a_integral.misses"] = misses
        values["functions.a_integral.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values["functions.a_integral.cache_size"] = size
        values["analysis.y_step.max_s"] = max((s for _, _, s in self.y_steps), default=0.0)
        values["trace.overhead_s"] = overhead_s
        values["trace.unattributed_frac"] = max(0.0, 1.0 - root_s / traced_wall) if traced_wall else 0.0
        return values

    def slowest_y_step(self):
        """(stieltjes span, y, seconds) of the longest y-step, or None."""
        if not self.y_steps:
            return None
        span, index, seconds = max(self.y_steps, key=lambda s: s[2])
        ladder = getattr(lookup("analysis.DEFAULT_LIMITS"), "y_sequence", ())
        return span, ladder[index] if index < len(ladder) else None, seconds
