"""Layer-boundary tracing for the benchmark's traced run.

The tracer wraps module-level functions of radialmax at each layer
boundary and rebinds the wrapper under every name that holds the original
in any radialmax module, so calls made through `from .x import f` imports
are seen too.  Each call records a span [name, layer, start, end, parent,
case, n] in memory, where n is the call's work units (points, segments,
balls).  Nothing in the library changes; `uninstall` restores every
binding.  Boundaries missing from the library are skipped, and their
metrics read 0.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

NAME, LAYER, START, END, PARENT, CASE, N = range(7)

INTEGRAND = "quadrature.integrand"


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _count_live(lo, hi) -> int:
    return int(np.count_nonzero(np.asarray(hi, dtype=float) > np.asarray(lo, dtype=float)))


# (module, function, layer, argument whose length is the call's work units;
# "segments" counts the live quadrature segments and also traces the integrand)
BOUNDARIES = [
    ("specfun", "log_sin_power_from_trig", "specfun", "sin_sq"),
    ("quadrature", "log_integrate_batch", "quadrature", "segments"),
    ("optimize", "golden_section_max_batch", "optimize", None),
    ("measure", "_batched_shell_logs", "measure", "cs"),
    ("measure", "log_ball_offcenter", "measure", None),
    ("measure", "log_ball_offcenter_shell", "measure", None),
    ("measure", "shift_condition_ratios", "measure", None),
    ("radial", "_ball_averages_batch", "radial", "cs"),
    ("radial", "centered_max_radial_grid", "radial", "cs"),
    ("radial", "centered_max_radial", "radial", None),
    ("radial", "weak_type_quotient_radial", "radial", None),
    ("maximal1d", "level_sets", "maximal1d", None),
    ("maximal1d", "uncentered_max_grid", "maximal1d", "xs"),
    ("maximal1d", "weak_type_quotient_1d", "maximal1d", None),
    ("bounds", "delta_lower_bound", "bounds", None),
    ("bounds", "cp_lower_bound", "bounds", None),
    ("cli", "main", "cli", None),
    ("cli", "_emit", "cli", "rows"),
]


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list = []
        self.case = -1
        self._stack: list = []
        self._patches: list = []

    def call(self, name, layer, n, fn, args, kwargs):
        span = [name, layer, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.case, n]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _integrand(self, log_f):
        def traced(seg, s):
            return self.call(INTEGRAND, "integrand", _size(s), log_f, (seg, s), {})
        return traced

    def _wrapper(self, qualname, layer, fn, unit):
        params = list(inspect.signature(fn).parameters)

        def arg(args, kwargs, name):
            if name in kwargs:
                return kwargs[name]
            i = params.index(name)
            return args[i] if i < len(args) else None

        def wrapper(*args, **kwargs):
            n = 0
            if unit == "segments":
                lo, hi = arg(args, kwargs, "lo"), arg(args, kwargs, "hi")
                n = _count_live(lo, hi)
                if "log_f" in kwargs:
                    kwargs["log_f"] = self._integrand(kwargs["log_f"])
                else:
                    args = (self._integrand(args[0]),) + args[1:]
            elif unit is not None and unit in params:
                n = _size(arg(args, kwargs, unit))
            return self.call(qualname, layer, n, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "radialmax" or k.startswith("radialmax."))]
        for mod_name, fn_name, layer, unit in BOUNDARIES:
            home = sys.modules.get(f"radialmax.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", layer, fn, unit)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced pass (see README.md for each name)."""
    self_t = _self_times(spans)
    calls: dict = {}
    units: dict = {}
    incl: dict = {}
    layer_self: dict = {}
    for s, st in zip(spans, self_t):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        units[name] = units.get(name, 0) + s[N]
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        layer_self[s[LAYER]] = layer_self.get(s[LAYER], 0.0) + st

    def parented_by(child_names, parent_name):
        hits = [s for s in spans if s[NAME] in child_names
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name]
        return len(hits), sum(s[N] for s in hits)

    def ratio(a, b):
        return a / b if b else 0.0

    _, peak_evals = parented_by({INTEGRAND}, "optimize.golden_section_max_batch")
    max_fn_calls, max_fn_points = parented_by(
        {"radial.centered_max_radial_grid", "maximal1d.uncentered_max_grid"},
        "maximal1d.level_sets")
    segments = units.get("quadrature.log_integrate_batch", 0)
    evals = units.get(INTEGRAND, 0)
    points = units.get("radial.centered_max_radial_grid", 0)
    averages = units.get("radial._ball_averages_batch", 0)
    return {
        "specfun.sinpow_calls": (calls.get("specfun.log_sin_power_from_trig", 0), "count"),
        "specfun.sinpow_points": (units.get("specfun.log_sin_power_from_trig", 0), "count"),
        "specfun.sinpow_s": (incl.get("specfun.log_sin_power_from_trig", 0.0), "s"),
        "quadrature.calls": (calls.get("quadrature.log_integrate_batch", 0), "count"),
        "quadrature.segments": (segments, "count"),
        "quadrature.integrand_calls": (calls.get(INTEGRAND, 0), "count"),
        "quadrature.integrand_evals": (evals, "count"),
        "quadrature.evals_per_segment": (ratio(evals, segments), "evals/segment"),
        "quadrature.integrand_s": (incl.get(INTEGRAND, 0.0), "s"),
        "quadrature.self_s": (layer_self.get("quadrature", 0.0), "s"),
        "optimize.peak_calls": (calls.get("optimize.golden_section_max_batch", 0), "count"),
        "optimize.peak_evals": (peak_evals, "count"),
        "optimize.peak_s": (incl.get("optimize.golden_section_max_batch", 0.0), "s"),
        "measure.shell_calls": (calls.get("measure._batched_shell_logs", 0), "count"),
        "measure.balls": (units.get("measure._batched_shell_logs", 0), "count"),
        "measure.self_s": (layer_self.get("measure", 0.0), "s"),
        "radial.points": (points, "count"),
        "radial.ball_averages": (averages, "count"),
        "radial.ball_averages_per_point": (ratio(averages, points), "averages/point"),
        "radial.self_s": (layer_self.get("radial", 0.0), "s"),
        "maximal1d.level_set_calls": (calls.get("maximal1d.level_sets", 0), "count"),
        "maximal1d.max_fn_calls": (max_fn_calls, "count"),
        "maximal1d.max_fn_points": (max_fn_points, "count"),
        "maximal1d.uncentered_points": (units.get("maximal1d.uncentered_max_grid", 0), "count"),
        "maximal1d.self_s": (layer_self.get("maximal1d", 0.0), "s"),
        "bounds.certificates": (calls.get("bounds.delta_lower_bound", 0)
                                + calls.get("bounds.cp_lower_bound", 0), "count"),
        "bounds.s": (layer_self.get("bounds", 0.0), "s"),
        "cli.commands": (calls.get("cli.main", 0), "count"),
        "cli.rows": (units.get("cli._emit", 0), "count"),
        "cli.self_s": (layer_self.get("cli", 0.0), "s"),
        "trace.spans": (len(spans), "count"),
    }
