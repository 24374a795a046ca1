"""In-memory span recorder that wraps the package's public functions.

Nothing under ``src/`` is changed: :meth:`Tracer.install` replaces every
binding of each traced function (module globals, the package root, class
attributes) with a wrapper that records a span or bumps a counter.  Spans are
kept in memory as ``(id, name, start, end, parent, run_id)`` tuples and
written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# Functions timed as spans.  Each entry is (span name, home module,
# attribute); a dotted attribute names a method of a class in that module.
SPANNED = (
    ("quadrature.oscillatory_halfline", "qedvolterra.quadrature",
     "oscillatory_halfline"),
    ("quadrature.integrate_finite", "qedvolterra.quadrature",
     "integrate_finite"),
    ("kernels.make_kernel", "qedvolterra.kernels", "make_kernel"),
    ("kernels.row", "qedvolterra.kernels", "KernelEvaluator.row"),
    ("kernels.tau_values", "qedvolterra.kernels",
     "KernelEvaluator.tau_values"),
    ("kernels.eval", "qedvolterra.kernels", "KernelEvaluator.eval"),
    ("volterra.solve_ide", "qedvolterra.volterra", "solve_ide"),
    ("volterra.compute_Z", "qedvolterra.volterra", "compute_Z"),
    ("volterra.solve_integral_form", "qedvolterra.volterra",
     "solve_integral_form"),
    ("laplace.analyze", "qedvolterra.laplace", "analyze"),
    ("laplace.find_pole", "qedvolterra.laplace", "find_pole"),
    ("laplace.bromwich_invert", "qedvolterra.laplace", "bromwich_invert"),
    ("cli.main", "qedvolterra.cli", "main"),
    ("cli.fit_decay", "qedvolterra.cli", "fit_decay"),
)

# Functions only counted: they run too often, or too briefly, for a span.
# KernelEvaluator.tau is deliberately absent (about 8 M calls per squeezed
# solve); its callers row / tau_values / eval carry the spans instead.
COUNTED = (
    ("kernels.vacuum_kernel", "qedvolterra.kernels", "vacuum_kernel"),
    ("kernels.hydrogen_vacuum_density", "qedvolterra.kernels",
     "hydrogen_vacuum_density"),
    ("laplace.s_hat", "qedvolterra.laplace", "s_hat"),
    ("laplace.s_hat_second_sheet", "qedvolterra.laplace",
     "s_hat_second_sheet"),
)

_PACKAGE = "qedvolterra"

# every per-layer metric with its unit, in report order
LAYER_UNITS = {
    "quadrature.halfline_calls": "count", "quadrature.halfline_self_s": "s",
    "quadrature.finite_calls": "count", "quadrature.finite_self_s": "s",
    "quadrature.integrand_points": "count", "kernels.build_s": "s",
    "kernels.lag_quadratures": "count", "kernels.quadratures_per_lag": "ratio",
    "kernels.lookup_calls": "count", "kernels.lookup_self_s": "s",
    "volterra.solve_calls": "count", "volterra.steps": "count",
    "volterra.solve_self_s": "s", "volterra.steps_per_s": "1/s",
    "volterra.integral_form_s": "s", "laplace.bromwich_s": "s",
    "laplace.contour_points": "count", "laplace.analyze_s": "s",
    "laplace.poles": "count", "laplace.sheet2_evals": "count",
    "cli.self_s": "s", "cli.output_bytes": "bytes", "cli.threads_max": "count",
    "trace.overhead_s": "s",
}

# a layer has run when one of these is nonzero (span-coverage self-check)
LAYER_EVIDENCE = {
    "quadrature": ("quadrature.halfline_calls", "quadrature.finite_calls",
                   "quadrature.integrand_points"),
    "kernels": ("kernels.build_s", "kernels.lag_quadratures",
                "kernels.lookup_calls"),
    "volterra": ("volterra.solve_calls", "volterra.integral_form_s"),
    "laplace": ("laplace.bromwich_s", "laplace.analyze_s", "laplace.poles",
                "laplace.sheet2_evals"),
    "cli": ("cli.self_s", "cli.output_bytes"),
}


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.lags: set = set()
        self.threads_max = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list = self._stack()
        self.patched: dict[str, list[str]] = defaultdict(list)
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] += n

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack())

    def _begin(self, name: str):
        stack = self._stack()
        # a span opened on a worker thread hangs under the span that is
        # open on the main thread (the sweep's thread pool)
        parent_stack = stack if stack else self._main_stack
        parent = parent_stack[-1][0] if parent_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self.threads_max = max(self.threads_max, threading.active_count())
        stack.append((sid, name, parent, time.perf_counter()))

    def _end(self):
        end = time.perf_counter()
        sid, name, parent, start = self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.run_id))

    # -- patching ----------------------------------------------------------
    def _replace_everywhere(self, label: str, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE
                                   or mod_name.startswith(_PACKAGE + ".")):
                continue
            targets = [mod] + [v for v in vars(mod).values()
                               if isinstance(v, type)
                               and v.__module__ == mod_name]
            for owner in targets:
                for key, val in list(vars(owner).items()):
                    if val is original:
                        self._undo.append((owner, key, val))
                        setattr(owner, key, wrapper)
                        site = mod_name if owner is mod \
                            else f"{mod_name}.{owner.__name__}"
                        self.patched[label].append(f"{site}.{key}")

    def _span_wrapper(self, name, fn):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return wrapper

    def _count_wrapper(self, name, fn):
        count = self.count
        if name == "kernels.vacuum_kernel":
            lags = self.lags

            def on_call(args):
                count(name)
                lags.add(float(args[0]))
        elif name == "kernels.hydrogen_vacuum_density":
            def on_call(args):
                count("quadrature.integrand_points",
                      getattr(args[0], "size", 1))
        elif name == "laplace.s_hat":
            def on_call(args):
                if self.inside("laplace.bromwich_invert"):
                    count("laplace.contour_points")
        else:
            def on_call(args):
                count(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)
        return wrapper

    def _solve_wrapper(self, fn):
        inner = self._span_wrapper("volterra.solve_ide", fn)
        count = self.count

        @functools.wraps(fn)
        def wrapper(kernel, params, grid, *args, **kwargs):
            count("volterra.steps", grid.n_steps)
            return inner(kernel, params, grid, *args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every binding of the traced functions.

        A traced function that no longer exists under its name raises here,
        so a rename or move fails the traced run instead of reading 0.
        """
        for name, module, attr in SPANNED:
            fn = _resolve(module, attr)
            wrapper = self._solve_wrapper(fn) \
                if name == "volterra.solve_ide" \
                else self._span_wrapper(name, fn)
            self._replace_everywhere(name, fn, wrapper)
        for name, module, attr in COUNTED:
            fn = _resolve(module, attr)
            self._replace_everywhere(name, fn, self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        children = defaultdict(list)
        for sid, name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return {sid: (end - start)
                - union_length(children.get(sid, ()), start, end)
                for sid, name, start, end, parent, _ in self.spans}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


def missing_layers(metrics: dict, layers) -> list[str]:
    """Layers that recorded no span or count in ``metrics``."""
    return [layer for layer in layers
            if not any(metrics[m] for m in LAYER_EVIDENCE[layer])]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead_s`` excluded)."""
    self_t = tr.self_times()
    by_id = {s[0]: s for s in tr.spans}
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    outer_s: defaultdict = defaultdict(float)
    for sid, name, start, end, parent, _ in tr.spans:
        calls[name] += 1
        self_s[name] += self_t[sid]
        # inclusive time, counting a span nested in a span of the same name
        # (make_kernel building its vacuum part) only once
        p = parent
        while p is not None and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None:
            outer_s[name] += end - start

    lookups = ("kernels.row", "kernels.tau_values", "kernels.eval")
    steps = tr.counts["volterra.steps"]
    solve_self = self_s["volterra.solve_ide"]
    lag_q = tr.counts["kernels.vacuum_kernel"]
    return {
        "quadrature.halfline_calls": calls["quadrature.oscillatory_halfline"],
        "quadrature.halfline_self_s": self_s["quadrature.oscillatory_halfline"],
        "quadrature.finite_calls": calls["quadrature.integrate_finite"],
        "quadrature.finite_self_s": self_s["quadrature.integrate_finite"],
        "quadrature.integrand_points": tr.counts["quadrature.integrand_points"],
        "kernels.build_s": outer_s["kernels.make_kernel"],
        "kernels.lag_quadratures": lag_q,
        "kernels.quadratures_per_lag": lag_q / len(tr.lags) if tr.lags else 0.0,
        "kernels.lookup_calls": sum(calls[n] for n in lookups),
        "kernels.lookup_self_s": sum(self_s[n] for n in lookups),
        "volterra.solve_calls": calls["volterra.solve_ide"],
        "volterra.steps": steps,
        "volterra.solve_self_s": solve_self,
        "volterra.steps_per_s": steps / solve_self if solve_self > 0 else 0.0,
        "volterra.integral_form_s": outer_s["volterra.compute_Z"]
        + outer_s["volterra.solve_integral_form"],
        "laplace.bromwich_s": outer_s["laplace.bromwich_invert"],
        "laplace.contour_points": tr.counts["laplace.contour_points"],
        "laplace.analyze_s": outer_s["laplace.analyze"],
        "laplace.poles": calls["laplace.find_pole"],
        "laplace.sheet2_evals": tr.counts["laplace.s_hat_second_sheet"],
        "cli.self_s": self_s["cli.main"] + self_s["cli.fit_decay"],
        "cli.output_bytes": tr.counts["cli.output_bytes"],
        "cli.threads_max": tr.threads_max,
    }
