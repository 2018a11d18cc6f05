"""In-memory span recorder for the traced benchmark run.

The tracer replaces each traced public function with a timing wrapper at
every attribute of a loaded ``morphfit`` module that holds it, so a call is
recorded whichever name its caller looks up (a module-level
``from .x import f`` copy, or an attribute read at call time). Spans stay in
memory and are reduced to per-layer figures once the run ends; nothing is
written while a job is being timed.

A traced name that no longer exists is reported as absent, not as an error,
so the benchmark keeps running when a later version of the package drops or
renames a function.
"""

import functools
import importlib
import sys
import threading
import time

import numpy as np

# "<module>.<function>" for each traced public name, keyed by the module that
# defines it. Span names and per-layer metric names use the same keys.
TRACED = (
    "synth.generate_set", "synth.render", "synth.write_dataset", "synth.load_dataset",
    "noise.noise_image", "noise.fbm3",
    "shape_model.instance_shape", "shape_model.select_landmarks",
    "camera.project_points",
    "features.assemble_feature", "features.extract_descriptor",
    "features.write_pgm", "features.read_pgm",
    "cascade.train_cascade", "cascade.train_stage", "cascade.predict_update",
    "cascade.fit", "cascade.save_regressor", "cascade.load_regressor",
    "util.parallel_map",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = None
        self.end = None
        self.start = time.perf_counter()


def _ridge_gflop(features, deltas):
    """Operation count of the primal ridge solve for an (M, F) feature
    matrix and (M, p) targets: Gram matrix, right-hand side and an LU solve
    of the F x F system. Computed from the shapes, not measured."""
    m, f = np.shape(features)
    p = np.shape(deltas)[1]
    return (2.0 * m * f * f + 2.0 * m * f * p + 2.0 * f ** 3 / 3.0 + 2.0 * f * f * p) / 1e9


class Tracer:
    """Records spans around the TRACED functions while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        try:
            if name == "util.parallel_map":
                args, kwargs = self._parallel_args(span, args, kwargs)
            out = fn(*args, **kwargs)
            if name == "features.extract_descriptor":
                span.info = not np.any(out)
            elif name == "cascade.train_stage":
                span.info = _ridge_gflop(args[0], args[1])
            return out
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _parallel_args(self, span, args, kwargs):
        """Time each item of a parallel_map call and parent the spans that
        worker threads open to the parallel_map span."""
        item_fn = args[0]
        jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
        busy = []
        span.info = (max(1, jobs or 1), busy)

        def timed_item(x):
            stack = self._stack()
            stack.append(span)
            t0 = time.perf_counter()
            try:
                return item_fn(x)
            finally:
                busy.append(time.perf_counter() - t0)
                stack.pop()

        return (timed_item,) + tuple(args[1:]), kwargs

    def install(self):
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "morphfit" or n.startswith("morphfit."))]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            try:
                orig = getattr(importlib.import_module("morphfit." + mod_name), fn_name, None)
            except ImportError:
                orig = None
            if not callable(orig):
                self.absent.append(qual)
                continue
            wrapper = self._make_wrapper(qual, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched = []

    def _make_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(spans):
    """Per-name calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it covered by its child
    spans; children running in parallel worker threads are counted once
    where they overlap. Also returns the wall time covered by top-level
    spans and the children of each span, for callers that need them.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    table = {}
    for s in spans:
        kids = children.get(id(s), [])
        covered = _union_length([(max(k.start, s.start), min(k.end, s.end)) for k in kids])
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += (s.end - s.start) - covered
    top = _union_length([(s.start, s.end) for s in spans if s.parent is None])
    return table, top, children
