"""Outside-in tracer for the ``ohcross`` layers.

The tracer wraps public functions by name and rebinds every module
attribute that refers to the original, so calls made through
``from .x import f`` are seen too. Nothing under ``src/`` is edited. A
listed function that the package no longer has is skipped and reports
zero calls. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# The functions wrapped in each module; metric names are module.function.
LAYERS = {
    "cli": ("run",),
    "model": ("scale_parameters",),
    "hamiltonian": ("build_hamiltonian",),
    "spectrum": ("analytic_eigenvalues", "characteristic_polynomial",
                 "eigenvalues_from_charpoly", "numeric_eigenvalues"),
    "algebra": ("solve_quartic", "solve_cubic", "numeric_roots",
                "symmetric_eigenvalues", "det_gauss"),
    "discriminant": ("evaluate_factors", "determinant_identity_check",
                     "g_coefficients"),
    "crossings": ("crossing_catalog", "f1_crossings", "f2_crossings",
                  "pair_gap", "golden_min", "b1_exact_tilde",
                  "resolvent_analysis"),
    "fitting": ("fit_power_law",),
    "plotting": ("render_line_plot",),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
# Spans of these functions also record how many records they returned.
SIZED = frozenset({"crossings.crossing_catalog", "crossings.f1_crossings",
                   "crossings.f2_crossings"})

# Field order of a span tuple.
NAME, START, END, PARENT, REQUEST, SIZE = range(6)


class Tracer:
    """Collects (name, start, end, parent index, request id, size) spans."""

    def __init__(self) -> None:
        self.spans = []
        self.request = -1
        self.missing = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = len(result) if sized and result is not None else None
                spans[index] = (name, start, end, parent, self.request, size)

        return traced

    def install(self, package: str = "ohcross", layers=LAYERS) -> None:
        """Wrap every listed function and rebind it in all package modules."""
        targets = []
        for module_name, functions in layers.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{fn}" for fn in functions)
                continue
            for fn in functions:
                original = getattr(module, fn, None)
                if callable(original):
                    targets.append((original, self.wrap(f"{module_name}.{fn}", original)))
                else:
                    self.missing.append(f"{module_name}.{fn}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for original, wrapped in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def self_times(spans) -> list:
    """Per span, its duration minus the union of its direct children's
    intervals clipped to it. Grandchildren are inside their parent's
    interval, so they are not subtracted twice."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children.get(index, ())):
            c_lo, c_hi = max(c_lo, span[START]), min(c_hi, span[END])
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        result.append(span[END] - span[START] - covered)
    return result


def layer_metrics(spans, scales) -> dict:
    """Mean calls and self milliseconds per request for every listed
    function, over the spans of requests 0 .. len(scales)-1, plus the
    catalog waste ratios. Self time of request k is multiplied by
    scales[k]. Functions with no spans report zero."""
    requests = len(scales)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    sizes = dict.fromkeys(SIZED, 0)
    for span, own in zip(spans, self_times(spans)):
        if not 0 <= span[REQUEST] < requests:
            continue
        name = span[NAME]
        calls[name] += 1
        self_s[name] += own * scales[span[REQUEST]]
        if span[SIZE] is not None:
            sizes[name] += span[SIZE]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / requests
        metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / requests
    kept = sizes["crossings.crossing_catalog"]
    candidates = sizes["crossings.f1_crossings"] + sizes["crossings.f2_crossings"]
    metrics["crossings.kept_ratio"] = kept / candidates if candidates else 0.0
    metrics["crossings.pair_gap_per_record"] = (
        calls["crossings.pair_gap"] / kept if kept else 0.0)
    return metrics
