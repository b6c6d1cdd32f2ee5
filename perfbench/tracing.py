"""Span tracing of oscphase's layers from outside the package.

`Tracer.install` replaces each listed public function with a wrapper in
every `oscphase` module namespace that binds it (a function imported by name
into another module is a second binding: `coefficients.eval_jet` as well as
`exprs.eval_jet`), and `Tracer.restore` puts every original back.  Each call
records a span (name, start, end, parent) plus, for the dd kernels, the
number of array elements it was given.  Spans stay in memory, in compact
arrays, until the run reduces them to per-layer metrics.

A span's self time is its duration minus the part of it that its child spans
cover.  Within one root span the self times add up to the root's duration,
so the sum over all spans equals the time spent inside any traced call.
"""

from __future__ import annotations

import array
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "oscphase"

# Layer functions by defining module, as named in the per-layer metrics.
LAYERS = {
    "exprs": ("eval_jet", "eval_real", "eval_array", "eval_dd"),
    "jets": ("jet_revert", "jet_compose", "jet_map"),
    "coefficients": ("find_stationary_point", "amplitude_series",
                     "recursion_coefficients", "mp_coefficients", "infer_T"),
    "expansion": ("hypothesis_audit", "boundary_terms", "error_scale_terms",
                  "fdt_error_terms"),
    "oracle": ("build_breakpoints", "oscillatory_quadrature_detail"),
    "ddmath": ("e_unit_dd", "sum_nodes", "sum_pairwise", "gauss_legendre_dd"),
    "study": ("run_study",),
    "cli": ("main",),
}


def _dd_elems(args) -> int:
    """Elements of the dd array a kernel was handed (eval_dd's x, or f)."""
    arg = args[1] if len(args) > 1 and isinstance(args[1], tuple) else args[0]
    return int(np.size(arg[0]))


ELEMENT_COUNTERS = {"exprs.eval_dd": _dd_elems, "ddmath.e_unit_dd": _dd_elems}


@dataclass
class Spans:
    """Span records as parallel arrays; parent is -1 for a root span."""

    names: list = field(default_factory=list)
    name_ids: dict = field(default_factory=dict)
    name: array.array = field(default_factory=lambda: array.array("i"))
    parent: array.array = field(default_factory=lambda: array.array("i"))
    start: array.array = field(default_factory=lambda: array.array("d"))
    end: array.array = field(default_factory=lambda: array.array("d"))
    elems: array.array = field(default_factory=lambda: array.array("q"))

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int,
            elems: int = 0) -> int:
        """Append one finished span (used by tests and by the wrappers)."""
        self.name.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.elems.append(elems)
        return len(self.name) - 1

    def __len__(self) -> int:
        return len(self.name)


def self_times(spans: Spans) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals.

    Spans are stored in the order they started, so the children of a span
    arrive in start order and their union is a running merge.
    """
    n = len(spans)
    start = np.frombuffer(spans.start, dtype=np.float64, count=n)
    end = np.frombuffer(spans.end, dtype=np.float64, count=n)
    out = end - start
    reach = {}  # parent -> furthest child end merged so far
    for i, p in enumerate(spans.parent):
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
        reach[p] = max(reach.get(p, start[p]), end[i])
    return out


def ancestors_named(spans: Spans, name: str) -> np.ndarray:
    """Mask of spans that have `name` among their proper ancestors."""
    target = spans.name_ids.get(name, -2)
    inside = np.zeros(len(spans), dtype=bool)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            inside[i] = inside[p] or spans.name[p] == target
    return inside


def root_time(spans: Spans) -> float:
    return sum(spans.end[i] - spans.start[i]
               for i in range(len(spans)) if spans.parent[i] < 0)


class Tracer:
    """Wraps layer functions in place and records their spans."""

    def __init__(self, watch: tuple = ()):
        self.spans = Spans()
        self.results = []  # (name, return value) of the watched functions
        self.watch = set(watch)
        self._stack = []
        self._saved = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = ELEMENT_COUNTERS.get(name)
        watched = name in self.watch
        results = self.results

        def wrapper(*args, **kwargs):
            idx = spans.add(name, 0.0, 0.0, stack[-1] if stack else -1,
                            count(args) if count else 0)
            stack.append(idx)
            spans.start[idx] = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
            if watched:
                results.append((name, value))
            return value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Trace one more function, bound under `attr` in `module` only."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original))

    def install(self) -> None:
        """Wrap every layer function in every namespace that binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for short, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
