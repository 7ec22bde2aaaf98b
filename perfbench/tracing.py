"""Span tracing of the solver's layers, done from outside the package.

`instrument` swaps the public functions of each layer (and the public
methods of the moment-system and diffusion-field classes) for wrappers that
record a span: name, start, end and the index of the enclosing span. Every
module-level alias of a function is swapped, so calls made through another
module's import of it are seen too. Spans stay in memory; `write_spans`
saves them when the run ends. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "moment_glioma"

#: public functions traced per layer (module name -> function names)
FUNCTIONS = {
    "fields_io": ("read_tensor_field",),
    "tissue": ("derive_tissue_fields", "synth_fiber_strand", "peanut_node_values"),
    "kinetic": ("compute_scaling", "build_cell_fields", "diffusion_fields", "anchor_nodes_for"),
    "quadrature": ("build_quadrature", "build_hemisphere_quadrature"),
    "systems": ("build_system",),
    "reconstruct": (
        "weno2_slope", "vector_weno_slope", "canonical_eig", "group_characteristic_slopes",
    ),
    "solver": (
        "run_kinetic", "strang_step", "flux_step", "dg_source_step", "dg_linear_propagator",
    ),
    "diffusion": ("build_diffusion_fields", "run_diffusion", "diffusion_step"),
    "scenarios": ("build_fiber_strand_scenario", "build_file_scenario", "run_scenario"),
}

#: public methods traced on every class the module defines that has them
METHODS = {
    "systems": (
        "flux", "flux_jacobian", "source", "source_jacobian", "char_data",
        "char_slopes", "boundary_flux", "realizable_mask",
    ),
    "diffusion": ("stability_bound",),
}

#: the calls made before the first time step; their outermost spans sum to setup_s
SETUP = (
    ("scenarios", "build_fiber_strand_scenario"),
    ("scenarios", "build_file_scenario"),
    ("tissue", "derive_tissue_fields"),
    ("kinetic", "build_cell_fields"),
    ("quadrature", "build_quadrature"),
    ("systems", "build_system"),
    ("diffusion", "build_diffusion_fields"),
    ("solver", "dg_linear_propagator"),
)
SETUP_NAMES = frozenset(f"{m}.{f}" for m, f in SETUP)

LAYERS = tuple(FUNCTIONS)

#: span of the benchmark's own timed region (scenario build to returned state)
ROOT = "bench.run"


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


@contextmanager
def instrument(tracer: Tracer, only=None):
    """Trace every layer function (or only the (module, name) pairs given).

    Names missing at this commit are skipped; the originals are restored on
    exit, so untraced runs in the same process see the plain package.
    """
    patches = []
    try:
        _patch(tracer, only, patches)
        yield tracer
    finally:
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)


def _patch(tracer: Tracer, only, patches: list) -> None:
    loaded = _package_modules()
    for layer, names in FUNCTIONS.items():
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in names:
            if only is not None and (layer, name) not in only:
                continue
            orig = getattr(mod, name, None)
            if orig is None:
                continue
            wrapper = tracer.wrap(orig, f"{layer}.{name}")
            for m in loaded:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
    for layer, names in METHODS.items() if only is None else ():
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for cls in vars(mod).values():
            if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                continue
            for name in names:
                orig = cls.__dict__.get(name)
                if callable(orig):
                    patches.append((cls, name, orig))
                    setattr(cls, name, tracer.wrap(orig, f"{layer}.{name}"))


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def setup_seconds(spans) -> float:
    """Summed duration of the outermost setup spans."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in SETUP_NAMES:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in SETUP_NAMES:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def percentile(values, q):
    """q-th percentile by nearest rank (values need not be sorted)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s) / 100))) - 1]


class SpanStats:
    """Per-name durations and self times of one run's spans."""

    def __init__(self, spans):
        self.durations: dict[str, list] = {}
        self.self_s: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        own_times = self_times(spans)
        for (name, start, end, _), own in zip(spans, own_times):
            self.durations.setdefault(name, []).append(end - start)
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        self.wall = sum(end - start for _, start, end, parent in spans if parent < 0)
        self.min_self = min(own_times, default=0.0)

    def n(self, name):
        """Calls."""
        return len(self.durations.get(name, ()))

    def s(self, name):
        """Inclusive seconds."""
        return sum(self.durations.get(name, ()))

    def own(self, name):
        """Self seconds."""
        return self.self_s.get(name, 0.0)

    def p_ms(self, name, q):
        """q-th percentile of the per-call duration, in ms."""
        return 1e3 * percentile(self.durations.get(name, []), q)


def write_spans(path, spans, meta: dict) -> None:
    t0 = spans[0][1] if spans else 0.0
    rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in spans]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": rows}, fh)


def median(values):
    return statistics.median(values) if values else 0.0
