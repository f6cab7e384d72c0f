"""Outside-in tracing of the package's public functions.

The tracer changes no file of the package.  It wraps each traced function
and rebinds the wrapper under every name that refers to the original in any
``tribranch`` module, so calls made through ``from .x import y`` bindings are
seen too.  ``IntMatrix`` methods are wrapped on the class.

A span records (name, start ns, end ns, parent span, operation id, excluded
ns).  Spans stay in memory until the traced run ends; ``layer_metrics`` then
turns them into per-operation call counts and self times.  A span's self time
is its duration minus the durations of its direct children and minus the
time the tracer itself spent inside it reading return values (excluded ns).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path) of every traced public function.
TRACED = (
    ("cli", "main"),
    ("schema", "load_spec_file"),
    ("schema", "parse_spec"),
    ("schema", "canonical_json"),
    ("schema", "complex_document"),
    ("openbook", "validate_spec"),
    ("openbook", "validate_monodromy"),
    ("openbook", "h1_open_book"),
    ("openbook", "rank_certificate"),
    ("openbook", "stabilize"),
    ("intalg", "smith_normal_form"),
    ("intalg", "cokernel"),
    ("intalg", "IntMatrix.det"),
    ("intalg", "IntMatrix.mul"),
    ("paths", "validate_path"),
    ("paths", "replay"),
    ("paths", "apply_move"),
    ("paths", "closure_vertex_map"),
    ("paths", "search_path"),
    ("surfaces", "validate_pants"),
    ("surfaces", "canonical_key"),
    ("surfaces", "find_isomorphism"),
    ("surfaces", "vertex_map_from_curve_bijection"),
    ("surfaces", "cut_structure"),
    ("complexes", "construct_outer"),
    ("complexes", "construct_naive"),
    ("complexes", "check_local_models"),
    ("complexes", "euler_audit"),
    ("essential", "check_essential"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Per-layer metrics that do not come from span timings: (name, unit).
EXTRA_METRICS = (
    ("proc.interp_ms", "ms"),
    ("proc.import_ms", "ms"),
    ("proc.work_ms", "ms"),
    ("intalg.snf_entry_bits_max", "bits"),
    ("intalg.snf_cells_per_op", "count"),
    ("paths.search_path.found_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls_per_op", "count"))
        out.append((f"{name}.self_ms_per_op", "ms"))
    return out + list(EXTRA_METRICS)


def _snf_observer(tracer, args, result):
    a = args[0]
    tracer.counters["snf_cells"] += a.rows * a.cols
    bits = max((abs(x).bit_length() for m in (result.u, result.v)
                for row in m.entries for x in row), default=0)
    tracer.counters["snf_bits_max"] = max(tracer.counters["snf_bits_max"], bits)


def _search_observer(tracer, args, result):
    tracer.counters["search_found"] += result is not None


OBSERVERS = {
    "intalg.smith_normal_form": _snf_observer,
    "paths.search_path": _search_observer,
}


class Tracer:
    """Collects spans for calls into the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = 0
        self.counters = {"snf_cells": 0, "snf_bits_max": 0, "search_found": 0}
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observer = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observer is not None:
                begin = clock()
                observer(self, args, result)
                if parent >= 0:
                    spans[parent][5] += clock() - begin
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded ``tribranch`` module."""
        for mod_name, _attr in TRACED:
            importlib.import_module(f"tribranch.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tribranch" or n.startswith("tribranch."))]
        for mod_name, attr in TRACED:
            mod = sys.modules[f"tribranch.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times(spans):
    """Self time in ns of each span: duration minus direct children and tracer time."""
    child = [0] * len(spans)
    for _name, start, end, parent, _op, _excluded in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c - excluded
            for (_n, start, end, _p, _o, excluded), c in zip(spans, child)]


def layer_metrics(spans, n_ops, counters, proc=None, overhead_frac=0.0):
    """Per-layer metrics from spans of n_ops operations, as {name: value}."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_op"] = calls[name] / n_ops
        out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / n_ops
    proc = proc or {}
    for key in ("interp_ms", "import_ms", "work_ms"):
        out[f"proc.{key}"] = proc.get(key, 0.0)
    out["intalg.snf_entry_bits_max"] = counters["snf_bits_max"]
    out["intalg.snf_cells_per_op"] = counters["snf_cells"] / n_ops
    n_search = calls["paths.search_path"]
    out["paths.search_path.found_ratio"] = (
        counters["search_found"] / n_search if n_search else 0.0)
    out["trace.overhead_frac"] = overhead_frac
    return out
