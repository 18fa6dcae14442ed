"""Span tracing of nildual's layers from outside the package.

The tracer wraps public functions of the nildual modules. Each call of a
wrapped function records a span (name, start, end, parent span, iteration
id, counters) in memory. `cli` and `verify` import many layer functions by
name, so a wrapper is bound under every name, in every loaded nildual
module, that holds the original function; methods are wrapped on their
class. Leaving the `installed` block restores every original binding.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _iwasawa_counts(args, kwargs, result):
    phi = args[0] if args else kwargs["phi"]
    nodes = math.prod(phi.batch_shape)
    return {"nodes": nodes, "ok": int(result[2].ok().sum())}


def _mul_counts(args, kwargs, result):
    a, b = args[0], args[1] if len(args) > 1 else kwargs["other"]
    batch = math.prod(result.batch_shape)
    return {"block_products": a.coeffs.shape[-3] * b.coeffs.shape[-3] * batch}


def _frame_counts(args, kwargs, result):
    return {"reprojections": int(result.reprojections)}


def _path_size(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _written(args, kwargs, result):
    return {"bytes_written": _path_size(args, kwargs)}


def _read(args, kwargs, result):
    return {"bytes_read": _path_size(args, kwargs)}


# (module under nildual, qualified name, counters taken from the call)
TARGETS = (
    ("potentials", "integrate_potential", None),
    ("potentials", "iwasawa", _iwasawa_counts),
    ("potentials", "iwasawa_residuals", None),
    ("potentials", "frame_field_from_loop", None),
    ("potentials", "dpw_pipeline", None),
    ("loops", "MatrixLoop.mul", _mul_counts),
    ("loops", "MatrixLoop.eval", None),
    ("loops", "plus_loop_inverse", None),
    ("frames", "integrate_frame", _frame_counts),
    ("frames", "flatness_residual", None),
    ("frames", "frame_compatibility_residual", None),
    ("verify", "verify_pipeline", None),
    ("verify", "analyze_sheet", None),
    ("spinors", "spinors_from_phi", None),
    ("spinors", "dirac_data", None),
    ("dualize", "dual_spinors", None),
    ("dualize", "dual_invariants", None),
    ("dualize", "double_dual", None),
    ("nil3", "left_maurer_cartan", None),
    ("sym", "sym_maps", None),
    ("sym", "mc_equivalent", None),
    ("sym", "extract_dual_spinors", None),
    # write_json, write_obj and write_field_csv are the only io_formats
    # functions that write files, read_json the only one that reads here
    ("io_formats", "write_frame_cache", None),
    ("io_formats", "read_frame_cache", None),
    ("io_formats", "write_field_csv", _written),
    ("io_formats", "write_obj", _written),
    ("io_formats", "write_json", _written),
    ("io_formats", "read_json", _read),
    ("cli", "cmd_generate", None),
    ("cli", "cmd_dual", None),
    ("cli", "cmd_export", None),
    ("cli", "cmd_verify", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the enclosing span in Tracer.spans
    iteration: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self._open = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None,
                        self.iteration)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind wrappers for TARGETS in every loaded nildual module."""
        saved = []
        try:
            for module, qualname, counts in TARGETS:
                owner = importlib.import_module(f"nildual.{module}")
                *classes, attr = qualname.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                wrapper = self.wrap(f"{module}.{qualname}", original, counts)
                holders = [owner] if classes else [
                    mod for key, mod in sorted(sys.modules.items())
                    if key == "nildual" or key.startswith("nildual.")]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, name, original))
                            setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)


def self_time(spans, index, children):
    """Duration of spans[index] minus the part its children cover."""
    span = spans[index]
    covered = 0.0
    reach = span.start
    for c in sorted(children.get(index, ()), key=lambda k: spans[k].start):
        lo = max(spans[c].start, reach)
        hi = min(spans[c].end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.end - span.start - covered


def summarize(spans):
    """Per iteration, per span name: self and total seconds, calls, counts.

    Returns {iteration: {name: {"self": s, "total": s, "calls": n, <count>: n}}}.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for i, s in enumerate(spans):
        entry = out[s.iteration][s.name]
        entry["self"] += self_time(spans, i, children)
        entry["total"] += s.end - s.start
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry[key] += value
    return out


def layer_metrics(spans, overhead_s):
    """Per-layer metrics: medians over the traced iterations, with units."""
    per_iter = summarize(spans)
    iterations = sorted(per_iter) or [None]

    def med(fn):
        return statistics.median(fn(per_iter.get(k, {})) for k in iterations)

    def stat(name, key):
        return med(lambda d: d[name][key] if name in d else 0.0)

    def module_calls(module):
        return med(lambda d: sum(v["calls"] for k, v in d.items()
                                 if k.startswith(module + ".")))

    m = {}
    for module, qualname, _ in TARGETS:
        name = f"{module}.{qualname}"
        m[f"{name}.s"] = (stat(name, "total" if module == "cli" else "self"),
                          "s")
    for name in ("potentials.integrate_potential", "loops.MatrixLoop.mul",
                 "frames.integrate_frame"):
        m[f"{name}.calls"] = (int(stat(name, "calls")), "count")
    nodes = stat("potentials.iwasawa", "nodes")
    m["potentials.iwasawa.nodes"] = (int(nodes), "count")
    m["potentials.iwasawa.ok_ratio"] = (
        stat("potentials.iwasawa", "ok") / nodes if nodes else 0.0, "1")
    m["loops.MatrixLoop.mul.block_products"] = (
        int(stat("loops.MatrixLoop.mul", "block_products")), "count")
    m["frames.integrate_frame.reprojections"] = (
        int(stat("frames.integrate_frame", "reprojections")), "count")
    m["potentials.calls"] = (int(module_calls("potentials")), "count")
    m["loops.calls"] = (int(module_calls("loops")), "count")
    m["io_formats.bytes_written"] = (int(med(lambda d: sum(
        v.get("bytes_written", 0) for v in d.values()))), "B")
    m["io_formats.bytes_read"] = (int(med(lambda d: sum(
        v.get("bytes_read", 0) for v in d.values()))), "B")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
