"""Spans around the public functions of each schwarz_atlas module, from outside.

Each public function is wrapped once and the wrapper is bound under every
name that refers to the original, in every loaded module of the package:
schwarzcond calls `build` and the exact predicates by the names it imported,
so wrapping only their home module would miss those calls.  Tessellation.report
is the one method wrapped.  schwarzcond's private system cache is wrapped as a
counter of lookups that hit.

A span is (name, start, end, parent span, op id).  Spans are kept in flat
arrays and written out after the batch as one .npz file.  Self time is a
span's duration minus the time its direct children cover; on one thread
children are disjoint and nested, so that is the sum of their durations,
accumulated as they close.  Totals per name and per layer are kept as the
spans close, so the summary costs nothing after the batch.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "gauss", "torus", "triangle", "schwarzcond", "exact", "roots", "_kernels")
PACKAGE = "schwarz_atlas"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        # one entry per span
        self.name_span = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.self_time = array("d")
        self.failed = array("b")
        # one entry per name: calls, failed, time in outermost calls, self
        # time, calls open now, and whether the name's caller is another layer
        self.calls, self.fails, self.outer, self.self_sum, self.open = [], [], [], [], []
        self.layer_of = []
        # per layer: calls, time in spans entered from another layer, self time
        self.layer = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.stack = []          # [span id, time covered by children]
        self.op_id = -1
        self.counters = {"triangle.tiles": 0, "triangle.svg_bytes": 0, "roots.build.cache_hits": 0}

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            for totals in (self.calls, self.fails, self.open):
                totals.append(0)
            for totals in (self.outer, self.self_sum):
                totals.append(0.0)
            self.layer_of.append(name.split(".", 1)[0])
        return self.name_ids[name]

    def wrap(self, fn, name, after=None):
        """`fn` recording a span named `name`; `after(args, kwargs, result)`
        returns True when the call failed without raising."""
        nid = self._name_id(name)
        layer = self.layer[self.layer_of[nid]]
        t = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = t.stack
            sid = len(t.name_span)
            parent = stack[-1][0] if stack else -1
            from_outside = parent < 0 or t.layer_of[t.name_span[parent]] != t.layer_of[nid]
            t.name_span.append(nid)
            t.parent.append(parent)
            t.op.append(t.op_id)
            t.start.append(0.0)
            t.end.append(0.0)
            t.self_time.append(0.0)
            t.failed.append(0)
            t.open[nid] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            failed = 0
            t0 = t.start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            else:
                if after is not None and after(args, kwargs, result):
                    failed = 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                t.end[sid] = t1
                t.self_time[sid] = own
                t.failed[sid] = failed
                t.calls[nid] += 1
                t.fails[nid] += failed
                t.self_sum[nid] += own
                t.open[nid] -= 1
                if not t.open[nid]:
                    t.outer[nid] += dur
                layer[0] += 1
                layer[2] += own
                if from_outside:
                    layer[1] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions where their callers bind them."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        after = {
            "_kernels.gauss_segment": lambda a, k, r: not r[-1],
            "_kernels.torus_segment": lambda a, k, r: not r[-1],
            "triangle.tessellate": self._count_tiles,
            "triangle.export_svg": self._count_svg,
        }
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(obj, name, after.get(name))
        # a public name bound to a private original (the kernels) shares its wrapper
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        triangle, schwarzcond = modules["triangle"], modules["schwarzcond"]
        triangle.Tessellation.report = self.wrap(triangle.Tessellation.report, "triangle.report")
        schwarzcond._system = self._count_cache(schwarzcond._system, schwarzcond._SYSTEM_CACHE)

    def _count_tiles(self, args, kwargs, result):
        self.counters["triangle.tiles"] += result.tile_count
        return False

    def _count_svg(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.counters["triangle.svg_bytes"] += os.path.getsize(path)
        return False

    def _count_cache(self, fn, cache):
        @functools.wraps(fn)
        def counted(rtype):
            self.counters["roots.build.cache_hits"] += rtype in cache
            return fn(rtype)
        return counted

    # -- output -----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, failed, ms (outermost calls only) and self_ms;
        per layer: calls, ms (spans entered from another layer) and self_ms."""
        by_name = {
            name: {"calls": self.calls[i], "failed": self.fails[i],
                   "ms": 1e3 * self.outer[i], "self_ms": 1e3 * self.self_sum[i]}
            for i, name in enumerate(self.names)
        }
        by_layer = {name: {"calls": c, "ms": 1e3 * ms, "self_ms": 1e3 * own}
                    for name, (c, ms, own) in self.layer.items()}
        return by_name, by_layer

    def write(self, path):
        """All spans as columns of one .npz file; `name` indexes `names`."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name_span),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), op=np.array(self.op),
                 self=np.array(self.self_time), failed=np.array(self.failed))


def verify_spans(path, eps=1e-9):
    """Recompute each span's self time from the written file as its duration
    minus the union of its children's intervals, and compare it with the self
    time recorded as the span closed.  Returns a list of problems."""
    with np.load(path) as z:
        cols = {key: z[key].tolist() for key in z.files}
    start, end, parent, own = cols["start"], cols["end"], cols["parent"], cols["self"]
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    problems = []
    for i in range(len(start)):
        covered, cursor = 0.0, start[i]
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            if start[c] < start[i] or end[c] > end[i]:
                problems.append(f"span {c} lies outside its parent {i}")
            lo, hi = max(start[c], cursor), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        duration = end[i] - start[i]
        if abs((duration - covered) - own[i]) > eps or duration - covered < -eps:
            name = cols["names"][cols["name"][i]]
            problems.append(f"span {i} ({name}): self {own[i]!r} + children {covered!r}"
                            f" != duration {duration!r}")
    if not start:
        problems.append("no spans were written")
    return problems
