"""Span tracer for the traced benchmark run (``--trace 1``) only.

``Tracer.install`` replaces every public function and public method of the
package's modules (bar ``FockState``'s accessors) with a wrapper, at every name its callers look it up
under: ``protocol`` calls ``apply_element`` through its own module
namespace, ``cli`` calls ``run_sweep`` through its own, so each binding of
the same function object is replaced.  A call from one layer into another
opens a span (layer, start, end, parent); a call within the same layer runs
unwrapped, so its time stays in the caller's self time.  Spans are kept in
memory as flat integer arrays and written out by ``write``.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

#: modules whose public callables form the layers, by their short names
LAYER_MODULES = ("fock", "elements", "bench", "noise", "timing", "protocol",
                 "analysis", "cli")
#: callables reported as a layer of their own instead of their module's
SPLIT_LAYERS = {
    ("protocol", "run_sweep"): "protocol.run_sweep",
    ("protocol", "run_trial"): "protocol.run_trial",
    ("protocol", "FringeData.to_csv"): "protocol.csv",
    ("protocol", "FringeData.from_csv"): "protocol.csv",
}
#: FockState's accessors (index_of, amplitude, ...) run some 330 times per
#: shot, nearly all from inside fock; wrapping them would add half to a shot
UNWRAPPED_CLASSES = {"FockState"}
CSV_LAYER = "protocol.csv"
ALLOC_LAYER = "protocol.run_sweep"


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_layer = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self._stack: list[list[int]] = []  # [span index, layer id, child ns]
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.csv_bytes = 0
        #: when set, spans stop and each ALLOC_LAYER call appends its
        #: tracemalloc peak here, free of the tracer's own span arrays
        self.alloc_peaks: list[int] | None = None

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def reset(self) -> None:
        """Forget every span and total, e.g. those of the warm-up."""
        for arr in (self.span_layer, self.span_start, self.span_end, self.span_parent):
            del arr[:]
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.csv_bytes = 0

    def _open(self, lid: int) -> list[int]:
        stack = self._stack
        frame = [len(self.span_layer), lid, 0]
        self.span_layer.append(lid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0)
        stack.append(frame)
        self.span_start.append(time.perf_counter_ns())
        return frame

    def _close(self, frame: list[int]) -> None:
        t1 = time.perf_counter_ns()
        idx, lid, child_ns = frame
        stack = self._stack
        stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        self.self_ns[lid] += dur - child_ns
        self.calls[lid] += 1
        if stack:
            stack[-1][2] += dur

    def call(self, name: str, fn):
        """Run fn() inside a span the benchmark opens itself, e.g. one op."""
        frame = self._open(self.layer_id(name))
        try:
            return fn()
        finally:
            self._close(frame)

    def wrap(self, layer: str, fn):
        lid = self.layer_id(layer)
        stack = self._stack
        count_csv = layer == CSV_LAYER
        track_alloc = layer == ALLOC_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.alloc_peaks is not None:  # allocation pass: no spans
                if track_alloc:
                    return self._peak_alloc(fn, args, kwargs)
                return fn(*args, **kwargs)
            if stack and stack[-1][1] == lid:
                return fn(*args, **kwargs)
            frame = self._open(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if count_csv:
                text = out if isinstance(out, str) else args[-1]
                self.csv_bytes += len(text)
            return out

        return traced

    def _peak_alloc(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self, package: str = "fockbench") -> None:
        """Wrap every public callable of the layer modules, at every binding."""
        mods = [m for n, m in list(sys.modules.items())
                if n == package or n.startswith(package + ".")]
        replaced: dict[int, object] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, obj in vars(mod).copy().items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    layer = SPLIT_LAYERS.get((short, name), short)
                    replaced[id(obj)] = self.wrap(layer, obj)
                elif inspect.isclass(obj) and name not in UNWRAPPED_CLASSES:
                    self._wrap_methods(short, obj)
        for mod in mods:
            for name, obj in vars(mod).copy().items():
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_methods(self, short: str, cls: type) -> None:
        for name, attr in vars(cls).copy().items():
            if name.startswith("_"):
                continue
            layer = SPLIT_LAYERS.get((short, f"{cls.__name__}.{name}"), short)
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, attr))

    def totals(self) -> dict[str, tuple[int, int]]:
        """(calls, self ns) per layer since the last reset."""
        return {name: (self.calls[i], self.self_ns[i])
                for i, name in enumerate(self.layers)}

    def write(self, path) -> None:
        """Write the spans as arrays: layer id, start/end ns, parent index."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )
