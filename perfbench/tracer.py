"""Span recorder installed from outside the package, and span statistics.

`Tracer.install()` replaces every public function of the traced gnslab
modules (plus two methods) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  A function imported
elsewhere with ``from .x import f`` is a second reference to the same
object, so the wrapper is written into every gnslab module that holds
the original, not only into its home module.  numpy's transforms are
counted (calls, points, bytes, time) but are not spans: their time stays
in the self time of the gnslab function that called them.

Spans stay in memory until `Tracer.dump()` writes them out; `summarize()`
turns a dump into per-function and per-module numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

TRACED_MODULES = (
    "spectral_core",
    "besov_analysis",
    "lorentz_time",
    "nonlinearity",
    "estimates_lab",
    "mild_solver",
    "reports",
)
TRACED_METHODS = (
    ("spectral_core", "SpectralField", "hermitian_defect"),
    ("besov_analysis", "DyadicCutoff", "block_multipliers"),
)
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
ROOT = "cli.main"


def _tag_estimate(args, kwargs, result):
    return [args[0], args[2]]  # ineq id, sample count


def _tag_cutoff(args, kwargs, result):
    cutoff = args[0]
    g = cutoff.grid
    return [g.n, g.N, g.L, cutoff.q_min, cutoff.q_max]


def _tag_size(index):
    def tag(args, kwargs, result):
        return os.path.getsize(args[index])
    return tag


# per-call facts kept next to the span: (args, kwargs, result) -> JSON value
TAGGERS = {
    "estimates_lab.estimate_constant": _tag_estimate,
    "besov_analysis.block_multipliers": _tag_cutoff,
    "spectral_core.write_field": _tag_size(1),
    "reports.write_json": _tag_size(0),
}


class Tracer:
    """In-memory span log for one process (single-threaded use)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start ns, end ns, parent span index]
        self.tags = {}
        self.fft = {"calls": 0, "points": 0, "bytes_computed": 0, "busy_ns": 0}
        self._stack = []
        self._active = set()
        self._restore = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so each outermost call records one span."""
        nid = self._name_id(name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nid in self._active:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [nid, time.perf_counter_ns(), 0, parent]
            self.spans.append(span)
            self._stack.append(index)
            self._active.add(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self._active.discard(nid)
            if tagger is not None:
                self.tags[index] = tagger(args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn):
        counts = self.fft

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(a, *args, **kwargs)
            counts["busy_ns"] += time.perf_counter_ns() - t0
            counts["calls"] += 1
            counts["points"] += out.size
            counts["bytes_computed"] += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return counted

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Patch gnslab functions and numpy transforms; returns self."""
        import numpy as np

        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"gnslab.{short}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        holders = [m for n, m in sorted(sys.modules.items())
                   if (n == "gnslab" or n.startswith("gnslab.")) and m is not None]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"gnslab.{short}"), cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{meth}", vars(cls)[meth]))
        for attr in FFT_FUNCTIONS:
            if hasattr(np.fft, attr):
                self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))
        return self

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def call_root(self, fn, *args):
        """Run fn under the root span (the measured main() call)."""
        return self.wrap(ROOT, fn)(*args)

    def dump(self, path):
        doc = {"names": self.names, "spans": self.spans,
               "tags": {str(k): v for k, v in self.tags.items()}, "fft": self.fft}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def module_of(name):
    return name.split(".", 1)[0]


def summarize(doc):
    """Per-function and per-module totals from a span dump.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    funcs = {}
    modules = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        busy = end - start
        own = busy - child_ns[i]
        rec = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["busy_s"] += busy / 1e9
        rec["self_s"] += own / 1e9
        modules[module_of(name)] = modules.get(module_of(name), 0.0) + own / 1e9
    return {"functions": funcs, "modules": modules, "names": names}


def tagged(doc, name):
    """(duration ns, tag) of every tagged span of one function, in call order."""
    names = doc["names"]
    if name not in names:
        return []
    nid = names.index(name)
    tags = doc["tags"]
    return [(s[2] - s[1], tags[str(i)]) for i, s in enumerate(doc["spans"])
            if s[0] == nid and str(i) in tags]
