"""Layer tracing from outside the program: wrappers around gpd's public functions.

`Tracer.install` gives each public function of each gpd module one wrapper
and rebinds every module attribute that names the original, so calls made
through `from .algebra import concrete_algebra` are seen too. `uninstall`
puts the originals back. Every call is counted. A call opens a span only
when it crosses a layer boundary, that is when the innermost open span
belongs to another module; a call inside the same layer is part of the
span that is already open. A span's self time is its duration minus the
durations of its direct child spans, so a layer's time excludes the layers
it calls. Spans are kept in memory and written out by `dump`.

Left unwrapped, because a span around each of them would cost more than the
work it measures: the scalar coercion `qlin.qc` and the methods of the
scalar class `QC`. Of the classes, only `Echelon` (the incremental row
space) has its methods wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "qlin",
    "finitetop",
    "groupoid",
    "germs",
    "algebra",
    "cartan",
    "catalog",
    "serialize",
    "cli",
)
UNWRAPPED = {"qlin.qc"}
WRAPPED_CLASSES = {"qlin.Echelon"}


class Tracer:
    """`clock` times the spans; stats.Sampler.clock leaves out the time its
    calibration samples take inside them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts = Counter()
        self.names = []
        self._name_ids = {}
        # One entry per span: [name id, start, end, parent span or -1, tag].
        self.spans = []
        self._stack = []  # (span index, layer) of the open spans
        self._rebound = []  # (owner, attribute, original) to undo

    # ----------------------------------------------------------- recording

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name, layer, tag=None):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([self._name_id(name), self.clock(), None, parent, tag])
        self._stack.append((idx, layer))
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """A benchmark-side span (layer 'bench') around the block."""
        idx = self._open(name, "bench", tag)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name, layer, fn, tag_of=None):
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = self._open(name, layer, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # ---------------------------------------------------------- installing

    def install(self):
        modules = {layer: importlib.import_module(f"gpd.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                qual = f"{layer}.{attr}"
                if qual in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    tag_of = _cli_command if qual == "cli.main" else None
                    wrappers[id(obj)] = (obj, self._wrapper(qual, layer, obj, tag_of))
                elif inspect.isclass(obj) and qual in WRAPPED_CLASSES:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._rebind(obj, meth, fn, self._wrapper(f"{qual}.{meth}", layer, fn))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._rebind(mod, attr, val, hit[1])

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    # ----------------------------------------------------------- reporting

    def summary(self):
        """Counts, self time per function, and cli.main durations by command."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        main_s = {}
        for i, (name_id, start, end, parent, tag) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += (end - start) - child[i]
            if name == "cli.main":
                main_s.setdefault(tag, []).append(end - start)
        return {"counts": dict(self.counts), "self_s": dict(self_s), "main_s": main_s}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans}, fh)


def _cli_command(args):
    argv = args[0] if args else None
    return argv[0] if argv else None


def merge(summaries):
    """Add up summaries of several traced passes or rounds."""
    out = {"counts": Counter(), "self_s": Counter(), "main_s": {}}
    for s in summaries:
        out["counts"].update(s["counts"])
        out["self_s"].update(s["self_s"])
        for cmd, vals in s["main_s"].items():
            out["main_s"].setdefault(cmd, []).extend(vals)
    return out
