"""Outside-in span tracer for the cp_calculus layers.

Modules bind each other's functions with ``from .x import y``, so patching
the defining module alone would miss most calls.  :func:`install` therefore
replaces every binding of a layer's public functions in every package
module, plus the ``__post_init__`` validators of the public dataclasses
(their SVD and eigenvalue checks are real work).  ``norms._ascend`` is
wrapped as well, because only it sees the iteration count of one restart.

Each span records name, start, end, parent span and job id, in memory.  A
layer's self time is its spans' durations minus the time covered by their
child spans; spans outside a job (input generation) are ignored.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "cpmap", "radon", "order", "duality", "norms", "serialize", "cli")


def _n3(counts, args, result):
    counts["numerics.herm_eig.n3_sum"] += int(np.shape(args[0])[0]) ** 3


def _bytes_in(counts, args, result):
    counts["serialize.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(counts, args, result):
    counts["serialize.bytes_out"] += len(result.encode("utf-8"))


def _restart(counts, args, result):
    counts["norms.restarts"] += 1
    counts["norms.ascent_iterations"] += result[1]
    counts["norms.capped_restarts"] += result[1] >= args[4]


COUNT_HOOKS = {
    "numerics.herm_eig": _n3,
    "serialize.parse_input": _bytes_in,
    "serialize.dumps": _bytes_out,
    "norms._ascend": _restart,
}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.counts = Counter()
        self.job_id = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if hook is not None and self.job_id is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every binding of the layers' public functions."""
        mods = {layer: importlib.import_module(f"cp_calculus.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    orig = vars(obj)["__post_init__"]
                    name = f"{layer}.{attr}.__post_init__"
                    self._patch(obj, "__post_init__", orig, self.wrap(name, orig))
        ascend = mods["norms"]._ascend
        wrappers[id(ascend)] = self.wrap("norms._ascend", ascend)
        for mod in (importlib.import_module("cp_calculus"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, obj, wrappers[id(obj)])

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self):
        """Spans inside jobs as numpy columns, with self time per span."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        inside = np.array([j is not None for j in self.job], dtype=bool)
        names = np.array(self.names, dtype=object)
        return names[inside], dur[inside], (dur - child)[inside]

    def merge(self, doc, job_id):
        """Add a child process's dumped spans and counts under one job id."""
        base = len(self.names)
        self.names += doc["names"]
        self.start += doc["start"]
        self.end += doc["end"]
        self.parent += [p + base if p >= 0 else -1 for p in doc["parent"]]
        self.job += [job_id] * len(doc["names"])
        self.counts.update(doc["counts"])

    def dump(self):
        return {
            "names": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "counts": dict(self.counts),
        }

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def breakdown(tracer, jobs):
    """Per-layer and per-function calls and self time, per job; per function
    also the inclusive time (``total_s``), which counts its children."""
    names, dur, self_s = tracer.arrays()
    out = Counter(tracer.counts)
    if len(names):
        uniq, inverse = np.unique(names.astype(str), return_inverse=True)
        calls = np.bincount(inverse)
        own = np.bincount(inverse, weights=self_s)
        total = np.bincount(inverse, weights=dur)
        for name, c, t, inclusive in zip(uniq, calls, own, total):
            layer = name.split(".", 1)[0]
            out[f"{name}.total_s"] += float(inclusive)
            for key in (name, layer) + ((f"{layer}.post_init",) if name.endswith(".__post_init__") else ()):
                out[f"{key}.calls"] += int(c)
                out[f"{key}.self_s"] += float(t)
    return {k: v / max(1, jobs) for k, v in sorted(out.items())}
