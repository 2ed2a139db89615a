"""Span tracer that wraps the public functions of each qhdyn layer from outside.

Installing a :class:`Tracer` replaces every public module-level function of
the layer modules with a wrapper that records one span per call: name,
start, end and parent span.  The aliases other modules hold under the same
object (``from .quaternion import quat_mul`` in ``qhdyn.verify``, the
``verify.SUITES`` table) are replaced as well, because patching only the
defining module would miss those calls.  Spans are kept in flat in-memory
arrays and written out once, by :meth:`Tracer.save`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("quaternion", "so3", "poisson", "dynamics", "verify", "cli")


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [getattr(package, name) for name in LAYERS]
        self.span_names: list[str] = []
        self.span_layers: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: int):
        nid = len(self.span_names)
        self.span_names.append(f"{LAYERS[layer]}.{fn.__name__}")
        self.span_layers.append(layer)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, mod in enumerate(self._modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer)
        namespaces = [vars(m) for m in self._modules] + [vars(self._package)]
        namespaces += [v for m in self._modules for v in vars(m).values()
                       if isinstance(v, dict)]
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Self seconds and call counts per layer, in ``LAYERS`` order.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        layer_of = np.asarray(self.span_layers, dtype=np.int64)[a["name_id"]]
        n = len(LAYERS)
        self_s = np.bincount(layer_of, weights=dur - child, minlength=n)
        calls = np.bincount(layer_of, minlength=n)
        return self_s, calls

    def span_seconds(self, name: str) -> np.ndarray:
        """Durations of every span of one wrapped function."""
        a = self.arrays()
        nid = self.span_names.index(name)
        mask = a["name_id"] == nid
        return a["end"][mask] - a["start"][mask]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.span_names), **self.arrays())
