"""Span tracing of the program's layers, applied from outside ``src/``.

:class:`SpanRecorder` wraps the public methods of every class defined
in each layer's modules. A call that enters a layer from another layer
(or from the benchmark) records a span: its name, start, end, parent
span and the arrival index of the invocation it serves. A call that
stays inside its caller's layer is only counted, so a layer's spans
never nest in themselves. Container property reads are counted too.
Generator methods are counted but get no span, since their body runs
when the caller iterates.

The first entry into ``KeepAliveSimulator.process_invocation`` or
``LivePoolService.admit`` opens an invocation: every span and count
until it returns carries that invocation's index. Calls outside any
invocation (engine set-up, ``finalize``, timer ticks) get index -1 and
are not counted, so counts per invocation repeat exactly for a seed.

Spans stay in memory until :meth:`SpanRecorder.save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

import numpy as np

#: Layer name -> modules whose classes make up that layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "columnar": ("repro.sim.columnar",),
    "scheduler": ("repro.sim.scheduler",),
    "policies": ("repro.core.policies",),  # the package and its modules
    "pool": ("repro.core.pool",),
    "container": ("repro.core.container",),
    "metrics": ("repro.sim.metrics",),
    "service": ("repro.live.service",),
}

#: Methods whose outermost call is one invocation.
ENTRY_POINTS = frozenset(
    {"KeepAliveSimulator.process_invocation", "LivePoolService.admit"}
)

#: Layers whose public property reads are counted as calls.
COUNTED_PROPERTY_LAYERS = frozenset({"container"})


def _layer_modules(module_names: Iterable[str]) -> List[object]:
    modules = []
    for name in module_names:
        module = importlib.import_module(name)
        modules.append(module)
        for info in pkgutil.iter_modules(getattr(module, "__path__", [])):
            modules.append(importlib.import_module(f"{name}.{info.name}"))
    return modules


class SpanRecorder:
    """Records spans and call counts; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.invocations = 0
        self._current = -1
        self._stack: List[Tuple[int, int]] = []  # (span index, layer id)
        self._layer_ids: Dict[str, int] = {}
        self._restore: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------

    def install(self, layers: Iterable[str]) -> None:
        """Wrap every public method of the named layers' classes."""
        for layer in layers:
            for module in _layer_modules(LAYERS[layer]):
                for cls in vars(module).values():
                    if (
                        inspect.isclass(cls)
                        and cls.__module__ == module.__name__
                    ):
                        self._install_class(layer, cls)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore.clear()

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(value, property):
                if layer not in COUNTED_PROPERTY_LAYERS or value.fget is None:
                    continue
                wrapped: object = property(
                    self._counter(value.fget, self._name(layer, qualname)),
                    value.fset,
                    value.fdel,
                    value.__doc__,
                )
            elif isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(
                    self._wrapper(value.__func__, layer, qualname)
                )
            elif inspect.isfunction(value):
                wrapped = self._wrapper(value, layer, qualname)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def _name(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}:{qualname}")
        self.layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrapper(self, fn: Callable, layer: str, qualname: str) -> Callable:
        nid = self._name(layer, qualname)
        if inspect.isgeneratorfunction(fn):
            return self._counter(fn, nid)
        lid = self._layer_ids.setdefault(layer, len(self._layer_ids))
        entry = qualname in ENTRY_POINTS
        rec = self
        calls = self.calls
        stack = self._stack
        name_append = self.name_id.append
        parent_append = self.parent.append
        invocation_append = self.invocation.append
        start_append = self.start_ns.append
        end_append = self.end_ns.append
        end_ns = self.end_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = entry and rec._current < 0
            if opened:
                rec._current = rec.invocations
                rec.invocations += 1
            current = rec._current
            if current >= 0:
                calls[nid] += 1
            top = stack[-1] if stack else None
            try:
                if top is not None and top[1] == lid:
                    return fn(*args, **kwargs)
                index = len(end_ns)
                name_append(nid)
                parent_append(-1 if top is None else top[0])
                invocation_append(current)
                end_append(0)
                stack.append((index, lid))
                start_append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end_ns[index] = clock()
                    stack.pop()
            finally:
                if opened:
                    rec._current = -1

        return traced

    def _counter(self, fn: Callable, nid: int) -> Callable:
        rec = self
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec._current >= 0:
                calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "layers": np.array(self.layers, dtype=str),
            "calls": np.array(self.calls, dtype=np.int64),
            "invocations": np.array(self.invocations, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        with open(path, "wb") as out:
            np.savez(out, **self.arrays())


def self_times_ns(
    parent: np.ndarray, start_ns: np.ndarray, end_ns: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children run on the caller's thread inside their parent, so they
    neither overlap each other nor leave the parent's interval.
    """
    duration = end_ns.astype(np.int64) - start_ns.astype(np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_totals(spans: Mapping[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls made inside invocations and total self time (ns)."""
    layers = [str(layer) for layer in spans["layers"]]
    self_ns = self_times_ns(spans["parent"], spans["start_ns"], spans["end_ns"])
    per_name = np.bincount(
        spans["name_id"], weights=self_ns, minlength=len(layers)
    )
    totals: Dict[str, Dict[str, float]] = {}
    for nid, layer in enumerate(layers):
        entry = totals.setdefault(layer, {"calls": 0.0, "self_ns": 0.0})
        entry["calls"] += float(spans["calls"][nid])
        entry["self_ns"] += float(per_name[nid])
    return totals


def load(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}
