"""Spans around every public function of the lyapcut layer modules.

Functions are discovered at run time, so a kernel that is renamed or added
is traced without editing this file. Each wrapper is rebound in every
``lyapcut`` namespace that binds the original, which catches calls made
through ``from .statevector import apply_rx`` style imports as well.

Spans live in flat in-memory arrays (name, start, end, parent, instance,
unit, bytes) and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "lyapcut"
LAYERS = ("graphs", "hamiltonian", "statevector", "certificates", "dynamics", "experiments")


def public_functions(layers=LAYERS) -> dict[str, types.FunctionType]:
    """Map 'layer.function' to every public function defined in that layer module.

    A layer module that no longer exists contributes nothing.
    """
    found = {}
    for layer in layers:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


def rebind(replacements: dict) -> list:
    """Point every package attribute bound to a key of replacements at its value.

    Returns what restore() needs to undo the change.
    """
    saved = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in replacements:
                setattr(module, attr, replacements[value])
                saved.append((module, attr, value))
    return saved


def restore(saved: list) -> None:
    for module, attr, value in reversed(saved):
        setattr(module, attr, value)


class Tracer:
    """Records one span per call of every public layer function.

    ``unit`` tags each span with the set-up (negative) or repetition
    (non-negative) it belongs to. A span's instance is the graph it is about:
    the first Graph argument of the outermost span that has one, inherited by
    every span nested inside it.
    """

    def __init__(self):
        self._saved: list = []
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.instance = array("q")
        self.unit_of = array("q")
        self.nbytes = array("d")
        self.unit = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._graph_ids: dict = {}

    def _graph_id(self, g) -> int:
        return self._graph_ids.setdefault(g, len(self._graph_ids))

    def _wrap(self, fn, name_id):
        pkg = sys.modules[PACKAGE]
        graph_type, state_type = pkg.Graph, pkg.StateVector
        one_type, two_type = pkg.OneParamTracker, pkg.TwoParamTracker
        collapse = pkg.DenominatorCollapse
        stack, counters = self._stack, self.counters
        start, end, parent, names, instance, unit_of, nbytes = (
            self.start, self.end, self.parent, self.name_id, self.instance, self.unit_of, self.nbytes)

        def wrapper(*args, **kwargs):
            up = stack[-1] if stack else -1
            inst = instance[up] if up >= 0 else -1
            first = args[0] if args else None
            if inst < 0 and isinstance(first, graph_type):
                inst = self._graph_id(first)
            if isinstance(first, state_type):
                size = first.amplitudes.nbytes
            elif isinstance(first, np.ndarray):
                size = first.nbytes
            else:
                size = 0
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(up)
            names.append(name_id)
            instance.append(inst)
            unit_of.append(self.unit)
            nbytes.append(size)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except collapse:
                counters[(self.unit, "freezes")] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if isinstance(result, one_type):
                counters[(self.unit, "one_param_clamps")] += result.last_violated
            elif isinstance(result, two_type):
                counters[(self.unit, "two_param_clamps")] += result.last_violated
            return result

        return wrapper

    def install(self) -> None:
        replacements = {}
        for name, fn in public_functions().items():
            if name not in self.names:
                self.names.append(name)
            replacements[fn] = self._wrap(fn, self.names.index(name))
        self._saved = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved = []

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int64).copy(),
            "unit": np.frombuffer(self.unit_of, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - child


def per_unit_table(spans: dict, names: list[str]) -> dict:
    """Per (unit, function) call counts, self time, inclusive time and top-level bytes.

    Returns the unit ids in ascending order and arrays of shape
    (units, functions). ``top_bytes`` counts a span's bytes only when its
    parent belongs to another layer than itself, so a kernel called from a
    kernel of the same layer is not counted twice.
    """
    units, unit_idx = np.unique(spans["unit"], return_inverse=True)
    shape = (len(units), len(names))
    calls = np.zeros(shape)
    self_s = np.zeros(shape)
    incl_s = np.zeros(shape)
    top_bytes = np.zeros(shape)
    top_incl = np.zeros(shape)
    if len(spans["start"]):
        own = self_times(spans["start"], spans["end"], spans["parent"])
        key = (unit_idx, spans["name_id"])
        np.add.at(calls, key, 1)
        np.add.at(self_s, key, own)
        np.add.at(incl_s, key, spans["end"] - spans["start"])
        layers = sorted({name.split(".")[0] for name in names})
        layer_of = np.array([layers.index(name.split(".")[0]) for name in names])
        parent = spans["parent"]
        parent_layer = np.where(parent >= 0, layer_of[spans["name_id"][np.maximum(parent, 0)]], -1)
        top = parent_layer != layer_of[spans["name_id"]]
        np.add.at(top_bytes, key, np.where(top, spans["nbytes"], 0.0))
        np.add.at(top_incl, key, np.where(top & (spans["nbytes"] > 0), spans["end"] - spans["start"], 0.0))
    return {"units": units, "calls": calls, "self_s": self_s, "incl_s": incl_s,
            "top_bytes": top_bytes, "top_incl": top_incl}
