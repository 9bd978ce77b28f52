"""In-memory span tracer for an in-process jswsim run.

``SpanTracer`` replaces every public function of the jswsim layer modules
with a timing wrapper, in each module where a caller looks the name up: a
function imported by name into another module is wrapped in that module too,
because that is the binding its callers there resolve. Spans (name, parent,
start, end) are appended to flat ``array`` columns so that millions of
kernel calls stay affordable; self times are derived afterwards with numpy.
Every replaced attribute is put back when the tracer is uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("processes", "profiles", "orderings", "loynes", "comparison", "config", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_generate(tracer, idx, args, kwargs, result):
    tracer.values[idx] = _arg(args, kwargs, 2, "length")
    _note_model(tracer, idx, args, kwargs, result)


def _note_model(tracer, idx, args, kwargs, result):
    if isinstance(_arg(args, kwargs, 0, "model"), tracer.trace_model_type):
        tracer.trace_reads.append(idx)


def _note_marks(tracer, idx, args, kwargs, result):
    tracer.values[idx] = len(_arg(args, kwargs, 0, "marks"))


def _note_report(tracer, idx, args, kwargs, result):
    tracer.values[idx] = result.steps_checked
    tracer.violations += len(result.violations)


# Counts recorded at the boundary where the work happens: marks generated,
# public calls that read a trace file, steps replayed, coupled steps checked.
NOTES = {
    "processes.generate": _note_generate,
    "processes.mean_sigma": _note_model,
    "processes.mean_xi": _note_model,
    "loynes.loynes_iterate": _note_marks,
    "comparison.compare_server_counts": _note_report,
}


class SpanTracer:
    """Wraps the public functions of the jswsim layers while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.values: dict[int, int] = {}
        self.trace_reads: list[int] = []
        self.violations = 0
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self.trace_model_type = importlib.import_module("jswsim.processes").TraceModel

    # ------------------------------------------------------------ install

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [importlib.import_module(f"jswsim.{layer}") for layer in LAYERS]
        layer_names = {m.__name__ for m in modules}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in layer_names
                ):
                    layer = value.__module__.rsplit(".", 1)[1]
                    setattr(mod, attr, self._wrap(f"{layer}.{value.__name__}", value))
                    self._saved.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    @property
    def wrapped(self) -> list[tuple[types.ModuleType, str, object]]:
        """(module, attribute, original function) for every installed wrapper."""
        return list(self._saved)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if note is not None:
                note(tracer, idx, args, kwargs, result)
            return result

        return traced


class SpanTable:
    """Numpy view of a tracer's spans with derived self times."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur = (end - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_ns = self.dur - child
        self.values = dict(tracer.values)
        self.trace_reads = list(tracer.trace_reads)
        self.violations = tracer.violations
        k = len(self.names)
        self._calls = np.bincount(self.name_id, minlength=k)
        self._total = np.bincount(self.name_id, weights=self.dur, minlength=k)
        self._self = np.bincount(self.name_id, weights=self.self_ns, minlength=k)

    def _id(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls(self, name: str) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._calls[i])

    def total_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._total[i]) * 1e-9

    def self_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._self[i]) * 1e-9

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            float(self._self[i]) for i, n in enumerate(self.names) if n.startswith(prefix)
        ) * 1e-9

    def spans(self, name: str) -> np.ndarray:
        """Indices of every span of ``name``, in start order."""
        i = self._id(name)
        if i is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == i)

    def value_sum(self, name: str) -> int:
        return sum(self.values.get(int(i), 0) for i in self.spans(name))
