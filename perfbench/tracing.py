"""Spans for the benchmark's traced runs, recorded around csmasim's public functions.

`Tracer.install` replaces every public function of every csmasim module by a
wrapper at the name its caller looks up (for example both
`csmasim.cli.solve_dual_optimum` and `csmasim.congestion.solve_dual_optimum`),
so calls inside a module are traced too.  Each call is one span: name, start,
end, parent, and whether it raised.  A generator function gives one span per
resumption, so `engine.run_experiment` covers the engine's work for each epoch
and not the caller's writes between epochs.  Spans stay in flat arrays until
`save` writes them once, at the end of the process.

A span's self time is its duration minus the durations of its direct
children.  Calls are properly nested in one thread, so the self times of all
spans under a root add up to the root's duration exactly.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: one clock for every process

# Called once per node or per chain event inside a traced function; a span
# each would cost more than the work it measures.
UNWRAPPED = frozenset({"schedule_nodes", "best_response", "best_response_value"})

# The root span of an operation, from process spawn to reap: interpreter
# start-up, imports, exit, and the child's own bookkeeping.
PROCESS = "process"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._current = -1

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._current)
        self.end.append(0.0)
        self.failed.append(0)
        self._current = idx
        self.start.append(clock())
        return idx

    def _close(self, idx: int, failed: int) -> None:
        self.end[idx] = clock()
        self.failed[idx] = failed
        self._current = self.parent[idx]

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def resumable(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx, 0)
                        return
                    except BaseException:
                        self._close(idx, 1)
                        raise
                    self._close(idx, 0)
                    yield item
            return resumable

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, 1)
                raise
            self._close(idx, 0)
            return result
        return traced

    def install(self, modules) -> None:
        """Wrap each public csmasim function once and rebind it in every module."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (not inspect.isfunction(obj) or attr.startswith("_")
                        or obj.__name__ in UNWRAPPED
                        or not obj.__module__.startswith("csmasim.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 failed=np.frombuffer(self.failed, dtype=np.int8))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def summarize(spans, wall: float) -> dict:
    """Per-layer self time and per-function totals of one operation.

    `wall` is the operation's duration seen by the parent process; the part
    no top-level span covers is the self time of the `process` root.
    """
    names = [str(v) for v in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    start, end, failed = spans["start"], spans["end"], spans["failed"]
    own = self_times(parent, start, end)
    duration = end - start
    layer_self = {PROCESS: wall - float(duration[parent < 0].sum())}
    inclusive, calls, failures = {}, {}, {}
    for nid, label in enumerate(names):
        hit = name == nid
        layer = label.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(own[hit].sum())
        inclusive[label] = float(duration[hit].sum())
        calls[label] = int(hit.sum())
        failures[label] = int(failed[hit].sum())
    return {"layer_self": layer_self, "inclusive": inclusive,
            "calls": calls, "failed": failures}
