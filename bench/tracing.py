"""Spans around the engine's layer boundaries, recorded from outside.

``Tracer.wrap`` replaces a function on the module whose code calls it, so
the engine's own calls go through the wrapper.  Each span is kept in memory
as (name, start, end, parent) in one flat integer array; nothing is written
until the run ends.  Self time is a span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter_ns

# Marks the stderr line on which a traced CLI process reports its spans.
SPANS_PREFIX = "#bench-spans "


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.levels: Counter = Counter()  # (op sequence number, genus) -> nodes
        self.op_seq = 0
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans) // 4
        self.spans.extend((nid, _clock(), 0, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[4 * idx + 2] = _clock()
        self.stack.pop()

    def wrap(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Trace ``module.attr`` under ``name``; ``after(tracer, args, result)``
        runs once the span is closed.  Exceptions are counted by type."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counters[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark around its own call."""
        self.op_seq += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans.tolist(),
                "counters": dict(self.counters), "levels": [[k[0], k[1], v] for k, v in self.levels.items()]}

    def merge(self, data: dict) -> None:
        """Add the spans and counters exported by another process."""
        ids = [self._name_id(n) for n in data["names"]]
        offset = len(self.spans) // 4
        flat = data["spans"]
        for i in range(0, len(flat), 4):
            parent = flat[i + 3]
            self.spans.extend((ids[flat[i]], flat[i + 1], flat[i + 2], parent + offset if parent >= 0 else -1))
        self.counters.update(data["counters"])
        base = self.op_seq + 1
        for seq, genus, nodes in data["levels"]:
            self.levels[(base + seq, genus)] += nodes
        self.op_seq = base + max((seq for seq, _, _ in data["levels"]), default=0)

    def summary(self) -> dict:
        """Per name: calls, total and self ns, and calls under a closure span."""
        flat = self.spans
        n = len(flat) // 4
        child_ns = [0] * n
        in_closure = [False] * n
        closure_id = self._ids.get("closure.closure", -1)
        for i in range(n):
            parent = flat[4 * i + 3]
            if parent >= 0:
                child_ns[parent] += flat[4 * i + 2] - flat[4 * i + 1]
                in_closure[i] = in_closure[parent] or flat[4 * parent] == closure_id
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "in_closure": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[flat[4 * i]]]
            dur = flat[4 * i + 2] - flat[4 * i + 1]
            rec["calls"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += dur - child_ns[i]
            rec["in_closure"] += in_closure[i]
        return out


def _after_from_generators(tracer, args, result):
    tracer.counters["semigroup.from_generators.table_entries"] += len(result.small_elements)


def _after_closure(tracer, args, result):
    tracer.counters["closure.generators"] += len(result.base.min_generators)


def _after_children(tracer, args, result):
    s = args[0]
    tracer.counters["tree.kept"] += len(result)
    tracer.counters["tree.candidates"] += sum(1 for m in s.min_generators if m > s.frobenius)
    tracer.levels[(tracer.op_seq, s.genus + 1)] += len(result)


# The functions are wrapped where their callers look them up.  The package
# attribute ``abmonoids.closure`` is the closure function, so modules are
# always fetched by their full name.
LAYER_WRAPS = (
    ("abmonoids.tree", "remove_generator", "semigroup.remove_generator", None),
    ("abmonoids.tree", "from_generators", "semigroup.from_generators", _after_from_generators),
    ("abmonoids.closure", "from_generators", "semigroup.from_generators", _after_from_generators),
    ("abmonoids.tree", "children", "tree.children", _after_children),
    ("abmonoids.closure", "closure", "closure.closure", _after_closure),
)
CLI_WRAPS = (
    ("abmonoids.cli", "parse_args", "cli.parse_args", None),
    ("abmonoids.cli", "run", "cli.run", None),
) + tuple(
    ("abmonoids.cli", fn, "cli.engine", None)
    for fn in ("instance_closure", "feasible", "one_solution", "solve", "export_tree", "oracle_solve")
)


def install(tracer: Tracer, wraps) -> None:
    for module_name, attr, name, after in wraps:
        tracer.wrap(module_name, attr, name, after)
