"""Host-time spans recorded from outside the program.

A :class:`SpanRecorder` keeps ``[name, start, end, parent, request_id]``
rows in memory and writes them out when the run ends (Chrome
``trace_event`` shape).  A span's name is ``<layer>.<function>``; a
layer's *self time* is its spans' durations minus the part their child
spans cover, so the layers of one traced pass add up to the pass.

Two ways to open a span, both living in the benchmark's own files:

* ``with spans.span("cluster.execute_job", request_id):`` around a call
  the workload makes itself;
* :meth:`SpanRecorder.instrument`, which for the length of the traced
  pass wraps the public functions listed in :data:`TARGETS`, so calls the
  program makes internally (``execute_job`` -> ``read_elf`` ->
  ``verify_elf`` -> ``map_region`` -> ``Machine.run``) appear as
  children.  Only functions called a few times per operation are listed:
  per-instruction and per-runtime-call paths stay unwrapped, which is
  what keeps ``ledger.trace_overhead_pct`` small.

End-to-end numbers never come from a traced pass; :class:`NoSpans` is
what untraced passes get.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Dict, List, Optional

__all__ = ["NoSpans", "SpanRecorder", "TARGETS", "layer_of", "self_times",
           "layer_self_seconds", "tree_problems", "chrome_trace"]

#: (module, class or None, attribute, span name).  Functions imported by
#: name into other modules are patched wherever the same object is bound.
TARGETS = (
    ("repro.arm64.parser", None, "parse_assembly", "arm64.parse_assembly"),
    ("repro.arm64.assembler", None, "assemble", "arm64.assemble"),
    ("repro.core.rewriter", None, "rewrite_program", "core.rewrite_program"),
    ("repro.core.verifier", "Verifier", "verify_elf", "core.verify_elf"),
    ("repro.elf.builder", None, "build_elf", "elf.build_elf"),
    ("repro.elf.format", None, "write_elf", "elf.write_elf"),
    ("repro.elf.format", None, "read_elf", "elf.read_elf"),
    ("repro.memory.pages", "PagedMemory", "map_region", "memory.map_region"),
    ("repro.memory.pages", "PagedMemory", "share_region",
     "memory.share_region"),
    ("repro.memory.pages", "PagedMemory", "unmap", "memory.unmap"),
    ("repro.memory.pages", "PagedMemory", "load_image", "memory.load_image"),
    ("repro.runtime.runtime", "Runtime", "spawn", "runtime.spawn"),
    ("repro.runtime.runtime", "Runtime", "load_template",
     "runtime.load_template"),
    ("repro.runtime.runtime", "Runtime", "spawn_clone",
     "runtime.spawn_clone"),
    ("repro.runtime.runtime", "Runtime", "reclaim_slot",
     "runtime.reclaim_slot"),
    ("repro.runtime.runtime", "Runtime", "run", "runtime.run"),
    ("repro.runtime.runtime", "Runtime", "run_until_exit",
     "runtime.run_until_exit"),
    ("repro.runtime.runtime", "Runtime", "run_bounded",
     "runtime.run_bounded"),
    ("repro.emulator.machine", "Machine", "run", "emulator.run"),
    ("repro.checkpoint.capture", None, "capture_job",
     "checkpoint.capture_job"),
    ("repro.checkpoint.capture", None, "restore_job",
     "checkpoint.restore_job"),
    ("repro.checkpoint.state", "Checkpoint", "to_bytes",
     "checkpoint.to_bytes"),
    ("repro.checkpoint.state", "Checkpoint", "from_bytes",
     "checkpoint.from_bytes"),
    ("repro.cluster.snapshot", "ImageCache", "get", "cluster.image_cache"),
    ("repro.obs.metrics", "MetricsHub", "snapshot", "obs.metrics_snapshot"),
)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NoSpans:
    """What an untraced pass gets: ``span`` costs one call and no clock."""

    def span(self, name: str, request_id: Optional[int] = None):
        return _NULL_SPAN


class _Span:
    __slots__ = ("rec", "name", "request_id", "index", "saved_request")

    def __init__(self, rec, name, request_id):
        self.rec = rec
        self.name = name
        self.request_id = request_id

    def __enter__(self):
        rec = self.rec
        self.saved_request = rec.request_id
        if self.request_id is not None:
            rec.request_id = self.request_id
        self.index = rec._open(self.name)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec._close(self.index)
        rec.request_id = self.saved_request
        return False


class SpanRecorder:
    """In-memory span list plus the patching that feeds it."""

    def __init__(self):
        #: rows of [name, start, end, parent index or -1, request id or -1]
        self.events: List[list] = []
        self._stack: List[int] = [-1]
        self.request_id = -1
        self._patches: Optional[list] = None

    def _open(self, name: str) -> int:
        index = len(self.events)
        self.events.append([name, 0.0, 0.0, self._stack[-1],
                            self.request_id])
        self._stack.append(index)
        self.events[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.events[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, request_id: Optional[int] = None):
        return _Span(self, name, request_id)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        events = self.events
        stack = self._stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            index = len(events)
            row = [name, 0.0, 0.0, stack[-1], rec.request_id]
            events.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def _find_patches(self) -> list:
        """[(owner, attribute, original, traced)] for every target."""
        patches = []
        for module_name, class_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    new = self._wrap(raw, span_name)
                patches.append((owner, attr, raw, new))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, span_name)
            # ``from x import f`` binds f in the importer's namespace;
            # patch every loaded module of the program and of the ledger
            # that holds this exact function object.
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(("repro",
                                                       "benchmarks.ledger")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, key, fn, wrapped))
        return patches

    def instrument(self) -> None:
        """Wrap every function in :data:`TARGETS` until :meth:`restore`."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original, _traced in self._patches or ():
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(events: List[list]) -> List[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [row[2] - row[1] for row in events]
    for row in events:
        parent = row[3]
        if parent >= 0:
            own[parent] -= row[2] - row[1]
    return own


def layer_self_seconds(events: List[list]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row, own in zip(events, self_times(events)):
        layer = layer_of(row[0])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def tree_problems(events: List[list], tolerance: float = 1e-6) -> List[str]:
    """Why the span list is not a well-formed forest (empty = it is).

    Children lie inside their parents, self time is never negative, each
    request id has exactly one root (a span whose parent carries another
    id), and every root's duration equals the self time of its subtree.
    """
    problems: List[str] = []
    own = self_times(events)
    subtree = list(own)
    roots: Dict[int, int] = {}
    for index in range(len(events) - 1, -1, -1):
        name, start, end, parent, request = events[index]
        if end < start:
            problems.append(f"{name}[{index}]: ends before it starts")
        if own[index] < -tolerance:
            problems.append(f"{name}[{index}]: self time {own[index]:.9f}")
        if parent >= 0:
            if parent >= index:
                problems.append(f"{name}[{index}]: parent opened later")
                continue
            p = events[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"{name}[{index}]: outside parent {p[0]}")
            subtree[parent] += subtree[index]
        if request >= 0 and (parent < 0 or events[parent][4] != request):
            roots[request] = roots.get(request, 0) + 1
    for index, row in enumerate(events):
        if row[3] < 0 and abs(subtree[index] - (row[2] - row[1])) > tolerance:
            problems.append(f"{row[0]}[{index}]: self times sum to "
                            f"{subtree[index]:.9f}, duration "
                            f"{row[2] - row[1]:.9f}")
    for request, count in roots.items():
        if count != 1:
            problems.append(f"request {request}: {count} roots")
    return problems


def chrome_trace(events: List[list], workload: str) -> str:
    """The span list as a Chrome ``trace_event`` JSON document."""
    origin = events[0][1] if events else 0.0
    own = self_times(events)
    out = [{"ph": "M", "ts": 0, "pid": 0, "tid": 0, "cat": "__metadata",
            "name": "process_name", "args": {"name": f"ledger {workload}"}}]
    for index, (name, start, end, parent, request) in enumerate(events):
        out.append({
            "ph": "X", "name": name, "cat": layer_of(name),
            "pid": 0, "tid": 0,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": index, "parent": parent, "request": request,
                     "self_us": round(own[index] * 1e6, 3)},
        })
    return json.dumps({"traceEvents": out, "displayTimeUnit": "ms"},
                      sort_keys=True, separators=(",", ":"))
