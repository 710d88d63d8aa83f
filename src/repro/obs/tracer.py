"""Deterministic event bus: low-overhead tracing for runtime + machine.

The :class:`Tracer` is a multi-subscriber bus.  Producers (the runtime's
dispatch/fault/lifecycle paths, the supervisor, the machine's step probes)
call :meth:`emit`; subscribers (the recorder, a metrics hub, ad-hoc
callbacks) receive every event in emission order.

Determinism contract (DESIGN.md §15): events are timestamped in *emulated
cycles* and ordered by the single-threaded emulation loop, so two runs of
the same workload with equal seeds produce identical event sequences —
and therefore byte-identical exported traces.  Nothing in this module may
read wall-clock time or any other host-dependent source.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .events import InstSample, TraceEvent

__all__ = ["Tracer"]


class Tracer:
    """Multi-subscriber trace-event bus, optionally recording to a list.

    ``sample_every=N`` additionally installs a machine step probe on
    :meth:`attach` that emits an :class:`InstSample` for every Nth retired
    instruction (N=0, the default, disables instruction sampling — the
    span/lifecycle events alone are cheap enough for always-on use).
    """

    def __init__(self, sample_every: int = 0, record: bool = True):
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        self.record = record
        #: Recorded events in emission order (when ``record``).
        self.events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._runtime = None
        self._steps = 0

    # -- bus -----------------------------------------------------------------

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> Callable:
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def emit(self, event: TraceEvent) -> None:
        if self.record:
            self.events.append(event)
        for fn in self._subscribers:
            fn(event)

    def clear(self) -> None:
        self.events.clear()

    # -- attachment ----------------------------------------------------------

    def attach(self, runtime) -> "Tracer":
        """Start receiving events from ``runtime`` (and its machine)."""
        if self._runtime is not None:
            raise RuntimeError("tracer is already attached")
        self._runtime = runtime
        runtime.tracer = self
        if self.sample_every:
            runtime.machine.add_step_probe(self._on_step)
        return self

    def detach(self) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        if self.sample_every:
            runtime.machine.remove_step_probe(self._on_step)
        if runtime.tracer is self:
            runtime.tracer = None
        self._runtime = None

    def _on_step(self, machine, pc: Optional[int], klass: str,
                 delta: float) -> None:
        if pc is None:  # flat host charge, not a retired instruction
            return
        self._steps += 1
        if self._steps % self.sample_every:
            return
        proc = self._runtime._current
        self.emit(InstSample(
            ts=machine.cycles,
            pid=proc.pid if proc is not None else 0,
            pc=pc,
            klass=klass,
            guard=(proc.guard_map.get(pc - proc.layout.base)
                   if proc is not None else None),
            instret=machine.instret,
        ))
