"""Typed trace events (the obs subsystem's wire format, DESIGN.md §15).

Every event is a frozen dataclass timestamped in **emulated cycles**
(``Machine.cycles`` at emission).  Cycle time is the only clock the obs
layer ever reads: two runs of the same workload with the same seeds emit
identical event streams, which is what makes exported traces
byte-deterministic and diffable.

Durations (``dur``) are also in cycles.  ``pid`` is the sandbox pid, or
0 for host-level events (supervisor incidents, host errors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "TraceEvent",
    "InstSample",
    "RuntimeCallSpan",
    "ContextSwitch",
    "FaultEvent",
    "ProcessEvent",
    "SupervisorEvent",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class: a timestamp (emulated cycles) plus the owning sandbox."""

    ts: float
    pid: int


@dataclass(frozen=True)
class InstSample(TraceEvent):
    """One sampled retired instruction (every Nth step when sampling)."""

    pc: int
    klass: str  # cost class (``alu``/``load``/...) from repro.emulator.costs
    guard: Optional[str]  # guard class when pc is a guard site, else None
    instret: int  # machine-wide instructions retired at sample time


@dataclass(frozen=True)
class RuntimeCallSpan(TraceEvent):
    """One runtime-call dispatch: entry to completion (§4.4)."""

    call: str  # runtime call name ("write", "yield", ...)
    dur: float  # host-side cycles spent dispatching
    result: Optional[int]  # completion value; None when the call blocked
    blocked: bool
    injected: bool  # True when a call hook short-circuited the handler


@dataclass(frozen=True)
class ContextSwitch(TraceEvent):
    """One scheduling slice of a sandbox on the emulated hardware thread."""

    dur: float  # cycles from switch-in to switch-out
    instructions: int  # instructions retired during the slice
    reason: str  # preempt|call|fault|exit|block


@dataclass(frozen=True)
class FaultEvent(TraceEvent):
    """A sandbox was killed by a trap (mirrors ``ProcessFault``)."""

    kind: str  # segv|sigill|badcall|quota
    detail: str
    pc: int


@dataclass(frozen=True)
class ProcessEvent(TraceEvent):
    """Process lifecycle: spawn (the exec analogue), fork, exit."""

    kind: str  # spawn|fork|exit
    detail: str = ""
    parent: Optional[int] = None
    exit_code: Optional[int] = None


@dataclass(frozen=True)
class SupervisorEvent(TraceEvent):
    """One supervision incident (restart, kill, deadlock-break, ...)."""

    kind: str
    name: str  # the supervised sandbox's name
    detail: str = ""
