"""repro.obs — deterministic tracing, metrics, and guard attribution.

Three cooperating pieces (DESIGN.md §15):

* :class:`Tracer` — a multi-subscriber event bus fed by the runtime, the
  machine's step probes, and the supervisor; timestamps are emulated
  cycles, so equal-seed runs trace identically;
* :class:`MetricsHub` — per-sandbox counters/gauges/histograms with a
  deterministic text snapshot;
* :class:`GuardProfiler` — attributes every cycle to application code or
  a guard class using the provenance map threaded from the rewriter.

This package never imports the runtime stack at module scope: the runtime
imports :mod:`repro.obs.events`, and anything here that needs a
``Runtime`` receives it as an argument (or imports lazily).
"""

from .chrome import export_chrome_trace, to_chrome_events, validate_trace
from .events import (
    ContextSwitch,
    FaultEvent,
    InstSample,
    ProcessEvent,
    RuntimeCallSpan,
    SupervisorEvent,
    TraceEvent,
)
from .metrics import Counter, Gauge, Histogram, MetricsHub, merge_snapshots
from .prometheus import prometheus_exposition, validate_exposition
from .speculation import (
    SpeculationLog,
    SpeculationWindow,
    TransientAccess,
    differential_leakage,
)
from .profiler import (
    BUCKET_ORDER,
    GuardProfiler,
    ProfileReport,
    profile_workload,
)
from .tracer import Tracer

__all__ = [
    "TraceEvent",
    "InstSample",
    "RuntimeCallSpan",
    "ContextSwitch",
    "FaultEvent",
    "ProcessEvent",
    "SupervisorEvent",
    "Tracer",
    "export_chrome_trace",
    "to_chrome_events",
    "validate_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "merge_snapshots",
    "prometheus_exposition",
    "validate_exposition",
    "SpeculationLog",
    "SpeculationWindow",
    "TransientAccess",
    "differential_leakage",
    "BUCKET_ORDER",
    "GuardProfiler",
    "ProfileReport",
    "profile_workload",
]
