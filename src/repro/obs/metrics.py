"""Per-sandbox metrics: counters, gauges, histograms + a text exporter.

The :class:`MetricsHub` aggregates along two paths:

* **push** — it subscribes to a :class:`~repro.obs.tracer.Tracer` for
  runtime-call spans, faults, scheduling slices, and lifecycle events,
  and installs a machine step probe for *exact* guard-execution counts
  (unlike the tracer's sampling, counting must not miss instructions);
* **pull** — :meth:`collect` reads point-in-time state from the runtime:
  quota headroom per sandbox, TLB and cache hit/miss totals.

Snapshots are deterministic text (sorted keys, fixed float formatting),
so they can be diffed across runs exactly like traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .events import (
    ContextSwitch,
    FaultEvent,
    ProcessEvent,
    RuntimeCallSpan,
    TraceEvent,
)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsHub",
           "merge_snapshots", "CALL_LATENCY_BUCKETS"]

#: Histogram bounds for runtime-call latency, in emulated cycles.  The
#: interesting range spans the ~44-cycle direct-invoke yield (§5.3) up to
#: calls that copy data or fork.
CALL_LATENCY_BUCKETS = (32.0, 64.0, 128.0, 256.0, 1024.0, 8192.0)


class Counter:
    """Monotonic count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound cumulative histogram (le-style buckets + sum/count)."""

    __slots__ = ("bounds", "buckets", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = CALL_LATENCY_BUCKETS):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last bucket = +inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                break
        else:
            self.buckets[-1] += 1
        self.total += value
        self.count += 1

    def lines(self, prefix: str) -> List[str]:
        out = []
        cumulative = 0
        for bound, n in zip(self.bounds, self.buckets):
            cumulative += n
            out.append(f"{prefix}.le_{bound:g} {cumulative}")
        out.append(f"{prefix}.le_inf {cumulative + self.buckets[-1]}")
        out.append(f"{prefix}.sum {self.total:.1f}")
        out.append(f"{prefix}.count {self.count}")
        return out

    def state_dict(self) -> dict:
        return {"bounds": tuple(self.bounds), "buckets": list(self.buckets),
                "total": self.total, "count": self.count}

    def load_state(self, state: dict) -> None:
        self.bounds = tuple(state["bounds"])
        self.buckets = list(state["buckets"])
        self.total = state["total"]
        self.count = state["count"]


class _SandboxMetrics:
    """The metric set kept for each sandbox pid."""

    def __init__(self):
        self.instructions = Counter()
        self.slices = Counter()
        self.faults = Counter()
        self.calls: Dict[str, Counter] = {}
        self.call_latency = Histogram()
        self.guard_exec: Dict[str, Counter] = {}
        #: Quota headroom gauges, filled by ``collect``.
        self.headroom: Dict[str, Gauge] = {}


class MetricsHub:
    """Aggregates obs events into per-sandbox and host-level metrics."""

    def __init__(self):
        self.sandboxes: Dict[int, _SandboxMetrics] = {}
        self.host: Dict[str, Gauge] = {}
        #: Named host-level counters/histograms (ops metrics: restarts,
        #: checkpoints, restore latency).  Distinct from the pull-path
        #: gauges so ``collect`` never clobbers them.
        self.host_counters: Dict[str, Counter] = {}
        self.host_histograms: Dict[str, Histogram] = {}
        self._tracer = None
        self._runtime = None

    def sandbox(self, pid: int) -> _SandboxMetrics:
        metrics = self.sandboxes.get(pid)
        if metrics is None:
            metrics = self.sandboxes[pid] = _SandboxMetrics()
        return metrics

    # -- push path -----------------------------------------------------------

    def attach(self, tracer, runtime=None) -> "MetricsHub":
        """Subscribe to ``tracer``; with ``runtime``, also count guards."""
        self._tracer = tracer
        tracer.subscribe(self.on_event)
        if runtime is not None:
            self._runtime = runtime
            runtime.machine.add_step_probe(self._on_step)
        return self

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.unsubscribe(self.on_event)
            self._tracer = None
        if self._runtime is not None:
            self._runtime.machine.remove_step_probe(self._on_step)
            self._runtime = None

    def on_event(self, event: TraceEvent) -> None:
        if isinstance(event, RuntimeCallSpan):
            metrics = self.sandbox(event.pid)
            counter = metrics.calls.get(event.call)
            if counter is None:
                counter = metrics.calls[event.call] = Counter()
            counter.inc()
            metrics.call_latency.observe(event.dur)
        elif isinstance(event, ContextSwitch):
            metrics = self.sandbox(event.pid)
            metrics.slices.inc()
            metrics.instructions.inc(event.instructions)
        elif isinstance(event, FaultEvent):
            self.sandbox(event.pid).faults.inc()
        elif isinstance(event, ProcessEvent):
            self.sandbox(event.pid)  # materialize the track

    def _on_step(self, machine, pc: Optional[int], klass: str,
                 delta: float) -> None:
        if pc is None:
            return
        proc = self._runtime._current
        if proc is None:
            return
        guard = proc.guard_map.get(pc - proc.layout.base)
        if guard is None:
            return
        metrics = self.sandbox(proc.pid)
        counter = metrics.guard_exec.get(guard)
        if counter is None:
            counter = metrics.guard_exec[guard] = Counter()
        counter.inc()

    # -- pull path -----------------------------------------------------------

    def collect(self, runtime) -> None:
        """Sample point-in-time gauges from ``runtime``."""
        machine = runtime.machine
        for name, cache in (("tlb", machine.tlb), ("l1", machine.l1),
                            ("l2", machine.l2)):
            if cache is None:
                continue
            self._host_gauge(f"{name}_hits").set(cache.hits)
            self._host_gauge(f"{name}_misses").set(cache.misses)
        self._host_gauge("cycles").set(machine.cycles)
        self._host_gauge("instructions").set(machine.instret)
        for pid, proc in runtime.processes.items():
            metrics = self.sandbox(pid)
            quota = runtime.quotas.get(pid)
            if quota is None:
                continue
            if quota.max_instructions is not None:
                self._headroom(metrics, "instructions").set(
                    max(0, quota.max_instructions - proc.instructions)
                )
            if quota.max_fds is not None:
                self._headroom(metrics, "fds").set(
                    max(0, quota.max_fds - len(proc.fds))
                )
            if quota.max_mapped_pages is not None:
                used = runtime.memory.pages_in_range(
                    proc.layout.base, proc.layout.end
                )
                self._headroom(metrics, "pages").set(
                    max(0, quota.max_mapped_pages - used)
                )

    def _host_gauge(self, name: str) -> Gauge:
        gauge = self.host.get(name)
        if gauge is None:
            gauge = self.host[name] = Gauge()
        return gauge

    def host_gauge(self, name: str) -> Gauge:
        """Named host-level gauge (ops metrics: lane count, queue depth)."""
        return self._host_gauge(name)

    def host_counter(self, name: str) -> Counter:
        counter = self.host_counters.get(name)
        if counter is None:
            counter = self.host_counters[name] = Counter()
        return counter

    def host_histogram(self, name: str,
                       bounds: Tuple[float, ...] = CALL_LATENCY_BUCKETS,
                       ) -> Histogram:
        histogram = self.host_histograms.get(name)
        if histogram is None:
            histogram = self.host_histograms[name] = Histogram(bounds)
        return histogram

    @staticmethod
    def _headroom(metrics: _SandboxMetrics, name: str) -> Gauge:
        gauge = metrics.headroom.get(name)
        if gauge is None:
            gauge = metrics.headroom[name] = Gauge()
        return gauge

    # -- export --------------------------------------------------------------

    def snapshot(self) -> str:
        """Deterministic text dump: one ``name value`` line per metric."""
        lines: List[str] = []
        for name in sorted(set(self.host) | set(self.host_counters)):
            if name in self.host:
                lines.append(f"host.{name} {_fmt(self.host[name].value)}")
            if name in self.host_counters:
                lines.append(f"host.{name} "
                             f"{self.host_counters[name].value}")
        for name in sorted(self.host_histograms):
            lines.extend(self.host_histograms[name].lines(f"host.{name}"))
        for pid in sorted(self.sandboxes):
            metrics = self.sandboxes[pid]
            prefix = f"sandbox[{pid}]"
            lines.append(f"{prefix}.instructions "
                         f"{metrics.instructions.value}")
            lines.append(f"{prefix}.slices {metrics.slices.value}")
            lines.append(f"{prefix}.faults {metrics.faults.value}")
            for call in sorted(metrics.calls):
                lines.append(f"{prefix}.calls.{call} "
                             f"{metrics.calls[call].value}")
            if metrics.call_latency.count:
                lines.extend(
                    metrics.call_latency.lines(f"{prefix}.call_cycles")
                )
            for klass in sorted(metrics.guard_exec):
                lines.append(f"{prefix}.guards.{klass} "
                             f"{metrics.guard_exec[klass].value}")
            for name in sorted(metrics.headroom):
                lines.append(f"{prefix}.headroom.{name} "
                             f"{_fmt(metrics.headroom[name].value)}")
        return "\n".join(lines) + "\n"

    # -- checkpoint support ----------------------------------------------------

    def state_dict(self, pid_base: int = 0) -> dict:
        """Serializable sandbox-track state, pids relative to ``pid_base``.

        Host gauges/counters are deliberately excluded: they describe the
        *hub's* host, which a migrated job leaves behind.
        """
        out = {}
        for pid, metrics in self.sandboxes.items():
            out[pid - pid_base] = {
                "instructions": metrics.instructions.value,
                "slices": metrics.slices.value,
                "faults": metrics.faults.value,
                "calls": {name: c.value
                          for name, c in metrics.calls.items()},
                "call_latency": metrics.call_latency.state_dict(),
                "guard_exec": {name: c.value
                               for name, c in metrics.guard_exec.items()},
                "headroom": {name: g.value
                             for name, g in metrics.headroom.items()},
            }
        return {"sandboxes": out}

    def load_state(self, state: dict, pid_base: int = 0) -> None:
        """Restore :meth:`state_dict` output, rebasing pids onto ``pid_base``."""
        for offset, entry in state["sandboxes"].items():
            metrics = self.sandbox(pid_base + offset)
            metrics.instructions.value = entry["instructions"]
            metrics.slices.value = entry["slices"]
            metrics.faults.value = entry["faults"]
            for name, value in entry["calls"].items():
                counter = metrics.calls.setdefault(name, Counter())
                counter.value = value
            metrics.call_latency.load_state(entry["call_latency"])
            for name, value in entry["guard_exec"].items():
                counter = metrics.guard_exec.setdefault(name, Counter())
                counter.value = value
            for name, value in entry["headroom"].items():
                gauge = metrics.headroom.setdefault(name, Gauge())
                gauge.value = value


def merge_snapshots(parts) -> str:
    """Merge labeled snapshot texts into one deterministic report.

    ``parts`` is an ordered iterable of ``(label, snapshot_text)`` pairs
    (the caller fixes the order — e.g. the cluster sorts by job id); every
    line of each part is prefixed with its label.  Because the inputs are
    deterministic text and the order is caller-controlled, the merged
    report is byte-identical however the parts were produced — one worker
    or many.
    """
    lines: List[str] = []
    for label, text in parts:
        for line in text.splitlines():
            if line:
                lines.append(f"{label}.{line}")
    return "\n".join(lines) + "\n" if lines else ""


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.1f}"
