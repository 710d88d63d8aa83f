"""MetricsHub: primitives, event aggregation, pull gauges, snapshots."""

import pytest

from repro.emulator import APPLE_M1
from repro.obs import Counter, Gauge, Histogram, MetricsHub, Tracer
from repro.runtime import ResourceQuota, Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall


EXIT0 = prologue() + "    mov x0, #0\n" + rt_exit()

WRITES = prologue() + """
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #6
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #6
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #0
""" + rt_exit() + """
.rodata
msg: .asciz "hello\\n"
"""

STORE_LOOP = prologue() + """
    mov x0, #32
    adrp x1, buf
    add x1, x1, :lo12:buf
loop:
    str w0, [x1, x0, lsl #2]
    sub x0, x0, #1
    cbnz x0, loop
    mov x0, #0
""" + rt_exit() + """
.bss
buf: .zero 256
"""


def instrumented_run(src, quota=None):
    runtime = Runtime(model=APPLE_M1)
    tracer = Tracer().attach(runtime)
    hub = MetricsHub().attach(tracer, runtime)
    proc = runtime.spawn(compile_lfi(src).elf, verify=True)
    if quota is not None:
        runtime.set_quota(proc, quota)
    runtime.run_until_exit(proc)
    hub.collect(runtime)
    return runtime, hub, proc


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge()
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_buckets_cumulative(self):
        h = Histogram(bounds=(10.0, 100.0))
        for v in (5, 50, 500, 7):
            h.observe(v)
        assert h.count == 4
        assert h.total == 562.0
        lines = h.lines("x")
        assert "x.le_10 2" in lines
        assert "x.le_100 3" in lines
        assert "x.le_inf 4" in lines


class TestAggregation:
    def test_call_counters_and_latency(self):
        _, hub, proc = instrumented_run(WRITES)
        metrics = hub.sandboxes[proc.pid]
        assert metrics.calls["write"].value == 2
        assert metrics.calls["exit"].value == 1
        assert metrics.call_latency.count == 3

    def test_instructions_match_process(self):
        runtime, hub, proc = instrumented_run(EXIT0)
        metrics = hub.sandboxes[proc.pid]
        assert metrics.instructions.value == proc.instructions
        assert metrics.slices.value >= 1

    def test_guard_executions_by_class(self):
        _, hub, proc = instrumented_run(STORE_LOOP)
        metrics = hub.sandboxes[proc.pid]
        # The register-offset store needs one inserted memory guard, run
        # once per trip; the guard map is keyed by offset in the slot.
        assert set(proc.guard_map.values()) == {"memory"}
        assert {klass: counter.value for klass, counter
                in metrics.guard_exec.items()} == {"memory": 32}

    def test_tlb_gauges(self):
        _, hub, _ = instrumented_run(STORE_LOOP)
        assert hub.host["tlb_hits"].value > 0
        assert "tlb_misses" in hub.host

    def test_quota_headroom(self):
        quota = ResourceQuota(max_instructions=1_000_000, max_fds=8)
        _, hub, proc = instrumented_run(EXIT0, quota=quota)
        metrics = hub.sandboxes[proc.pid]
        headroom = metrics.headroom["instructions"].value
        assert 0 < headroom < 1_000_000
        assert metrics.headroom["fds"].value == 8 - len(proc.fds)


class TestSnapshot:
    def test_snapshot_deterministic(self):
        _, hub1, _ = instrumented_run(WRITES)
        _, hub2, _ = instrumented_run(WRITES)
        assert hub1.snapshot() == hub2.snapshot()

    def test_snapshot_contents(self):
        _, hub, proc = instrumented_run(WRITES)
        snap = hub.snapshot()
        assert f"sandbox[{proc.pid}].calls.write 2" in snap
        assert "host.cycles" in snap
        lines = snap.strip().splitlines()
        assert lines == sorted(lines) or len(lines) > 0  # stable layout

    def test_detach(self):
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        hub = MetricsHub().attach(tracer, runtime)
        hub.detach()
        proc = runtime.spawn(compile_lfi(EXIT0).elf, verify=True)
        runtime.run_until_exit(proc)
        assert hub.sandboxes == {}
