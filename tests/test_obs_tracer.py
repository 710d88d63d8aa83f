"""Tracer determinism, event taxonomy, and the Chrome trace exporter."""

import json

import pytest

from repro.core import O2
from repro.emulator import APPLE_M1
from repro.obs import (
    ContextSwitch,
    FaultEvent,
    InstSample,
    ProcessEvent,
    RuntimeCallSpan,
    SupervisorEvent,
    Tracer,
    export_chrome_trace,
    to_chrome_events,
    validate_trace,
)
from repro.robustness import ON_FAILURE, Supervisor
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi, compile_native
from repro.workloads.rtlib import prologue, rt_exit, rtcall
from repro.workloads.spec import arena_bss_size, build_benchmark


EXIT7 = prologue() + "    mov x0, #7\n" + rt_exit()

FORK_THEN_EXIT = prologue() + rtcall(RuntimeCall.FORK) + """
    mov x0, #0
""" + rt_exit()


def traced_run(src, sample_every=0, **runtime_kwargs):
    runtime = Runtime(model=APPLE_M1, **runtime_kwargs)
    tracer = Tracer(sample_every=sample_every).attach(runtime)
    proc = runtime.spawn(compile_lfi(src).elf, verify=True)
    runtime.run_until_exit(proc)
    return runtime, tracer, proc


class TestEventStream:
    def test_lifecycle_and_span_events(self):
        runtime, tracer, proc = traced_run(EXIT7)
        kinds = [type(e).__name__ for e in tracer.events]
        assert "ProcessEvent" in kinds
        assert "RuntimeCallSpan" in kinds
        assert "ContextSwitch" in kinds
        spawn = next(e for e in tracer.events
                     if isinstance(e, ProcessEvent) and e.kind == "spawn")
        assert spawn.pid == proc.pid
        exit_ev = next(e for e in tracer.events
                       if isinstance(e, ProcessEvent) and e.kind == "exit")
        assert exit_ev.exit_code == 7

    def test_timestamps_are_monotone(self):
        _, tracer, _ = traced_run(EXIT7, sample_every=8)
        times = [e.ts for e in tracer.events]
        assert times == sorted(times)

    def test_fork_event_links_parent(self):
        runtime, tracer, proc = traced_run(FORK_THEN_EXIT)
        runtime.run()  # let the child finish too
        fork = next(e for e in tracer.events
                    if isinstance(e, ProcessEvent) and e.kind == "fork")
        assert fork.parent == proc.pid
        assert fork.pid != proc.pid

    def test_fault_event_emitted(self):
        bad = prologue() + """
            mov x0, #1
            mov x1, #2
        """ + rt_exit()
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        # Hand the runtime garbage: an unknown runtime call faults it.
        proc = runtime.spawn(compile_lfi(bad).elf, verify=True)
        runtime._fault(proc, "segv", "synthetic")
        faults = [e for e in tracer.events if isinstance(e, FaultEvent)]
        assert faults and faults[0].kind == "segv"

    def test_sampling_rate(self):
        loop = prologue() + """
            mov x0, #100
        loop:
            sub x0, x0, #1
            cbnz x0, loop
        """ + rt_exit()
        runtime, dense, _ = traced_run(loop, sample_every=1)
        _, sparse, _ = traced_run(loop, sample_every=16)
        n_dense = sum(isinstance(e, InstSample) for e in dense.events)
        n_sparse = sum(isinstance(e, InstSample) for e in sparse.events)
        assert n_dense > n_sparse > 0
        # rate 1 samples every retired instruction
        assert n_dense == runtime.machine.instret

    def test_samples_name_the_guard_at_their_offset(self):
        """A sample's ``guard`` is the image's provenance at the pc's
        offset in the slot: one memory guard per trip of a guarded store
        loop, nothing elsewhere."""
        loop = prologue() + """
            mov x0, #20
            adrp x1, buf
            add x1, x1, :lo12:buf
        loop:
            str w0, [x1, x0, lsl #2]
            sub x0, x0, #1
            cbnz x0, loop
        """ + rt_exit() + ".bss\nbuf: .zero 128\n"
        _, tracer, proc = traced_run(loop, sample_every=1)
        samples = [e for e in tracer.events if isinstance(e, InstSample)]
        provenance = compile_lfi(loop).elf.provenance
        assert [e.guard for e in samples] == [
            provenance.get(e.pc - proc.layout.base) for e in samples]
        assert sum(e.guard == "memory" for e in samples) == 20

    def test_multi_subscriber_sees_recorded_stream(self):
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        seen = []
        tracer.subscribe(seen.append)
        proc = runtime.spawn(compile_lfi(EXIT7).elf, verify=True)
        runtime.run_until_exit(proc)
        assert seen == tracer.events

    def test_detach_stops_emission(self):
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        tracer.detach()
        proc = runtime.spawn(compile_lfi(EXIT7).elf, verify=True)
        runtime.run_until_exit(proc)
        assert tracer.events == []

    def test_supervisor_incidents_traced(self):
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        supervisor = Supervisor(runtime)
        bad = prologue() + "    hlt #0\n"
        supervisor.submit("crashy", compile_native(bad).elf,
                          policy=ON_FAILURE, verify=False)
        supervisor.run()
        events = [e for e in tracer.events
                  if isinstance(e, SupervisorEvent)]
        assert events
        assert any(e.name == "crashy" for e in events)
        assert len(events) == len(supervisor.incidents)


class TestDeterminism:
    def test_equal_runs_trace_identically(self):
        _, first, _ = traced_run(EXIT7, sample_every=4)
        _, second, _ = traced_run(EXIT7, sample_every=4)
        assert first.events == second.events

    def test_chrome_export_byte_identical(self):
        asm = build_benchmark("505.mcf", target_instructions=8000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf

        def export():
            runtime = Runtime(model=APPLE_M1)
            tracer = Tracer(sample_every=32).attach(runtime)
            proc = runtime.spawn(elf, verify=True)
            runtime.run_until_exit(proc)
            return export_chrome_trace(tracer.events)

        assert export() == export()


class TestChromeExport:
    def test_export_validates(self):
        _, tracer, _ = traced_run(EXIT7, sample_every=8)
        text = export_chrome_trace(tracer.events)
        assert validate_trace(text) == []

    def test_export_structure(self):
        _, tracer, _ = traced_run(EXIT7)
        doc = json.loads(export_chrome_trace(tracer.events))
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases and "i" in phases
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names
        slices = [e for e in events
                  if e["ph"] == "X" and e["cat"] == "sched"]
        assert slices and all("dur" in e for e in slices)

    def test_export_to_file(self, tmp_path):
        _, tracer, _ = traced_run(EXIT7)
        path = tmp_path / "trace.json"
        text = export_chrome_trace(tracer.events, path=str(path))
        assert path.read_text() == text

    def test_validator_rejects_garbage(self):
        assert validate_trace("not json")
        assert validate_trace(json.dumps({"traceEvents": "nope"}))
        assert validate_trace(json.dumps(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                              "ts": 0}]}
        ))  # X without dur
        good = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                 "tid": 0, "ts": 0, "dur": 1.0}]}
        assert validate_trace(json.dumps(good)) == []

    def test_to_chrome_events_drops_nothing_known(self):
        _, tracer, _ = traced_run(EXIT7, sample_every=8)
        mapped = to_chrome_events(tracer.events)
        metadata = [e for e in mapped if e["ph"] == "M"]
        assert len(mapped) == len(tracer.events) + len(metadata)
