"""Guard-attribution profiler: provenance threading, attribution
completeness, and the amortized overhead decomposition.

Provenance flows rewriter -> assembler -> ELF PT_NOTE -> loader; the
profiler then charges every emulated cycle to a guard class or to the
application, and the telescoping-delta property of the cost model makes
the attribution *exact* (it sums to ``machine.cycles`` with no slack).
"""

from collections import Counter

import pytest

from repro.core import O0, O2
from repro.elf.format import read_elf, write_elf
from repro.emulator import APPLE_M1
from repro.obs import BUCKET_ORDER, GuardProfiler, profile_workload
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall


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

FORK_STORE = prologue() + rtcall(RuntimeCall.FORK) + """
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x0, #5
    str w0, [x1, x0, lsl #2]
    mov x0, #0
""" + rt_exit() + """
.bss
buf: .zero 64
"""


class TestProvenancePipeline:
    def test_rewriter_tags_reach_assembled_image(self):
        compiled = compile_lfi(STORE_LOOP, options=O0)
        assert compiled.image.provenance
        assert set(compiled.image.provenance.values()) <= {
            "memory", "branch", "sp", "x30", "hoist"
        }

    def test_static_counts_match_provenance(self):
        compiled = compile_lfi(STORE_LOOP, options=O0)
        counts = compiled.rewrite.stats.guard_class_counts()
        # every provenance class was counted at least once statically
        for klass in set(compiled.image.provenance.values()):
            assert counts.get(klass, 0) > 0

    def test_elf_note_roundtrip(self):
        compiled = compile_lfi(STORE_LOOP, options=O0)
        blob = write_elf(compiled.elf)
        loaded = read_elf(blob)
        assert loaded.provenance == compiled.elf.provenance
        assert loaded.provenance == compiled.image.provenance

    def test_loaded_guards_are_charged_to_their_class(self):
        """Each retired instruction is charged to the class the image's
        provenance gives its offset in the slot: the loader's guard map
        is the image's."""
        compiled = compile_lfi(STORE_LOOP, options=O0)
        runtime, profiler, retired = profiled(compiled.elf)
        (pid, pcs), = retired.items()
        charged = profiler.instructions[pid]
        assert charged == charged_by_provenance(
            compiled.image, runtime.processes[pid], pcs)
        assert charged["memory"] >= 32  # the loop's guarded stores

    def test_forked_child_is_charged_like_its_parent(self):
        """The child's guards, in its own slot, are charged to their class
        exactly as the parent's are."""
        compiled = compile_lfi(FORK_STORE, options=O0)
        runtime, profiler, retired = profiled(compiled.elf)
        assert len(retired) == 2
        for pid, pcs in retired.items():
            assert profiler.instructions[pid] == charged_by_provenance(
                compiled.image, runtime.processes[pid], pcs)
            assert profiler.instructions[pid]["memory"] >= 1


def profiled(elf):
    """Run ``elf`` and what it forks under a :class:`GuardProfiler`,
    beside a probe of its own; returns the runtime, the profiler and each
    pid's retired pcs."""
    runtime = Runtime(model=APPLE_M1)
    profiler = GuardProfiler().attach(runtime)
    retired = {}

    def probe(machine, pc, klass, delta):
        if pc is not None:
            retired.setdefault(runtime._current.pid, []).append(pc)

    runtime.machine.add_step_probe(probe)
    runtime.spawn(elf, verify=True)
    runtime.run()
    return runtime, profiler, retired


def charged_by_provenance(image, proc, pcs) -> Counter:
    """Retired instructions by the class ``image``'s provenance gives each
    pc's offset in ``proc``'s slot (``app`` where it gives none)."""
    return Counter(image.provenance.get(pc - proc.layout.base, "app")
                   for pc in pcs)


class TestAttribution:
    def profiled_run(self, src, options=O0):
        runtime = Runtime(model=APPLE_M1)
        profiler = GuardProfiler().attach(runtime)
        proc = runtime.spawn(compile_lfi(src, options=options).elf,
                             verify=True)
        assert runtime.run_until_exit(proc) == 0
        return runtime, profiler, proc

    def test_attribution_is_complete(self):
        """Every cycle lands in some bucket: totals match exactly."""
        runtime, profiler, _ = self.profiled_run(STORE_LOOP)
        assert profiler.total_cycles() == pytest.approx(
            runtime.machine.cycles, abs=1e-9
        )

    def test_guard_buckets_populated(self):
        _, profiler, proc = self.profiled_run(STORE_LOOP)
        breakdown = profiler.breakdown(proc.pid)
        assert breakdown.get("app", 0.0) > 0.0
        executed_classes = {
            klass for klass in proc.guard_map.values()
        }
        for klass in executed_classes & {"memory", "branch", "sp", "x30"}:
            # the loop executes its memory guards many times
            if klass == "memory":
                assert profiler.instructions[proc.pid][klass] > 0

    def test_bucket_order_is_stable(self):
        assert BUCKET_ORDER == (
            "memory", "branch", "sp", "x30", "hoist", "fence", "mask",
            "app", "call", "host"
        )

    def test_decompose_overhead_sums_exactly(self):
        _, profiler, _ = self.profiled_run(STORE_LOOP)
        parts = profiler.decompose_overhead(1234.5)
        assert sum(parts.values()) == pytest.approx(1234.5)

    def test_decompose_without_weights_is_other(self):
        profiler = GuardProfiler()
        assert profiler.decompose_overhead(50.0) == {"other": 50.0}

    def test_report_mentions_buckets(self):
        _, profiler, _ = self.profiled_run(STORE_LOOP)
        text = profiler.report()
        assert "app" in text and "memory" in text


class TestProfileWorkload:
    @pytest.fixture(scope="class")
    def report(self):
        return profile_workload("505.mcf", options=O2, model=APPLE_M1,
                                target_instructions=20_000)

    def test_overhead_positive(self, report):
        assert report.lfi.cycles > report.native.cycles
        assert report.overhead_pct > 0.0

    def test_decomposition_matches_measured_overhead(self, report):
        """Acceptance criterion: per-class cycles sum to the perf-style
        overhead within 0.1%."""
        overhead_cycles = report.lfi.cycles - report.native.cycles
        parts = report.decomposed_overhead()
        assert sum(parts.values()) == pytest.approx(
            overhead_cycles, rel=1e-3
        )
        pct = report.decomposed_overhead_pct()
        assert sum(pct.values()) == pytest.approx(
            report.overhead_pct, rel=1e-3
        )

    def test_attribution_complete_on_benchmark(self, report):
        assert report.profiler.total_cycles() == pytest.approx(
            report.lfi.cycles, abs=1e-6
        )
