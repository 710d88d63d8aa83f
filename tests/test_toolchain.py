"""Tests for the toolchain driver and the microbenchmark harness."""

import math

import pytest

from repro.core import O0, O2, RewriteError, verify_elf
from repro.elf import read_elf, write_elf
from repro.emulator import APPLE_M1, GCP_T2A
from repro.perf import overhead_pct
from repro.perf.microbench import (
    measure_pipe_ns,
    measure_syscall_ns,
    measure_yield_ns,
    run_table5,
)
from repro.toolchain import compile_lfi, compile_native
from repro.workloads import build_benchmark
from repro.workloads.rtlib import prologue, rt_exit, rtcall
from repro.runtime import RuntimeCall

SRC = prologue() + "    ldr x1, [x0]\n    mov x0, #3\n" + rt_exit()


class TestToolchain:
    def test_compile_lfi_produces_verified_elf(self):
        out = compile_lfi(SRC)
        assert verify_elf(out.elf).ok
        assert out.rewrite is not None
        assert out.rewrite.stats.zero_cost_guards == 1

    def test_compile_native_skips_rewriter(self):
        out = compile_native(SRC)
        assert out.rewrite is None
        assert not verify_elf(out.elf).ok

    def test_sizes(self):
        native = compile_native(SRC)
        lfi = compile_lfi(SRC)
        assert lfi.text_size >= native.text_size
        assert lfi.binary_size > lfi.text_size  # headers + rodata/data
        # The ELF bytes really serialize/parse.
        assert read_elf(write_elf(lfi.elf)).entry == lfi.elf.entry

    def test_binary_size_is_the_loadable_image(self):
        """§6.3: the binary grows no more than the text, because the
        guard-provenance note (9 bytes per guard, never mapped) is not
        part of the loadable image; it is the rest of the ELF file."""
        asm = build_benchmark("541.leela", target_instructions=8000)
        native, lfi = compile_native(asm), compile_lfi(asm)
        text = overhead_pct(native.text_size, lfi.text_size)
        binary = overhead_pct(native.binary_size, lfi.binary_size)
        assert 0 < binary <= text + 0.5
        note = len(write_elf(lfi.elf)) - lfi.binary_size
        assert note >= 9 * len(lfi.elf.provenance) > 0
        assert native.binary_size == len(write_elf(native.elf))

    def test_bss_size_plumbs_through(self):
        out = compile_lfi(SRC + ".bss\nbuf: .skip 8\n", bss_size=1 << 20)
        bss = [s for s in out.elf.segments if s.memsz > len(s.data)]
        assert bss and bss[0].memsz - len(bss[0].data) == 1 << 20

    def test_options_plumb_through(self):
        o0 = compile_lfi(SRC, options=O0)
        o2 = compile_lfi(SRC, options=O2)
        assert o0.text_size >= o2.text_size

    def test_rewrite_error_propagates(self):
        with pytest.raises(RewriteError):
            compile_lfi("svc #0\n")


class TestMicrobenchHarness:
    def test_syscall_measures_positive_ns(self):
        ns = measure_syscall_ns(APPLE_M1, count=50)
        assert 1.0 < ns < 500.0

    def test_syscall_scales_with_frequency(self):
        m1 = measure_syscall_ns(APPLE_M1, count=50)
        t2a = measure_syscall_ns(GCP_T2A, count=50)
        # Same cycle structure, lower clock => more ns.
        assert t2a > m1 * 0.9

    def test_pipe_slower_than_syscall(self):
        syscall = measure_syscall_ns(APPLE_M1, count=50)
        pipe = measure_pipe_ns(APPLE_M1, count=20)
        assert pipe > syscall

    def test_yield_is_fastest(self):
        yld = measure_yield_ns(APPLE_M1, count=50)
        syscall = measure_syscall_ns(APPLE_M1, count=50)
        assert yld < syscall

    def test_run_table5_rows(self):
        rows = run_table5(APPLE_M1)
        assert set(rows) == {"syscall", "pipe", "yield"}
        assert rows["syscall"].linux_ns > rows["syscall"].lfi_ns
        assert math.isnan(rows["yield"].linux_ns)


class TestNativeInRuntimeMethodology:
    """§6.1: the native baseline runs *within* the LFI runtime so it also
    benefits from accelerated runtime calls."""

    def test_native_code_uses_runtime_calls(self):
        from repro.runtime import Runtime

        src = prologue() + rtcall(RuntimeCall.GETPID) + rt_exit()
        runtime = Runtime()
        proc = runtime.spawn(compile_native(src).elf, verify=False)
        assert runtime.run_until_exit(proc) == proc.pid

    def test_native_and_lfi_share_call_overhead(self):
        """The runtime-call cost is identical for both, so overheads
        measure only the guards."""
        from repro.runtime import Runtime

        src = prologue() + rtcall(RuntimeCall.GETPID) * 5 + rt_exit()
        cycles = {}
        for label, compiled, verify in (
            ("native", compile_native(src), False),
            ("lfi", compile_lfi(src), True),
        ):
            runtime = Runtime(model=APPLE_M1)
            proc = runtime.spawn(compiled.elf, verify=verify)
            runtime.run_until_exit(proc)
            cycles[label] = runtime.cycles
        # This program is almost all runtime calls: LFI within 15%.
        assert cycles["lfi"] < cycles["native"] * 1.15
