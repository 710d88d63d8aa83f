"""Tests for the comparison-system models (Wasm engines, hardware)."""

import pytest

from repro.perf.models import (
    GVISOR_MODEL,
    LINUX_MODEL,
    NESTED_WALK_SCALE,
    WASM_ENGINES,
    wasm_rewrite,
)
from repro.arm64 import parse_assembly
from repro.emulator import APPLE_M1
from repro.runtime import Runtime
from repro.toolchain import compile_native
from repro.workloads import arena_bss_size, build_benchmark
from repro.workloads.rtlib import prologue, rt_exit


class TestWasmRewrite:
    def count_instructions(self, text):
        return len(list(parse_assembly(text).instructions()))

    def test_engines_present(self):
        assert set(WASM_ENGINES) == {
            "wasmtime", "wasm2c", "wasm2c-nobarrier", "wasm2c-pinned",
            "wamr",
        }

    def test_stock_wasm2c_reloads_per_access(self):
        src = "ldr x1, [x0]\n ldr x2, [x0, #8]\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c"])
        # Two reloads of the heap base (the compiler barrier).
        assert out.count("ldr x28, [x27]") == 2

    def test_nobarrier_hoists_to_one_reload_per_block(self):
        src = "ldr x1, [x0]\n ldr x2, [x0, #8]\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c-nobarrier"])
        assert out.count("ldr x28, [x27]") == 1

    def test_block_boundary_forces_reload(self):
        src = "ldr x1, [x0]\nlabel:\n ldr x2, [x0, #8]\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c-nobarrier"])
        assert out.count("ldr x28, [x27]") == 2

    def test_pinned_never_reloads(self):
        src = "ldr x1, [x0]\n ldr x2, [x0, #8]\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c-pinned"])
        assert "ldr x28, [x27]" not in out
        # But still rebases each access through the pinned register.
        assert out.count("add x16, x28, w0, uxtw") == 2

    def test_indirect_call_check_inserted(self):
        src = "blr x3\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wamr"])
        assert "ldr x17, [x27, #8]" in out
        assert "__wasm_ok_0" in out

    def test_sp_accesses_untouched(self):
        src = "str x0, [sp, #16]\n ret\n"
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c"])
        assert "str x0, [sp, #16]" in out
        assert "[x27]" not in out.split("str x0")[1]

    def test_dilation_adds_instructions(self):
        src = "\n".join(["add x1, x1, #1"] * 40) + "\n ret\n"
        lean = wasm_rewrite(src, WASM_ENGINES["wasm2c-pinned"])
        fat = wasm_rewrite(src, WASM_ENGINES["wasmtime"])
        assert self.count_instructions(fat) > self.count_instructions(lean)

    @pytest.mark.parametrize("engine", sorted(WASM_ENGINES))
    def test_rewritten_benchmark_still_correct(self, engine):
        """Engine instrumentation must preserve program semantics."""
        name = "531.deepsjeng"
        asm = build_benchmark(name, target_instructions=4000)
        bss = arena_bss_size(name)

        def run(text):
            runtime = Runtime()
            proc = runtime.spawn(compile_native(text, bss_size=bss).elf,
                                 verify=False)
            code = runtime.run_until_exit(proc)
            assert code == 0, runtime.faults
            base = proc.layout.base + 0x3000_0000
            return runtime.memory.read(base, 64)

        native = run(asm)
        wasm = run(wasm_rewrite(asm, WASM_ENGINES[engine]))
        assert native == wasm

    def test_runtime_calls_still_work(self):
        src = prologue() + "    mov x0, #9\n" + rt_exit()
        out = wasm_rewrite(src, WASM_ENGINES["wasm2c"])
        runtime = Runtime()
        proc = runtime.spawn(compile_native(out).elf, verify=False)
        assert runtime.run_until_exit(proc) == 9


class TestHardwareModels:
    def test_nested_walk_doubles(self):
        assert NESTED_WALK_SCALE == 2.0

    def test_linux_syscall_matches_paper_m1(self):
        """Paper Table 5: ~129ns at 3.2GHz."""
        assert 110 < LINUX_MODEL.syscall_ns(3.2) < 150

    def test_linux_pipe_matches_paper_m1(self):
        """Paper Table 5: ~1504ns at 3.2GHz."""
        assert 1200 < LINUX_MODEL.pipe_ns(3.2) < 1800

    def test_gvisor_is_orders_slower(self):
        assert GVISOR_MODEL.syscall_ns(3.2) > 50 * LINUX_MODEL.syscall_ns(3.2)
        assert GVISOR_MODEL.pipe_ns(3.0) > 20_000

    def test_decomposition_consistency(self):
        m = LINUX_MODEL
        assert m.pipe_roundtrip_cycles() > 2 * m.syscall_cycles()
