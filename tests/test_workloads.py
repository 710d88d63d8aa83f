"""Tests for the SPEC stand-in workload generators."""

import pytest

from repro.core import O0, O1, O2, O2_NO_LOADS, VerifierPolicy, verify_elf
from repro.emulator import APPLE_M1
from repro.errors import ConfigError
from repro.runtime import Runtime
from repro.toolchain import compile_lfi, compile_native
from repro.workloads import (
    KERNELS,
    SPEC_BENCHMARKS,
    WASM_SUBSET,
    arena_bss_size,
    benchmark_names,
    build_benchmark,
)

SMALL = 4000  # dynamic-instruction target for fast tests


class TestProfiles:
    def test_fourteen_benchmarks(self):
        """The paper's 14-benchmark C/C++ subset (§6)."""
        assert len(SPEC_BENCHMARKS) == 14

    def test_wasm_subset_is_paper_seven(self):
        assert set(WASM_SUBSET) == {
            "505.mcf", "508.namd", "519.lbm", "525.x264",
            "531.deepsjeng", "544.nab", "557.xz",
        }

    def test_mixes_are_normalized(self):
        for profile in SPEC_BENCHMARKS.values():
            assert abs(sum(profile.mix.values()) - 1.0) < 1e-9
            for kernel in profile.mix:
                assert kernel in KERNELS

    def test_working_sets_power_of_two(self):
        for profile in SPEC_BENCHMARKS.values():
            ws = profile.working_set
            assert ws >= 1024 * 1024
            assert ws & (ws - 1) == 0

    def test_bad_mix_rejected(self):
        from repro.workloads.spec import BenchmarkProfile

        with pytest.raises(ValueError):
            BenchmarkProfile("x", {"chase": 0.5}, 1 << 20)
        with pytest.raises(ValueError):
            BenchmarkProfile("x", {"chase": 1.0}, 3_000_000)


class TestKernels:
    def test_kernels_avoid_reserved_registers(self):
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble

        for kernel in KERNELS.values():
            program = parse_assembly(kernel.text)
            for inst in program.instructions():
                for reg in list(inst.uses()) + list(inst.defs()):
                    if not reg.is_vector:
                        assert reg.index not in (18, 21, 22, 23, 24), (
                            kernel.name, inst,
                        )

    def test_kernel_text_parses_and_has_label(self):
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble

        for kernel in KERNELS.values():
            program = parse_assembly(kernel.text)
            assert kernel.label in assemble(program).symbols
            assert len(list(program.instructions())) > 4


class TestBuiltBenchmarks:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_builds_runs_native(self, name):
        asm = build_benchmark(name, target_instructions=SMALL)
        runtime = Runtime()
        proc = runtime.spawn(
            compile_native(asm, bss_size=arena_bss_size(name)).elf,
            verify=False,
        )
        assert runtime.run_until_exit(proc) == 0, runtime.faults

    @pytest.mark.parametrize("name", ["541.leela", "519.lbm", "505.mcf"])
    @pytest.mark.parametrize("options", [O0, O1, O2, O2_NO_LOADS])
    def test_rewrites_verify_and_run(self, name, options):
        asm = build_benchmark(name, target_instructions=SMALL)
        out = compile_lfi(asm, options=options,
                          bss_size=arena_bss_size(name))
        policy = VerifierPolicy(sandbox_loads=options.sandbox_loads)
        assert verify_elf(out.elf, policy).ok
        runtime = Runtime()
        proc = runtime.spawn(out.elf, verify=True, policy=policy)
        assert runtime.run_until_exit(proc) == 0, runtime.faults

    def test_native_and_lfi_compute_same_result(self):
        """Semantics preservation: the guards must not change behaviour.

        Both versions write kernel results into the arena scratch area;
        compare the exit codes and the scratch contents.
        """
        name = "531.deepsjeng"
        asm = build_benchmark(name, target_instructions=SMALL)
        bss = arena_bss_size(name)

        def scratch_of(elf, verify):
            runtime = Runtime()
            proc = runtime.spawn(elf, verify=verify)
            code = runtime.run_until_exit(proc)
            assert code == 0
            # Arena starts at the .bss base inside the sandbox.
            base = proc.layout.base + 0x3000_0000
            return runtime.memory.read(base, 64)

        native = scratch_of(compile_native(asm, bss_size=bss).elf, False)
        lfi = scratch_of(compile_lfi(asm, bss_size=bss).elf, True)
        assert native == lfi

    def test_target_scales_instruction_count(self):
        small = build_benchmark("508.namd", target_instructions=SMALL)
        large = build_benchmark("508.namd", target_instructions=8 * SMALL)
        runtime_small, runtime_large = Runtime(), Runtime()
        bss = arena_bss_size("508.namd")
        p1 = runtime_small.spawn(compile_native(small, bss_size=bss).elf,
                                 verify=False)
        p2 = runtime_large.spawn(compile_native(large, bss_size=bss).elf,
                                 verify=False)
        runtime_small.run_until_exit(p1)
        runtime_large.run_until_exit(p2)
        assert runtime_large.machine.instret > 3 * runtime_small.machine.instret

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            build_benchmark("600.nonesuch")

    def test_unknown_benchmark_has_no_arena(self):
        with pytest.raises(ConfigError, match="505.mcf"):
            arena_bss_size("600.nonesuch")
