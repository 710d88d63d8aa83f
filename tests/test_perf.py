"""Tests for the measurement harness and report rendering."""

import math

import pytest

from repro.core import O0, O2
from repro.emulator import APPLE_M1
from repro.perf import (
    format_overhead_table,
    geomean,
    kvm_variant,
    lfi_variant,
    measure_benchmark,
    native_variant,
    run_variant,
    wasm_variant,
)
from repro.perf.models import WASM_ENGINES
from repro.workloads import arena_bss_size, build_benchmark

SMALL = 4000
NAME = "541.leela"


@pytest.fixture(scope="module")
def leela_asm():
    return build_benchmark(NAME, target_instructions=SMALL)


class TestRunVariant:
    def test_native(self, leela_asm):
        metrics = run_variant(leela_asm, arena_bss_size(NAME),
                              native_variant(), APPLE_M1)
        assert metrics.exit_code == 0
        assert metrics.cycles > 0
        assert metrics.instructions > SMALL / 2
        assert metrics.ns == pytest.approx(
            metrics.cycles / APPLE_M1.freq_ghz
        )

    def test_lfi_has_overhead(self, leela_asm):
        bss = arena_bss_size(NAME)
        native = run_variant(leela_asm, bss, native_variant(), APPLE_M1)
        lfi = run_variant(leela_asm, bss, lfi_variant(O2), APPLE_M1)
        assert lfi.instructions > native.instructions
        assert lfi.overhead_over(native) > 0

    def test_o0_worse_than_o2(self, leela_asm):
        bss = arena_bss_size(NAME)
        native = run_variant(leela_asm, bss, native_variant(), APPLE_M1)
        o0 = run_variant(leela_asm, bss, lfi_variant(O0), APPLE_M1)
        o2 = run_variant(leela_asm, bss, lfi_variant(O2), APPLE_M1)
        assert o0.overhead_over(native) > o2.overhead_over(native)

    def test_kvm_scales_walks_only(self, leela_asm):
        bss = arena_bss_size(NAME)
        native = run_variant(leela_asm, bss, native_variant(), APPLE_M1)
        kvm = run_variant(leela_asm, bss, kvm_variant(), APPLE_M1)
        # leela is cache/TLB-resident: KVM costs (almost) nothing.
        assert abs(kvm.overhead_over(native)) < 3.0

    def test_wasm_variant_runs(self, leela_asm):
        bss = arena_bss_size(NAME)
        metrics = run_variant(
            leela_asm, bss, wasm_variant(WASM_ENGINES["wasm2c-pinned"]),
            APPLE_M1,
        )
        assert metrics.exit_code == 0

    def test_failure_surfaces(self):
        bad = ".text\n.globl _start\n_start:\n  ldr x0, [xzr]\n  ret\n"
        with pytest.raises(Exception):
            run_variant(bad, 0, native_variant(), APPLE_M1)


class TestMeasureBenchmark:
    def test_overheads_dict(self, leela_asm):
        result = measure_benchmark(
            NAME, [lfi_variant(O2, "lfi")], APPLE_M1,
            target_instructions=SMALL,
        )
        assert "native" in result
        assert "lfi" in result
        assert set(result["overheads"]) == {"lfi"}
        assert result["overheads"]["lfi"] == pytest.approx(
            result["lfi"].overhead_over(result["native"])
        )


class TestGeomean:
    def test_zero(self):
        assert geomean([]) == 0.0
        assert geomean([0.0, 0.0]) == 0.0

    def test_single(self):
        assert geomean([10.0]) == pytest.approx(10.0)

    def test_matches_definition(self):
        values = [10.0, 20.0, 30.0]
        expected = (1.1 * 1.2 * 1.3) ** (1 / 3) - 1
        assert geomean(values) == pytest.approx(100 * expected)

    def test_handles_negative(self):
        assert geomean([-5.0, 5.0]) == pytest.approx(
            100 * (math.sqrt(0.95 * 1.05) - 1)
        )


class TestReport:
    TABLE = {
        "b1": {"sysA": 10.0, "sysB": 20.0},
        "b2": {"sysA": 5.0, "sysB": 40.0},
    }

    def test_overhead_table(self):
        text = format_overhead_table(self.TABLE, title="T")
        assert "T" in text
        assert "b1" in text and "b2" in text
        assert "geomean" in text
        assert "sysA" in text and "sysB" in text

    def test_geomean_row(self):
        footer = format_overhead_table(self.TABLE).splitlines()[-1]
        assert footer.split() == [
            "geomean", "|", f"{geomean([10.0, 5.0]):.1f}%",
            "|", f"{geomean([20.0, 40.0]):.1f}%",
        ]

    def test_columns_pick_and_order(self):
        lines = format_overhead_table(self.TABLE, columns=["sysB"],
                                      unit="x").splitlines()
        assert lines[0].split() == ["|", "sysB"]
        assert [line.split()[0] for line in lines[2:-2]] == ["b1", "b2"]
        assert lines[2].split() == ["b1", "|", "20.0x"]
