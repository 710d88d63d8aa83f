"""Measurement harness: run workload variants and compute overheads.

The paper's methodology (§6.1) is followed exactly: the *native* baseline
runs inside the LFI runtime too (so it also benefits from accelerated
runtime calls), and every overhead is the percent increase of a variant's
modeled cycles over the native run of the same workload on the same machine
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..core.options import RewriteOptions
from ..core.verifier import VerifierPolicy
from ..emulator.costs import CostModel
from ..runtime.runtime import Runtime
from ..toolchain import compile_lfi, compile_native
from ..workloads.spec import arena_bss_size, build_benchmark
from .models import NESTED_WALK_SCALE, WasmEngineModel, wasm_rewrite

__all__ = [
    "RunMetrics",
    "Variant",
    "native_variant",
    "kvm_variant",
    "lfi_variant",
    "wasm_variant",
    "run_variant",
    "measure_benchmark",
    "geomean",
    "overhead_pct",
]


@dataclass
class RunMetrics:
    """Observables from one simulated run."""

    variant: str
    cycles: float
    instructions: int
    ns: float
    tlb_miss_rate: float
    exit_code: int

    def overhead_over(self, base: "RunMetrics") -> float:
        """Percent increase in cycles over a baseline run."""
        return overhead_pct(base.cycles, self.cycles)


@dataclass(frozen=True)
class Variant:
    """One system under comparison: how to compile and how to run."""

    name: str
    #: (asm text) -> ELF image.
    compile: Callable[[str, int], object]
    verify: bool = False
    policy: Optional[VerifierPolicy] = None
    tlb_walk_scale: float = 1.0


def native_variant(name: str = "native") -> Variant:
    return Variant(name, lambda asm, bss: compile_native(asm, bss_size=bss).elf)


def kvm_variant(name: str = "kvm") -> Variant:
    """Native code under nested paging (Figure 5's QEMU/KVM baseline)."""
    return Variant(
        name, lambda asm, bss: compile_native(asm, bss_size=bss).elf,
        tlb_walk_scale=NESTED_WALK_SCALE,
    )


def lfi_variant(options: RewriteOptions, name: Optional[str] = None) -> Variant:
    label = name or f"lfi-{options.label.replace(', ', '-').replace(' ', '')}"
    return Variant(
        label,
        lambda asm, bss: compile_lfi(asm, options=options, bss_size=bss).elf,
        verify=True,
        policy=VerifierPolicy(sandbox_loads=options.sandbox_loads,
                              allow_exclusives=options.allow_exclusives),
    )


def wasm_variant(engine: WasmEngineModel) -> Variant:
    return Variant(
        engine.name,
        lambda asm, bss: compile_native(wasm_rewrite(asm, engine),
                                        bss_size=bss).elf,
    )


def run_variant(asm: str, bss_size: int, variant: Variant,
                model: CostModel, engine=None) -> RunMetrics:
    """Compile one variant of a workload and run it to completion.

    ``engine`` takes an :class:`~repro.engine.EngineConfig` (or None for
    the default superblock engine).
    """
    elf = variant.compile(asm, bss_size)
    runtime = Runtime(model=model, tlb_walk_scale=variant.tlb_walk_scale,
                      engine=engine)
    proc = runtime.spawn(elf, verify=variant.verify, policy=variant.policy)
    code = runtime.run_until_exit(proc)
    if code != 0:
        raise RuntimeError(
            f"{variant.name} exited {code}; faults: {runtime.faults}"
        )
    machine = runtime.machine
    return RunMetrics(
        variant=variant.name,
        cycles=machine.cycles,
        instructions=machine.instret,
        ns=runtime.virtual_ns(),
        tlb_miss_rate=machine.tlb.miss_rate if machine.tlb else 0.0,
        exit_code=code,
    )


def measure_benchmark(
    name: str,
    variants: Sequence[Variant],
    model: CostModel,
    target_instructions: int = 60_000,
    baseline: Optional[Variant] = None,
) -> Dict[str, object]:
    """Run one benchmark under every variant; returns metrics + overheads.

    The returned dict maps variant name -> RunMetrics, plus
    ``"overheads"`` -> {variant name -> percent over the baseline}.
    """
    base_variant = baseline or native_variant()
    asm = build_benchmark(name, target_instructions=target_instructions)
    bss = arena_bss_size(name)
    base = run_variant(asm, bss, base_variant, model)
    out: Dict[str, object] = {base_variant.name: base}
    overheads: Dict[str, float] = {}
    for variant in variants:
        metrics = run_variant(asm, bss, variant, model)
        out[variant.name] = metrics
        overheads[variant.name] = metrics.overhead_over(base)
    out["overheads"] = overheads
    return out


def geomean(overheads_pct: Iterable[float]) -> float:
    """Geometric mean of (1 + overhead) ratios, as a percentage."""
    values = list(overheads_pct)
    if not values:
        return 0.0
    log_sum = sum(math.log1p(v / 100.0) for v in values)
    return 100.0 * (math.exp(log_sum / len(values)) - 1.0)


def overhead_pct(base_cycles: float, variant_cycles: float) -> float:
    return 100.0 * (variant_cycles - base_cycles) / base_cycles
