"""``exec-steady``: the Table-4 kernels, native and LFI-O2, on the cycle model.

The emulator does nearly all the work here and set-up is negligible, so a
change to the execution tiers (tier deletion, trace compilation, codegen
caching) must show on this workload and nowhere else.  It also yields the
paper's headline simulated number, the geomean O2 overhead.
"""

from __future__ import annotations

from typing import Dict

from repro.core import O2
from repro.emulator import APPLE_M1
from repro.perf import geomean as overhead_geomean
from repro.perf import lfi_variant, native_variant, overhead_pct
from repro.runtime import Runtime
from repro.workloads import WASM_SUBSET
from repro.workloads.spec import arena_bss_size, build_benchmark

from .base import PassResult, Stopwatch, Workload, digest

#: Dynamic instructions per kernel run.  At 100 k a run is ~140 ms of
#: emulation against 3-25 ms of spawn, so the emulator keeps >90% of the
#: pass while a pass (14 runs) stays near two seconds.
TARGET = {"full": 100_000, "smoke": 5_000}
WARMUP_INSTRUCTIONS = 10_000


def variants():
    return (native_variant("native"), lfi_variant(O2, "lfi-O2"))


def build_images(target: int):
    """[(key, variant, ElfImage)] for every kernel x {native, LFI-O2}."""
    images = []
    for name in sorted(WASM_SUBSET):
        asm = build_benchmark(name, target_instructions=target)
        bss = arena_bss_size(name)
        for variant in variants():
            images.append((f"{name}/{variant.name}", variant,
                           variant.compile(asm, bss)))
    return images


def observe(runtime, proc, code) -> list:
    """What ``expected.json`` records for one finished run."""
    machine = runtime.machine
    return [code, machine.instret, machine.cycles,
            digest(runtime.stdout_of(proc))]


class ExecSteady(Workload):
    NAME = "exec-steady"
    WHY = ("7 Table-4 kernels, native and LFI-O2, on the cycle model: the "
           "emulator does >90% of the work, so engine-tier changes show "
           "here and nowhere else.")
    OP = "1000 emulated instructions retired (spawn + run)"
    PASSES = 6

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        state = {"images": build_images(TARGET[scale]),
                 "expected": expected[scale][self.NAME]}
        for _key, variant, elf in state["images"]:
            runtime = Runtime(model=APPLE_M1)
            proc = runtime.spawn(elf, verify=variant.verify,
                                 policy=variant.policy)
            runtime.run_bounded(proc, WARMUP_INSTRUCTIONS)
        return state

    def run_pass(self, state, index, spans) -> PassResult:
        units = []
        failed = 0
        cycles: Dict[str, float] = {}
        for key, variant, elf in state["images"]:
            with spans.span("ledger.unit"), Stopwatch() as watch:
                runtime = Runtime(model=APPLE_M1)
                proc = runtime.spawn(elf, verify=variant.verify,
                                     policy=variant.policy)
                code = runtime.run_until_exit(proc)
            seen = observe(runtime, proc, code)
            if seen != state["expected"][key]:
                failed += 1
            units.append(watch.unit(key, seen[1] / 1000.0))
            cycles[key] = seen[2]
        names = sorted({key.split("/")[0] for key in cycles})
        overheads = [overhead_pct(cycles[f"{n}/native"],
                                  cycles[f"{n}/lfi-O2"]) for n in names]
        return PassResult(
            units, attempted=len(units), failed=failed,
            facts={"sim_o2_overhead_pct": overhead_geomean(overheads)},
        )
