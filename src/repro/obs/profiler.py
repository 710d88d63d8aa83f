"""Guard-attribution profiler: who pays for each emulated cycle?

The rewriter tags every instruction it *adds* with a guard class
(``memory``/``branch``/``sp``/``x30``/``hoist``); the assembler, ELF
builder, and loader thread that provenance through to the loaded image as
``Process.guard_map`` (pc offset in the slot -> class).  The profiler
subscribes to the machine's per-instruction cycle probe and charges each
delta to:

* the instruction's guard class, when its pc is a guard site;
* ``app``, for every other retired sandbox instruction;
* the flat-charge kind (``call``/``host``), for runtime-side work
  charged via :meth:`Machine.add_cycles`.

Because the cost model's cycle counter is monotonic and every mutation is
probed, the attribution is *complete*: the buckets sum to exactly the
cycles elapsed while attached.  That is what lets
``examples/overhead_report.py`` decompose Table 4's overhead percentages
into per-guard-class contributions that add up.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["GuardProfiler", "ProfileReport", "profile_workload"]

#: Guard classes in the paper's presentation order (Table 3 / §4), then
#: the non-guard buckets.
BUCKET_ORDER = ("memory", "branch", "sp", "x30", "hoist", "fence", "mask",
                "app", "call", "host")


class GuardProfiler:
    """Attribute per-instruction cycle charges to app vs guard classes."""

    def __init__(self):
        #: pid -> bucket -> cycles.
        self.cycles: Dict[int, Dict[str, float]] = {}
        #: pid -> bucket -> retired instruction count (no flat charges).
        self.instructions: Dict[int, Dict[str, int]] = {}
        #: guard class -> standalone cost (issue + result latency) of every
        #: executed guard instruction, as if nothing overlapped.  The gap
        #: between this and the marginal ``cycles`` is guard cost hidden
        #: under latency — the effect the paper leans on (§6.2).
        self.standalone: Dict[str, float] = {}
        self._runtime = None
        self.start_cycles = 0.0

    # -- attachment ----------------------------------------------------------

    def attach(self, runtime) -> "GuardProfiler":
        if self._runtime is not None:
            raise RuntimeError("profiler is already attached")
        self._runtime = runtime
        self.start_cycles = runtime.machine.cycles
        runtime.machine.add_step_probe(self._on_step)
        return self

    def detach(self) -> None:
        if self._runtime is None:
            return
        self._runtime.machine.remove_step_probe(self._on_step)
        self._runtime = None

    def _on_step(self, machine, pc: Optional[int], klass: str,
                 delta: float) -> None:
        proc = self._runtime._current
        pid = proc.pid if proc is not None else 0
        if pc is None:
            bucket = klass  # a flat charge: "call", "host", ...
        elif proc is not None:
            bucket = proc.guard_map.get(pc - proc.layout.base, "app")
        else:
            bucket = "app"
        per = self.cycles.get(pid)
        if per is None:
            per = self.cycles[pid] = {}
        per[bucket] = per.get(bucket, 0.0) + delta
        if pc is not None:
            counts = self.instructions.get(pid)
            if counts is None:
                counts = self.instructions[pid] = {}
            counts[bucket] = counts.get(bucket, 0) + 1
            if bucket != "app":
                model = machine.model
                cost = (model.issue_cost(klass) + model.result_latency(klass)
                        if model is not None else 1.0)
                self.standalone[bucket] = \
                    self.standalone.get(bucket, 0.0) + cost

    # -- queries -------------------------------------------------------------

    def breakdown(self, pid: Optional[int] = None) -> Dict[str, float]:
        """Bucket -> cycles, for one sandbox or summed over all."""
        out: Dict[str, float] = {}
        for owner, per in self.cycles.items():
            if pid is not None and owner != pid:
                continue
            for bucket, cycles in per.items():
                out[bucket] = out.get(bucket, 0.0) + cycles
        return out

    def instruction_counts(self, pid: Optional[int] = None) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for owner, per in self.instructions.items():
            if pid is not None and owner != pid:
                continue
            for bucket, count in per.items():
                out[bucket] = out.get(bucket, 0) + count
        return out

    def total_cycles(self) -> float:
        return sum(sum(per.values()) for per in self.cycles.values())

    def decompose_overhead(self, overhead_cycles: float) -> Dict[str, float]:
        """Split a measured overhead-vs-native across guard classes.

        The marginal breakdown is an *undercount*: a guard in the shadow of
        a cache miss has near-zero marginal cost, yet the whole-program
        overhead it belongs to is real (longer chains, bigger footprint).
        This amortized view distributes the measured overhead proportional
        to each class's standalone executed cost, so the returned values
        sum to ``overhead_cycles`` exactly; ``other`` absorbs everything
        when no guards executed at all.
        """
        weights = {
            bucket: weight for bucket, weight in self.standalone.items()
            if bucket not in ("call", "host")
        }
        total = sum(weights.values())
        if total <= 0.0:
            return {"other": overhead_cycles}
        return {
            bucket: overhead_cycles * weight / total
            for bucket, weight in weights.items()
        }

    def report(self) -> str:
        """Deterministic text table of the aggregate breakdown."""
        breakdown = self.breakdown()
        counts = self.instruction_counts()
        total = sum(breakdown.values()) or 1.0
        lines = [f"{'bucket':<8} {'cycles':>14} {'share':>7} {'insts':>10}"]
        order = list(BUCKET_ORDER) + sorted(
            b for b in breakdown if b not in BUCKET_ORDER
        )
        for bucket in order:
            if bucket not in breakdown:
                continue
            cycles = breakdown[bucket]
            lines.append(
                f"{bucket:<8} {cycles:>14.1f} "
                f"{100.0 * cycles / total:>6.2f}% "
                f"{counts.get(bucket, 0):>10}"
            )
        lines.append(f"{'total':<8} {sum(breakdown.values()):>14.1f} "
                     f"{'100.00%':>7} "
                     f"{sum(counts.values()):>10}")
        return "\n".join(lines)


class ProfileReport:
    """Everything ``profile_workload`` measured for one Table 4 workload."""

    def __init__(self, name, native, lfi, profiler):
        self.name = name
        self.native = native  # RunMetrics of the native baseline
        self.lfi = lfi  # RunMetrics of the sandboxed run
        self.profiler = profiler

    @property
    def overhead_pct(self) -> float:
        from ..perf.measure import overhead_pct

        return overhead_pct(self.native.cycles, self.lfi.cycles)

    def decomposed_overhead(self) -> Dict[str, float]:
        """Guard class -> overhead cycles; sums to (lfi - native) exactly."""
        return self.profiler.decompose_overhead(
            self.lfi.cycles - self.native.cycles
        )

    def decomposed_overhead_pct(self) -> Dict[str, float]:
        """Guard class -> percentage points of Table 4's overhead number."""
        return {
            bucket: 100.0 * cycles / self.native.cycles
            for bucket, cycles in self.decomposed_overhead().items()
        }


def profile_workload(name: str, options=None, model=None,
                     target_instructions: int = 60_000) -> ProfileReport:
    """Run one Table 4 workload natively and sandboxed, with attribution.

    The sandboxed run carries a :class:`GuardProfiler`; the returned
    report pairs its dynamic breakdown with the native baseline, so the
    caller can decompose the overhead.
    """
    # Imported lazily: this module must not pull the runtime stack in at
    # import time (runtime.py imports obs.events).
    from ..core.options import O2
    from ..emulator.costs import CostModel
    from ..perf.measure import (
        RunMetrics,
        lfi_variant,
        native_variant,
        run_variant,
    )
    from ..runtime.runtime import Runtime
    from ..toolchain import compile_lfi
    from ..workloads.spec import arena_bss_size, build_benchmark

    options = options or O2
    model = model or CostModel()
    asm = build_benchmark(name, target_instructions=target_instructions)
    bss = arena_bss_size(name)
    native = run_variant(asm, bss, native_variant(), model)

    compiled = compile_lfi(asm, options=options, bss_size=bss)
    variant = lfi_variant(options)
    runtime = Runtime(model=model)
    profiler = GuardProfiler().attach(runtime)
    proc = runtime.spawn(compiled.elf, verify=True, policy=variant.policy)
    code = runtime.run_until_exit(proc)
    profiler.detach()
    if code != 0:
        raise RuntimeError(f"{name} exited {code}; faults: {runtime.faults}")
    machine = runtime.machine
    lfi = RunMetrics(
        variant=variant.name,
        cycles=machine.cycles,
        instructions=machine.instret,
        ns=runtime.virtual_ns(),
        tlb_miss_rate=machine.tlb.miss_rate if machine.tlb else 0.0,
        exit_code=code,
    )
    return ProfileReport(name, native, lfi, profiler)
