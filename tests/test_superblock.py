"""Differential tests: the superblock engine vs the stepping interpreter.

The superblock engine (DESIGN.md §10) is a pure execution-strategy
change: translated straight-line blocks, one op per instruction, must be
architecturally invisible.  Every test here runs the same program
under ``engine="stepping"`` and ``engine="superblock"`` and demands
bit-identical observables: final registers, memory, retired-instruction
counts, modeled cycles, faults, and exported traces.
"""

from __future__ import annotations

import json
import pathlib
import random
import struct

import pytest

from repro import EngineConfig
from repro.core import O0, O2
from repro.emulator import APPLE_M1, HltTrap, HostCallTrap, Machine, \
    MemTrap, OutOfFuel
from repro.emulator import superblock as sbmod
from repro.memory import PERM_R, PERM_RW, PERM_RX, PagedMemory
from repro.obs import GuardProfiler, Tracer
from repro.obs.chrome import export_chrome_trace
from repro.perf import lfi_variant, native_variant, run_variant
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads import WASM_SUBSET
from repro.workloads.spec import arena_bss_size, build_benchmark

from .conftest import flush_translation_caches, load_elf_into

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
ENGINES = ("stepping", "superblock")


def corpus_programs():
    """Every runnable (non-reject) program in the shrunk-failure corpus."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        entry = json.loads(path.read_text())
        if entry.get("kind") == "program" and entry["expect"] != "reject":
            out.append(pytest.param(entry["source"], id=entry["name"]))
    return out


def observables(engine: str, elf, model=None, timeslice: int = 50_000):
    """Run ``elf`` to completion under ``engine``; return all observables."""
    runtime = Runtime(model=model, timeslice=timeslice,
                      engine=EngineConfig(kind=engine))
    proc = runtime.spawn(elf)
    runtime.run()
    memory = {
        base: runtime.memory._raw_read(base, size)
        for base, size, _ in sorted(runtime.memory.mapped_regions())
    }
    return {
        "registers": proc.registers,
        "instret": runtime.machine.instret,
        "cycles": runtime.machine.cycles,
        "faults": [(f.kind, f.detail, f.pc) for f in runtime.faults],
        "exit": proc.exit_code,
        "stdout": runtime.stdout_of(proc),
        "memory": memory,
    }


class TestCorpusDifferential:
    @pytest.mark.parametrize("source", corpus_programs())
    @pytest.mark.parametrize("options", [O0, O2], ids=["O0", "O2"])
    def test_corpus_program_identical(self, source, options):
        elf = compile_lfi(source, options=options).elf
        stepping = observables("stepping", elf, model=APPLE_M1)
        superblock = observables("superblock", elf, model=APPLE_M1)
        assert stepping == superblock

    @pytest.mark.parametrize("source", corpus_programs())
    def test_corpus_program_identical_under_preemption(self, source):
        """A tiny odd timeslice forces blocks to split on fuel exhaustion."""
        elf = compile_lfi(source, options=O2).elf
        stepping = observables("stepping", elf, timeslice=7)
        superblock = observables("superblock", elf, timeslice=7)
        assert stepping == superblock


class TestTable4Differential:
    @pytest.mark.parametrize("name", sorted(WASM_SUBSET))
    def test_kernel_identical(self, name):
        asm = build_benchmark(name, target_instructions=20_000)
        bss = arena_bss_size(name)
        runs = {}
        for variant in (native_variant(), lfi_variant(O2, "LFI O2")):
            for engine in ENGINES:
                m = run_variant(asm, bss, variant, APPLE_M1,
                                engine=EngineConfig(kind=engine))
                runs[(variant.name, engine)] = (m.instructions, m.cycles)
            assert runs[(variant.name, "stepping")] \
                == runs[(variant.name, "superblock")]


class TestObservability:
    def _traced_run(self, elf, engine):
        runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=engine))
        tracer = Tracer().attach(runtime)
        proc = runtime.spawn(elf)
        runtime.run()
        return export_chrome_trace(tracer.events), proc

    def test_trace_export_byte_identical(self):
        asm = build_benchmark("505.mcf", target_instructions=10_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        a, _ = self._traced_run(elf, "stepping")
        b, _ = self._traced_run(elf, "superblock")
        assert a == b

    def test_profiler_telescopes_on_superblock_runtime(self):
        """A per-instruction probe forces stepping fallback, and the
        profiler's buckets still sum exactly to the elapsed cycles."""
        asm = build_benchmark("505.mcf", target_instructions=10_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        breakdowns = {}
        for engine in ENGINES:
            runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=engine))
            profiler = GuardProfiler().attach(runtime)
            proc = runtime.spawn(elf)
            runtime.run()
            profiler.detach()
            elapsed = runtime.machine.cycles - profiler.start_cycles
            assert sum(profiler.breakdown().values()) \
                == pytest.approx(elapsed, abs=1e-9)
            breakdowns[engine] = (profiler.breakdown(), proc.registers)
        assert breakdowns["stepping"] == breakdowns["superblock"]

    def test_step_probe_forces_per_instruction_fallback(self):
        """While a probe is registered, no block is ever dispatched."""
        memory = PagedMemory()
        asm = """
            .globl _start
        _start:
            mov x0, #0
            mov x1, #50
        loop:
            add x0, x0, x1
            sub x1, x1, #1
            cbnz x1, loop
            hlt
        """
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf
        from repro.emulator import HltTrap

        elf = build_elf(assemble(parse_assembly(asm)))
        load_elf_into(memory, elf)
        machine = Machine(memory)
        machine.cpu.pc = elf.entry
        seen = []
        machine.add_step_probe(
            lambda m, pc, klass, delta: seen.append(pc))
        with pytest.raises(HltTrap):
            machine.run(fuel=10_000)
        assert machine.engine_stats()["translations"] == 0
        # The probe saw every retired instruction, not one per block.
        assert len([pc for pc in seen if pc is not None]) == machine.instret


class TestFuel:
    def _machine(self, body: str) -> Machine:
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        elf = build_elf(assemble(parse_assembly(body)))
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory)
        machine.cpu.pc = elf.entry
        return machine

    BODY = """
        .globl _start
    _start:
        mov x0, #0
        mov x1, #100
    loop:
        add x0, x0, x1
        sub x1, x1, #1
        cbnz x1, loop
        hlt
    """

    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 7, 64])
    def test_block_never_overruns_fuel(self, fuel):
        """Every slice of ``fuel`` retires exactly ``fuel`` instructions,
        matching the stepping contract instruction-for-instruction."""
        from repro.emulator import HltTrap

        stepper = self._machine(self.BODY)
        stepper.engine = "stepping"
        blocky = self._machine(self.BODY)
        for _ in range(20):
            outcomes = []
            for machine in (stepper, blocky):
                with pytest.raises((OutOfFuel, HltTrap)) as exc:
                    machine.run(fuel=fuel)
                outcomes.append(exc.type)
            assert outcomes[0] is outcomes[1]
            assert blocky.instret == stepper.instret
            assert blocky.cpu.pc == stepper.cpu.pc
            assert blocky.cpu.regs == stepper.cpu.regs
            if outcomes[0] is HltTrap:
                break


class TestInvalidation:
    def _runtime_with_cached_proc(self):
        asm = build_benchmark("505.mcf", target_instructions=5_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        runtime = Runtime()
        proc = runtime.spawn(elf)
        return runtime, proc

    def test_mmap_over_cached_text_retranslates(self):
        runtime, proc = self._runtime_with_cached_proc()
        runtime.run()
        sb = runtime.machine._sb
        stats = runtime.machine.engine_stats
        before = stats()["cached_blocks"]
        assert before > 0
        lo = proc.layout.base
        hi = proc.layout.end
        # Re-mapping the slot (exec-into-fresh-image style) must drop
        # every cached block that overlaps it.
        page = runtime.memory.page_size
        runtime.memory.map_region(lo + 64 * page, page, 2 | 1)
        spanning = [s for s in list(sb._blocks)
                    if lo <= s < hi]
        runtime.memory.unmap(lo + 64 * page, page)
        count0 = stats()["invalidations"]
        # Now invalidate the whole slot the way exec/munmap would.
        runtime.machine.invalidate_code(lo, hi - lo)
        assert all(sb.block_at(s) is None for s in spanning)
        assert stats()["invalidations"] >= count0 + len(spanning)
        assert stats()["cached_blocks"] <= before - len(spanning)

    def test_invalidation_is_slot_local(self):
        """Remapping one sandbox's translated text must not disturb a
        sibling sandbox's cached blocks — block keys are absolute pcs, so
        invalidation is naturally range-scoped to the touched slot."""
        asm = build_benchmark("505.mcf", target_instructions=5_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        runtime = Runtime()
        first = runtime.spawn(elf)
        second = runtime.spawn(elf)
        runtime.run()
        sb = runtime.machine._sb

        def blocks_in(layout):
            return {s for s in sb._blocks
                    if layout.base <= s < layout.end}

        first_blocks = blocks_in(first.layout)
        second_blocks = blocks_in(second.layout)
        assert first_blocks and second_blocks
        page = runtime.memory.page_size
        target = min(first_blocks) & ~(page - 1)
        from repro.memory import PERM_RW

        # mmap-over-text in the first slot only.
        runtime.memory.unmap(target, page)
        runtime.memory.map_region(target, page, PERM_RW)
        assert all(sb.block_at(s) is None for s in first_blocks
                   if target <= s < target + page)
        # Blocks outside the touched page survive in the same slot...
        assert all(sb.block_at(s) is not None for s in first_blocks
                   if not target <= s < target + page)
        # ...and the sibling slot is completely untouched.
        assert blocks_in(second.layout) == second_blocks

    def test_permission_downgrade_invalidates(self):
        runtime, proc = self._runtime_with_cached_proc()
        runtime.run()
        sb = runtime.machine._sb
        text_blocks = [s for s in list(sb._blocks)
                       if proc.layout.base <= s < proc.layout.end]
        assert text_blocks
        page = runtime.memory.page_size
        target = min(text_blocks) & ~(page - 1)
        from repro.memory import PERM_RW

        runtime.memory.protect(target, page, PERM_RW)  # drop execute
        assert all(
            sb.block_at(s) is None
            for s in text_blocks
            if target <= s < target + page
        )


# -- the row-shape matrix -----------------------------------------------------

#: x21: base of the one mapped data page (the page after it is unmapped);
#: the call table slot [x21, #8] holds HOST.
DATA = 0x1_0000_0000
HOST = 0x3000_0000

#: shape -> (body asm, the kind of the op of each of the body's leading
#: instructions, whether unmapping the data page makes the body fault).
#: The guard sequences and the runtime-call pair (names from when they
#: were fused) are the ordinary ops of their instructions.
SHAPES = {
    "plain": ("add x0, x0, #3", (sbmod.K_SIMPLE,), False),
    "mem-load": ("ldr x1, [x21, w10, uxtw]", (sbmod.K_MEM,), True),
    "mem-store": ("str x0, [x21, #24]", (sbmod.K_MEM,), True),
    "branch-taken": ("cbz x11, land\n add x0, x0, #1\nland:",
                     (sbmod.K_BRANCH,), False),
    "branch-not-taken": ("cbnz x11, land\n add x0, x0, #1\nland:",
                         (sbmod.K_BRANCH,), False),
    "generic-mem": ("ldr x1, [x12, w16, sxtw #3]", (sbmod.K_GENERIC,), True),
    "post-index-load": ("ldr x1, [x12], #8", (sbmod.K_MEM,), True),
    "post-index-ldrb": ("ldrb w1, [x12], #1", (sbmod.K_MEM,), True),
    "pre-index-store": ("str x0, [x12, #8]!", (sbmod.K_MEM,), True),
    "reg-offset-load": ("ldr x1, [x21, x10]", (sbmod.K_MEM,), True),
    "reg-offset-ldrb": ("ldrb w1, [x21, x10]", (sbmod.K_MEM,), True),
    "reg-offset-lsl": ("ldr x1, [x21, x15, lsl #3]", (sbmod.K_MEM,), True),
    "reg-offset-vload": ("ldr d1, [x21, x15, lsl #3]", (sbmod.K_MEM,), True),
    "madd-zero-addend": ("madd x0, x10, x15, xzr", (sbmod.K_SIMPLE,), False),
    "fused-guard-load": ("add x18, x21, w10, uxtw\n ldr x1, [x18, #8]",
                         (sbmod.K_SIMPLE, sbmod.K_MEM), True),
    "fused-guard-store": ("add x18, x21, w10, uxtw\n str x0, [x18]",
                          (sbmod.K_SIMPLE, sbmod.K_MEM), True),
    "fused-offset-fold": ("add w22, w10, #16\n ldr x1, [x21, w22, uxtw]",
                          (sbmod.K_SIMPLE, sbmod.K_MEM), True),
    "fused-guard-br": ("add x18, x20, w13, uxtw\n br x18\nland:",
                       (sbmod.K_SIMPLE, sbmod.K_BRANCH), False),
    "fused-guard-blr": ("add x18, x20, w14, uxtw\n blr x18",
                        (sbmod.K_SIMPLE, sbmod.K_BRANCH), False),
    "sp-guard-pair": ("mov w22, wsp\n add sp, x21, x22",
                      (sbmod.K_GENERIC, sbmod.K_GENERIC), False),
    "call-tail": ("ldr x30, [x21, #8]\n blr x30",
                  (sbmod.K_MEM, sbmod.K_BRANCH), True),
}


def assert_one_row_per_instruction(template):
    """Every op of ``template`` is one instruction with one cost row
    ``(pc, icost, lat, uses, defs)`` whose pc is that instruction's."""
    assert len(template.ops) == template.size >> 2
    for index, (kind, make, _args, _rel, row) in enumerate(template.ops):
        assert kind == make.kind and len(row) == 5, make.__name__
        assert row[0] == 4 * index, make.__name__

#: tier -> (cost model, loop iterations).  A block gets its generated
#: body at its 8th whole execution, so 12 iterations leave the last ones
#: to it and a single iteration never leaves the closures.
TIERS = {
    "cold": (APPLE_M1, 1),
    "generated": (APPLE_M1, 12),
    "cold-uncosted": (None, 1),
    "generated-uncosted": (None, 12),
}


class TestRowShapes:
    """Every op shape x engine tier x outcome against the stepping twin:
    identical pc, instret, cycles (exact floats), registers and trap."""

    def _program(self, shape, iterations):
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        body = SHAPES[shape][0]
        has_land = "land:" in body
        image = assemble(parse_assembly(f"""
            .globl _start
        _start:
            mov x9, #{iterations}
            adr x13, {'land' if has_land else 'top'}
            adr x14, leaf
        top:
            add x10, x10, #8
        body:
            {body}
            sub x9, x9, #1
            cbnz x9, top
            hlt
        leaf:
            add x0, x0, #7
            ret
        """))
        return build_elf(image), image.symbols

    def _machine(self, elf, symbols, shape, model, kind):
        memory = PagedMemory()
        load_elf_into(memory, elf)
        memory.map_region(DATA, memory.page_size, PERM_RW)
        memory.write(DATA + 8, HOST.to_bytes(8, "little"))
        machine = Machine(memory, model=model,
                          engine=EngineConfig(kind=kind))
        machine.register_host_entry(HOST)
        cpu = machine.cpu
        cpu.pc = elf.entry
        cpu.sp = DATA + 0x800
        cpu.regs[21] = DATA
        cpu.regs[12] = DATA + 0x100
        cpu.regs[10] = 0x200
        cpu.regs[15] = 0x21
        cpu.vregs[1] = (1 << 128) - 1
        return machine

    @staticmethod
    def _drive(machine, budget):
        """Run for ``budget`` instructions, returning from runtime calls
        the way a runtime would; the trap that ended the run."""
        cpu = machine.cpu
        start = machine.instret

        def left():
            return budget - (machine.instret - start)

        def springboard(entry):
            assert entry == HOST
            springboard.calls += 1
            cpu.pc = cpu.regs[30]
            return left(), False

        springboard.calls = 0
        machine.springboard = springboard
        while True:
            try:
                machine.run(fuel=left())
            except HostCallTrap:
                cpu.pc = cpu.regs[30]
            except (HltTrap, MemTrap, OutOfFuel) as trap:
                return trap

    @staticmethod
    def _state(machine, trap):
        cpu = machine.cpu
        costing = machine._costing
        return {
            "trap": (type(trap), str(trap), getattr(trap, "pc", None)),
            "pc": cpu.pc, "sp": cpu.sp, "regs": list(cpu.regs),
            "vregs": list(cpu.vregs), "nzcv": (cpu.n, cpu.z, cpu.c, cpu.v),
            "instret": machine.instret, "cycles": machine.cycles,
            "costing": costing and (costing.t_issue, costing.t_done,
                                    dict(costing.ready)),
        }

    def _pair(self, shape, tier):
        model, iterations = TIERS[tier]
        elf, symbols = self._program(shape, iterations)
        return symbols, [self._machine(elf, symbols, shape, model, kind)
                         for kind in ENGINES]

    def _last_top(self, shape, tier, back=1):
        """instret when stepping reaches ``top`` for the ``back``-th last
        time, and at the end of the program."""
        symbols, (stepper, _) = self._pair(shape, tier)
        tops = []
        while True:
            if stepper.cpu.pc == symbols["top"]:
                tops.append(stepper.instret)
            trap = self._drive(stepper, 1)
            if isinstance(trap, HltTrap):
                return tops[-min(back, len(tops))], stepper.instret

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_retires(self, shape, tier):
        flush_translation_caches()  # no body left by an earlier test
        symbols, (stepper, blocky) = self._pair(shape, tier)
        before = blocky.engine_stats()
        states = [self._state(m, self._drive(m, 10_000))
                  for m in (stepper, blocky)]
        assert states[0]["trap"][0] is HltTrap
        assert states[1] == states[0]
        sb = blocky._sb
        stats = blocky.engine_stats()
        assert stats["translations"] > 0
        block = next(b for b in sb._blocks.values()
                     if b.start <= symbols["body"] < b.end)
        # Which body ran: hotness is the only selector, cost model or not.
        generated = tier.startswith("generated")
        hot = sb.block_at(symbols["top"])  # every iteration but the first
        assert (hot is not None and hot.fn is not None) == generated
        assert (stats["compiled_blocks"] > 0) == generated
        assert (stats["generated_templates"]
                > before["generated_templates"]) == generated
        assert (stats["compile_ms"] > before["compile_ms"]) == generated
        assert_one_row_per_instruction(block.template)
        body = (symbols["body"] - block.start) >> 2
        kinds = SHAPES[shape][1]
        assert tuple(op[0] for op in block.template.ops[
            body:body + len(kinds)]) == kinds
        assert block.call_tail == (shape == "call-tail")
        # Only translated call tails reach the springboard; stepping (and
        # an arrival that is not the pair's) takes the HostCallTrap path.
        assert stepper.springboard.calls == 0
        assert blocky.springboard.calls == \
            (TIERS[tier][1] if shape == "call-tail" else 0)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize(
        "shape", [s for s, spec in SHAPES.items() if spec[2]])
    def test_fault_in_access_half(self, shape, tier):
        """The data page vanishes before the last iteration: the
        instructions ahead of the access (a guard: register written, row
        charged) have retired and the trap pc is the access."""
        cut, _end = self._last_top(shape, tier)
        symbols, machines = self._pair(shape, tier)
        states = []
        for machine in machines:
            assert isinstance(self._drive(machine, cut), OutOfFuel)
            machine.memory.unmap(DATA, machine.memory.page_size)
            states.append(self._state(machine, self._drive(machine, 100)))
        reference = states[0]
        assert states[1] == reference
        ahead = len(SHAPES[shape][1]) - 1 if shape != "call-tail" else 0
        assert reference["trap"][0] is MemTrap
        assert reference["pc"] == reference["trap"][2] \
            == symbols["body"] + 4 * ahead
        assert reference["instret"] == cut + 1 + ahead
        if shape.startswith("fused-guard"):
            assert reference["regs"][18] == DATA + reference["regs"][10]
        if tier.startswith("generated"):
            assert machines[1].engine_stats()["compiled_blocks"] > 0

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fuel_expires_at_every_row_boundary(self, shape, tier):
        """Preempt after every instruction of the last two iterations
        (between a guard and its consumer, on the ``blr`` of the call
        tail), then run on to the end."""
        start, end = self._last_top(shape, tier, back=2)
        for cut in range(start, end + 1):
            _symbols, machines = self._pair(shape, tier)
            for budget, expect in ((cut, OutOfFuel), (10_000, HltTrap)):
                states = [self._state(m, self._drive(m, budget))
                          for m in machines]
                assert states[0]["trap"][0] is expect
                assert states[1] == states[0], (cut, expect)

    @pytest.mark.parametrize("model", [None, APPLE_M1], ids=["uncosted",
                                                              "costed"])
    @pytest.mark.parametrize("trap", ["svc #5", "brk #1", "hlt"])
    def test_trap_instruction_is_a_block_of_its_own(self, trap, model):
        """The run before a trap instruction retires whole; the trap's
        own block retires nothing and reports the exact pc."""
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        image = assemble(parse_assembly(f"""
            .globl _start
        _start:
            mov x0, #1
            add x0, x0, #2
        trap:
            {trap}
        """))
        elf = build_elf(image)
        for fuel in (1, 2, 3, 100):
            states = []
            for kind in ENGINES:
                memory = PagedMemory()
                load_elf_into(memory, elf)
                machine = Machine(memory, model=model,
                                  engine=EngineConfig(kind=kind))
                machine.cpu.pc = elf.entry
                for _ in range(3):  # slices of 1 reach the trap on the 3rd
                    with pytest.raises(Exception) as exc:
                        machine.run(fuel=fuel)
                    states.append(self._state(machine, exc.value))
            assert states[:3] == states[3:], fuel
            assert states[2]["trap"][0] is not OutOfFuel
            assert states[2]["instret"] == 2
            assert states[2]["pc"] == states[2]["trap"][2] \
                == image.symbols["trap"]
        sb = machine._sb
        assert sb.block_at(elf.entry).end == image.symbols["trap"]
        assert sb.block_at(image.symbols["trap"]).count == 1


# -- generated bodies: faults, exceptions and flushes mid-block ---------------

PAGE = PagedMemory().page_size

#: A loop whose block makes four accesses, each to a page of its own.
FOUR_ACCESSES = """
    .globl _start
_start:
    mov x9, #14
top:
    add x10, x10, #8
    ldr x1, [x19, #8]
    add x2, x1, x10
    str x2, [x20, #16]
    ldr x3, [x21, x15, lsl #3]
    clz x4, x10
    add x0, x0, x3
    stp x0, x2, [x22]
    sub x9, x9, #1
    cbnz x9, top
    hlt
"""


def gauges(machine):
    return [(g.hits, g.misses, [list(ways) for ways in g._sets])
            for g in (machine.tlb, machine.l1, machine.l2) if g is not None]


class TestGeneratedBodyMidBlock:
    def _pair(self, model, kinds=ENGINES):
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        image = assemble(parse_assembly(FOUR_ACCESSES))
        elf = build_elf(image)
        machines = []
        for kind in kinds:
            memory = PagedMemory()
            load_elf_into(memory, elf)
            memory.map_region(DATA, 4 * PAGE, PERM_RW)
            memory.write(DATA + 2 * PAGE + 0x108, (7).to_bytes(8, "little"))
            machine = Machine(memory, model=model,
                              engine=EngineConfig(kind=kind))
            cpu = machine.cpu
            cpu.pc = elf.entry
            for reg, page in ((19, 0), (20, 1), (21, 2), (22, 3)):
                cpu.regs[reg] = DATA + page * PAGE
            cpu.regs[15] = 0x21
            machines.append(machine)
        return image.symbols, machines

    def _tops(self, model):
        """instret, under stepping, at the top of each iteration."""
        symbols, (stepper,) = self._pair(model, ("stepping",))
        tops = []
        while True:
            if stepper.cpu.pc == symbols["top"]:
                tops.append(stepper.instret)
            if isinstance(TestRowShapes._drive(stepper, 1), HltTrap):
                return tops

    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "costed"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("page", range(4))
    def test_fault_at_each_memory_row(self, page, where, model):
        """The ``page``-th access faults in a trip of the looping body
        (hot from the 9th iteration on): the first of a call — the run
        was preempted at the loop top — a middle one or the last.  The
        trips and ops before it retired and were charged, it was not;
        scoreboard, issue and completion times, hit counters and LRU
        order are stepping's."""
        flush_translation_caches()
        iteration = 11 if where == "middle" else 14
        top = self._tops(model)[iteration - 1]
        symbols, machines = self._pair(model)
        states = []
        for machine in machines:
            # The page vanishes under the running loop: the generic op
            # between the third access and the fourth unmaps it, in the
            # faulting iteration for the fourth and the one before for
            # the others.
            def handler(inst, machine=machine, clz=machine._exec["clz"],
                        calls=[]):
                calls.append(inst)
                if len(calls) == iteration - (page < 3):
                    machine.memory.unmap(DATA + page * PAGE, PAGE)
                return clz(inst)

            machine._exec["clz"] = handler
            if where == "first":
                assert isinstance(TestRowShapes._drive(machine, top),
                                  OutOfFuel)
            state = TestRowShapes._state(
                machine, TestRowShapes._drive(machine, 1_000))
            states.append((state, gauges(machine)))
        assert states[0][0]["trap"][0] is MemTrap
        assert states[0][0]["instret"] == top + (1, 3, 4, 7)[page]
        assert states[1] == states[0]
        hot = machines[1]._sb.block_at(symbols["top"])
        assert hot.fn is not None and hot.count == 10
        assert hot.template.loops
        # Iterations 9-13 in one call, then trip 0 of the next; 9-11; 9-14.
        assert machines[1].engine_stats()["loop_trips"] == \
            {"first": 4, "middle": 2, "last": 5}[where]

    @pytest.mark.parametrize("at", [1, 9, 12, 14])
    def test_handler_exception_leaves_the_row_walks_scoreboard(
            self, at, monkeypatch):
        """A generic op's handler raises something that is no memory
        fault — in the cold first iteration, in the first trip of the
        looping body's call (the 9th), in a middle one and in the last:
        what the generated body leaves in ``costing`` and ``instret``,
        completed trips included, is what closures and a row walk leave."""
        outcomes = []
        for threshold in (sbmod._COMPILE_THRESHOLD, 1 << 30):
            monkeypatch.setattr(sbmod, "_COMPILE_THRESHOLD", threshold)
            flush_translation_caches()
            symbols, (machine,) = self._pair(APPLE_M1, ("superblock",))
            clz, calls = machine._exec["clz"], []

            def handler(inst):
                calls.append(inst)
                if len(calls) == at:
                    raise RuntimeError("boom")
                return clz(inst)

            machine._exec["clz"] = handler
            with pytest.raises(RuntimeError, match="boom"):
                machine.run(fuel=10_000)
            hot = machine._sb.block_at(symbols["top"])
            assert at == 1 or (hot.fn is not None) == (threshold < 100
                                                       and at >= 9)
            costing = machine._costing
            outcomes.append((
                costing.t_issue, costing.t_done, dict(costing.ready),
                gauges(machine), list(machine.cpu.regs), machine.instret))
        assert outcomes[0] == outcomes[1]

    def test_gauges_flushed_under_a_hot_loop(self):
        """``flush()`` empties the sets a generated body holds, in place."""
        flush_translation_caches()
        _symbols, machines = self._pair(APPLE_M1)
        states = []
        for machine in machines:
            for _round in range(3):
                assert isinstance(TestRowShapes._drive(machine, 37),
                                  OutOfFuel)
                for gauge in (machine.tlb, machine.l1, machine.l2):
                    gauge.flush()
                    assert not any(gauge._sets)
            trap = TestRowShapes._drive(machine, 10_000)
            states.append((TestRowShapes._state(machine, trap),
                           gauges(machine)))
        assert states[0][0]["trap"][0] is HltTrap
        assert states[1] == states[0]
        assert machines[1].engine_stats()["compiled_blocks"] > 0
        assert states[1][1][0][1] > 4  # refilled after each flush


# -- a self-loop is a body that iterates: loop == stepping --------------------

MODELS = pytest.mark.parametrize("model", [None, APPLE_M1],
                                 ids=["uncosted", "costed"])


def spinner(value, trips):
    """``busy_program`` with a body the cost model has something to say
    about: a 2-instruction self-loop, then exit(value)."""
    from repro.workloads.rtlib import busy_program
    return compile_lfi(busy_program(value, 2 * trips), options=O2).elf


class TestLoopIsStepping:
    """A looping body spends fuel a whole trip at a time and nothing
    else about it shows: every boundary a slice, a checkpoint or a fault
    can land on is the instruction stepping lands on."""

    count = 10  # FOUR_ACCESSES' loop

    @MODELS
    def test_fuel_lockstep_through_a_hot_loop(self, model):
        """From the top of the 10th iteration (the body is hot and has
        looped), every fuel from one instruction to past four trips —
        whole trips, and every remainder of one."""
        flush_translation_caches()
        mid = TestGeneratedBodyMidBlock()
        top = mid._tops(model)[9]
        for fuel in range(1, 4 * self.count + 2):
            _symbols, machines = mid._pair(model)
            states = []
            looped = []
            for machine in machines:
                assert isinstance(TestRowShapes._drive(machine, top),
                                  OutOfFuel)
                before = machine.engine_stats()["loop_trips"]
                trap = TestRowShapes._drive(machine, fuel)
                states.append((TestRowShapes._state(machine, trap),
                               gauges(machine)))
                looped.append(machine.engine_stats()["loop_trips"] - before)
            assert states[0][0]["trap"][0] is OutOfFuel
            assert states[0][0]["instret"] == top + fuel
            assert states[1] == states[0], fuel
            # The whole trips ran in one call, the remainder stepped.
            assert looped == [0, max(fuel // self.count - 1, 0)]

    @MODELS
    def test_unconditional_loop_runs_its_budget_and_no_more(self, model):
        from .test_block_templates import bare, words_of

        words = words_of("""
        spin:
            add x0, x0, #1
            add x1, x1, x0
            b spin
        """)
        stepper, blocky = (bare(kind, words, 0x40_0000, model=model)
                           for kind in ENGINES)
        for fuel in (30, 3, 100, 99, 1, 2, 301, 7, 6):
            hot = blocky._sb.block_at(0x40_0000)
            hot = hot is not None and hot.fn is not None
            # A slice that starts mid-block steps (as blocks of their
            # own) the instructions up to the top.
            lead = -(blocky.cpu.pc - 0x40_0000 >> 2) % 3
            before = blocky.engine_stats()["loop_trips"]
            for machine in (stepper, blocky):
                with pytest.raises(OutOfFuel):
                    machine.run(fuel=fuel)
            assert blocky.instret == stepper.instret
            assert blocky.cycles == stepper.cycles
            assert blocky.cpu.pc == stepper.cpu.pc
            assert blocky.cpu.regs == stepper.cpu.regs
            if hot:
                # Every whole trip the fuel covers in one call, and not
                # one more: the remainder is stepped.
                assert blocky.engine_stats()["loop_trips"] - before \
                    == max((fuel - lead) // 3 - 1, 0)
        assert hot
        assert blocky.engine_stats()["loop_trips"] > 100

    @MODELS
    @pytest.mark.parametrize("timeslice", [97, 1_000])
    def test_spinners_and_a_caller_share_the_machine(self, model, timeslice):
        """Two spinning processes and one making runtime calls: the same
        slices, in the same order, with the same instructions in each."""
        from repro.workloads.rtlib import prologue, rt_exit, rtcall
        from repro.runtime import RuntimeCall

        caller = compile_lfi(
            prologue() + "\tmov x20, #40\n\tmov x26, #0\nloop:\n"
            + rtcall(RuntimeCall.GETPID)
            + "\tadd x26, x26, x0\n\tsub x20, x20, #1\n"
            "\tcbnz x20, loop\n\tmov x0, x26\n" + rt_exit(),
            options=O2).elf
        images = [spinner(3, 700), caller, spinner(5, 450)]
        seen = []
        for kind in ENGINES:
            flush_translation_caches()
            runtime = Runtime(model=model, timeslice=timeslice,
                              engine=EngineConfig(kind=kind))
            tracer = Tracer().attach(runtime)
            procs = [runtime.spawn(elf) for elf in images]
            runtime.run()
            seen.append({
                "trace": export_chrome_trace(tracer.events),
                "exits": [(e.pid, e.exit_code) for e in tracer.events
                          if getattr(e, "kind", None) == "exit"],
                "procs": [(p.pid, p.instructions, p.exit_code,
                           p.registers) for p in procs],
                "instret": runtime.machine.instret,
                "cycles": runtime.machine.cycles,
            })
        assert seen[1] == seen[0]
        assert len(seen[0]["exits"]) == 3
        assert [code for _pid, code in sorted(seen[0]["exits"])][::2] \
            == [3, 5]
        assert runtime.machine.engine_stats()["loop_trips"] > 1_000

    @MODELS
    def test_checkpoint_interval_mid_loop(self, model, monkeypatch):
        """Slices of 333 instructions paused past every 777th land inside
        the 2-instruction loop, odd ones between its halves: pause points,
        checkpoint bytes
        and results — straight through, and resumed from the third
        pause in a fresh runtime — are those of an engine that never
        loops."""
        from repro.cluster.worker import execute_job_steps
        from repro.elf import write_elf

        program = write_elf(spinner(9, 2_500))

        def run(job):
            runtime = Runtime(model=model, timeslice=333)
            steps = execute_job_steps(runtime, None, job,
                                      checkpoint_interval=777)
            pauses, cmd = [], None
            with pytest.raises(StopIteration) as stop:
                while True:
                    info = steps.send(cmd)
                    cmd = {}
                    if info["kind"] == "chunk":
                        pauses.append((info["executed"],
                                       info["checkpoint"].to_bytes()))
            payload = stop.value.value
            payload["diag"].pop("restore_s", None)  # host seconds
            return pauses, payload, runtime.machine.engine_stats()

        outcomes = []
        for threshold in (sbmod._COMPILE_THRESHOLD, 1 << 30):
            monkeypatch.setattr(sbmod, "_COMPILE_THRESHOLD", threshold)
            flush_translation_caches()
            pauses, payload, stats = run({"job_id": 0, "program": program})
            assert (stats["loop_trips"] > 0) == (threshold < 100)
            resumed = run({"job_id": 0, "resume": pauses[2][1]})
            # (A resumed run's scoreboard starts empty, so its cycle
            # totals — in blobs, metrics and diag — are its own; the
            # never-looping engine's resumed run is their reference.)
            assert [at for at, _blob in resumed[0]] \
                == [at for at, _blob in pauses[3:]]
            assert {**resumed[1], "diag": None, "metrics": None} == \
                {**payload, "diag": None, "metrics": None}
            assert resumed[1]["diag"]["instructions"] \
                == payload["diag"]["instructions"]
            outcomes.append((pauses, payload, resumed[:2]))
        assert outcomes[0] == outcomes[1]
        assert payload["exit_code"] == 9 and len(pauses) >= 6
        assert any(executed % 2 for executed, _blob in pauses)

    @pytest.mark.parametrize("change", ["mmap", "munmap", "mprotect"])
    def test_mapping_change_between_calls_retranslates(self, change):
        """No trip looks its block up again because nothing a trip does
        can drop it: mappings change on the host side of a trap, between
        two calls of a body.  One there, over a looping block's text, kills
        that block and no other slot's; the next entry retranslates."""
        from repro.memory import PERM_RX

        results = []
        for kind in ENGINES:
            flush_translation_caches()
            runtime = Runtime(timeslice=300, engine=EngineConfig(kind=kind))
            first, second = (runtime.spawn(spinner(value, 4_000))
                             for value in (3, 5))
            assert not runtime.run_bounded(first, 2_000)
            memory, sb = runtime.memory, runtime.machine._sb
            loops = {proc.pid: block for proc in (first, second)
                     for block in sb._blocks.values()
                     if block.template.loops
                     and proc.layout.base <= block.start < proc.layout.end}
            if kind == "superblock":
                assert len(loops) == 2
                assert all(block.fn is not None for block in loops.values())
                assert runtime.machine.engine_stats()["loop_trips"] > 0
                block = loops[first.pid]
                assert loops[second.pid].template is block.template
            # The page the first spinner is spinning in.
            size = memory.page_size
            text = first.registers["pc"] & ~(size - 1)
            assert kind == "stepping" or text <= block.start < text + size
            words = memory._raw_read(text, size)
            translated = runtime.machine.engine_stats()["translations"]
            if change == "mprotect":
                memory.protect(text, size, PERM_RW)
                memory.protect(text, size, PERM_RX)
            else:
                if change == "munmap":
                    memory.unmap(text, size)
                memory.map_region(text, size, PERM_RX)
                memory._raw_write(text, words)
            if kind == "superblock":
                assert sb.block_at(block.start) is None
                other = loops[second.pid]
                assert sb.block_at(other.start) is other
            runtime.run()
            if kind == "superblock":
                fresh = sb.block_at(block.start)
                assert fresh is not None and fresh is not block
                assert fresh.template is block.template  # same words
                assert runtime.machine.engine_stats()["translations"] \
                    > translated
            results.append([(p.exit_code, p.instructions, p.registers)
                            for p in (first, second)])
        assert results[0] == results[1]
        assert [r[0] for r in results[0]] == [3, 5]


# -- what a body keeps for one call: page entries, gauge units, float views ----

TRIPS = 14  # the loop is hot, and one call of its body, from trip 8 on

#: Trip t (x9 = TRIPS + 1 - t) loads from the t-th address of the table at
#: x24, stores to the t-th of the table at x25 and reads its load back.
TABLE_LOOP = """
top:
    ldr x5, [x24, x9, lsl #3]
    ldr x6, [x25, x9, lsl #3]
    ldr x1, [x5]
    add x2, x2, x1
    add x3, x2, x9
    str x3, [x6]
    {extra}
    ldrb w7, [x5, #1]
    ldr x4, [x5]
    add x0, x0, x4
    add x0, x0, x7
    sub x9, x9, #1
    cbnz x9, top
    hlt
"""

#: Pages of the data region, in the memory's own page size: the two
#: tables, a scratch page, the subject P, its neighbour N, a hole, Q.  A
#: place is (page, offset); a negative offset reaches back into the page
#: before, so (N, -8) is the last 8 bytes of P.
TL, TS, SCRATCH, P, N, HOLE, Q = range(7)


def always(place):
    return [place] * TRIPS


def then(early, late, since):
    """``early`` for the trips before ``since``, then ``late``."""
    return [early if trip < since else late for trip in range(1, TRIPS + 1)]


#: P's first word, then from trip 8 on up to and over its end: the last
#: 8-byte access that fits, the first that does not (the byte read at +1
#: still does), the last byte, the next page.
WALK = [(P, 0)] * (TRIPS - 7) + [(N, -step)
                                 for step in (16, 9, 8, 7, 4, 1, 0)]


def hazard(loads, stores, p="rw", n="rw", cow=False, observed=False,
           extra=""):
    """The places each trip loads from and stores to, the permissions of
    P and N (None: unmapped), whether P is a COW share of Q, whether a
    write observer is installed, and instructions between store and
    read-back."""
    return loads, stores, p, n, cow, observed, extra


HAZARDS = {
    # (a) reads a COW-shared page, stores to it, reads it back.
    "cow-read-store-readback": hazard(
        always((P, 8)), then((SCRATCH, 0), (P, 8), 11), cow=True),
    # (b) the same on a mapped page nobody ever wrote.
    "demand-zero-read-store-readback": hazard(
        always((P, 8)), then((SCRATCH, 0), (P, 9), 11)),
    # (c) an 8-byte access walks across the end of its page.
    "load-walks-into-mapped": hazard(WALK, always((SCRATCH, 0))),
    "load-walks-into-unmapped": hazard(WALK, always((SCRATCH, 0)), n=None),
    "load-walks-into-read-only": hazard(WALK, always((SCRATCH, 0)), n="r"),
    "store-walks-into-mapped": hazard(always((Q, 8)), WALK),
    "store-walks-into-unmapped": hazard(always((Q, 8)), WALK, n=None),
    "store-walks-into-read-only": hazard(always((Q, 8)), WALK, n="r"),
    # (d) every store is observed: the write entry is never kept.
    "observed-stores": hazard(
        always((P, 8)), [(P, 16), (SCRATCH, 0)] * (TRIPS // 2),
        observed=True),
    # (e) a stepping handler writes the page a specialised load reads:
    # its first write, the COW copy, comes in trip 11, between the load
    # and the read-back, with the specialised store hitting elsewhere.
    "generic-pair-store-copies-the-read-page": hazard(
        always((P, 8)), always((SCRATCH, 0)), cow=True,
        extra="{x13_is_x5_from_trip_11}\n    stp q0, q1, [x13]"),
    "exclusive-pair-copies-the-read-page": hazard(
        always((P, 8)), always((SCRATCH, 0)), cow=True,
        extra="{x13_is_x5_from_trip_11}\n    ldxr x10, [x13]\n"
              "    stxr w11, x3, [x13]"),
    # (f) a fault on a late trip, after hits on the earlier ones.
    "load-faults-on-trip-12": hazard(
        then((P, 8), (HOLE, 8), 12), always((P, 24))),
    "store-faults-on-trip-12": hazard(
        always((P, 8)), then((P, 24), (HOLE, 24), 12)),
    # (g) a store to the read-only page the loop has been reading.
    "store-to-the-read-only-page-it-reads": hazard(
        always((P, 8)), then((SCRATCH, 0), (P, 8), 12), p="r"),
    # (h) two pages, alternating by trip, crosswise for loads and stores.
    "alternating-pages": hazard(
        [(P, 8), (Q, 8)] * (TRIPS // 2), [(Q, 8), (P, 8)] * (TRIPS // 2)),
}

PERMS = {"rw": PERM_RW, "r": PERM_R}

#: x13 = x26 (in the scratch page) while x9 >= 5, x5 after: no branch and
#: no stepping handler, so the loop stays one block and keeps its entries.
X13_IS_X5_FROM_TRIP_11 = """sub x13, x9, #5
    asr x13, x13, #63
    sub x14, x5, x26
    and x14, x14, x13
    add x13, x26, x14"""


class TestWhatABodyKeepsIsStepping:
    """Hot loops built to make a page entry, a gauge unit or a float view
    go stale if a refill or drop rule were missing (DESIGN.md §10): body,
    closures and stepping agree on registers, memory bytes, instret,
    cycles, the fault, gauge counts and LRU order, COW copies and the
    observer's call list — with rows and without, in 16 KiB and 1 KiB
    pages."""

    TEXT = 0x40_0000

    def _machine(self, hazard, kind, model, ps, observed):
        from .test_block_templates import words_of

        loads, stores, p, n, shared, observer, extra = HAZARDS[hazard]
        memory = PagedMemory(page_size=ps)
        text = words_of(TABLE_LOOP.format(extra=extra.format(
            x13_is_x5_from_trip_11=X13_IS_X5_FROM_TRIP_11)))
        memory.map_region(self.TEXT, -(-len(text) // ps) * ps, PERM_RX)
        memory.load_image(self.TEXT, text)
        rng = random.Random(5)

        def at(page, offset=0):
            return DATA + page * ps + offset

        for page in (TL, TS, SCRATCH, Q):
            memory.map_region(at(page), ps, PERM_RW)
        memory._raw_write(at(Q), rng.randbytes(ps))
        for page, perms in ((P, p), (N, n)):
            if perms:
                memory.map_region(at(page), ps, PERM_RW)
        if shared:
            memory.share_region(at(Q), at(P), ps)
        elif hazard != "demand-zero-read-store-readback":
            memory._raw_write(at(P), rng.randbytes(ps))
        if n:
            memory._raw_write(at(N), rng.randbytes(ps))
        for page, perms in ((P, p), (N, n)):
            if perms:
                memory.protect(at(page), ps, PERMS[perms])
        for table, places in ((TL, loads), (TS, stores)):
            for trip, place in enumerate(places, 1):
                memory.store(at(table, 8 * (TRIPS + 1 - trip)), 8, at(*place))
        if observer:
            memory.write_observer = lambda a, size: observed.append((a, size))
        machine = Machine(memory, model=model, engine=EngineConfig(kind=kind))
        cpu = machine.cpu
        cpu.pc = self.TEXT
        cpu.regs[9], cpu.regs[24], cpu.regs[25] = TRIPS, at(TL), at(TS)
        cpu.regs[26] = at(SCRATCH, 64)
        cpu.vregs[0], cpu.vregs[1] = rng.getrandbits(128), rng.getrandbits(128)
        return machine

    @staticmethod
    def _outcome(machine, observed, budget=10_000):
        trap = TestRowShapes._drive(machine, budget)
        fault = getattr(trap, "fault", None)
        memory = machine.memory
        return dict(
            TestRowShapes._state(machine, trap), gauges=gauges(machine),
            fault=fault and (fault.kind, fault.address, fault.access),
            cow_copies=memory.cow_copies, observed=list(observed),
            memory=[(base, perms, memory._raw_read(base, size))
                    for base, size, perms in memory.mapped_regions()])

    @pytest.mark.parametrize("ps", [PAGE, 1024], ids=["16k", "1k"])
    @MODELS
    @pytest.mark.parametrize("hot", [False, True], ids=["cold", "generated"])
    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_table_loop(self, hazard, hot, model, ps, monkeypatch):
        if not hot:
            monkeypatch.setattr(sbmod, "_COMPILE_THRESHOLD", 1 << 30)
        flush_translation_caches()
        outcomes = []
        for kind in ENGINES:
            observed = []
            machine = self._machine(hazard, kind, model, ps, observed)
            outcomes.append(self._outcome(machine, observed))
        assert outcomes[1] == outcomes[0]
        reference = outcomes[0]
        faults = "faults" in hazard or hazard.endswith(
            ("unmapped", "store-walks-into-read-only", "page-it-reads"))
        assert (reference["trap"][0] is MemTrap) == faults
        if hazard == "observed-stores":
            assert len(reference["observed"]) == TRIPS
        if HAZARDS[hazard][4]:
            assert reference["cow_copies"] == 1
        stats = machine.engine_stats()
        assert (stats["loop_trips"] > 0) == hot
        assert (machine._sb.block_at(self.TEXT).fn is not None) == hot

    def test_two_page_sizes_share_one_body(self):
        """Generated code is per content and cost identity, not per page
        geometry: a 1 KiB-page machine runs the body a 16 KiB-page one
        generated (and the other way round) and stops at its own page
        ends.  (Without a cost model: a model's TLB takes the memory's
        page size, which is part of the cost identity.)"""
        hazard = "load-walks-into-unmapped"
        for sizes in ((PAGE, 1024), (1024, PAGE)):
            flush_translation_caches()
            generated = []
            for ps in sizes:
                outcomes = []
                for kind in ENGINES:
                    machine = self._machine(hazard, kind, None, ps, [])
                    outcomes.append(self._outcome(machine, []))
                assert outcomes[1] == outcomes[0], (sizes, ps)
                assert outcomes[0]["fault"][0] == "unmapped"
                assert machine.engine_stats()["loop_trips"] > 0
                generated.append(machine.engine_stats()["generated_templates"])
            assert generated[1] == generated[0] > 0

    FLOATS = """
    top:
        ldr d0, [x19]
        fadd d2, d0, d1
        fmul d3, d2, d0
        fadd s2, s2, s1
        fmadd d4, d2, d3, d0
        fadd d6, d4, d0
        ldp q5, q6, [x20]
        fsub d7, d6, d2
        fmul d8, d5, d7
        ldr q5, [x20, #32]
        fmul d8, d5, d8
        ldr d1, [x19, #8]
        fmsub d9, d1, d1, d8
        str d9, [x21]
        str d4, [x21, #8]
        add x19, x19, #16
        sub x9, x9, #1
        cbnz x9, top
        hlt
    """

    @MODELS
    @pytest.mark.parametrize("hot", [False, True], ids=["cold", "generated"])
    def test_float_views_are_forgotten_with_their_bits(self, hot, model,
                                                       monkeypatch):
        """(j) a 32-bit op, a vector pair load (a stepping handler) and a
        plain vector load each write a register whose 64-bit float view
        the body holds; NaN payloads, infinities and -0.0 go through
        views and come back bit for bit."""
        from .test_block_templates import words_of

        if not hot:
            monkeypatch.setattr(sbmod, "_COMPILE_THRESHOLD", 1 << 30)
        flush_translation_caches()
        specials = [0x7FF8_0000_0000_1234, 0xFFF0_0000_0000_0001,  # NaNs
                    0x8000_0000_0000_0000, 0x7FF0_0000_0000_0000,  # -0, inf
                    0x0000_0000_0000_0001, 0x7FEF_FFFF_FFFF_FFFF]
        rng = random.Random(11)
        doubles = specials + [
            struct.unpack("<Q", struct.pack("<d", rng.uniform(-9, 9)))[0]
            for _ in range(2 * TRIPS + 2)]
        rng.shuffle(doubles)
        vectors = rng.randbytes(64)
        outcomes = []
        for kind in ENGINES:
            memory = PagedMemory()
            text = words_of(self.FLOATS)
            memory.map_region(self.TEXT, PAGE, PERM_RX)
            memory.load_image(self.TEXT, text)
            memory.map_region(DATA, 3 * PAGE, PERM_RW)
            for index, bits in enumerate(doubles):
                memory.store(DATA + 8 * index, 8, bits)
            memory._raw_write(DATA + PAGE, vectors)
            machine = Machine(memory, model=model,
                              engine=EngineConfig(kind=kind))
            cpu = machine.cpu
            cpu.pc, cpu.regs[9] = self.TEXT, TRIPS
            cpu.regs[19], cpu.regs[20], cpu.regs[21] = \
                DATA, DATA + PAGE, DATA + 2 * PAGE
            cpu.vregs[1] = specials[0] | 0xABCD << 64
            outcomes.append(self._outcome(machine, []))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0]["trap"][0] is HltTrap
        assert (machine.engine_stats()["loop_trips"] > 0) == hot


class TestOneStatement:
    def test_every_op_shape_has_an_emitter(self):
        """Hand-written closure factories (``_t_*``) that restate an
        op beside the emitters.  May only shrink; it is empty."""
        assert sorted(name for name in vars(sbmod)
                      if name.startswith("_t_")) == []
