"""Transition tests: the springboard, loops under fuel, batch ABI.

The near-zero-cost transition machinery (DESIGN.md §15) is, like the
superblock engine itself, a pure execution-strategy change: runtime
calls that never unwind the engine, loops that iterate inside a body,
and the vectored BATCH ABI must all be architecturally invisible.  Every
differential test here runs the same program under ``stepping`` and
``superblock`` engines and demands bit-identical observables — final
registers, memory, retired instructions, modeled cycles, faults, stdout —
while also asserting that the fast paths actually fired
(``Runtime.calls_inline`` and the ``loop_trips`` counter), so a silent
fallback to the slow path cannot pass.

The :class:`repro.EngineConfig` satellite is covered here too: the
deprecation shim for the old string kwarg, dict round-trips across
process/checkpoint boundaries, and the gateway's typed
:class:`~repro.errors.ConfigError` on fuel/timeslice conflicts.
"""

from __future__ import annotations

import errno
import functools
import struct

import pytest

from benchmarks.ledger.workloads.call_heavy import COUNTS, compile_program
from repro import ENGINE_KINDS, ConfigError, EngineConfig
from repro.checkpoint import Checkpoint, capture_job, restore_job
from repro.cluster.worker import execute_job_steps
from repro.core import O2
from repro.emulator import APPLE_M1, HltTrap, Machine, OutOfFuel
from repro.memory import PAGE_SIZE, PERM_RW, PERM_RX, MemoryFault, \
    PagedMemory
from repro.obs import Tracer, export_chrome_trace
from repro.runtime import ResourceQuota, Runtime, RuntimeCall
from repro.runtime.syscalls import BATCHABLE, BLOCK, HANDLERS, rt_batch
from repro.runtime.table import BATCH_MAX_RECORDS
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import (
    batch_block,
    mov_imm,
    prologue,
    rt_exit,
    rtcall,
)

from .conftest import load_elf_into
from .test_block_templates import words_of
from . import test_superblock as rows

ENGINES = ("stepping", "superblock")
STEPPING = EngineConfig(kind="stepping")
SUPERBLOCK = EngineConfig(kind="superblock")


def observables(engine, elf, model=None, timeslice=50_000):
    """Run ``elf`` to completion under ``engine``; return all observables."""
    runtime = Runtime(model=model, timeslice=timeslice, engine=engine)
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


def call_loop_program(iterations: int = 50) -> str:
    """A hot loop making one GETPID runtime call per trip.

    Small enough to translate into a handful of superblocks, hot enough
    that the springboard must engage and both blocks of the loop get
    their generated bodies.
    """
    return (
        prologue()
        + f"\tmov x20, #{iterations}\n"
        + "\tmov x26, #0\n"
        + "loop:\n"
        + rtcall(RuntimeCall.GETPID)
        + "\tadd x26, x26, x0\n"
        + "\tsub x20, x20, #1\n"
        + "\tcbnz x20, loop\n"
        + "\tmov x0, x26\n"
        + rt_exit()
    )


class TestFusedSpringboard:
    """Runtime calls recognised at translation time (``call_tail``) and
    serviced without unwinding the engine must be invisible — identical
    states, cycle accounting, and stdout — while ``calls_inline`` proves
    the fast path actually ran.  (The class names of this file predate
    the removal of call-pair fusion and chaining; the tests kept their
    ids.)"""

    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "M1"])
    @pytest.mark.parametrize("timeslice", [50_000, 64, 7])
    def test_call_loop_identical(self, model, timeslice):
        elf = compile_lfi(call_loop_program(), options=O2).elf
        stepping = observables(STEPPING, elf, model=model,
                               timeslice=timeslice)
        superblock = observables(SUPERBLOCK, elf, model=model,
                                 timeslice=timeslice)
        assert stepping == superblock

    def test_fused_and_chained_paths_fire(self):
        """(Named for what it pinned when the pair was one fused op and
        blocks were chained: the call path and the loop path both fire.)"""
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        runtime.spawn(elf)
        runtime.run()
        sb = runtime.machine._sb
        assert any(blk.call_tail for blk in sb._blocks.values()), \
            "no runtime call was recognised"
        # All 200 GETPIDs returned into the live registers; EXIT did not.
        assert runtime.calls == 201 and runtime.calls_inline == 200
        # A loop with a runtime call in it is two blocks, each the
        # other's successor: its trips are turns of the dispatch loop,
        # both blocks hot.  (A block that is its own successor iterates
        # inside its body instead and shows in ``loop_trips``:
        # TestChainedFuelLockstep.)
        stats = runtime.machine.engine_stats()
        assert stats["compiled_blocks"] >= 2
        assert stats["loop_trips"] == 0

    def test_block_cache_cap_still_identical(self):
        elf = compile_lfi(call_loop_program(), options=O2).elf
        capped = observables(EngineConfig(block_cache_cap=2), elf)
        unbounded = observables(EngineConfig(), elf)
        assert capped == unbounded

    def test_write_ordering_preserved(self):
        """stdout interleaving across fused crossings matches stepping."""
        asm = prologue() + "\tmov x20, #5\nloop:\n"
        asm += "\tmov x0, #1\n"
        asm += "\tadrp x1, msg\n\tadd x1, x1, :lo12:msg\n"
        asm += "\tmov x2, #2\n"
        asm += rtcall(RuntimeCall.WRITE)
        asm += "\tsub x20, x20, #1\n\tcbnz x20, loop\n"
        asm += "\tmov x0, #0\n" + rt_exit()
        asm += '.rodata\nmsg: .asciz "ab"\n'
        elf = compile_lfi(asm, options=O2).elf
        stepping = observables(STEPPING, elf, model=APPLE_M1)
        superblock = observables(SUPERBLOCK, elf, model=APPLE_M1)
        assert stepping == superblock
        assert stepping["stdout"] == "ab" * 5


class TestChainedFuelLockstep:
    """Block dispatch — a loop inside its body included — must honor
    fuel instruction-for-instruction."""

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

    def _machine(self, engine) -> Machine:
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        elf = build_elf(assemble(parse_assembly(self.BODY)))
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory, engine=engine)
        machine.cpu.pc = elf.entry
        return machine

    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 7, 64])
    def test_lockstep_under_exhaustion(self, fuel):
        stepper = self._machine(EngineConfig(kind="stepping"))
        blocky = self._machine(EngineConfig())
        for _ in range(400):
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
        else:
            pytest.fail("program never completed")
        # Big fuel slices let the loop, once its body exists, iterate
        # inside it; tiny ones still must not.
        stats = blocky.engine_stats()
        if fuel >= 64:
            assert stats["loop_trips"] > 50, "the hot loop never looped"
        if fuel < 6:
            assert stats["loop_trips"] == 0


class TestInvalidationUnlinksChains:
    """Popping a block from the cache *is* invalidation: nothing else
    refers to it, so the next dispatch of its pc translates the bytes
    then there and the run stays stepping's twin."""

    def _hot_runtime(self):
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        proc = runtime.spawn(elf)
        runtime.run()
        assert runtime.calls_inline > 100
        return runtime, proc, runtime.machine._sb

    @pytest.mark.parametrize("tier", ["generated", "generated-uncosted"])
    def test_mmap_over_a_hot_two_block_loop_retranslates(self, tier):
        """A loop with a runtime call in it (two blocks, each the
        other's successor) is preempted two trips from its end and the
        page is mapped afresh with one word changed: both blocks are
        gone, the trips left run the new word, and the end is
        stepping's."""
        shapes = rows.TestRowShapes()
        cut, _end = shapes._last_top("call-tail", tier, back=2)
        symbols, machines = shapes._pair("call-tail", tier)
        old, new = (words_of(f"add x10, x10, #{n}") for n in (8, 16))
        states = []
        for machine in machines:
            assert isinstance(shapes._drive(machine, cut), OutOfFuel)
            memory = machine.memory
            page = symbols["top"] & ~(memory.page_size - 1)
            text = memory._raw_read(page, memory.page_size)
            assert text.count(old) == 1
            if machine.engine == "superblock":
                sb = machine._sb
                loop = [sb.block_at(symbols["top"]),
                        sb.block_at(symbols["body"] + 8)]
                assert None not in loop and loop[0].call_tail
                assert loop[0].fn is not None and loop[1].fn is not None
                translated = machine.engine_stats()["translations"]
            memory.unmap(page, memory.page_size)
            memory.map_region(page, memory.page_size, PERM_RX)
            memory._raw_write(page, text.replace(old, new))
            if machine.engine == "superblock":
                assert sb.cached_blocks == 0
            states.append(shapes._state(machine,
                                        shapes._drive(machine, 10_000)))
        assert states[0]["trap"][0] is HltTrap
        assert states[1] == states[0]
        assert states[0]["regs"][10] == 0x200 + 8 * rows.TIERS[tier][1] \
            + 8 * 2
        assert machine.engine_stats()["translations"] > translated
        assert sb.block_at(symbols["top"]) not in (None, loop[0])

    def test_reclaimed_slot_runs_the_next_image_from_its_own_bytes(self):
        """Reclaim drops the slot's blocks; a different image spawned
        into the same addresses is translated from its own words."""
        runtime, proc, sb = self._hot_runtime()
        base, end = proc.layout.base, proc.layout.end
        assert any(base <= start < end for start in sb._blocks)
        runtime.reclaim(proc)
        assert not any(base <= start < end for start in sb._blocks)
        elf = compile_lfi(call_loop_program(150), options=O2).elf
        # (The runtime hands no slot out twice; rewinding its cursor puts
        # the next image at the reclaimed addresses — the case a cache
        # keyed by pc has to survive.)
        runtime._next_slot -= 1
        second = runtime.spawn(elf)
        assert second.layout.base == base
        runtime.run()
        reference = Runtime(model=None, engine=EngineConfig(kind="stepping"))
        first = reference.spawn(
            compile_lfi(call_loop_program(200), options=O2).elf)
        reference.run()
        reference.reclaim(first)
        reference._next_slot -= 1
        ref_proc = reference.spawn(elf)
        reference.run()
        assert second.pid == ref_proc.pid
        assert second.exit_code == ref_proc.exit_code == \
            (150 * second.pid) & 0xFF
        assert second.registers == ref_proc.registers
        assert runtime.machine.instret == reference.machine.instret

    def test_reclaimed_slot_frees_its_blocks_without_the_collector(self):
        """The cache holds the only reference to a block, so the blocks
        of a reclaimed slot — a loop's among them — die by reference
        count."""
        import gc
        import weakref

        elf = compile_lfi(prologue() + """
    mov x0, #0
    mov x1, #50
loop:
    add x0, x0, #1
    sub x1, x1, #1
    cbnz x1, loop
""" + rt_exit(), options=O2).elf
        gc.collect()
        gc.disable()
        try:
            runtime = Runtime(model=None)
            proc = runtime.spawn(elf)
            assert runtime.run_until_exit(proc) == 50
            sb = runtime.machine._sb
            blocks = [weakref.ref(blk) for blk in sb._blocks.values()]
            assert any(blk().template.loops for blk in blocks)
            runtime.reclaim(proc)
            assert sb.cached_blocks == 0
            assert [blk() for blk in blocks] == [None] * len(blocks)
        finally:
            gc.enable()

    def test_rerun_after_invalidation_matches_stepping(self):
        """After a full-slot invalidation the engine retranslates and
        a fresh guest still matches the stepping engine exactly."""
        runtime, proc, sb = self._hot_runtime()
        runtime.machine.invalidate_code(proc.layout.base,
                                        proc.layout.end - proc.layout.base)
        assert not any(proc.layout.base <= start < proc.layout.end
                       for start in sb._blocks)
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        second = runtime.spawn(elf)
        runtime.run()
        # GETPID makes the result pid-dependent, so the stepping
        # reference replays the same two-spawn history.
        reference = Runtime(model=None, engine=EngineConfig(kind="stepping"))
        reference.spawn(elf)
        ref_proc = reference.spawn(elf)
        reference.run()
        assert second.exit_code == ref_proc.exit_code
        assert second.registers == ref_proc.registers


@functools.lru_cache(maxsize=None)
def call_heavy_images(name: str) -> tuple:
    """One ``call-heavy`` ledger program at its smoke count."""
    return tuple(compile_program(name, COUNTS["smoke"][name]))


def run_images(engine, images, model=APPLE_M1, timeslice=50_000,
               traced=False, prepare=None):
    """Spawn ``images`` in order, run all to exit; every observable a
    call's servicing could disturb, plus the runtime for the counters."""
    runtime = Runtime(model=model, timeslice=timeslice, engine=engine)
    tracer = Tracer().attach(runtime) if traced else None
    procs = [runtime.spawn(image) for image in images]
    if prepare is not None:
        prepare(runtime, procs)
    runtime.run(max_instructions=200_000)  # a starved peer fails, not hangs
    return {
        "exit": [proc.exit_code for proc in procs],
        "stdout": [runtime.stdout_of(proc) for proc in procs],
        "registers": [proc.registers for proc in procs],
        "instret": runtime.machine.instret,
        "cycles": runtime.machine.cycles,
        "instructions": {pid: proc.instructions
                         for pid, proc in runtime.processes.items()},
        "faults": [(f.pid, f.kind, f.detail, f.pc) for f in runtime.faults],
        "epoch": runtime.scheduler.epoch,
        "picked": dict(runtime.scheduler._picked),
        "calls": runtime.calls,
        "trace": export_chrome_trace(tracer.events) if traced else None,
    }, runtime


class TestCallHeavyTwins:
    """A call that does not switch does not save (ISSUE 21): finishing a
    leaf call on the live registers, with ``Scheduler.repick`` standing
    in for the put-back and the pick, is invisible.  The reference is the
    stepping engine, whose calls all take the ``HostCallTrap`` arm of
    ``_run_one`` — the general path."""

    @pytest.mark.parametrize("timeslice", [97, 1_000, 50_000])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("model", [APPLE_M1, None],
                             ids=["M1", "uncosted"])
    @pytest.mark.parametrize("name", ["getpid", "pipe", "yield", "batch"])
    def test_superblock_is_stepping(self, name, model, traced, timeslice):
        images = call_heavy_images(name)
        stepping, reference = run_images(STEPPING, images, model, timeslice,
                                         traced)
        superblock, runtime = run_images(SUPERBLOCK, images, model,
                                         timeslice, traced)
        assert superblock == stepping
        assert stepping["exit"] == [0] * len(images) \
            and not stepping["faults"]
        assert reference.calls_inline == 0
        inline = runtime.calls_inline
        if name in ("getpid", "batch"):
            # Alone in the runtime: every fused call but those that find
            # the slice budget spent (and EXIT) resumes without a switch.
            assert inline >= (0.8 if timeslice > 97 else 0.3) * runtime.calls
        elif name == "yield":
            assert inline == 0  # YIELD_TO is not a leaf, EXIT neither
        else:
            # PIPE ×2 before the fork; after it a READ blocks or finds
            # the peer queued, and a WRITE wakes the peer.
            assert 2 <= inline < runtime.calls // 10
        if traced and name == "pipe":
            assert superblock["trace"].count('"blocked":true') > 100

    @pytest.mark.parametrize("timeslice", [97, 1_000, 50_000])
    @pytest.mark.parametrize("name", ["getpid", "pipe", "batch"])
    def test_pause_points_and_checkpoint_bytes(self, name, timeslice):
        """``execute_job_steps`` pausing past every 777th instruction.
        Stepping ends a run at every call and the springboard does not,
        so their pause points never were the same; the reference here is
        the same engine held to the general path by a call hook that
        answers nothing."""
        job = {"job_id": 0, "program": call_heavy_images(name)[0]}

        def run(hooked):
            runtime = Runtime(model=APPLE_M1, timeslice=timeslice)
            if hooked:
                runtime.call_hooks.add(lambda proc, call: None)
            steps = execute_job_steps(runtime, None, job,
                                      checkpoint_interval=777,
                                      record_trace=True)
            pauses, cmd = [], None
            with pytest.raises(StopIteration) as stop:
                while True:
                    info = steps.send(cmd)
                    cmd = {}
                    if info["kind"] == "chunk":
                        pauses.append((info["executed"],
                                       info["checkpoint"].to_bytes()))
            return pauses, stop.value.value, runtime

        pauses, payload, runtime = run(hooked=False)
        ref_pauses, ref_payload, reference = run(hooked=True)
        assert pauses and pauses == ref_pauses
        assert payload == ref_payload
        assert runtime.calls == reference.calls
        assert runtime.calls_inline > 0 == reference.calls_inline

    def test_injected_result_on_the_seventh_getpid(self):
        """A call hook is consulted with the registers saved: no call
        runs live while one is subscribed, and its answer lands."""
        elf = compile_lfi(call_loop_program(20), options=O2).elf

        def inject(runtime, procs):
            seen = []

            def hook(proc, call):
                assert proc.registers["pc"] == runtime.machine.cpu.pc
                seen.append(call)
                if seen.count(RuntimeCall.GETPID) == 7 \
                        and call == RuntimeCall.GETPID:
                    return -errno.EINTR
                return None

            runtime.call_hooks.add(hook)

        stepping, _ = run_images(STEPPING, [elf], prepare=inject)
        superblock, runtime = run_images(SUPERBLOCK, [elf], prepare=inject)
        assert superblock == stepping
        assert stepping["exit"] == [(19 * 1 - errno.EINTR) & 0xFF]
        assert runtime.calls_inline == 0

    def test_instruction_quota_kills_on_a_leaf_call(self):
        """The quota is checked when a call closes the slice — on both
        engines at the same call, with the registers saved."""
        elf = compile_lfi(call_loop_program(200), options=O2).elf

        def limit(runtime, procs):
            runtime.set_quota(procs[0], ResourceQuota(max_instructions=500))

        stepping, _ = run_images(STEPPING, [elf], prepare=limit)
        superblock, runtime = run_images(SUPERBLOCK, [elf], prepare=limit)
        assert superblock == stepping
        (pid, kind, _detail, pc), = stepping["faults"]
        assert (pid, kind) == (1, "quota") and stepping["exit"] == [137]
        assert pc == stepping["registers"][0]["regs"][30]  # completed call
        assert 500 < stepping["instructions"][1] < 520
        assert runtime.calls_inline == 0

    def test_step_probe_registered_mid_loop(self):
        """A run hook's 9th firing registers a step probe: the rest of
        the run is observed instruction by instruction, the same on both
        engines; with a run hook subscribed no call runs live."""
        elf = compile_lfi(call_loop_program(30), options=O2).elf
        observed = {}

        def watch(runtime, procs):
            fired, seen = [], []
            observed[runtime.machine.engine] = (fired, seen)

            def hook(machine, fuel):
                fired.append((machine.instret, fuel))
                if len(fired) == 9:
                    machine.add_step_probe(
                        lambda m, pc, klass, delta:
                        seen.append((pc, klass, delta)))

            runtime.machine.run_hooks.add(hook)

        stepping, _ = run_images(STEPPING, [elf], prepare=watch)
        superblock, runtime = run_images(SUPERBLOCK, [elf], prepare=watch)
        assert superblock == stepping
        assert observed["superblock"] == observed["stepping"]
        fired, seen = observed["superblock"]
        assert len(fired) == 31 and len(seen) > 100
        assert runtime.calls_inline == 0

    def test_error_escaping_a_live_handler_leaves_the_saved_registers(
            self, monkeypatch):
        """A handler that raises (a host bug: no guest pointer can make
        one, TestGuestPointerFaults) raises out of ``run`` on either
        engine: the registers a live call had not saved yet are saved on
        the way out."""
        from repro.runtime import runtime as runtime_module

        def boom(runtime, proc, args):
            raise RuntimeError("boom")

        monkeypatch.setitem(runtime_module._CALLS, RuntimeCall.GETPID,
                            (boom, runtime_module.CALL_OVERHEAD_CYCLES))
        elf = compile_lfi(call_loop_program(3), options=O2).elf
        saved = []
        for engine in (STEPPING, SUPERBLOCK):
            runtime = Runtime(model=APPLE_M1, engine=engine)
            proc = runtime.spawn(elf)
            with pytest.raises(RuntimeError, match="boom"):
                runtime.run()
            saved.append((proc.registers, runtime.calls,
                          runtime.calls_inline))
        assert saved[0] == saved[1]
        assert saved[0][0]["pc"] == runtime.machine.cpu.pc

    def test_hook_subscribed_mid_run_ends_the_live_calls(self):
        """Which path a call takes is decided at that call: a subscriber
        arriving between two calls is consulted from the next one on."""
        elf = compile_lfi(call_loop_program(40), options=O2).elf
        runtime = Runtime(model=APPLE_M1, timeslice=64)
        proc = runtime.spawn(elf)
        runtime.run_bounded(proc, 150)
        inline = runtime.calls_inline
        assert 0 < inline <= runtime.calls  # a spent slice is not live
        seen = runtime.call_hooks.add(lambda proc, call: None)
        runtime.run()
        assert runtime.calls_inline == inline < runtime.calls
        reference = Runtime(model=APPLE_M1, timeslice=64, engine=STEPPING)
        ref_proc = reference.spawn(elf)
        reference.run()
        assert (proc.exit_code, proc.registers, runtime.machine.instret,
                runtime.machine.cycles) \
            == (ref_proc.exit_code, ref_proc.registers,
                reference.machine.instret, reference.machine.cycles)
        assert seen in runtime.call_hooks


def batch_program(records, result_slot: int = 0) -> str:
    """A guest that issues one BATCH of ``records`` and exits with the
    call's return value.  The record buffer lives in the arena
    (``.bss``), 64 bytes in; word ``result_slot`` of the arena receives
    the BATCH return so it lands in the memory observables too."""
    asm = prologue()
    asm += "\tadrp x25, arena\n\tadd x25, x25, :lo12:arena\n"
    asm += "\tadd x19, x25, #64\n"
    asm += batch_block(records, buf_reg="x19")
    asm += f"\tstr x0, [x25, #{8 * result_slot}]\n"
    asm += rt_exit()
    asm += "\n.bss\n.balign 64\narena:\n    .skip 64\n"
    return asm


BATCH_MIXES = {
    "getpid": [(RuntimeCall.GETPID, [])],
    "mixed": [(RuntimeCall.GETPID, []), (RuntimeCall.CLOCK, []),
              (RuntimeCall.BRK, [0])],
    "nonbatchable": [(RuntimeCall.FORK, [])],
    "unknown-call": [(99, [])],
    "write": [(RuntimeCall.WRITE, [1, 0, 0]), (RuntimeCall.GETPID, [])],
}


class TestBatchABI:
    """The vectored runtime-call ABI: one transition, many crossings."""

    @pytest.mark.parametrize("mix", sorted(BATCH_MIXES), ids=str)
    def test_batch_differential(self, mix):
        records = BATCH_MIXES[mix]
        bss = 64 + len(records) * 64
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=bss).elf
        stepping = observables(STEPPING, elf, model=APPLE_M1)
        superblock = observables(SUPERBLOCK, elf, model=APPLE_M1)
        assert stepping == superblock
        # The guest exits with the BATCH return: the record count for a
        # well-formed batch (per-record errors land in result words).
        assert stepping["exit"] == len(records) & 0xFF

    def test_result_words_written_back(self):
        records = [(RuntimeCall.GETPID, []), (RuntimeCall.FORK, [])]
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=64 + 128).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        proc = runtime.spawn(elf)
        runtime.run()
        import errno

        # Locate the record buffer by its signature: GETPID's call word
        # followed 64 bytes later by FORK's.
        sig0 = int(RuntimeCall.GETPID).to_bytes(8, "little")
        sig1 = int(RuntimeCall.FORK).to_bytes(8, "little")
        buf = None
        for base, size, _ in runtime.memory.mapped_regions():
            if not (proc.layout.base <= base < proc.layout.end):
                continue
            raw = runtime.memory._raw_read(base, size)
            idx = raw.find(sig0)
            while idx != -1:
                if raw[idx + 64:idx + 72] == sig1:
                    buf = base + idx
                    break
                idx = raw.find(sig0, idx + 1)
            if buf is not None:
                break
        assert buf is not None, "batch record buffer not found in memory"

        def result_word(i):
            raw = runtime.memory._raw_read(buf + i * 64 + 56, 8)
            return int.from_bytes(raw, "little")

        assert result_word(0) == proc.pid
        assert result_word(1) == (-errno.ENOSYS) & ((1 << 64) - 1)

    def test_batch_abi_disabled_returns_enosys(self):
        import errno

        records = [(RuntimeCall.GETPID, [])]
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=128).elf
        for engine in (EngineConfig(batch_abi=False),
                       EngineConfig(kind="stepping", batch_abi=False)):
            runtime = Runtime(model=None, engine=engine)
            proc = runtime.spawn(elf)
            runtime.run()
            assert proc.exit_code == (-errno.ENOSYS) & 0xFF

    def test_oversized_batch_rejected(self):
        import errno

        asm = prologue()
        asm += "\tadrp x25, arena\n\tadd x25, x25, :lo12:arena\n\tmov x19, x25\n"
        asm += "\tmov x0, x19\n"
        asm += mov_imm("x1", BATCH_MAX_RECORDS + 1)
        asm += rtcall(RuntimeCall.BATCH)
        asm += rt_exit()
        asm += "\n.bss\n.balign 64\narena:\n    .skip 64\n"
        elf = compile_lfi(asm, options=O2).elf
        results = {}
        for engine in ENGINES:
            runtime = Runtime(model=None, engine=EngineConfig(kind=engine))
            proc = runtime.spawn(elf)
            runtime.run()
            results[engine] = proc.exit_code
        assert results["stepping"] == results["superblock"] \
            == (-errno.EINVAL) & 0xFF

    def test_scheduling_calls_are_not_batchable(self):
        for call in (RuntimeCall.EXIT, RuntimeCall.FORK, RuntimeCall.WAIT,
                     RuntimeCall.YIELD, RuntimeCall.YIELD_TO,
                     RuntimeCall.BATCH):
            assert call not in BATCHABLE


UNMAPPED = 0x7000_0000  # a sandbox pointer into nothing
EFAULT = (-errno.EFAULT) & 0xFF
RO = "\tadrp x1, ro\n\tadd x1, x1, :lo12:ro\n"
#: case -> (call, code loading its arguments: a pointer into nothing, or
#: to the read-only ``ro``).
POINTER_CASES = {
    "read-unmapped": (RuntimeCall.READ, "\tmov x0, #0\n"
                      + mov_imm("x1", UNMAPPED) + "\tmov x2, #8\n"),
    "read-readonly": (RuntimeCall.READ,
                      "\tmov x0, #0\n" + RO + "\tmov x2, #8\n"),
    "write-unmapped": (RuntimeCall.WRITE, "\tmov x0, #1\n"
                       + mov_imm("x1", UNMAPPED) + "\tmov x2, #8\n"),
    "pipe-unmapped": (RuntimeCall.PIPE, mov_imm("x0", UNMAPPED)),
    "pipe-readonly": (RuntimeCall.PIPE, RO + "\tmov x0, x1\n"),
    "open-unmapped": (RuntimeCall.OPEN,
                      mov_imm("x0", UNMAPPED) + "\tmov x1, #0\n"),
    "unlink-unmapped": (RuntimeCall.UNLINK, mov_imm("x0", UNMAPPED)),
}


def pointer_program(case, batched=False):
    """A guest that makes the call of ``POINTER_CASES[case]`` — as the
    one record of a BATCH when ``batched`` — and exits with its result."""
    call, setup = POINTER_CASES[case]
    asm = prologue() + setup
    if batched:
        asm += "\tadrp x19, arena\n\tadd x19, x19, :lo12:arena\n" \
            + mov_imm("x10", int(call)) \
            + "".join(f"\tstr {reg}, [x19, #{8 * i}]\n" for i, reg in
                      enumerate(("x10", "x0", "x1", "x2"))) \
            + "\tmov x0, x19\n\tmov x1, #1\n" \
            + rtcall(RuntimeCall.BATCH) + "\tldr x0, [x19, #56]\n"
    else:
        asm += rtcall(call)
    return asm + rt_exit() + '.rodata\nro: .asciz "read-only"\n' \
        + ".bss\n.balign 64\narena:\n    .skip 64\n"


class TestGuestPointerFaults:
    """A guest pointer the caller cannot read or write is ``-EFAULT`` in
    ``x0`` — never a ``MemoryFault`` out of ``Runtime.run()`` — with
    nothing consumed: on the live leaf path, through ``_service_call``
    (a call hook holds every call to it), as a BATCH record and on the
    stepping engine; a second tenant of the same runtime runs on."""

    PATHS = {"live": SUPERBLOCK, "general": SUPERBLOCK, "batch": SUPERBLOCK,
             "stepping": STEPPING, "stepping-batch": STEPPING}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("case", POINTER_CASES)
    def test_bad_pointer_is_efault_and_consumes_nothing(self, case, path):
        elf = compile_lfi(pointer_program(case, "batch" in path),
                          options=O2).elf
        runtime = Runtime(model=APPLE_M1, engine=self.PATHS[path])
        if path == "general":
            runtime.call_hooks.add(lambda proc, call: None)
        proc = runtime.spawn(elf)
        proc.fds[0].buffer.extend(b"abcdefgh")
        fds = sorted(proc.fds)
        runtime.run()
        assert proc.exit_code == EFAULT
        assert proc.fds[0].read(8) == b"abcdefgh"
        assert runtime.stdout_of(proc) == "" and sorted(proc.fds) == fds
        # Alone in the runtime, the call (or its BATCH) ended inline.
        assert runtime.calls_inline == (path in ("live", "batch"))
        peer = runtime.spawn(compile_lfi(call_loop_program(10),
                                         options=O2).elf)
        runtime.run()
        assert peer.exit_code == 10 * peer.pid and not runtime.faults

    @pytest.mark.parametrize("engine", [STEPPING, SUPERBLOCK],
                             ids=["stepping", "superblock"])
    def test_wait_with_a_bad_status_pointer_reaps_nobody(self, engine):
        asm = prologue() + rtcall(RuntimeCall.FORK) + "\tcbz x0, child\n" \
            + rtcall(RuntimeCall.YIELD) + mov_imm("x0", UNMAPPED) \
            + rtcall(RuntimeCall.WAIT) + "\tmov x19, x0\n\tmov x0, #0\n" \
            + rtcall(RuntimeCall.WAIT) + "\tadd x0, x0, x19\n" + rt_exit() \
            + "child:\n\tmov x0, #7\n" + rt_exit()
        runtime = Runtime(model=None, engine=engine)
        proc = runtime.spawn(compile_lfi(asm, options=O2).elf)
        runtime.run()
        # -EFAULT first, then the child (pid 2) is still there to reap.
        assert proc.exit_code == (2 - errno.EFAULT) & 0xFF
        assert not runtime.faults

    @pytest.mark.parametrize("engine", [STEPPING, SUPERBLOCK],
                             ids=["stepping", "superblock"])
    def test_batch_arena_that_cannot_take_its_result(self, engine):
        """Records readable, result word not writable: the batch is
        -EFAULT at that record, as at a hole."""
        asm = prologue() + "\tadrp x0, ro\n\tadd x0, x0, :lo12:ro\n" \
            + "\tmov x1, #1\n" + rtcall(RuntimeCall.BATCH) + rt_exit() \
            + ".rodata\n.balign 64\nro:\n" \
            + f"    .quad {int(RuntimeCall.GETPID)}\n" + "    .quad 0\n" * 7
        runtime = Runtime(model=None, engine=engine)
        proc = runtime.spawn(compile_lfi(asm, options=O2).elf)
        runtime.run()
        assert proc.exit_code == EFAULT and not runtime.faults


def per_record_batch(runtime, proc, args):
    """``rt_batch`` as it was before it decoded its arena once: one
    ``read`` and eight ``int.from_bytes`` per record.  The reference the
    pinned cases below hold the one-decode handler to."""
    buf, count = args[0], args[1]
    if count > BATCH_MAX_RECORDS:
        return -errno.EINVAL
    for i in range(count):
        rec = proc.pointer(buf) + i * 64
        try:
            raw = runtime.memory.read(rec, 64)
        except MemoryFault:
            return -errno.EFAULT
        words = [int.from_bytes(raw[j * 8:j * 8 + 8], "little")
                 for j in range(8)]
        if words[0] not in BATCHABLE:
            result = -errno.ENOSYS
        else:
            result = HANDLERS[words[0]](runtime, proc, words[1:7])
            if result is BLOCK:
                result = -errno.EAGAIN
        try:
            runtime.memory.write(
                rec + 56, (result & (2**64 - 1)).to_bytes(8, "little"))
        except MemoryFault:
            return -errno.EFAULT
    return count


class TestBatchSemanticsPinned:
    """Decoding the arena once may not be observable: every case runs the
    handler and :func:`per_record_batch` on twin runtimes and compares
    the return (or the escaping fault), the two arena pages, the copies
    made and what a write observer saw."""

    def outcome(self, handler, records, offset=0, prepare=None, fork=False):
        """``records`` — ``(call, *args)`` each, or a function of the
        first record's address returning them — are laid ``offset`` bytes
        into two fresh pages of the caller's slot and submitted."""
        runtime = Runtime(model=None)
        proc = runtime.spawn(compile_lfi(prologue() + rt_exit()).elf)
        arena = runtime.mmap_allocate(proc, 2 * PAGE_SIZE)
        runtime.memory.map_region(arena, 2 * PAGE_SIZE, PERM_RW)
        at = arena + offset
        if callable(records):
            records = records(at)
        for i, record in enumerate(records):
            words = [int(word) for word in record] + [0] * (8 - len(record))
            runtime.memory.write(at + 64 * i, struct.pack("<8Q", *words))
        if prepare is not None:
            prepare(runtime, proc, arena)
        caller = runtime.fork(proc) if fork else proc
        shift = caller.layout.base - proc.layout.base
        copies = runtime.memory.cow_copies
        seen = []
        runtime.memory.write_observer = lambda a, n: seen.append((a, n))
        try:
            result = handler(runtime, caller, [at, len(records), 0, 0, 0, 0])
        except MemoryFault as fault:
            result = ("fault", fault.kind, fault.address - shift)
        def pages(shift):
            return [runtime.memory._raw_read(page + shift, PAGE_SIZE)
                    if runtime.memory.is_mapped(page + shift) else None
                    for page in (arena, arena + PAGE_SIZE)]

        return {"result": result, "pages": pages(shift),
                "copies": runtime.memory.cow_copies - copies,
                "seen": [(a - shift, n) for a, n in seen],
                "parent": pages(0)}

    def both(self, records, **kwargs):
        new = self.outcome(rt_batch, records, **kwargs)
        assert new == self.outcome(per_record_batch, records, **kwargs)
        return new

    @staticmethod
    def word(outcome, offset, index, word=7):
        at = offset + 64 * index + 8 * word
        page, at = divmod(at, PAGE_SIZE)
        return int.from_bytes(outcome["pages"][page][at:at + 8], "little")

    def test_read_into_a_later_record_changes_what_it_does(self):
        """Record 0 reads 8 bytes of stdin over record 2's call word:
        unknown call 99 becomes GETPID."""
        def stdin(runtime, proc, arena):
            proc.fds[0].buffer.extend(
                int(RuntimeCall.GETPID).to_bytes(8, "little"))
        seen = self.both(lambda at: [(RuntimeCall.READ, 0, at + 128, 8),
                                     (RuntimeCall.GETPID,), (99,)],
                         prepare=stdin)
        assert seen["result"] == 3
        assert [self.word(seen, 0, i) for i in range(3)] == [8, 1, 1]

    def test_hole_after_the_first_page(self):
        """Two records before an unmapped page are serviced, the batch
        returns -EFAULT at the third."""
        def hole(runtime, proc, arena):
            runtime.memory.unmap(arena + PAGE_SIZE, PAGE_SIZE)
        offset = PAGE_SIZE - 128
        seen = self.both([(RuntimeCall.GETPID,)] * 4, offset=offset,
                         prepare=hole)
        assert seen["result"] == -errno.EFAULT
        assert [self.word(seen, offset, i) for i in range(2)] == [1, 1]
        assert seen["seen"][0][1] == 8 and len(seen["seen"]) == 2

    def test_munmap_of_the_arena_mid_batch(self):
        """Record 1 unmaps the page records 2 and 3 are in; unmapping its
        own page instead, its result word has nowhere to go: -EFAULT."""
        offset = PAGE_SIZE - 128

        def unmapping(page):
            return lambda at: [
                (RuntimeCall.GETPID,),
                (RuntimeCall.MUNMAP, at - offset + page, PAGE_SIZE),
                (RuntimeCall.GETPID,), (RuntimeCall.GETPID,)]

        seen = self.both(unmapping(PAGE_SIZE), offset=offset)
        assert seen["result"] == -errno.EFAULT
        assert seen["pages"][1] is None
        assert [self.word(seen, offset, i) for i in range(2)] == [1, 0]
        seen = self.both(unmapping(0), offset=offset)
        assert seen["result"] == -errno.EFAULT
        assert seen["pages"][0] is None

    def test_cow_shared_arena_is_copied_once(self):
        """A forked child's arena page is its parent's until the first
        result word lands; the parent's copy never changes."""
        seen = self.both([(RuntimeCall.GETPID,)] * 8, fork=True)
        assert seen["result"] == 8 and seen["copies"] == 1
        assert [self.word(seen, 0, i) for i in range(8)] == [2] * 8
        assert seen["parent"][0][56:64] == bytes(8)

    def test_write_observer_sees_each_result_word(self):
        seen = self.both([(RuntimeCall.GETPID,), (RuntimeCall.FORK,),
                          (RuntimeCall.CLOCK,)], offset=PAGE_SIZE - 64)
        assert [(a % PAGE_SIZE, n) for a, n in seen["seen"]] \
            == [(PAGE_SIZE - 8, 8), (56, 8), (120, 8)]

    def test_auditor_attribution_equal_on_both_engines(self):
        """Under ``ContainmentAuditor`` (a write observer: every store
        takes the checked path) the guest's record stores and the
        runtime's result words are seen in one order on both engines."""
        from repro.robustness import ContainmentAuditor

        elf = compile_lfi(batch_program(BATCH_MIXES["mixed"] * 3),
                          options=O2, bss_size=64 + 9 * 64).elf
        traces = []
        for engine in (STEPPING, SUPERBLOCK):
            runtime = Runtime(model=APPLE_M1, engine=engine)
            auditor = ContainmentAuditor(runtime)
            seen, inner = [], runtime.memory.write_observer

            def observer(address, size):
                seen.append((address, size, runtime._in_guest))
                inner(address, size)

            runtime.memory.write_observer = observer
            proc = runtime.spawn(elf)
            runtime.run()
            auditor.assert_clean()
            traces.append((seen, proc.exit_code, runtime.machine.cycles))
        assert traces[0] == traces[1]
        host = [(a, n) for a, n, guest in traces[0][0] if not guest]
        assert len(host) == 9 and {n for _a, n in host} == {8}
        assert [b - a for (a, _), (b, _) in zip(host, host[1:])] == [64] * 8


WRITER = prologue() + """
    mov x20, #20
wloop:
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #4
""" + rtcall(RuntimeCall.WRITE) + """
    sub x20, x20, #1
    cbnz x20, wloop
    mov x0, #7
""" + rt_exit() + """
.rodata
msg: .asciz "tick"
"""


class TestEngineConfigAPI:
    def test_dict_round_trip(self):
        for config in (EngineConfig(),
                       EngineConfig(kind="stepping"),
                       EngineConfig(fuel=1234, block_cache_cap=7,
                                    batch_abi=False)):
            assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict({"kind": "superblock", "nitro": True})

    def test_chaining_is_not_an_option(self):
        """Five fields; the removed knob is unknown like any other."""
        assert sorted(EngineConfig().to_dict()) == [
            "batch_abi", "block_cache_cap", "fuel", "kind", "speculation"]
        with pytest.raises(TypeError):
            EngineConfig(chaining=True)
        with pytest.raises(ConfigError, match="chaining"):
            EngineConfig.from_dict({"chaining": True})

    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(kind="jit")
        with pytest.raises(ConfigError):
            EngineConfig(fuel=0)
        with pytest.raises(ConfigError):
            EngineConfig(block_cache_cap=-1)
        with pytest.raises(ConfigError):
            EngineConfig.coerce(42)

    def test_package_root_exports(self):
        import repro
        from repro.engine import EngineConfig as canonical

        assert repro.EngineConfig is canonical
        assert repro.ENGINE_KINDS == ENGINE_KINDS == \
            ("superblock", "stepping")
        assert issubclass(repro.ConfigError, ValueError)

    def test_string_kwarg_raises(self):
        """The pre-PR-9 kind string is a wrong type like any other."""
        with pytest.raises(ConfigError, match="EngineConfig"):
            EngineConfig.coerce("stepping")
        with pytest.raises(ConfigError):
            Runtime(engine="superblock")

    def test_engine_config_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runtime = Runtime(engine=EngineConfig(kind="stepping"))
            assert runtime.machine.engine == "stepping"
            Runtime()  # None is not the deprecated spelling either

    def test_fuel_sets_runtime_timeslice(self):
        runtime = Runtime(engine=EngineConfig(fuel=777))
        assert runtime.scheduler.timeslice == 777
        explicit = Runtime(engine=EngineConfig(fuel=777), timeslice=123)
        assert explicit.scheduler.timeslice == 777

    def test_checkpoint_round_trip(self):
        """A job paused under one EngineConfig resumes byte-identically
        in a runtime rebuilt from the config's serialized dict."""
        config = EngineConfig(block_cache_cap=64)
        elf = compile_lfi(WRITER, options=O2).elf

        reference = Runtime(model=None, timeslice=50, engine=config)
        ref = reference.spawn(elf)
        assert reference.run_bounded(ref, 10_000_000)

        first = Runtime(model=None, timeslice=50, engine=config)
        proc = first.spawn(elf)
        assert not first.run_bounded(proc, 60)
        ckpt = Checkpoint.from_bytes(
            capture_job(first, proc,
                        consumed_instructions=first.machine.instret,
                        consumed_cycles=first.machine.cycles).to_bytes())

        revived = EngineConfig.from_dict(config.to_dict())
        assert revived == config
        second = Runtime(model=None, timeslice=50, engine=revived)
        restored = restore_job(second, ckpt)
        assert second.run_bounded(restored, 10_000_000)

        assert second.stdout_of(restored) == reference.stdout_of(ref) \
            == "tick" * 20
        assert restored.exit_code == ref.exit_code == 7
        assert restored.instructions == ref.instructions
        assert restored.registers == ref.registers


class TestGatewayConfigErrors:
    def _policies(self, **kwargs):
        from repro.serve import TenantPolicy

        return {"a": TenantPolicy(**kwargs)}

    def test_fuel_conflicts_with_pinned_timeslice(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="conflicts with"):
            Gateway(self._policies(), lanes=1, timeslice=200,
                    engine=EngineConfig(fuel=100))

    def test_fuel_exceeding_checkpoint_interval(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="checkpoint interval"):
            Gateway(self._policies(), lanes=1, checkpoint_interval=2000,
                    engine=EngineConfig(fuel=5000))

    def test_agreeing_fuel_accepted_and_pinned(self):
        from repro.serve import Gateway

        gateway = Gateway(self._policies(), lanes=1,
                          engine=EngineConfig(fuel=500))
        assert gateway.timeslice == 500
        same = Gateway(self._policies(), lanes=1, timeslice=500,
                       engine=EngineConfig(fuel=500))
        assert same.timeslice == 500

    def test_tenant_engine_kind_pin_mismatch(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="pins engine kind"):
            Gateway(self._policies(
                engine=EngineConfig(kind="stepping")), lanes=1)

    def test_tenant_fuel_pin_mismatch_never_clamped(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="never silently"):
            Gateway(self._policies(engine=EngineConfig(fuel=999)),
                    lanes=1, timeslice=500)

    def test_tenant_pin_checked_on_hot_reload(self):
        from repro.serve import Gateway, TenantPolicy

        gateway = Gateway(self._policies(), lanes=1)
        matching = TenantPolicy(engine=EngineConfig())
        gateway.reload("a", matching, token=1)
        with pytest.raises(ConfigError):
            gateway.reload("a", TenantPolicy(
                engine=EngineConfig(kind="stepping")), token=2)
