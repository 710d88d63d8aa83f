"""Block templates: translate once per content, instantiate per slot.

``SuperblockEngine._translate`` looks a block's translation up by the
bytes the guest holds (plus the cost model) in a process-wide cache and
binds it to the machine and the start address (DESIGN.md §10).  These
tests pin what that must not change: every start of an image — cold in a
fresh slot, warm clone, checkpoint resume — is the stepping interpreter's
twin whether its templates were derived for it or found; the same words
cut differently get different translations and the same words with or
without guard provenance the same one; a slot that patches its text
diverges alone; and neither the cap nor the cache's temperature shows in
any deterministic output.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro import EngineConfig
from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.arm64.decoder import decode_word
from repro.arm64.operands import Imm
from repro.checkpoint import Checkpoint, canonical_registers, \
    capture_job, memory_digest, restore_job
from repro.cluster.worker import execute_job_steps
from repro.core import O0, O2
from repro.elf import build_elf, write_elf
from repro.emulator import APPLE_M1, HltTrap, HostCallTrap, Machine, \
    MemTrap, Trap, superblock
from repro.fuzz.corpus import entry_elf, load_corpus
from repro.fuzz.genasm import AsmGenerator
from repro.memory import PERM_RW, PERM_RX, MemoryFault, PagedMemory
from repro.obs import Tracer
from repro.obs.chrome import export_chrome_trace
from repro.runtime import Runtime
from repro.toolchain import compile_lfi, compile_native
from repro.workloads import WASM_SUBSET
from repro.workloads.rtlib import prologue, rt_exit
from repro.workloads.spec import arena_bss_size, build_benchmark

from . import test_superblock as rows
from .conftest import flush_translation_caches as flush

ENGINES = ("stepping", "superblock")
SLICE = 500
PAUSE = 1000


def kernel(name, options=O2, target=4_000):
    asm = build_benchmark(name, target_instructions=target)
    bss = arena_bss_size(name)
    if options is None:
        return compile_native(asm, bss_size=bss).elf
    return compile_lfi(asm, options=options, bss_size=bss).elf


def images():
    """(elf builder, verify) of every corpus entry that loads, the seven
    Table-4 kernels at O0 / O2 / native, and eight generated programs.
    The corpus's raw machine-code entries are what the verifier rejects;
    they run unverified, like native code."""
    out = []
    for entry in load_corpus():
        if entry.kind == "machine":
            out.append(pytest.param(lambda e=entry: entry_elf(e), False,
                                    id=entry.name))
        elif entry.expect != "reject":
            out.append(pytest.param(
                lambda e=entry: compile_lfi(e.source, options=O2).elf, True,
                id=entry.name))
    for name in sorted(WASM_SUBSET):
        for label, options in (("O0", O0), ("O2", O2), ("native", None)):
            out.append(pytest.param(
                lambda n=name, o=options: kernel(n, o), options is not None,
                id=f"{name}-{label}"))
    for seed in range(8):
        out.append(pytest.param(
            lambda s=seed: compile_lfi(
                AsmGenerator().generate(random.Random(1800 + s)).source).elf,
            True, id=f"genasm-{seed}"))
    return out


@functools.lru_cache(maxsize=None)
def templates_by_image():
    """image id -> the templates (by key) its uncosted run derives."""
    out = {}
    for param in images():
        build, verify = param.values
        flush()
        runtime = Runtime(timeslice=SLICE)
        runtime.spawn(build(), verify=verify)
        runtime.run()
        out[param.id] = dict(superblock._TEMPLATES)
    return out


def four_starts(kind, elf, verify, model):
    """One image started four ways in one runtime: cold in slot A (paused
    and checkpointed on the way), cold in slot B, as a warm clone, and by
    resuming A's checkpoint.  Per start: what any start must reproduce,
    what only the engine twin must, and the engine's counters."""
    # (Not slot 1: a 32-bit offset there can look like a pointer into the
    # guard region below the slot, and be canonicalised as one.)
    runtime = Runtime(model=model, timeslice=SLICE, first_slot=2,
                      engine=EngineConfig(kind=kind))
    machine = runtime.machine
    blob, consumed = None, 0
    out = []
    for label in ("A", "B", "clone", "resume"):
        tracer = Tracer().attach(runtime)
        stats0 = machine.engine_stats()
        instret0, cycles0, faults0 = \
            machine.instret, machine.cycles, len(runtime.faults)
        resumed = 0
        if label == "clone":
            proc = runtime.spawn_clone(
                runtime.load_template(elf, verify=verify))
        elif label == "resume" and blob is not None:
            proc = restore_job(runtime, Checkpoint.from_bytes(blob))
            resumed = consumed
        else:  # a job that ended before the pause is started again
            proc = runtime.spawn(elf, verify=verify)
        if label == "A" and not runtime.run_bounded(proc, PAUSE):
            blob = capture_job(runtime, proc).to_bytes()
            consumed = machine.instret - instret0
        runtime.run()
        tracer.detach()
        same = {
            "registers": canonical_registers(proc.registers, proc.layout),
            "memory": memory_digest(runtime.memory, proc.layout),
            "stdout": runtime.stdout_of(proc), "exit": proc.exit_code,
            "instret": resumed + machine.instret - instret0,
            "faults": [(f.kind, f.pc - proc.layout.base)
                       for f in runtime.faults[faults0:]],
        }
        twin = {"cycles": machine.cycles - cycles0,
                "trace": export_chrome_trace(tracer.events)}
        stats = {name: value - stats0[name]
                 for name, value in machine.engine_stats().items()}
        out.append((label, same, twin, stats))
        runtime.reap(proc)
        runtime.reclaim(proc)
    return out


class TestEveryStartIsTheSteppingTwin:
    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "m1"])
    @pytest.mark.parametrize("build, verify", images())
    def test_miss_then_hits(self, build, verify, model):
        elf = build()
        flush()
        stepped = four_starts("stepping", elf, verify, model)
        flush()
        blocky = four_starts("superblock", elf, verify, model)
        for (label, same, twin, _), (_, same_b, twin_b, stats) \
                in zip(stepped, blocky):
            assert same_b == same, label
            assert twin_b == twin, label
            assert stats["translations"] == \
                stats["template_hits"] + stats["template_misses"] > 0
            if label == "A":
                assert stats["template_misses"] > 0
            else:
                assert stats["template_misses"] == 0, label
                if verify:
                    # Only sandboxed code is position-independent.  (And
                    # a resumed slot still holds the absolute pointers the
                    # guest spilled in the slot it was captured in.)
                    assert same == dict(
                        stepped[0][1], **{"memory": same["memory"]}
                        if label == "resume" else {}), label
        # A generates a body for each content that gets hot; B and the
        # clone find them all waiting and generate nothing.
        first, second, third = (stats for label, _, _, stats in blocky
                                if label in ("A", "B", "clone"))
        assert second["compiled_blocks"] == third["compiled_blocks"] \
            >= first["compiled_blocks"] >= first["generated_templates"]
        assert second["generated_templates"] \
            == third["generated_templates"] == 0

    def test_hot_blocks_compile_once_per_content(self, monkeypatch):
        calls = []
        compile_ = superblock.SuperblockEngine._compile
        monkeypatch.setattr(
            superblock.SuperblockEngine, "_compile",
            lambda self, template: calls.append(1) or compile_(self,
                                                               template))
        flush()
        blocky = four_starts("superblock", kernel("505.mcf"), True, APPLE_M1)
        per_start = [stats["compiled_blocks"] for _, _, _, stats in blocky]
        assert per_start[0] > 0 and per_start[0] == per_start[1]
        assert len(calls) == per_start[0]


# -- the same words in different surroundings ---------------------------------

TEXT = 0x40_0000
STACK = 0x7000_0000


def words_of(source):
    elf = build_elf(assemble(parse_assembly(source)))
    return next(bytes(seg.data) for seg in elf.segments if seg.flags & 1)


def bare(kind, words, at, model=None, host=()):
    """A bare machine about to run ``words`` placed at ``at``."""
    memory = PagedMemory()
    page = memory.page_size
    lo = at & ~(page - 1)
    memory.map_region(lo, 2 * page, PERM_RX)
    memory.load_image(at, words)
    memory.map_region(STACK - page, page, PERM_RW)
    machine = Machine(memory, model=model, engine=EngineConfig(kind=kind))
    for address in host:
        machine.register_host_entry(address)
    machine.cpu.pc = at
    machine.cpu.sp = STACK
    machine.cpu.regs[21] = STACK - page
    return machine


def outcome(machine, fuel=10_000):
    with pytest.raises((HltTrap, HostCallTrap, MemTrap)) as info:
        machine.run(fuel=fuel)
    cpu = machine.cpu
    return (type(info.value), info.value.pc, cpu.pc, cpu.sp,
            list(cpu.regs), machine.instret, machine.cycles)


def twins(words, at, **kwargs):
    """The outcome of both engines, which must agree, and the blocky one."""
    stepped, blocky = (bare(kind, words, at, **kwargs) for kind in ENGINES)
    result = outcome(stepped)
    assert outcome(blocky) == result
    return result, blocky


STRAIGHT = words_of("""
    add x0, x0, #1
    add x1, x0, #2
    add x2, x1, #3
    add x3, x2, #4
    add x4, x3, #5
    add x5, x4, #6
    hlt
""")


class TestSameWordsDifferentSurroundings:
    @pytest.mark.parametrize("model", [None, APPLE_M1])
    def test_guard_map_is_no_part_of_the_key(self, model):
        """Identical text loaded with and without provenance (an LFI load
        and a native load): a guard is an ordinary op, so the second slot
        finds every template the first derived — one translation."""
        elf = kernel("505.mcf", O0)
        bare_elf = kernel("505.mcf", O0)
        bare_elf.provenance = {}
        assert elf.provenance
        seen = {}
        for kind in ENGINES:
            flush()
            runtime = Runtime(model=model, engine=EngineConfig(kind=kind))
            for label, image in (("lfi", elf), ("bare", bare_elf)):
                before = runtime.machine.engine_stats()
                instret, cycles = \
                    runtime.machine.instret, runtime.machine.cycles
                proc = runtime.spawn(image)
                assert bool(proc.guard_map) == (label == "lfi")
                assert runtime.run_until_exit(proc) == 0
                after = runtime.machine.engine_stats()
                seen[kind, label] = (
                    runtime.machine.instret - instret,
                    runtime.machine.cycles - cycles,
                    canonical_registers(proc.registers, proc.layout),
                    memory_digest(runtime.memory, proc.layout))
                if kind == "superblock":
                    # The words were all seen; nothing else is in the key.
                    assert (after["template_misses"]
                            > before["template_misses"]) == (label == "lfi")
                    assert (after["template_hits"]
                            > before["template_hits"]) == (label == "bare")
        for label in ("lfi", "bare"):
            assert seen["superblock", label] == seen["stepping", label]
        # (Cycles differ: the second start finds the caches warm.)
        assert seen["stepping", "bare"][2:] == seen["stepping", "lfi"][2:]
        assert all(len(key) == 2 for key in superblock._TEMPLATES)

    @pytest.mark.parametrize("model", [None, APPLE_M1])
    @pytest.mark.parametrize("before_cut", [1, 2, 5])
    def test_run_cut_by_the_page_end(self, before_cut, model):
        page = PagedMemory().page_size
        flush()
        whole, _ = twins(STRAIGHT, TEXT, model=model)
        at = TEXT + page - 4 * before_cut
        cut, blocky = twins(STRAIGHT, at, model=model)
        assert blocky._sb.block_at(at).end == TEXT + page
        assert blocky._sb.block_at(at).count == before_cut
        assert cut[4] == whole[4] and cut[5:] == whole[5:]
        assert cut[1] - at == whole[1] - TEXT

    def test_run_cut_by_a_host_entry(self):
        flush()
        whole, _ = twins(STRAIGHT, TEXT)
        cut, blocky = twins(STRAIGHT, TEXT, host=[TEXT + 12])
        assert cut[0] is HostCallTrap and cut[1] == TEXT + 12
        assert cut[5] == 3 and whole[5] == 6
        assert blocky._sb.block_at(TEXT).count == 3
        again, _ = twins(STRAIGHT, TEXT)
        assert again == whole

    @pytest.mark.parametrize("model", [None, APPLE_M1])
    def test_pc_relative_ops_at_two_bases(self, model):
        words = words_of("""
        first:
            adr x0, first
            adrp x1, first
            adrp x5, first+20480
            bl next
        next:
            mov x2, x30
            adr x3, last
            blr x3
        last:
            mov x4, x30
            cbz xzr, done
            hlt
        done:
            adr x6, done
            hlt
        """)
        flush()
        delta = 0x1238  # not a multiple of 4 KiB: the adrp pages move
        first, _ = twins(words, TEXT, model=model)
        second, blocky = twins(words, TEXT + delta, model=model)
        assert blocky.engine_stats()["template_misses"] == 0
        for reg in (0, 2, 3, 4, 6):
            assert second[4][reg] == first[4][reg] + delta, reg
        for reg, far in ((1, 0), (5, 0x5000)):
            assert first[4][reg] == (TEXT + far) & ~0xFFF
            assert second[4][reg] == (TEXT + delta + far) & ~0xFFF
        assert second[1] == first[1] + delta  # the hlt after ``done``


# -- a slot that patches its text ---------------------------------------------

COUNT = prologue() + """
    mov x0, #0
    mov x1, #40
loop:
    add x0, x0, #1
    sub x1, x1, #1
    cbnz x1, loop
""" + rt_exit()


class TestTextPatchIsSlotLocal:
    @pytest.mark.parametrize("model", [None, APPLE_M1])
    def test_patched_slot_diverges_alone(self, model):
        elf = compile_lfi(COUNT, options=O2).elf
        text = next(seg for seg in elf.segments if seg.flags & 1)
        add = bytes(text.data).index(bytes.fromhex("00040091"))  # the add
        exits = {}
        for kind in ENGINES:
            flush()
            runtime = Runtime(model=model, timeslice=16,
                              engine=EngineConfig(kind=kind))
            a, b = runtime.spawn(elf), runtime.spawn(elf)
            # Both are mid-loop, their blocks cached, before B is patched.
            assert not runtime.run_bounded(b, 48)
            memory = runtime.memory
            address = b.layout.base + text.vaddr + add
            page = address & ~(memory.page_size - 1)
            memory.protect(page, memory.page_size, PERM_RW)
            memory.write(address, bytes.fromhex("00080091"))  # #1 -> #2
            memory.protect(page, memory.page_size, PERM_RX)
            runtime.run()
            before = runtime.machine.engine_stats()
            c = runtime.spawn(elf)
            runtime.run()
            if kind == "superblock":
                after = runtime.machine.engine_stats()
                assert after["template_misses"] == before["template_misses"]
                assert after["translations"] > before["translations"]
            exits[kind] = (a.exit_code, b.exit_code, c.exit_code,
                           runtime.machine.instret, runtime.machine.cycles)
        assert exits["superblock"] == exits["stepping"]
        a_code, b_code, c_code = exits["stepping"][:3]
        assert a_code == c_code == 40 and 40 < b_code <= 80


# -- faults in the middle of an op, on a hit ----------------------------------

class TestFaultsOnAHit:
    @pytest.mark.parametrize("tier", ["cold", "generated"])
    @pytest.mark.parametrize("shape", ["fused-guard-load", "mem-load",
                                       "fused-offset-fold", "call-tail"])
    def test_trap_pc_and_partial_instret(self, shape, tier):
        shapes = rows.TestRowShapes()
        cut, _end = shapes._last_top(shape, tier)
        flush()
        states, engines = [], []
        for _round in range(2):
            _symbols, machines = shapes._pair(shape, tier)
            for machine in machines:
                assert isinstance(shapes._drive(machine, cut),
                                  rows.OutOfFuel)
                machine.memory.unmap(rows.DATA, machine.memory.page_size)
                states.append(shapes._state(machine,
                                            shapes._drive(machine, 100)))
            engines.append(machines[1].engine_stats())
        assert states[0]["trap"][0] is MemTrap
        assert states[1] == states[2] == states[3] == states[0]
        assert engines[0]["template_misses"] > 0
        assert engines[1]["template_misses"] == 0
        assert engines[1]["compiled_blocks"] \
            == engines[0]["compiled_blocks"] \
            and (engines[0]["compiled_blocks"] > 0) == (tier == "generated")


# -- the cap, and the cache's temperature -------------------------------------

def costed_run(elf):
    runtime = Runtime(model=APPLE_M1)
    proc = runtime.spawn(elf)
    code = runtime.run_until_exit(proc)
    stats = runtime.machine.engine_stats()
    return (code, runtime.machine.instret, runtime.machine.cycles,
            runtime.stdout_of(proc), proc.registers,
            memory_digest(runtime.memory, proc.layout),
            stats["translations"], stats["compiled_blocks"],
            stats["invalidations"], stats["loop_trips"])


class TestCapAndTemperature:
    def test_a_cache_of_four_templates_changes_nothing(self, monkeypatch):
        elf = kernel("541.leela", target=8_000)
        flush()
        uncapped = costed_run(elf)
        assert len(superblock._TEMPLATES) > 4
        monkeypatch.setattr(superblock, "_TEMPLATE_CAP", 4)
        flush()
        assert costed_run(elf) == uncapped
        assert len(superblock._TEMPLATES) <= 4
        assert costed_run(elf) == uncapped
        assert uncapped[7] > 0

    def test_same_job_cold_and_hot(self):
        """One job twice in one process: the second finds every template,
        and nothing deterministic — trace, metrics snapshot, result —
        tells the two apart."""
        program = write_elf(kernel("519.lbm"))
        payloads, stats = [], []
        flush()
        for _start in range(2):
            runtime = Runtime(model=APPLE_M1, timeslice=SLICE)
            steps = execute_job_steps(
                runtime, None, {"job_id": 0, "program": program},
                checkpoint_interval=PAUSE, record_trace=True)
            cmd = None
            with pytest.raises(StopIteration) as stop:
                while True:
                    steps.send(cmd)
                    cmd = {}
            payloads.append(stop.value.value)
            stats.append(runtime.machine.engine_stats())
        assert payloads[0]["diag"]["status"] == "ok"
        assert payloads[0]["trace"] and payloads[0]["metrics"]
        assert payloads[1] == payloads[0]
        assert stats[0]["template_misses"] > 0
        assert stats[1]["template_misses"] == 0
        for name in ("translations", "compiled_blocks", "invalidations"):
            assert stats[1][name] == stats[0][name], name
        # A hot start's loops iterate inside their bodies from the first
        # execution; a cold one's turn the dispatch loop until the body
        # exists.
        assert stats[1]["loop_trips"] > stats[0]["loop_trips"] > 0


# -- which templates loop is a fact about their words -------------------------

#: image -> how many of the templates its run derives are self-loops.
LOOPING = {
    "anchor-control-flow": 1,
    "505.mcf-O0": 4, "505.mcf-O2": 4, "505.mcf-native": 4,
    "508.namd-O0": 3, "508.namd-O2": 3, "508.namd-native": 3,
    "519.lbm-O0": 2, "519.lbm-O2": 2, "519.lbm-native": 2,
    "525.x264-O0": 3, "525.x264-O2": 3, "525.x264-native": 3,
    "531.deepsjeng-O0": 2, "531.deepsjeng-O2": 2, "531.deepsjeng-native": 2,
    "544.nab-O0": 3, "544.nab-O2": 3, "544.nab-native": 3,
    "557.xz-O0": 2, "557.xz-O2": 2, "557.xz-native": 2,
    "genasm-4": 1, "genasm-5": 1,
}

SPIN = words_of("""
    movz x1, #40
spin:
    sub x1, x1, #1
    cbnz x1, spin
    hlt
""")


class TestLoopsIsContent:
    def test_the_looping_templates_of_every_image(self):
        """``loops`` = the run's last word is a direct branch without
        link (b, b.cond, cbz/cbnz, tbz/tbnz) to the run's own first
        word — read here off the key's bytes with the decoder — and
        never a call tail, ``bl`` or an indirect branch."""
        counts = {}
        for image, templates in templates_by_image().items():
            for (text, _cost), template in templates.items():
                last = len(text) - 4
                inst = decode_word(
                    int.from_bytes(text[last:], "little"), last)
                target = inst.operands[-1] if inst.operands else None
                assert template.loops == (
                    inst.base in ("b", "cbz", "cbnz", "tbz", "tbnz")
                    and isinstance(target, Imm) and target.value == 0), \
                    (image, inst)
                assert not (template.loops and template.call_tail)
            counts[image] = sum(t.loops for t in templates.values())
        assert {name: n for name, n in counts.items() if n} == LOOPING

    def test_every_op_of_every_image_is_one_instruction_with_one_row(self):
        """Over the corpus, the Table-4 kernels (O0, O2 and native) and
        the generated programs: no op retires more or less than its own
        instruction, and ``call_tail`` is a fact read off the last two."""
        tails = 0
        for templates in templates_by_image().values():
            for (text, _cost), template in templates.items():
                assert template.size == len(text)
                rows.assert_one_row_per_instruction(template)
                tails += template.call_tail
                if template.call_tail:
                    ldr, blr = template.ops[-2:]
                    assert (ldr[0], blr[0]) == (superblock.K_MEM,
                                                superblock.K_BRANCH)
        assert tails > 20

    @pytest.mark.parametrize("model", [None, APPLE_M1])
    def test_falling_into_a_loop_top_reaches_the_looping_template(
            self, model):
        """The first trip belongs to the block that fell into ``spin``
        (its branch is 4 bytes back into itself: no loop); its taken edge
        lands on the run that starts at ``spin``, which is one."""
        flush()
        _result, blocky = twins(SPIN, TEXT, model=model)
        sb = blocky._sb
        assert not sb.block_at(TEXT).template.loops
        assert sb.block_at(TEXT).count == 3
        spin = sb.block_at(TEXT + 4)
        assert spin.template.loops and spin.count == 2
        assert spin.fn is not None
        # Trips 2-8 through the dispatch loop, 9-40 inside the body.
        assert blocky.engine_stats()["loop_trips"] == 31

    def test_looping_templates_are_keyed_and_shared_like_any_other(self):
        flush()
        spins = {}
        generated = bare("superblock", SPIN, TEXT, model=APPLE_M1) \
            .engine_stats()["generated_templates"]
        for model in (None, APPLE_M1, None, APPLE_M1):
            for at in (TEXT, TEXT + 0x2_0040):
                _result, blocky = twins(SPIN, at, model=model)
                block = blocky._sb.block_at(at + 4)
                assert block.template.loops and block.fn is not None
                spins.setdefault(model is None, set()).add(block.template)
        # One template per content and cost identity, whatever the
        # machine or the address.
        assert all(len(found) == 1 for found in spins.values())
        assert spins[True] != spins[False]
        keys = [key for key, template in superblock._TEMPLATES.items()
                if template.loops]
        assert sorted(keys, key=repr) == sorted(
            [(SPIN[4:12], None),
             (SPIN[4:12], blocky._sb._cost_id)], key=repr)
        # ... and one generated body for each, from the first machine on.
        assert blocky.engine_stats()["generated_templates"] == generated + 1


# -- an op is lines: the closure and the generated body agree ------------------

PS = 1024
POOL_DATA = 0x5000_0000


def operand_pool(rng):
    """Register values: zero, all-ones, the sign bits, small integers,
    pointers into (and just past) the data pages, random words."""
    return rng.choice((
        0, superblock.MASK64, 1 << 63, 1 << 31, superblock.MASK32, 1,
        rng.randrange(64), POOL_DATA + 8 * rng.randrange(2 * PS // 8),
        POOL_DATA + 2 * PS - rng.randrange(12), rng.getrandbits(64)))


def machine_states(rng, count=32):
    """``count`` register files: all-zero, all-ones and all-sign-bit
    first, then random picks from the pool."""
    for fixed in (0, superblock.MASK64, 1 << 63):
        yield {"regs": [fixed] * 31, "sp": fixed, "nzcv": fixed & 15,
               "vregs": [fixed | fixed << 64] * 32}
    for _ in range(count - 3):
        yield {"regs": [operand_pool(rng) for _ in range(31)],
               "sp": operand_pool(rng), "nzcv": rng.randrange(16),
               "vregs": [rng.getrandbits(128) for _ in range(32)]}


class TestAnOpIsLines:
    START = 0x40_1230

    def _outcome(self, machine, initial, run):
        """What one execution of an op leaves: registers, flags, data
        pages, whether it left and where to, or the fault it raised."""
        cpu, memory = machine.cpu, machine.memory
        try:
            result = run()
            left = result[0] if isinstance(result, tuple) else \
                result if isinstance(result, bool) else False
            ended = ("taken", cpu.pc) if left else "fell through"
        except MemTrap as trap:  # a generated body applies the fault rule
            fault = trap.fault
            ended = ("fault", fault.kind, fault.address, fault.access)
        except MemoryFault as fault:
            ended = ("fault", fault.kind, fault.address, fault.access)
        except Trap as trap:
            ended = (type(trap), str(trap))
        data = memory._raw_read(POOL_DATA, 2 * PS)
        if data != initial:
            memory._raw_write(POOL_DATA, initial)
        return (ended, list(cpu.regs), list(cpu.vregs), cpu.sp, cpu.nzcv,
                cpu.exclusive_addr, data)

    def test_every_recipe_on_random_states(self):
        rng = random.Random(19)
        memory = PagedMemory(page_size=PS)
        memory.map_region(POOL_DATA, 2 * PS, PERM_RW)
        initial = rng.randbytes(2 * PS)
        memory._raw_write(POOL_DATA, initial)
        machine = Machine(memory)
        engine, cpu = machine._sb, machine.cpu
        checked = set()
        for image, templates in templates_by_image().items():
            for template in templates.values():
                for recipe in template.ops:
                    kind, make, args, rel, row = recipe
                    key = (make, repr(args), rel)
                    if key in checked:
                        continue
                    checked.add(key)
                    closure = engine._bindings[make](*args, *[
                        (self.START + d) & superblock.MASK64
                        for d in rel or ()])
                    code, consts = engine._compile(
                        superblock.BlockTemplate([recipe], 4, False))
                    body = engine._bindings.bind(code)(consts)
                    for state in machine_states(rng):
                        outcomes = []
                        # Fuel for one execution: a lone ``b .`` is a
                        # self-loop and would spend all it is given.
                        for run in (closure,
                                    lambda: body(self.START, 1) > 0):
                            cpu.restore(dict(state, pc=self.START))
                            cpu.exclusive_addr = None
                            outcomes.append(
                                self._outcome(machine, initial, run))
                        assert outcomes[0] == outcomes[1], (
                            image, make.__name__, args, rel, state)
        assert len(checked) > 500
        assert len({make for make, _args, _rel in checked}) > 70
