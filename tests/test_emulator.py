"""Emulator semantics tests: ALU, flags, branches, memory, FP, SIMD, traps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.elf import build_elf
from repro.emulator import (
    APPLE_M1,
    BrkTrap,
    Machine,
    MemTrap,
    SvcTrap,
    UnknownInstructionTrap,
)
from repro.memory import PERM_RW, PERM_RX, PagedMemory

from .conftest import load_elf_into, run_asm


def regs_after(body: str, **kwargs):
    """Run the code in ``body`` and return the final CPU state.

    A ``hlt`` is inserted at the end of the code, before any data sections.
    """
    lines = body.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith((".data", ".rodata", ".bss")):
            lines.insert(i, "    hlt")
            break
    else:
        lines.append("    hlt")
    machine = run_asm("\n".join(lines) + "\n", **kwargs)
    return machine.cpu


class TestAlu:
    def test_add_sub(self):
        cpu = regs_after("mov x0, #30\n add x1, x0, #12\n sub x2, x1, x0")
        assert cpu.regs[1] == 42
        assert cpu.regs[2] == 12

    def test_w_register_zero_extends(self):
        cpu = regs_after(
            "movn x0, #0\n add w1, w0, #1\n add x2, x0, #0"
        )
        assert cpu.regs[1] == 0  # 32-bit wrap, top zeroed
        assert cpu.regs[2] == 2**64 - 1

    def test_flags_subs(self):
        cpu = regs_after("mov x0, #5\n subs x1, x0, #5")
        assert cpu.z == 1 and cpu.n == 0 and cpu.c == 1

    def test_flags_negative(self):
        cpu = regs_after("mov x0, #3\n subs x1, x0, #5")
        assert cpu.n == 1 and cpu.c == 0

    def test_flags_carry_add(self):
        cpu = regs_after("movn x0, #0\n adds x1, x0, #1")
        assert cpu.c == 1 and cpu.z == 1

    def test_signed_overflow(self):
        cpu = regs_after(
            "movz x0, #0x7fff, lsl #48\n movk x0, #0xffff, lsl #32\n"
            " movk x0, #0xffff, lsl #16\n movk x0, #0xffff\n"
            " adds x1, x0, #1"
        )
        assert cpu.v == 1

    def test_logical_ops(self):
        cpu = regs_after(
            "mov x0, #0xf0\n mov x1, #0xff\n and x2, x0, x1\n"
            " orr x3, x0, #0xf\n eor x4, x0, x1\n bic x5, x1, x0"
        )
        assert cpu.regs[2] == 0xF0
        assert cpu.regs[3] == 0xFF
        assert cpu.regs[4] == 0x0F
        assert cpu.regs[5] == 0x0F

    def test_shifted_operand(self):
        cpu = regs_after("mov x0, #3\n add x1, xzr, x0, lsl #4")
        assert cpu.regs[1] == 48

    def test_extended_operand_guard(self):
        """The LFI guard semantics (§3): top 32 bits replaced by base's."""
        cpu = regs_after(
            "movz x21, #5, lsl #32\n"  # sandbox base: 5 << 32
            " movn x1, #0\n"  # x1 = all ones (malicious pointer)
            " add x18, x21, w1, uxtw"
        )
        assert cpu.regs[18] == (5 << 32) + 0xFFFFFFFF

    def test_shifts(self):
        cpu = regs_after(
            "mov x0, #1\n lsl x1, x0, #10\n mov x2, #1024\n lsr x3, x2, #3\n"
            " movn x4, #0\n asr x5, x4, #17"
        )
        assert cpu.regs[1] == 1024
        assert cpu.regs[3] == 128
        assert cpu.regs[5] == 2**64 - 1

    def test_muldiv(self):
        cpu = regs_after(
            "mov x0, #6\n mov x1, #7\n mul x2, x0, x1\n"
            " mov x3, #100\n mov x4, #7\n udiv x5, x3, x4\n"
            " movn x6, #6\n sdiv x7, x6, x4"  # -7 / 7 = -1
        )
        assert cpu.regs[2] == 42
        assert cpu.regs[5] == 14
        assert cpu.regs[7] == 2**64 - 1

    def test_division_by_zero_is_zero(self):
        cpu = regs_after("mov x0, #5\n mov x1, #0\n udiv x2, x0, x1")
        assert cpu.regs[2] == 0

    def test_madd_msub(self):
        cpu = regs_after(
            "mov x0, #3\n mov x1, #4\n mov x2, #10\n"
            " madd x3, x0, x1, x2\n msub x4, x0, x1, x2"
        )
        assert cpu.regs[3] == 22
        assert cpu.regs[4] == (10 - 12) % 2**64

    def test_csel_cset(self):
        cpu = regs_after(
            "mov x0, #1\n cmp x0, #1\n cset x1, eq\n cset x2, ne\n"
            " mov x3, #11\n mov x4, #22\n csel x5, x3, x4, eq"
        )
        assert cpu.regs[1] == 1
        assert cpu.regs[2] == 0
        assert cpu.regs[5] == 11

    def test_clz(self):
        cpu = regs_after("mov x0, #1\n clz x1, x0\n clz x2, xzr")
        assert cpu.regs[1] == 63
        assert cpu.regs[2] == 64

    def test_bitfield_extract(self):
        cpu = regs_after("movz x0, #0xabcd\n ubfx x1, x0, #4, #8")
        assert cpu.regs[1] == 0xBC

    def test_sxtw(self):
        cpu = regs_after("movn w0, #0\n sxtw x1, w0")
        assert cpu.regs[1] == 2**64 - 1

    def test_movk_preserves(self):
        cpu = regs_after("movz x0, #1, lsl #48\n movk x0, #0xbeef")
        assert cpu.regs[0] == (1 << 48) | 0xBEEF


class TestBranches:
    def test_loop_sum(self):
        cpu = regs_after(
            "mov x0, #0\n mov x1, #0\n"
            "loop: add x0, x0, x1\n add x1, x1, #1\n cmp x1, #100\n"
            " b.ne loop"
        )
        assert cpu.regs[0] == 4950

    def test_bl_sets_lr_and_ret(self):
        cpu = regs_after(
            " bl func\n mov x1, #1\n b done\n"
            "func: mov x0, #9\n ret\n"
            "done:"
        )
        assert cpu.regs[0] == 9 and cpu.regs[1] == 1

    def test_blr_indirect(self):
        cpu = regs_after(
            " adr x2, func\n blr x2\n b done\n"
            "func: mov x0, #5\n ret\n"
            "done:"
        )
        assert cpu.regs[0] == 5

    def test_cbz_cbnz(self):
        cpu = regs_after(
            "mov x0, #0\n cbz x0, yes\n mov x1, #99\n"
            "yes: mov x2, #1\n cbnz x2, done\n mov x1, #98\n"
            "done:"
        )
        assert cpu.regs[1] == 0 and cpu.regs[2] == 1

    def test_tbz_tbnz(self):
        cpu = regs_after(
            "mov x0, #8\n tbnz x0, #3, yes\n mov x1, #1\n"
            "yes: tbz x0, #0, done\n mov x1, #2\n"
            "done:"
        )
        assert cpu.regs[1] == 0


class TestMemory:
    def test_store_load(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " mov x1, #1234\n str x1, [x0]\n ldr x2, [x0]\n"
            " strb w1, [x0, #8]\n ldrb w3, [x0, #8]\n"
            ".data\n.balign 8\nbuf: .skip 64"
        )
        assert cpu.regs[2] == 1234
        assert cpu.regs[3] == 1234 & 0xFF

    def test_signed_loads(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " movn w1, #0\n strb w1, [x0]\n"
            " ldrsb x2, [x0]\n ldrb w3, [x0]\n"
            ".data\nbuf: .skip 8"
        )
        assert cpu.regs[2] == 2**64 - 1
        assert cpu.regs[3] == 0xFF

    def test_pre_post_index(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " mov x1, #7\n str x1, [x0, #8]!\n"  # x0 += 8, store at new x0
            " ldr x2, [x0], #8\n"  # load then x0 += 8
            ".data\n.balign 8\nbuf: .skip 64"
        )
        assert cpu.regs[2] == 7

    def test_pair_ops_and_stack(self):
        cpu = regs_after(
            "mov x0, #1\n mov x1, #2\n"
            " stp x0, x1, [sp, #-16]!\n"
            " ldp x2, x3, [sp], #16"
        )
        assert cpu.regs[2] == 1 and cpu.regs[3] == 2

    def test_register_offset_addressing(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " mov x1, #3\n mov x2, #55\n"
            " str x2, [x0, x1, lsl #3]\n"
            " ldr x3, [x0, x1, lsl #3]\n"
            " mov w4, #24\n ldr x5, [x0, w4, uxtw]\n"
            ".data\n.balign 8\nbuf: .skip 64"
        )
        assert cpu.regs[3] == 55
        assert cpu.regs[5] == 55  # same address via uxtw offset

    def test_exclusive_success(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " ldxr x1, [x0]\n add x1, x1, #1\n stxr w2, x1, [x0]\n"
            " ldr x3, [x0]\n"
            ".data\n.balign 8\nbuf: .quad 41"
        )
        assert cpu.regs[2] == 0  # success
        assert cpu.regs[3] == 42

    def test_exclusive_fails_without_monitor(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " mov x1, #9\n stxr w2, x1, [x0]\n"
            ".data\n.balign 8\nbuf: .quad 0"
        )
        assert cpu.regs[2] == 1  # no preceding ldxr


class TestFloat:
    def test_arith(self):
        cpu = regs_after(
            "fmov d0, #2.0\n fmov d1, #8.0\n"
            " fadd d2, d0, d1\n fsub d3, d1, d0\n fmul d4, d0, d1\n"
            " fdiv d5, d1, d0\n fcvtzs x0, d2\n fcvtzs x1, d3\n"
            " fcvtzs x2, d4\n fcvtzs x3, d5"
        )
        assert cpu.regs[0] == 10 and cpu.regs[1] == 6
        assert cpu.regs[2] == 16 and cpu.regs[3] == 4

    def test_cvt_roundtrip(self):
        cpu = regs_after("movn x0, #41\n scvtf d0, x0\n fcvtzs x1, d0")
        assert cpu.regs[1] == (-42) % 2**64

    def test_fcmp_branches(self):
        cpu = regs_after(
            "fmov d0, #1.0\n fmov d1, #2.0\n fcmp d0, d1\n"
            " cset x0, lt\n cset x1, gt"
        )
        assert cpu.regs[0] == 1 and cpu.regs[1] == 0

    def test_fmadd(self):
        cpu = regs_after(
            "fmov d0, #3.0\n fmov d1, #4.0\n fmov d2, #5.0\n"
            " fmadd d3, d0, d1, d2\n fcvtzs x0, d3"
        )
        assert cpu.regs[0] == 17

    def test_fsqrt(self):
        cpu = regs_after("fmov d0, #16.0\n fsqrt d1, d0\n fcvtzs x0, d1")
        assert cpu.regs[0] == 4

    def test_fmov_general(self):
        cpu = regs_after("fmov d0, #1.0\n fmov x0, d0")
        assert cpu.regs[0] == 0x3FF0000000000000

    def test_fcvt_precision(self):
        cpu = regs_after("fmov d0, #1.5\n fcvt s1, d0\n fmov w0, s1")
        assert cpu.regs[0] == 0x3FC00000


class TestSimd:
    def test_vector_add(self):
        cpu = regs_after(
            "mov w0, #3\n dup v0.4s, w0\n mov w1, #4\n dup v1.4s, w1\n"
            " add v2.4s, v0.4s, v1.4s\n fmov w2, s2"
        )
        assert cpu.regs[2] == 7
        assert cpu.vregs[2] == sum(7 << (32 * i) for i in range(4))

    def test_movi_zero(self):
        cpu = regs_after("movi v0.16b, #0\n movi v1.16b, #255")
        assert cpu.vregs[0] == 0
        assert cpu.vregs[1] == (1 << 128) - 1

    def test_vector_fadd(self):
        cpu = regs_after(
            "fmov s0, #1.5\n dup v1.4s, wzr\n"
            " fmov w2, s0\n dup v3.4s, w2\n"
            " fadd v4.4s, v3.4s, v3.4s\n fmov w5, s4\n fmov s6, w5\n"
            " fcvt d7, s6\n fcvtzs x0, d7"
        )
        assert cpu.regs[0] == 3

    def test_q_load_store(self):
        cpu = regs_after(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " movi v0.16b, #9\n str q0, [x0]\n ldr q1, [x0]\n"
            " fmov w1, s1\n"
            ".data\n.balign 16\nbuf: .skip 32"
        )
        assert cpu.regs[1] == 0x09090909


class TestTraps:
    def run_trap(self, body, trap_type):
        image = assemble(parse_assembly(body))
        elf = build_elf(image)
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory)
        machine.cpu.pc = elf.entry
        with pytest.raises(trap_type) as exc:
            machine.run(fuel=1000)
        return exc.value, machine

    def test_svc(self):
        trap, _ = self.run_trap("mov x8, #93\n svc #0\n", SvcTrap)
        assert str(trap).startswith("svc #0 at")

    def test_brk(self):
        trap, _ = self.run_trap("brk #42\n", BrkTrap)
        assert str(trap).startswith("brk #42 at")

    def test_unmapped_load(self):
        trap, _ = self.run_trap(
            "movz x0, #0x7fff, lsl #16\n ldr x1, [x0]\n", MemTrap
        )
        assert trap.fault.kind == "unmapped"

    def test_store_to_text_faults(self):
        trap, _ = self.run_trap(
            "_start:\n adr x0, _start\n str x0, [x0]\n nop\n", MemTrap
        )
        assert trap.fault.kind == "perm"

    def test_execute_data_faults(self):
        trap, _ = self.run_trap(
            "adrp x0, buf\n br x0\n.data\nbuf: .quad 0\n", MemTrap
        )
        assert trap.fault.access == "execute"

    def test_undecodable_word(self):
        trap, _ = self.run_trap(
            ".text\n_start:\n .word 0xd51b4200\n", UnknownInstructionTrap
        )
        assert trap.word == 0xD51B4200


class TestCycleModel:
    def test_cycles_monotonic_with_work(self):
        short = run_asm("mov x0, #0\n hlt\n", model=APPLE_M1)
        long = run_asm(
            "mov x0, #0\nloop: add x0, x0, #1\n cmp x0, #200\n b.ne loop\n hlt\n",
            model=APPLE_M1,
        )
        assert long.cycles > short.cycles

    def test_guard_add_costs_more_than_plain_add(self):
        """The 2-cycle extended add (§4) must cost more in a dependent chain."""
        plain = run_asm(
            "mov x1, #0\nmov x0, #0\n"
            "loop: add x1, x1, x1\n add x1, x1, #1\n add x0, x0, #1\n"
            " cmp x0, #500\n b.ne loop\n hlt\n",
            model=APPLE_M1,
        )
        guarded = run_asm(
            "mov x1, #0\nmov x0, #0\n"
            "loop: add x1, x21, w1, uxtw\n add x1, x1, #1\n add x0, x0, #1\n"
            " cmp x0, #500\n b.ne loop\n hlt\n",
            model=APPLE_M1,
        )
        assert guarded.cycles > plain.cycles

    def test_dependent_loads_slower_than_independent(self):
        setup = (
            "adrp x0, buf\n add x0, x0, :lo12:buf\n"
            " str x0, [x0]\n mov x2, #0\n"
        )
        dependent = run_asm(
            setup + "loop: ldr x0, [x0]\n add x2, x2, #1\n cmp x2, #300\n"
            " b.ne loop\n hlt\n.data\n.balign 8\nbuf: .skip 16\n",
            model=APPLE_M1,
        )
        independent = run_asm(
            setup + "mov x3, x0\nloop: ldr x1, [x3]\n add x2, x2, #1\n"
            " cmp x2, #300\n b.ne loop\n hlt\n.data\n.balign 8\nbuf: .skip 16\n",
            model=APPLE_M1,
        )
        assert dependent.cycles > independent.cycles

    def test_tlb_misses_counted(self):
        machine = run_asm(
            "adrp x0, buf\n add x0, x0, :lo12:buf\n mov x1, #0\n"
            "loop: ldr x2, [x0]\n add x1, x1, #1\n cmp x1, #10\n b.ne loop\n"
            " hlt\n.data\n.balign 8\nbuf: .skip 16\n",
            model=APPLE_M1,
        )
        assert machine.tlb.accesses >= 10
        assert machine.tlb.hits > 0


class TestPropertyAlu:
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=4095))
    @settings(max_examples=30, deadline=None)
    def test_add_immediate_matches_python(self, a, imm):
        lo = a & 0xFFFF
        hi = (a >> 16) & 0xFFFF
        hi2 = (a >> 32) & 0xFFFF
        hi3 = (a >> 48) & 0xFFFF
        cpu = regs_after(
            f"movz x0, #{lo}\n movk x0, #{hi}, lsl #16\n"
            f" movk x0, #{hi2}, lsl #32\n movk x0, #{hi3}, lsl #48\n"
            f" add x1, x0, #{imm}"
        )
        assert cpu.regs[1] == (a + imm) % 2**64


class TestCodeInvalidation:
    """Patched text must never execute from stale superblock translations."""

    SOURCE = """
        .globl _start
    _start:
        mov x0, #0
        mov x1, #10
    loop:
        add x0, x0, #1
        sub x1, x1, #1
        cbnz x1, loop
        hlt
    """

    def _fresh_machine(self):
        from repro.emulator import HltTrap

        elf = build_elf(assemble(parse_assembly(self.SOURCE)))
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory)
        machine.cpu.pc = elf.entry
        return machine, elf, HltTrap

    def test_permission_cycle_patch_retranslates(self):
        """protect(RW) -> patch -> protect(RX): the permission changes
        invalidate overlapping blocks, so the patched word executes."""
        machine, elf, HltTrap = self._fresh_machine()
        with pytest.raises(HltTrap):
            machine.run(fuel=10_000)
        assert machine.cpu.regs[0] == 10
        assert machine.engine_stats()["cached_blocks"] > 0

        # Patch `add x0, x0, #1` into `add x0, x0, #2` (imm field +1).
        memory = machine.memory
        patch_pc = elf.entry + 8
        page = patch_pc & ~(memory.page_size - 1)
        memory.protect(page, memory.page_size, PERM_RW)
        word = int.from_bytes(memory.read(patch_pc, 4), "little")
        patched = (word & ~(0xFFF << 10)) | (2 << 10)
        memory.write(patch_pc, patched.to_bytes(4, "little"))
        memory.protect(page, memory.page_size, PERM_RX)
        machine.invalidate_code(patch_pc, 4)  # stepping decode cache

        machine.cpu.pc = elf.entry
        with pytest.raises(HltTrap):
            machine.run(fuel=10_000)
        assert machine.cpu.regs[0] == 20  # the patch took effect

    def test_unmap_drops_cached_blocks(self):
        machine, elf, HltTrap = self._fresh_machine()
        with pytest.raises(HltTrap):
            machine.run(fuel=10_000)
        assert machine.engine_stats()["cached_blocks"] > 0
        memory = machine.memory
        page = elf.entry & ~(memory.page_size - 1)
        memory.unmap(page, memory.page_size)
        assert all(
            not (page <= start < page + memory.page_size)
            for start in machine._sb._blocks
        )
