"""Direct unit tests for the core submodules: guards, hoisting planning,
branch range fixing, and rewrite options."""

import pytest

from repro.arm64 import Imm, Label, Mem, X, parse_assembly
from repro.arm64.instructions import ins
from repro.arm64.program import LabelDef, Program
from repro.core import O1, O2, RewriteOptions
from repro.core.branches import TB_RANGE, fix_branch_ranges
from repro.core.constants import (
    ADDRESS_REGS,
    BASE_REG,
    HOIST_REGS,
    LO32_REG,
    RESERVED_REGS,
    SCRATCH_REG,
)
from repro.errors import GuardError
from repro.core.guards import (
    guard_address,
    guarded_mem,
    sp_guard_pair,
    transform_indirect_branch,
    transform_memory_basic,
    transform_memory_guarded,
    x30_guard,
)
from repro.core.hoisting import is_hoistable, plan_hoisting


def insts_of(src):
    return list(parse_assembly(src).instructions())


class TestConstants:
    def test_paper_register_assignment(self):
        """§3: x21 base, x18 scratch, x22 32-bit, x23/x24 hoisting."""
        assert BASE_REG is X[21]
        assert SCRATCH_REG is X[18]
        assert LO32_REG is X[22]
        assert HOIST_REGS == (X[23], X[24])
        assert len(RESERVED_REGS) == 5
        assert ADDRESS_REGS == {X[18], X[23], X[24]}

    def test_callee_caller_balance(self):
        """§3: 'roughly equal numbers of callee- and caller-saved'.
        x18 is caller-ish (platform), x21-x24 are callee-saved."""
        callee_saved = [r for r in RESERVED_REGS if 19 <= r.index <= 28]
        assert len(callee_saved) == 4


class TestGuards:
    def test_guard_address_shape(self):
        guard = guard_address(X[5])
        assert str(guard) == "add x18, x21, w5, uxtw"

    def test_guard_into_hoist_register(self):
        guard = guard_address(X[5], X[23])
        assert str(guard) == "add x23, x21, w5, uxtw"

    def test_guarded_mem(self):
        assert str(guarded_mem(X[7])) == "[x21, w7, uxtw]"

    def test_x30_guard(self):
        assert str(x30_guard()) == "add x30, x21, w30, uxtw"

    def test_sp_guard_pair(self):
        pair = sp_guard_pair()
        assert [str(i) for i in pair] == ["mov w22, wsp",
                                          "add sp, x21, x22"]

    def test_transform_guarded_requires_memory(self):
        with pytest.raises(GuardError):
            transform_memory_guarded(ins("add", X[0], X[1], Imm(1)))

    def test_transform_basic_base_only(self):
        g, access = transform_memory_basic(insts_of("ldr x0, [x1]")[0])
        assert str(g) == "add x18, x21, w1, uxtw"
        assert str(access) == "ldr x0, [x18]"

    def test_indirect_branch_requires_register(self):
        with pytest.raises(GuardError):
            transform_indirect_branch(ins("br", Label("foo")))


class TestHoistingUnits:
    def test_is_hoistable_positive(self):
        inst = insts_of("ldr x0, [x1, #8]")[0]
        assert is_hoistable(inst)

    @pytest.mark.parametrize("src", [
        "ldr x0, [sp, #8]",        # sp base: already free
        "ldr x0, [x1, x2]",        # register offset
        "ldr x0, [x1], #8",        # writeback
        "ldr x30, [x1, #8]",       # link-register restore path
        "ldxr x0, [x1]",           # exclusives: base-only instruction
    ])
    def test_is_hoistable_negative(self, src):
        assert not is_hoistable(insts_of(src)[0])

    def test_load_not_hoistable_in_no_loads_mode(self):
        inst = insts_of("ldr x0, [x1, #8]")[0]
        assert not is_hoistable(inst, sandbox_loads=False)
        store = insts_of("str x0, [x1, #8]")[0]
        assert is_hoistable(store, sandbox_loads=False)

    def test_plan_requires_two_accesses(self):
        block = insts_of("ldr x0, [x1]")
        plan = plan_hoisting(block, [inst.defs() for inst in block])
        assert not plan.guards and not plan.redirects

    def test_plan_assigns_first_hoist_register(self):
        block = insts_of("ldr x0, [x1]\n ldr x2, [x1, #8]")
        plan = plan_hoisting(block, [inst.defs() for inst in block])
        assert plan.guards == {0: (X[23], X[1])}
        assert set(plan.redirects) == {0, 1}
        assert len(plan.redirects) - len(plan.guards) == 1  # guards saved

    def test_three_overlapping_bases_third_unhoisted(self):
        block = insts_of(
            "ldr x0, [x1]\n ldr x2, [x3]\n ldr x4, [x5]\n"
            " ldr x0, [x1, #8]\n ldr x2, [x3, #8]\n ldr x4, [x5, #8]"
        )
        plan = plan_hoisting(block, [inst.defs() for inst in block])
        assert len(plan.guards) == 2  # only two hoisting registers
        assert len(plan.redirects) == 4

    def test_register_freed_after_segment_end(self):
        block = insts_of(
            "ldr x0, [x1]\n ldr x2, [x1, #8]\n"
            " mov x1, x9\n"  # ends segment for x1
            " ldr x0, [x4]\n ldr x2, [x4, #8]"
        )
        plan = plan_hoisting(block, [inst.defs() for inst in block])
        # Both segments fit on x23 (sequential, not overlapping).
        regs = {reg for reg, _ in plan.guards.values()}
        assert regs == {X[23]}


class TestBranchRangeUnits:
    def _program_with_distance(self, nops):
        program = Program()
        program.add(ins("tbz", X[0], Imm(3), Label("far")))
        for _ in range(nops):
            program.add(ins("nop"))
        program.add(LabelDef("far"))
        program.add(ins("ret"))
        return program

    def test_under_threshold_untouched(self):
        program = self._program_with_distance(100)
        assert fix_branch_ranges(program) == 0

    def test_over_threshold_fixed(self):
        program = self._program_with_distance(TB_RANGE // 4 + 100)
        assert fix_branch_ranges(program) == 1
        mnemonics = [i.mnemonic for i in program.instructions()][:2]
        assert mnemonics == ["tbnz", "b"]

    def test_backward_branch_fixed_too(self):
        program = Program()
        program.add(LabelDef("back"))
        for _ in range(TB_RANGE // 4 + 100):
            program.add(ins("nop"))
        program.add(ins("tbnz", X[1], Imm(5), Label("back")))
        assert fix_branch_ranges(program) == 1

    def test_unknown_label_ignored(self):
        program = Program()
        program.add(ins("tbz", X[0], Imm(1), Label("elsewhere")))
        assert fix_branch_ranges(program) == 0


class TestOptions:
    def test_levels(self):
        assert not RewriteOptions(opt_level=0).zero_instruction_guards
        assert RewriteOptions(opt_level=1).zero_instruction_guards
        assert not RewriteOptions(opt_level=1).hoisting
        assert RewriteOptions(opt_level=2).hoisting

    def test_labels(self):
        assert RewriteOptions(opt_level=2).label == "O2"
        assert RewriteOptions(opt_level=2,
                              sandbox_loads=False).label == "O2, no loads"

    def test_invalid(self):
        with pytest.raises(ValueError):
            RewriteOptions(opt_level=3)
        with pytest.raises(ValueError):
            RewriteOptions(hoist_registers=5)

    def test_with_(self):
        base = RewriteOptions()
        derived = base.with_(sp_block_elision=False)
        assert base.sp_block_elision and not derived.sp_block_elision
