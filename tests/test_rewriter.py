"""Rewriter tests: Table-3 transformations, sp/x30 rules, hoisting,
runtime-call idiom, branch-range fixing, and rewrite->verify properties."""

import pytest

from repro.arm64 import parse_assembly, print_assembly
from repro.arm64.assembler import assemble
from repro.core import (
    O0,
    O1,
    O2,
    O2_NO_LOADS,
    RewriteError,
    RewriteOptions,
    rewrite_program,
    verify_text,
)


def rewrite_lines(src, options=O1):
    """Rewrite one snippet and return the mnemonic+operand strings."""
    result = rewrite_program(parse_assembly(src), options)
    return [str(i) for i in result.program.instructions()]


def rewrite_and_verify(src, options=O2):
    result = rewrite_program(parse_assembly(src), options)
    image = assemble(result.program)
    v = verify_text(bytes(image.text.data), image.text.base)
    assert v.ok, "; ".join(str(x) for x in v.violations)
    return result


class TestTable3:
    """The exact transformations of paper Table 3 (O1 zero-instruction
    guards)."""

    def test_base_only(self):
        assert rewrite_lines("ldr x0, [x1]") == ["ldr x0, [x21, w1, uxtw]"]

    def test_immediate(self):
        assert rewrite_lines("ldr x0, [x1, #8]") == [
            "add w22, w1, #8",
            "ldr x0, [x21, w22, uxtw]",
        ]

    def test_pre_index(self):
        assert rewrite_lines("ldr x0, [x1, #8]!") == [
            "add x1, x1, #8",
            "ldr x0, [x21, w1, uxtw]",
        ]

    def test_post_index(self):
        assert rewrite_lines("ldr x0, [x1], #8") == [
            "ldr x0, [x21, w1, uxtw]",
            "add x1, x1, #8",
        ]

    def test_register_shifted(self):
        assert rewrite_lines("ldr x0, [x1, x2, lsl #3]") == [
            "add w22, w1, w2, lsl #3",
            "ldr x0, [x21, w22, uxtw]",
        ]

    def test_register_extended_uxtw(self):
        assert rewrite_lines("ldr x0, [x1, w2, uxtw #2]") == [
            "add w22, w1, w2, lsl #2",
            "ldr x0, [x21, w22, uxtw]",
        ]

    def test_register_extended_sxtw(self):
        # sxtw reduces to lsl at 32-bit width (addresses mod 2**32).
        assert rewrite_lines("str x0, [x1, w2, sxtw #3]") == [
            "add w22, w1, w2, lsl #3",
            "str x0, [x21, w22, uxtw]",
        ]

    def test_negative_immediate(self):
        assert rewrite_lines("ldr x0, [x1, #-16]") == [
            "sub w22, w1, #16",
            "ldr x0, [x21, w22, uxtw]",
        ]

    def test_store_same_as_load(self):
        assert rewrite_lines("str x3, [x4]") == ["str x3, [x21, w4, uxtw]"]

    def test_byte_and_half(self):
        assert rewrite_lines("ldrb w0, [x1]") == ["ldrb w0, [x21, w1, uxtw]"]
        assert rewrite_lines("strh w0, [x1]") == ["strh w0, [x21, w1, uxtw]"]

    def test_fp_load(self):
        assert rewrite_lines("ldr d0, [x1]") == ["ldr d0, [x21, w1, uxtw]"]
        assert rewrite_lines("str q2, [x3]") == ["str q2, [x21, w3, uxtw]"]


class TestBasicGuard:
    """O0 and no-guarded-addressing-mode instructions use the §3 guard."""

    def test_o0_load(self):
        assert rewrite_lines("ldr x0, [x1]", O0) == [
            "add x18, x21, w1, uxtw",
            "ldr x0, [x18]",
        ]

    def test_o0_keeps_immediate_in_access(self):
        assert rewrite_lines("ldr x0, [x1, #24]", O0) == [
            "add x18, x21, w1, uxtw",
            "ldr x0, [x18, #24]",
        ]

    def test_pair_uses_basic_guard_at_o1(self):
        assert rewrite_lines("ldp x0, x1, [x2, #16]", O1) == [
            "add x18, x21, w2, uxtw",
            "ldp x0, x1, [x18, #16]",
        ]

    def test_pair_writeback_split(self):
        # Writeback is never performed on the scratch register.
        assert rewrite_lines("stp x0, x1, [x2, #-16]!", O1) == [
            "sub x2, x2, #16",
            "add x18, x21, w2, uxtw",
            "stp x0, x1, [x18]",
        ]

    def test_exclusive(self):
        assert rewrite_lines("ldxr x0, [x1]", O1) == [
            "add x18, x21, w1, uxtw",
            "ldxr x0, [x18]",
        ]

    def test_ldur(self):
        assert rewrite_lines("ldur x0, [x1, #-9]", O1) == [
            "add x18, x21, w1, uxtw",
            "ldur x0, [x18, #-9]",
        ]


class TestStackPointer:
    def test_sp_immediate_access_free(self):
        assert rewrite_lines("ldr x0, [sp, #16]") == ["ldr x0, [sp, #16]"]

    def test_sp_pre_post_free(self):
        assert rewrite_lines("stp x29, x30, [sp, #-16]!") == [
            "stp x29, x30, [sp, #-16]!"
        ]

    def test_small_sub_with_access_elided(self):
        lines = rewrite_lines("sub sp, sp, #32\n str x0, [sp]")
        assert lines == ["sub sp, sp, #32", "str x0, [sp]"]

    def test_small_sub_without_access_guarded(self):
        lines = rewrite_lines("sub sp, sp, #32\n ret")
        assert lines[:3] == ["sub sp, sp, #32", "mov w22, wsp",
                             "add sp, x21, x22"]

    def test_large_sub_guarded_even_with_access(self):
        lines = rewrite_lines("sub sp, sp, #4096\n str x0, [sp]")
        assert lines == [
            "sub sp, sp, #4096",
            "mov w22, wsp",
            "add sp, x21, x22",
            "str x0, [sp]",
        ]

    def test_elision_stops_at_branch(self):
        lines = rewrite_lines("sub sp, sp, #32\n b somewhere\nsomewhere:")
        assert lines[:3] == ["sub sp, sp, #32", "mov w22, wsp",
                             "add sp, x21, x22"]

    def test_elision_can_be_disabled(self):
        options = O2.with_(sp_block_elision=False)
        lines = rewrite_lines("sub sp, sp, #32\n str x0, [sp]", options)
        assert lines[1] == "mov w22, wsp"

    def test_mov_sp_from_register(self):
        lines = rewrite_lines("mov sp, x0")
        assert lines == ["mov w22, w0", "add sp, x21, x22"]

    def test_mov_to_fp_from_sp_free(self):
        assert rewrite_lines("mov x29, sp") == ["mov x29, sp"]

    def test_sp_register_offset_transformed(self):
        lines = rewrite_lines("ldr x0, [sp, x1]")
        assert lines == [
            "mov w22, wsp",
            "add w22, w22, w1",
            "ldr x0, [x21, w22, uxtw]",
        ]


class TestLinkRegister:
    def test_restore_gets_guard(self):
        lines = rewrite_lines("ldr x30, [sp, #8]")
        assert lines == ["ldr x30, [sp, #8]", "add x30, x21, w30, uxtw"]

    def test_epilogue_pair_gets_guard(self):
        lines = rewrite_lines("ldp x29, x30, [sp], #16\n ret")
        assert lines == [
            "ldp x29, x30, [sp], #16",
            "add x30, x21, w30, uxtw",
            "ret",
        ]

    def test_mov_to_x30_guarded(self):
        lines = rewrite_lines("mov x30, x3")
        assert lines == ["mov x30, x3", "add x30, x21, w30, uxtw"]

    def test_bl_untouched(self):
        assert rewrite_lines("bl foo\nfoo:") == ["bl foo"]

    def test_ret_untouched(self):
        assert rewrite_lines("ret") == ["ret"]


class TestIndirectBranches:
    def test_br(self):
        assert rewrite_lines("br x5") == [
            "add x18, x21, w5, uxtw",
            "br x18",
        ]

    def test_blr(self):
        assert rewrite_lines("blr x5") == [
            "add x18, x21, w5, uxtw",
            "blr x18",
        ]

    def test_ret_through_other_register(self):
        assert rewrite_lines("ret x5") == [
            "add x18, x21, w5, uxtw",
            "ret x18",
        ]


class TestHoisting:
    SRC = """
    str x0, [x1, #8]
    str x0, [x1, #16]
    str x0, [x1, #24]
    str x0, [x1, #32]
    """

    def test_figure2_example(self):
        """Figure 2: four stores share one hoisted guard."""
        lines = rewrite_lines(self.SRC, O2)
        assert lines == [
            "add x23, x21, w1, uxtw",
            "str x0, [x23, #8]",
            "str x0, [x23, #16]",
            "str x0, [x23, #24]",
            "str x0, [x23, #32]",
        ]

    def test_no_hoisting_at_o1(self):
        lines = rewrite_lines(self.SRC, O1)
        assert len(lines) == 8  # add+access per store

    INTERLEAVED = """
    ldr x0, [x1]
    ldr x2, [x3, #8]
    str x0, [x1, #8]
    str x2, [x3, #16]
    """

    def test_two_interleaved_bases(self):
        lines = rewrite_lines(self.INTERLEAVED, O2)
        assert "add x23, x21, w1, uxtw" in lines
        assert "add x24, x21, w3, uxtw" in lines
        assert len(lines) == 6

    def test_one_register_hoists_one_base(self):
        """§4.3's reason for the second hoisting register: with one, the
        second interleaved base keeps a guard per access."""
        lines = rewrite_lines(self.INTERLEAVED, O2.with_(hoist_registers=1))
        assert "add x23, x21, w1, uxtw" in lines
        assert not any("x24" in line for line in lines)
        assert len(lines) == 7

    def test_zero_registers_is_o1(self):
        assert rewrite_lines(self.INTERLEAVED, O2.with_(hoist_registers=0)) \
            == rewrite_lines(self.INTERLEAVED, O1)

    def test_base_redefinition_ends_segment(self):
        src = """
        ldr x0, [x1]
        mov x1, x5
        ldr x2, [x1]
        """
        lines = rewrite_lines(src, O2)
        # Neither access pair is hoistable (each run has length 1).
        assert lines == [
            "ldr x0, [x21, w1, uxtw]",
            "mov x1, x5",
            "ldr x2, [x21, w1, uxtw]",
        ]

    def test_single_access_not_hoisted(self):
        lines = rewrite_lines("ldr x0, [x1, #8]", O2)
        assert lines[0] == "add w22, w1, #8"

    def test_blocks_bounded_by_labels(self):
        src = """
        str x0, [x1, #8]
        target:
        str x0, [x1, #16]
        """
        lines = rewrite_lines(src, O2)
        # The label splits the block: no run of length 2.
        assert not any("x23" in l for l in lines)

    def test_hoisting_resists_jump_into_middle(self):
        """§4.3: hoisting uses a reserved register, so the rewritten code
        verifies without CFI — jumping into the middle is safe."""
        rewrite_and_verify(self.SRC, O2)


class TestNoLoads:
    def test_loads_untouched(self):
        assert rewrite_lines("ldr x0, [x1]", O2_NO_LOADS) == ["ldr x0, [x1]"]

    def test_stores_still_guarded(self):
        lines = rewrite_lines("str x0, [x1]", O2_NO_LOADS)
        assert lines == ["str x0, [x21, w1, uxtw]"]

    def test_x30_restore_still_guarded(self):
        lines = rewrite_lines("ldr x30, [sp]", O2_NO_LOADS)
        assert lines[-1] == "add x30, x21, w30, uxtw"

    def test_indirect_branches_still_guarded(self):
        lines = rewrite_lines("br x0", O2_NO_LOADS)
        assert lines[0] == "add x18, x21, w0, uxtw"


class TestRuntimeCallIdiom:
    def test_passthrough(self):
        src = "ldr x30, [x21, #16]\n blr x30\n"
        assert rewrite_lines(src) == ["ldr x30, [x21, #16]", "blr x30"]

    def test_idiom_verifies(self):
        rewrite_and_verify("ldr x30, [x21, #16]\n blr x30\n")


class TestInputValidation:
    @pytest.mark.parametrize("src", [
        "mov x21, #0",
        "add x18, x18, #1",
        "mov x0, x22",
        "ldr x23, [sp]",
        "add x0, x24, #4",
    ])
    def test_reserved_register_use_rejected(self, src):
        with pytest.raises(RewriteError):
            rewrite_program(parse_assembly(src))

    def test_svc_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_program(parse_assembly("svc #0"))

    def test_mrs_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_program(parse_assembly("mrs x0, tpidr_el0"))

    @pytest.mark.parametrize("src", ["ret x31", "br target"])
    def test_indirect_branch_to_a_non_register_rejected(self, src):
        with pytest.raises(RewriteError):
            rewrite_program(parse_assembly(src))

    def test_exclusives_policy(self):
        options = O2.with_(allow_exclusives=False)
        with pytest.raises(RewriteError):
            rewrite_program(parse_assembly("ldxr x0, [x1]"), options)


class TestBranchRangeFix:
    def test_short_branch_untouched(self):
        lines = rewrite_lines("tbz x0, #3, near\n nop\nnear:")
        assert lines[0] == "tbz x0, #3, near"

    def test_long_branch_fixed(self):
        body = "\n".join(["nop"] * 8000)
        src = f"tbz x0, #3, far\n{body}\nfar: nop\n"
        result = rewrite_program(parse_assembly(src), O2)
        assert result.stats.range_fixed_branches == 1
        lines = [str(i) for i in result.program.instructions()]
        assert lines[0].startswith("tbnz x0, #3, .Llfi_tbfix_")
        assert lines[1] == "b far"

    def test_fixed_program_assembles(self):
        body = "\n".join(["nop"] * 8200)
        src = f"tbnz x1, #5, far\n{body}\nfar: nop\n"
        result = rewrite_program(parse_assembly(src), O2)
        assemble(result.program)  # must not raise range errors


class TestStats:
    def test_counts(self):
        src = """
        ldr x0, [x1]
        str x0, [x2, #8]
        br x3
        """
        result = rewrite_program(parse_assembly(src), O1)
        s = result.stats
        assert s.input_instructions == 3
        assert s.zero_cost_guards == 1
        assert s.memory_guards == 1
        assert s.branch_guards == 1
        assert s.output_instructions == 5
        assert s.added_instructions == 2
        assert s.code_size_overhead == pytest.approx(2 / 3)

    def test_output_counted_as_emitted(self):
        """The count the rewriter keeps as it emits is the rewritten
        text's instruction count: fences after labels and range-fixed
        branches included, at every build setting."""
        import random

        from repro.core import O2_FENCE, O2_MASK
        from repro.fuzz.genasm import AsmGenerator, GenConfig

        generator = AsmGenerator(GenConfig())
        sources = [generator.generate(random.Random(seed)).source
                   for seed in range(3)]
        sources.append("tbz x0, #3, far\n" + "nop\n" * 8000 + "far: nop\n")
        for source in sources:
            for options in (O0, O1, O2, O2_NO_LOADS, O2_FENCE, O2_MASK):
                result = rewrite_program(parse_assembly(source), options)
                assert result.stats.output_instructions == sum(
                    1 for _ in result.program.text_instructions())


class TestRewriteVerifyProperty:
    """Everything the rewriter produces must pass the verifier — at every
    optimization level.  This is the system's central contract."""

    PROGRAMS = [
        # function with prologue/epilogue and mixed accesses
        """
        f:
        stp x29, x30, [sp, #-48]!
        mov x29, sp
        sub sp, sp, #32
        str x0, [sp, #16]
        ldr x1, [x0]
        ldr x2, [x0, #8]
        add x3, x1, x2
        str x3, [x0, #16]
        ldr x4, [x1, x2, lsl #3]
        add sp, sp, #32
        ldp x29, x30, [sp], #48
        ret
        """,
        # indirect calls and jump through register
        """
        adr x0, helper
        blr x0
        adr x1, helper
        br x1
        helper: ret
        """,
        # loops with post-index walking
        """
        mov x0, #0
        loop:
        ldr x1, [x2], #8
        add x0, x0, x1
        subs x3, x3, #1
        b.ne loop
        ret
        """,
        # pairs, exclusives, FP, SIMD
        """
        ldp x0, x1, [x2, #16]
        stp x0, x1, [x3, #-32]!
        ldxr x4, [x5]
        stxr w6, x4, [x5]
        ldr d0, [x7, #8]
        str q1, [x8]
        add v0.4s, v1.4s, v2.4s
        ret
        """,
        # runtime call with save/restore
        """
        mov x9, x30
        ldr x30, [x21, #8]
        blr x30
        mov x30, x9
        ret
        """,
    ]

    @pytest.mark.parametrize("src", PROGRAMS)
    @pytest.mark.parametrize("options", [O0, O1, O2, O2_NO_LOADS])
    def test_rewritten_verifies(self, src, options):
        from repro.core import VerifierPolicy

        result = rewrite_program(parse_assembly(src), options)
        image = assemble(result.program)
        policy = VerifierPolicy(sandbox_loads=options.sandbox_loads)
        v = verify_text(bytes(image.text.data), image.text.base, policy)
        assert v.ok, "; ".join(str(x) for x in v.violations)

    @pytest.mark.parametrize("src", PROGRAMS[:2])
    def test_unrewritten_fails_verification(self, src):
        """Sanity: the raw programs do NOT pass (they have naked accesses)."""
        image = assemble(parse_assembly(src))
        v = verify_text(bytes(image.text.data), image.text.base)
        assert not v.ok
