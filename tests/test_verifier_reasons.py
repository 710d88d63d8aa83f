"""One negative test per verifier rejection reason (ISSUE 2 satellite).

The verifier's security argument is the union of its rejection branches:
an unreachable or mis-ordered branch is a silent hole.  Every ``yield``
in ``repro/core/verifier.py`` gets a test here that triggers exactly it,
plus a positive twin where the rule has a legitimate near-miss.

Two branches are unreachable from decoded bytes (the decoder never
produces such instructions) and are exercised with synthetic
``Instruction`` objects: they are defense-in-depth against future decoder
changes, not dead code.

This suite also pins the fix for the fuzzer-found soundness bug: in
store-only mode (``sandbox_loads=False``) writeback loads through
x21/x22/x30 were accepted, letting a verified binary move the sandbox
base at runtime.
"""

from __future__ import annotations

import pytest

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.arm64.instructions import Instruction
from repro.arm64.registers import parse_register
from repro.core import Verifier, VerifierPolicy, verify_elf, verify_text
from repro.core.verifier import reason_code
from repro.elf import build_elf


def _reasons(body, **policy):
    """Verify a snippet; return the list of violation reasons.

    Every reason keeps the code its prose has always mapped to: the
    verifier stores the code it words with the reason, and this pins the
    two statements together for each reason the suite triggers."""
    lines = [body] if isinstance(body, str) else list(body)
    source = ".text\n.globl _start\n_start:\n" + "".join(
        f"    {line}\n" for line in lines
    )
    elf = build_elf(assemble(parse_assembly(source)))
    result = Verifier(VerifierPolicy(**policy)).verify_elf(elf)
    for v in result.violations:
        assert v.code == reason_code(v.reason) != "other", v
    return [v.reason for v in result.violations]


def _assert_reason(body, fragment, **policy):
    reasons = _reasons(body, **policy)
    assert any(fragment in r for r in reasons), \
        f"expected a reason containing {fragment!r}, got {reasons}"


class TestStreamShape:
    def test_text_size_not_multiple_of_four(self):
        result = verify_text(b"\x1f\x20\x03\xd5\x00")  # nop + stray byte
        assert not result.ok
        assert any("not a multiple of 4" in v.reason
                   for v in result.violations)

    def test_undecodable_instruction(self):
        result = verify_text(b"\xff\xff\xff\xff")
        assert not result.ok
        assert result.violations[0].reason == "undecodable instruction"

    def test_unsafe_mnemonic(self):
        _assert_reason("svc #0", "instruction not on the safe list")

    def test_exclusives_disallowed_by_policy(self):
        _assert_reason("ldxr x0, [x18]", "disallowed by policy",
                       allow_exclusives=False)

    def test_ordered_access_disallowed_by_policy(self):
        _assert_reason("ldar x0, [x18]", "disallowed by policy",
                       allow_exclusives=False)

    def test_exclusives_allowed_by_default(self):
        assert _reasons("ldxr x0, [x18]") == []


class TestMemoryAddressing:
    def test_register_offset_from_sp(self):
        _assert_reason("ldr x0, [sp, x1]",
                       "register-offset addressing from sp")

    def test_sp_displacement_exceeds_guard(self):
        # Reachable only with a reduced guard region: the architectural
        # imm12 maximum (32760) is below the default 1 << 15 ceiling.
        _assert_reason("ldr x0, [sp, #32]", "sp displacement 32 exceeds",
                       max_displacement=16)

    def test_sp_displacement_within_guard_ok(self):
        assert _reasons("ldr x0, [sp, #8]", max_displacement=16) == []

    def test_register_offset_from_guarded_base(self):
        _assert_reason("ldr x0, [x18, x1]",
                       "register-offset addressing from x18")

    def test_displacement_exceeds_guard(self):
        _assert_reason("ldr x0, [x18, #32]", "displacement 32 exceeds",
                       max_displacement=16)

    def test_writeback_modifies_guarded_base(self):
        _assert_reason("ldr x0, [x18], #8",
                       "writeback would modify reserved register x18")

    def test_unsafe_extend_from_x21(self):
        _assert_reason("ldr x0, [x21, w1, sxtw]", "unsafe extend sxtw")

    def test_guarded_extend_from_x21_ok(self):
        assert _reasons("ldr x0, [x21, w1, uxtw]") == []

    def test_unsafe_register_addressing_from_x21(self):
        _assert_reason("ldr x0, [x21, x1]", "unsafe addressing from x21")

    def test_unsafe_shifted_addressing_from_x21(self):
        _assert_reason("ldr x0, [x21, x1, lsl #3]",
                       "unsafe addressing from x21")

    def test_store_through_x21(self):
        _assert_reason("str x0, [x21, #8]", "runtime-call table is read-only")

    def test_writeback_modifies_x21(self):
        _assert_reason("ldr x0, [x21, #8]!", "writeback would modify x21")

    def test_negative_displacement_from_x21(self):
        _assert_reason("ldur x0, [x21, #-8]",
                       "negative displacement from x21")

    def test_x21_displacement_out_of_table(self):
        _assert_reason("ldr x0, [x21, #32]", "x21 displacement 32 out of",
                       max_displacement=16)

    def test_unguarded_base_register(self):
        _assert_reason("ldr x1, [x0]", "unguarded base register x0")

    def test_memory_instruction_without_memory_operand(self):
        # Unreachable from decoded bytes (the decoder always attaches a
        # Mem operand to memory mnemonics); guards against decoder drift.
        inst = Instruction("ldr", (parse_register("x0"),))
        reasons = list(Verifier()._check(inst, [inst], 0))
        assert "memory instruction without memory operand" in reasons


class TestLoadDestinations:
    def test_load_writes_x21(self):
        _assert_reason("ldr x21, [x18]", "load writes x21")

    def test_load_writes_reserved_register(self):
        _assert_reason("ldr x23, [x18]", "load writes reserved register x23")

    def test_64bit_load_writes_x22(self):
        _assert_reason("ldr x22, [x18]", "64-bit load writes x22")

    def test_32bit_load_into_w22_ok(self):
        assert _reasons("ldr w22, [x18]") == []

    def test_32bit_write_to_link_register(self):
        _assert_reason("ldr w30, [x18]", "32-bit write to link register")

    def test_load_writes_x30_without_guard(self):
        _assert_reason("ldr x30, [x18]", "without a following link-register")

    def test_load_x30_with_guard_ok(self):
        assert _reasons(["ldr x30, [x18]",
                         "add x30, x21, w30, uxtw"]) == []

    def test_runtime_call_idiom_ok(self):
        assert _reasons(["ldr x30, [x21, #16]", "blr x30"]) == []

    def test_store_exclusive_status_into_reserved(self):
        _assert_reason("stxr w18, x1, [x18]",
                       "load writes reserved register x18")


class TestNoLoadsWritebackRegression:
    """Fuzzer-found fix: store-only mode must still reject writeback loads
    through every reserved register, not just the guarded address ones."""

    @pytest.mark.parametrize("base", ["x18", "x21", "x22", "x23", "x24",
                                      "x30"])
    def test_reserved_base_writeback_rejected(self, base):
        _assert_reason(f"ldr x0, [{base}], #8",
                       f"writeback would modify reserved register {base}",
                       sandbox_loads=False)

    @pytest.mark.parametrize("base", ["x18", "x21", "x22", "x23", "x24",
                                      "x30"])
    def test_reserved_base_preindex_rejected(self, base):
        _assert_reason(f"ldr x0, [{base}, #16]!",
                       f"writeback would modify reserved register {base}",
                       sandbox_loads=False)

    def test_plain_load_unchecked_in_noloads_mode(self):
        # The point of the mode: load *addresses* are not sandboxed.
        assert _reasons("ldr x1, [x0]", sandbox_loads=False) == []

    def test_work_register_writeback_ok_in_noloads_mode(self):
        assert _reasons("ldr x1, [x0], #8", sandbox_loads=False) == []

    def test_sp_writeback_load_ok_in_noloads_mode(self):
        assert _reasons("ldr x0, [sp], #16", sandbox_loads=False) == []

    def test_stores_still_checked_in_noloads_mode(self):
        _assert_reason("str x1, [x0]", "unguarded base register x0",
                       sandbox_loads=False)


class TestIndirectBranches:
    def test_unguarded_branch_register(self):
        _assert_reason("br x5", "indirect branch through unguarded "
                                "register x5")

    def test_branch_through_guarded_register_ok(self):
        assert _reasons(["add x18, x21, w0, uxtw", "br x18"]) == []

    def test_bare_ret_needs_no_operand_check(self):
        assert _reasons(["adr x30, _start", "add x30, x21, w30, uxtw",
                         "ret"]) == []

    def test_malformed_indirect_branch(self):
        # Unreachable from decoded bytes (br/blr always decode with a
        # 64-bit GPR operand); guards against decoder drift.
        inst = Instruction("br", (parse_register("w0"),))
        reasons = list(Verifier()._check(inst, [inst], 0))
        assert any("malformed indirect branch" in r for r in reasons)


class TestRegisterWrites:
    def test_write_to_x21(self):
        _assert_reason("add x21, x21, #1", "write to x21 (sandbox base)")

    def test_guard_register_written_by_non_guard(self):
        _assert_reason("add x18, x18, #1",
                       "x18 modified by something other than the guard")

    def test_guard_register_32bit_write_rejected(self):
        _assert_reason("mov w23, w0",
                       "x23 modified by something other than the guard")

    def test_guard_write_ok(self):
        assert _reasons("add x18, x21, w0, uxtw") == []

    def test_64bit_write_to_x22(self):
        _assert_reason("mov x22, x0", "64-bit write to x22 breaks")

    def test_32bit_write_to_x22_ok(self):
        assert _reasons("mov w22, w0") == []

    def test_x30_written_by_non_guard(self):
        _assert_reason("mov x30, x0",
                       "x30 modified by something other than the guard")

    def test_x30_mov_then_guard_ok(self):
        assert _reasons(["mov x30, x0", "add x30, x21, w30, uxtw"]) == []

    def test_call_writes_x30_ok(self):
        assert _reasons(["bl _start"]) == []


class TestProverFoundSpHoles:
    """Regressions for the two sp soundness holes ``repro.prove`` found
    (DESIGN.md §13), pinned as the ``sp-arith-large-offset`` and
    ``sp-arith-32bit`` corpus entries."""

    def test_large_offset_close_rejected(self):
        # Pre-fix: any in-guard displacement closed an sp window, but an
        # access at sp+2000 only pins sp within 2000 of the mapped
        # region, so chained windows could walk sp past the guard band.
        _assert_reason(["sub sp, sp, #16", "str x0, [sp, #2000]"],
                       "sp arithmetic without a following sp access")

    def test_small_offset_close_still_ok(self):
        assert _reasons(["sub sp, sp, #16", "str x0, [sp, #1000]"]) == []

    def test_32bit_sp_arithmetic_rejected(self):
        # add wsp, wsp, #0 truncates sp to its low 32 bits — an absolute
        # address outside the sandbox — yet matched the pre-fix
        # small-drift pattern.  Raw words: the assembler has no wsp
        # spelling.
        data = b"".join(w.to_bytes(4, "little")
                        for w in (0x110003FF, 0xF90003E0))
        result = verify_text(data)
        assert not result.ok
        assert any("unsafe sp modification" in v.reason
                   for v in result.violations)

    def test_corpus_entries_replay_clean(self):
        from repro.fuzz.corpus import DEFAULT_CORPUS, load_corpus, \
            replay_entry

        entries = {e.name: e for e in load_corpus(DEFAULT_CORPUS)}
        for name in ("sp-arith-large-offset", "sp-arith-32bit",
                     "noloads-writeback-x21"):
            assert name in entries, f"corpus entry {name} missing"
            assert replay_entry(entries[name]) == []


class TestViolationMetadata:
    """ISSUE 7 satellite: violations carry disassembly, the policy mode,
    and a stable machine-readable code."""

    def _one_violation(self, body, **policy):
        lines = [body] if isinstance(body, str) else list(body)
        source = ".text\n.globl _start\n_start:\n" + "".join(
            f"    {line}\n" for line in lines)
        elf = build_elf(assemble(parse_assembly(source)))
        result = Verifier(VerifierPolicy(**policy)).verify_elf(elf)
        assert result.violations
        return result.violations[0]

    def test_violation_carries_disasm_and_mode(self):
        v = self._one_violation("ldr x0, [x21], #8", sandbox_loads=False)
        assert v.disasm == "ldr x0, [x21], #8"
        assert v.mode == "store-only"
        assert v.code == "writeback-reserved"
        text = str(v)
        assert "ldr x0, [x21], #8" in text
        assert "[store-only]" in text
        assert f"{v.word:#010x}" in text

    def test_default_policy_mode_label(self):
        v = self._one_violation("br x5")
        assert v.mode == "sandbox"
        assert v.code == "branch-unguarded"

    def test_undecodable_violation_has_no_disasm(self):
        result = verify_text(b"\xff\xff\xff\xff")
        v = result.violations[0]
        assert v.disasm == ""
        assert v.code == "undecodable"

    def test_violation_is_read_only(self):
        """A violation hashes over its fields, so none may change once it
        is in a set or dict; the lazily decoded ``disasm`` is no field."""
        import copy
        import pickle

        v = self._one_violation("mov x23, x0")
        for name in ("address", "word", "reason", "disasm", "mode", "code"):
            with pytest.raises(AttributeError):
                setattr(v, name, getattr(v, name))
            with pytest.raises(AttributeError):
                delattr(v, name)
        seen = {v}
        assert v.disasm == "mov x23, x0" and v in seen
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v)):
            assert twin == v and twin.code == v.code and twin in seen

    def test_every_reason_code_is_unique(self):
        from repro.core.verifier import _REASON_CODES

        codes = [code for _, code in _REASON_CODES]
        assert len(codes) == len(set(codes))


class TestStackPointer:
    def test_sp_arithmetic_without_access(self):
        _assert_reason(["sub sp, sp, #16", "ret"],
                       "sp arithmetic without a following sp access")

    def test_sp_arithmetic_with_access_ok(self):
        assert _reasons(["sub sp, sp, #16", "str x0, [sp]"]) == []

    def test_unsafe_sp_modification(self):
        _assert_reason("mov sp, x0", "unsafe sp modification")

    def test_large_sp_subtract_unsafe(self):
        _assert_reason(["sub sp, sp, #2048", "str x0, [sp]"],
                       "unsafe sp modification")

    def test_sp_guard_pair_ok(self):
        assert _reasons(["mov w22, wsp", "add sp, x21, x22"]) == []


def test_verify_elf_skips_non_executable_segments():
    source = (".text\n.globl _start\n_start:\n    brk #0\n"
              ".data\nbuffer:\n    .skip 64\n")
    elf = build_elf(assemble(parse_assembly(source)))
    result = verify_elf(elf)
    assert result.ok and result.instructions == 1
