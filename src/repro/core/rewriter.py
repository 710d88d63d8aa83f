"""The LFI assembly transformer (paper §5.1).

Consumes a parsed GNU-assembly :class:`Program` (as produced by an
off-the-shelf compiler) and inserts SFI guards so that the resulting
machine code passes the static verifier.  The transformation is purely
local to basic blocks plus a final branch-range fixup pass, mirroring the
paper's ~1,500-line assembly-to-assembly tool.

The input program must not use the reserved registers (the paper invokes
Clang with ``-ffixed-reg`` flags to guarantee this); the only permitted
appearance is the runtime-call idiom ``ldr x30, [x21, #n]; blr x30``
(§4.4), which is passed through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arm64 import isa
from ..arm64.instructions import Instruction, ins
from ..arm64.operands import Extended, Imm, Label, Mem, OFFSET, Shifted
from ..arm64.program import Directive, LabelDef, Program
from ..arm64.registers import Reg, SP, X
from ..errors import RewriteError as _RewriteError
from . import guards
from .branches import fix_branch_ranges
from .constants import (
    ADDRESS_INDICES,
    BASE_REG,
    LO32_REG,
    POISON_REG,
    RESERVED_INDICES,
    SCRATCH_REG,
    SP_SMALL_IMM,
)
from .hoisting import HoistPlan, plan_hoisting
from .options import O2, RewriteOptions

__all__ = ["RewriteStats", "RewriteResult", "rewrite_program",
           "rewrite_assembly", "is_runtime_call_load"]


@dataclass
class RewriteStats:
    """Counters describing what the rewriter did."""

    input_instructions: int = 0
    output_instructions: int = 0
    memory_guards: int = 0
    zero_cost_guards: int = 0  # accesses folded into [x21, wN, uxtw] freely
    branch_guards: int = 0
    sp_guards: int = 0
    sp_guards_elided: int = 0
    x30_guards: int = 0
    hoist_guards: int = 0
    hoisted_accesses: int = 0
    range_fixed_branches: int = 0
    fence_guards: int = 0     # dsb speculation barriers (hardening §16)
    mask_guards: int = 0      # poison updates + masked-index bics (§16)
    demoted_returns: int = 0  # ret -> br x30 conversions under masking

    @property
    def added_instructions(self) -> int:
        return self.output_instructions - self.input_instructions

    @property
    def code_size_overhead(self) -> float:
        if not self.input_instructions:
            return 0.0
        return self.added_instructions / self.input_instructions

    def guard_class_counts(self) -> Dict[str, int]:
        """Guard *sites* by class — the single source of truth consumed by
        ``repro.tools rewrite`` and ``repro.tools profile`` (DESIGN.md §9).

        ``memory`` counts only guarded accesses that cost instructions;
        zero-instruction guards are reported separately since the paper's
        point is that they are free.
        """
        return {
            "memory": self.memory_guards,
            "zero-cost": self.zero_cost_guards,
            "branch": self.branch_guards,
            "sp": self.sp_guards,
            "x30": self.x30_guards,
            "hoist": self.hoist_guards,
            "fence": self.fence_guards,
            "mask": self.mask_guards,
        }


@dataclass
class RewriteResult:
    program: Program
    stats: RewriteStats
    options: RewriteOptions

    def guard_provenance(self) -> Dict[int, str]:
        """Map text-instruction *index* -> guard class for rewriter-inserted
        guards.  The assembler converts indices to addresses; the index form
        exists so provenance can be checked before layout is known."""
        return {
            i: inst.guard
            for i, inst in enumerate(self.program.text_instructions())
            if inst.guard is not None
        }


def rewrite_assembly(text: str, options: RewriteOptions = O2) -> str:
    """Convenience wrapper: assembly text in, sandboxed assembly text out."""
    from ..arm64.parser import parse_assembly
    from ..arm64.printer import print_assembly

    result = rewrite_program(parse_assembly(text), options)
    return print_assembly(result.program)


def rewrite_program(program: Program,
                    options: RewriteOptions = O2) -> RewriteResult:
    """Insert SFI guards into a program (the paper's §5.1 transformation)."""
    stats = RewriteStats()
    out = Program()
    section = ".text"
    block: List[Instruction] = []

    def flush_block():
        if block:
            emitted = len(out.items)
            _rewrite_block(block, out, options, stats)
            stats.output_instructions += len(out.items) - emitted
            block.clear()

    for item in program.items:
        if isinstance(item, Directive):
            flush_block()
            if item.name in (".text", ".data", ".bss", ".rodata", ".section"):
                section = item.name if item.name != ".section" else (
                    item.args[0] if item.args else ".data"
                )
            out.add(item)
            continue
        if isinstance(item, LabelDef):
            flush_block()
            out.add(item)
            if (options.speculation_hardening == "fence"
                    and section.startswith(".text")):
                # Taken-edge protection: a mispredicted-taken window
                # starts at a branch target, i.e. at a label.
                out.add(guards.speculation_fence())
                stats.fence_guards += 1
                stats.output_instructions += 1
            continue
        if not section.startswith(".text"):
            out.add(item)
            continue
        stats.input_instructions += 1
        block.append(item)
        if item.is_branch:
            flush_block()
    flush_block()

    # Each fix turns one test branch into an inverted one and a ``b``.
    stats.range_fixed_branches = fix_branch_ranges(out)
    stats.output_instructions += stats.range_fixed_branches
    return RewriteResult(program=out, stats=stats, options=options)


# ---------------------------------------------------------------------------
# Per-block rewriting
# ---------------------------------------------------------------------------

def _rewrite_block(block: List[Instruction], out: Program,
                   options: RewriteOptions, stats: RewriteStats) -> None:
    # Each instruction's facts, read once: the registers it writes (shared
    # by the hoisting planner, the dispatch and the sp elision) and whether
    # it is half of a runtime-call pair.  A block ends at its first branch,
    # so only its last two instructions can be a runtime-call pair.
    writes = [inst.defs() for inst in block]
    calls = len(block) - 2
    if calls < 0 or not _is_runtime_call_load(block, calls):
        calls = len(block)
    plan = (plan_hoisting(block, writes, options.sandbox_loads,
                          options.hoist_registers)
            if options.hoisting else HoistPlan())
    reserved = RESERVED_INDICES
    if options.speculation_hardening == "mask":
        reserved = reserved | {POISON_REG.index}
    for i, inst in enumerate(block):
        if i < calls:
            _check_reserved(inst, reserved)
        guard_at = plan.guards.get(i)
        if guard_at is not None:
            hoist_reg, base = guard_at
            out.add(guards.guard_address(base, hoist_reg, klass="hoist"))
            stats.hoist_guards += 1
        redirect = plan.redirects.get(i)
        if redirect is not None:
            mem = inst.mem
            new_mem = Mem(redirect, mem.offset)
            out.add(_replace_mem(inst, new_mem))
            stats.hoisted_accesses += 1
            _after_load_fixups(inst, out, stats)
            continue
        _rewrite_instruction(block, i, writes, i >= calls, out, options,
                             stats)


def _replace_mem(inst: Instruction, mem: Mem) -> Instruction:
    ops = tuple(mem if isinstance(op, Mem) else op for op in inst.operands)
    return Instruction(inst.mnemonic, ops, inst.line)


def _is_runtime_call_load(block: List[Instruction], i: int) -> bool:
    """``ldr x30, [x21, #n]`` immediately followed by ``blr x30`` (§4.4)."""
    inst = block[i]
    if inst.mnemonic != "ldr" or not inst.transfer_regs:
        return False
    if inst.transfer_regs[0].index != 30 or inst.transfer_regs[0].is_vector:
        return False
    mem = inst.mem
    if mem is None or mem.base is not BASE_REG or mem.mode != OFFSET:
        return False
    if mem.offset is not None and not isinstance(mem.offset, Imm):
        return False
    if i + 1 >= len(block):
        return False
    nxt = block[i + 1]
    return (nxt.mnemonic == "blr" and len(nxt.operands) == 1
            and isinstance(nxt.operands[0], Reg)
            and nxt.operands[0].index == 30)


#: Public name for the runtime-call idiom predicate.  The superblock
#: engine uses the exact same recognizer at translation time to mark the
#: blocks whose landing address it offers to the runtime's springboard,
#: so rewriter and emulator can never disagree about what constitutes a
#: runtime call.
is_runtime_call_load = _is_runtime_call_load


def _check_reserved(inst: Instruction,
                    reserved: frozenset = RESERVED_INDICES) -> None:
    """Reject input that touches reserved registers (-ffixed-reg contract);
    the caller exempts runtime-call pairs.

    Under mask hardening the poison register (x25) joins the reserved
    set: application writes would let a transient path clear the poison.
    """
    for op in inst.operands:
        if isinstance(op, Mem):
            reg, offset = op.base, op.offset_reg
            if offset is not None and offset.index in reserved \
                    and not offset.is_vector:
                break
        else:
            reg = op if isinstance(op, Reg) else getattr(op, "reg", None)
        if reg is not None and reg.index in reserved and not reg.is_vector:
            break
    else:
        return
    # Cold path: name the register in uses()/defs() order, as ever.
    for reg in inst.uses() + inst.defs():
        if not reg.is_vector and reg.index in reserved:
            raise _RewriteError(
                f"input uses reserved register {reg}: {inst}"
            )


def _rewrite_instruction(block: List[Instruction], i: int,
                         writes: List[List[Reg]], in_call: bool, out: Program,
                         options: RewriteOptions, stats: RewriteStats) -> None:
    inst = block[i]
    m = inst.mnemonic

    if m in isa.UNSAFE_SYSTEM:
        raise _RewriteError(f"unsafe instruction in input: {inst}")
    if not options.allow_exclusives and (
        m in isa.EXCLUSIVE_MEMORY or m in ("ldar", "stlr")
    ):
        raise _RewriteError(
            f"exclusives disallowed by hardening policy: {inst}"
        )

    if m in isa.MEMORY:
        if in_call:
            out.add(inst)   # the runtime-call load passes through (§4.4)
        else:
            _rewrite_memory(inst, out, options, stats)
        return

    hardening = options.speculation_hardening

    if m in isa.INDIRECT_BRANCHES:
        target = inst.operands[0] if inst.operands else X[30]
        if not isinstance(target, Reg) or target.is_vector:
            raise _RewriteError(f"indirect branch needs a register: {inst}")
        if target.index == 30:
            if m == "ret" and hardening == "mask":
                # br never engages the return-stack predictor, so a
                # demoted return cannot open an RSB window (§16).
                out.add(ins("br", X[30]))
                stats.demoted_returns += 1
            else:
                out.add(inst)  # x30 invariant makes ret/br x30 safe
        else:
            replacement = guards.transform_indirect_branch(inst)
            if m == "ret" and hardening == "mask":
                replacement[-1] = ins("br", replacement[-1].operands[0])
                stats.demoted_returns += 1
            out.add(*replacement)
            stats.branch_guards += 1
        if m == "blr" and hardening == "fence":
            # The instruction after a call is a predicted return site.
            out.add(guards.speculation_fence())
            stats.fence_guards += 1
        return

    # A non-memory instruction writes at most one register.
    for dest in writes[i]:
        if dest.is_sp:
            _rewrite_sp_write(block, i, writes, out, options, stats)
            return
        if dest.index == 30 and not dest.is_vector and not inst.is_call:
            # Arithmetic or address computation into the link register.
            out.add(inst)
            out.add(guards.x30_guard())
            stats.x30_guards += 1
            return

    if hardening is not None and inst.is_branch:
        if m.startswith("b."):
            out.add(inst)
            if hardening == "mask":
                out.add(guards.poison_update(m[2:]))
                stats.mask_guards += 1
            else:
                out.add(guards.speculation_fence())
                stats.fence_guards += 1
            return
        if m in ("cbz", "cbnz", "tbz", "tbnz"):
            # Compare/test branches consume no flags, so there is no
            # condition code to poison with; both levels fence instead.
            out.add(inst)
            out.add(guards.speculation_fence())
            stats.fence_guards += 1
            return
        if m == "bl" and hardening == "fence":
            out.add(inst)
            out.add(guards.speculation_fence())
            stats.fence_guards += 1
            return

    out.add(inst)


def _after_load_fixups(inst: Instruction, out: Program,
                       stats: RewriteStats) -> None:
    """Insert the x30 guard after any load that restores the link register."""
    if inst.is_load and any(
        r.index == 30 and not r.is_vector for r in inst.transfer_regs
    ):
        out.add(guards.x30_guard())
        stats.x30_guards += 1


def _rewrite_memory(inst: Instruction, out: Program,
                    options: RewriteOptions, stats: RewriteStats) -> None:
    if inst.mem.base.is_sp:
        _rewrite_sp_access(inst, out, options, stats)
        return

    if inst.is_load and not options.sandbox_loads:
        out.add(inst)  # "no loads" variant: reads are not isolated
        _after_load_fixups(inst, out, stats)
        return

    if options.speculation_hardening == "mask":
        out.add(*guards.transform_memory_masked(inst))
        stats.memory_guards += 1
        stats.mask_guards += 1
        _after_load_fixups(inst, out, stats)
        return

    if (options.zero_instruction_guards
            and inst.mnemonic in isa.FULL_ADDRESSING):
        replacement = guards.transform_memory_guarded(inst)
        if len(replacement) == 1:
            stats.zero_cost_guards += 1
        else:
            stats.memory_guards += 1
        out.add(*replacement)
    else:
        out.add(*guards.transform_memory_basic(inst))
        stats.memory_guards += 1
    _after_load_fixups(inst, out, stats)


def _rewrite_sp_access(inst: Instruction, out: Program,
                       options: RewriteOptions, stats: RewriteStats) -> None:
    """Memory access with the stack pointer as base (§4.2)."""
    mem = inst.mem
    if mem.offset is None or isinstance(mem.offset, Imm):
        # Immediate forms (including pre/post writeback) are free: sp is
        # valid, immediates are covered by the guard regions, and writeback
        # stays within one guard region of the sandbox.
        out.add(inst)
        _after_load_fixups(inst, out, stats)
        return
    # Register-offset from sp (rare): fold sp into w22 and guard.
    from ..arm64.registers import WSP

    out.add(guards.tag(ins("mov", LO32_REG.as_32(), WSP), "memory"))
    out.add(guards._offset_add(LO32_REG, mem.offset))
    if (options.zero_instruction_guards
            and inst.mnemonic in isa.FULL_ADDRESSING):
        out.add(_replace_mem(inst, guards.guarded_mem(LO32_REG)))
    elif options.speculation_hardening == "mask":
        out.add(*guards.masked_guard_address(LO32_REG))
        out.add(_replace_mem(inst, Mem(SCRATCH_REG)))
        stats.mask_guards += 1
    else:
        out.add(guards.guard_address(LO32_REG))
        out.add(_replace_mem(inst, Mem(SCRATCH_REG)))
    stats.memory_guards += 1
    _after_load_fixups(inst, out, stats)


def _rewrite_sp_write(block: List[Instruction], i: int,
                      writes: List[List[Reg]], out: Program,
                      options: RewriteOptions, stats: RewriteStats) -> None:
    """Non-memory instruction writing sp: insert the sp guard unless the
    small-immediate/same-basic-block elision applies (§4.2)."""
    inst = block[i]
    m = inst.mnemonic

    small = (
        m in ("add", "sub")
        and len(inst.operands) == 3
        and inst.operands[1] is SP
        and isinstance(inst.operands[2], Imm)
        and 0 <= inst.operands[2].value < SP_SMALL_IMM
    )
    if small and options.sp_block_elision \
            and _sp_access_follows(block, i, writes):
        out.add(inst)
        stats.sp_guards_elided += 1
        return

    if m == "mov" and isinstance(inst.operands[1], Reg) \
            and not inst.operands[1].is_sp:
        # mov sp, xN: zero-extend through w22, then the cheap add guard.
        # The mov stands in for the application's own move; only the add
        # is rewriter overhead.
        src = inst.operands[1]
        out.add(ins("mov", LO32_REG.as_32(), src.as_32()))
        out.add(guards.tag(ins("add", SP, BASE_REG, LO32_REG), "sp"))
        stats.sp_guards += 1
        return

    out.add(inst)
    out.add(*guards.sp_guard_pair())
    stats.sp_guards += 1


def _sp_access_follows(block: List[Instruction], i: int,
                       writes: List[List[Reg]]) -> bool:
    """Will a trapping sp-based access execute before sp can be misused?"""
    for j in range(i + 1, len(block)):
        inst = block[j]
        mem = inst.mem
        if mem is not None and mem.base.is_sp:
            if mem.offset is None or isinstance(mem.offset, Imm):
                return True
            return False
        if any(d.is_sp for d in writes[j]):
            return False
        if inst.is_branch:
            return False
    return False
