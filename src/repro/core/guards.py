"""Guard sequence emission: the paper's Table 3 transformations.

Every function returns the replacement instruction list for one unsafe
memory access or indirect branch.  Two strategies exist:

* the **basic guard** (§3): materialize a safe address in the reserved
  scratch register with ``add x18, x21, wN, uxtw`` and access through it
  (used at O0, and at all levels for instructions without access to the
  guarded addressing mode: pairs, exclusives, acquire/release);
* the **zero-instruction guard** (§4.1): fold the guard into the access
  itself with the ``[x21, wN, uxtw]`` addressing mode (O1+), with a single
  32-bit ``add`` into ``x22`` for the complex addressing modes.
"""

from __future__ import annotations

from typing import List, Optional

from ..arm64 import isa
from ..arm64.instructions import Instruction, ins
from ..arm64.operands import (
    Cond,
    Extended,
    Imm,
    Mem,
    OFFSET,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    invert_condition,
)
from ..arm64.registers import Reg, X, XZR
from ..errors import GuardError as _GuardError
from .constants import BASE_REG, LO32_REG, POISON_REG, SCRATCH_REG

__all__ = [
    "GUARD_CLASSES",
    "tag",
    "guard_address",
    "guarded_mem",
    "x30_guard",
    "sp_guard_pair",
    "speculation_fence",
    "poison_update",
    "masked_guard_address",
    "transform_memory_basic",
    "transform_memory_guarded",
    "transform_memory_masked",
    "transform_indirect_branch",
]

#: The guard taxonomy used for provenance and cycle attribution
#: (DESIGN.md §15): each class matches one Table-3 transformation family;
#: "fence" and "mask" are the Spectre-hardening additions (§16).
GUARD_CLASSES = ("memory", "branch", "sp", "x30", "hoist", "fence", "mask")



def tag(inst: Instruction, klass: str) -> Instruction:
    """Mark ``inst`` as rewriter-inserted guard overhead of ``klass``."""
    if klass not in GUARD_CLASSES:
        raise _GuardError(f"unknown guard class {klass!r}")
    inst.guard = klass
    return inst


def guard_address(source: Reg, dest: Reg = SCRATCH_REG,
                  klass: str = "memory") -> Instruction:
    """The basic guard: ``add dest, x21, wN, uxtw`` (§3)."""
    return tag(ins("add", dest, BASE_REG, Extended(source.as_32(), "uxtw")),
               klass)


def guarded_mem(offset_reg: Reg) -> Mem:
    """The zero-instruction guard addressing mode ``[x21, wN, uxtw]``."""
    return Mem(BASE_REG, Extended(offset_reg.as_32(), "uxtw"))


def x30_guard() -> Instruction:
    """Re-establish the link-register invariant after a restore (§4.2)."""
    return tag(ins("add", X[30], BASE_REG, Extended(X[30].as_32(), "uxtw")),
               "x30")


def sp_guard_pair() -> List[Instruction]:
    """The two-instruction stack pointer guard (§4.2).

    ``sp`` cannot be an operand of the zero-extending add, so the
    zero-extension moves into ``x22`` (whose invariant makes the following
    plain add safe) — saving one cycle over the extended-register add::

        mov w22, wsp
        add sp, x21, x22
    """
    from ..arm64.registers import SP, WSP

    return [
        tag(ins("mov", LO32_REG.as_32(), WSP), "sp"),
        tag(ins("add", SP, BASE_REG, LO32_REG), "sp"),
    ]


def speculation_fence() -> Instruction:
    """A ``dsb`` speculation barrier: the emulator's speculative mode
    squashes any transient window that reaches one (DESIGN.md §16)."""
    return tag(ins("dsb"), "fence")


def poison_update(condition: str) -> Instruction:
    """Set the poison register on the transient fall-through of ``b.cond``.

    Placed immediately after a conditional branch::

        b.cond  target
        csinv   x25, x25, xzr, !cond

    On the architectural fall-through ``cond`` is false, the inverted
    condition selects ``x25`` and the register stays zero.  When the
    fall-through executes *transiently* (the branch was actually taken),
    ``cond`` holds, the inverted condition fails, and ``x25`` becomes
    ``~xzr`` — all ones — until the squash rolls it back.  ``csinv``
    leaves the flags untouched, so the branch context survives.
    """
    return tag(ins("csinv", POISON_REG, POISON_REG, XZR,
                   Cond(invert_condition(condition))), "mask")


def masked_guard_address(source: Reg, dest: Reg = SCRATCH_REG,
                         ) -> List[Instruction]:
    """The speculation-masked guard (§16)::

        bic  w18, wN, w25
        add  x18, x21, w18, uxtw

    Architecturally ``x25`` is zero and this is the plain §3 guard.  On a
    poisoned transient path the ``bic`` clears every index bit, so the
    access collapses to the constant address ``x21`` — the wrong-path
    footprint carries no secret-dependent bits.
    """
    return [
        tag(ins("bic", dest.as_32(), source.as_32(), POISON_REG.as_32()),
            "mask"),
        tag(ins("add", dest, BASE_REG, Extended(dest.as_32(), "uxtw")),
            "memory"),
    ]


def _with_mem(inst: Instruction, mem: Mem) -> Instruction:
    """Copy of ``inst`` with its memory operand replaced."""
    ops = tuple(mem if isinstance(op, Mem) else op for op in inst.operands)
    return Instruction(inst.mnemonic, ops, inst.line)


def _offset_add(base: Reg, offset, dest: Reg = LO32_REG) -> Instruction:
    """One 32-bit add computing base+offset into w22 (Table 3 rows 2,5-7)."""
    w_dest = dest.as_32()
    w_base = base.as_32()
    if isinstance(offset, Imm):
        if offset.value < 0:
            return tag(ins("sub", w_dest, w_base, Imm(-offset.value)),
                       "memory")
        return tag(ins("add", w_dest, w_base, offset), "memory")
    if isinstance(offset, Reg):
        return tag(ins("add", w_dest, w_base, offset.as_32()), "memory")
    if isinstance(offset, Shifted):
        return tag(ins("add", w_dest, w_base,
                       Shifted(offset.reg.as_32(), offset.kind,
                               offset.amount)), "memory")
    if isinstance(offset, Extended):
        # At 32-bit width, uxtw/sxtw with shift reduce to an lsl of the w
        # register (addresses are taken mod 2**32 by the guard anyway).
        return tag(ins("add", w_dest, w_base,
                       Shifted(offset.reg.as_32(), "lsl",
                               offset.amount or 0)), "memory")
    raise _GuardError(f"unsupported offset {offset!r}")


def transform_memory_guarded(inst: Instruction) -> List[Instruction]:
    """Table 3: rewrite a basic load/store to use the guarded addressing
    mode.  Only valid for mnemonics with full addressing-mode support."""
    mem = inst.mem
    if mem is None:
        raise _GuardError(f"not a memory instruction: {inst}")
    base = mem.base
    assert inst.mnemonic in isa.FULL_ADDRESSING

    if mem.mode == PRE_INDEX:
        # add xN, xN, #i ; op [x21, wN, uxtw]
        return [
            _pre_post_add(base, mem.imm_value),
            _with_mem(inst, guarded_mem(base)),
        ]
    if mem.mode == POST_INDEX:
        # op [x21, wN, uxtw] ; add xN, xN, #i
        return [
            _with_mem(inst, guarded_mem(base)),
            _pre_post_add(base, mem.imm_value),
        ]
    offset = mem.offset
    if offset is None or (isinstance(offset, Imm) and offset.value == 0):
        # ldr rt, [xN]  ->  ldr rt, [x21, wN, uxtw]      (0 extra cycles)
        return [_with_mem(inst, guarded_mem(base))]
    # All remaining forms: one 32-bit add into w22, then the guarded access.
    return [
        _offset_add(base, offset),
        _with_mem(inst, guarded_mem(LO32_REG)),
    ]


def _pre_post_add(base: Reg, imm: int) -> Instruction:
    if imm < 0:
        return ins("sub", base, base, Imm(-imm))
    return ins("add", base, base, Imm(imm))


def transform_memory_basic(inst: Instruction) -> List[Instruction]:
    """The basic-guard transformation (§3), used at O0 and for pair /
    exclusive / unscaled instructions at every level.

    Writeback is never performed on the scratch register (its invariant
    must hold unconditionally), so pre/post-index forms split the base
    update into a separate add on the original register.
    """
    mem = inst.mem
    if mem is None:
        raise _GuardError(f"not a memory instruction: {inst}")
    base = mem.base

    if mem.mode == PRE_INDEX:
        return [
            _pre_post_add(base, mem.imm_value),
            guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG)),
        ]
    if mem.mode == POST_INDEX:
        return [
            guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG)),
            _pre_post_add(base, mem.imm_value),
        ]
    offset = mem.offset
    if offset is None:
        return [guard_address(base), _with_mem(inst, Mem(SCRATCH_REG))]
    if isinstance(offset, Imm):
        # Immediates ride along: the guard regions cover them (§3).
        if inst.mnemonic in isa.BASE_ONLY_MEMORY and offset.value:
            raise _GuardError(f"{inst}: immediate not allowed")
        return [
            guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG, offset)),
        ]
    # Register offsets: fold into w22 first, then guard w22.
    return [
        _offset_add(base, offset),
        guard_address(LO32_REG),
        _with_mem(inst, Mem(SCRATCH_REG)),
    ]


def transform_memory_masked(inst: Instruction) -> List[Instruction]:
    """The mask-hardened memory transformation (§16).

    Mirrors :func:`transform_memory_basic` but materializes the address
    through the poison-masked guard, so every non-sp access keeps its
    index clearable on transient paths.  Immediate displacements ride
    along (a poisoned access lands at ``x21 + imm`` — constant, and
    covered by the guard regions like any §3 immediate).
    """
    mem = inst.mem
    if mem is None:
        raise _GuardError(f"not a memory instruction: {inst}")
    base = mem.base

    if mem.mode == PRE_INDEX:
        return [
            _pre_post_add(base, mem.imm_value),
            *masked_guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG)),
        ]
    if mem.mode == POST_INDEX:
        return [
            *masked_guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG)),
            _pre_post_add(base, mem.imm_value),
        ]
    offset = mem.offset
    if offset is None:
        return [*masked_guard_address(base), _with_mem(inst, Mem(SCRATCH_REG))]
    if isinstance(offset, Imm):
        if inst.mnemonic in isa.BASE_ONLY_MEMORY and offset.value:
            raise _GuardError(f"{inst}: immediate not allowed")
        return [
            *masked_guard_address(base),
            _with_mem(inst, Mem(SCRATCH_REG, offset)),
        ]
    # Register offsets: fold into w22 first, then mask-guard w22.
    return [
        _offset_add(base, offset),
        *masked_guard_address(LO32_REG),
        _with_mem(inst, Mem(SCRATCH_REG)),
    ]


def transform_indirect_branch(inst: Instruction) -> List[Instruction]:
    """Guard ``br``/``blr``/``ret`` through the scratch register (§3)."""
    target = inst.operands[0] if inst.operands else X[30]
    if not isinstance(target, Reg):
        raise _GuardError(f"bad indirect branch {inst}")
    return [
        guard_address(target, klass="branch"),
        ins(inst.mnemonic, SCRATCH_REG),
    ]
