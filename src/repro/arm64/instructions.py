"""The Instruction IR shared by the parser, rewriter, verifier, and emulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import isa
from .operands import (
    Cond,
    Extended,
    FloatImm,
    Imm,
    Label,
    Mem,
    Operand,
    Shifted,
    VecReg,
)
from .registers import LR, Reg


@dataclass
class Instruction:
    """One assembly instruction: a mnemonic plus parsed operands.

    The mnemonic is stored lowercase and includes any condition suffix
    (``b.eq``); :attr:`base` strips the suffix.  Source location is kept for
    diagnostics when parsing user assembly.
    """

    mnemonic: str
    operands: Tuple[Operand, ...] = ()
    line: Optional[int] = None
    #: Guard provenance: the guard class (``memory``/``branch``/``sp``/
    #: ``x30``/``hoist``) when this instruction was *inserted by the
    #: rewriter* as SFI overhead, else ``None`` (application code).  The
    #: assembler turns this into an address->class map that rides along in
    #: the ELF so the obs profiler can attribute cycles (DESIGN.md §15).
    #: Excluded from equality so tagged output still compares equal to the
    #: plain instructions tests construct.
    guard: Optional[str] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(str(op) for op in self.operands)

    def __repr__(self) -> str:
        return f"Instruction({self})"

    # -- classification ----------------------------------------------------

    @property
    def base(self) -> str:
        """Mnemonic without a condition suffix (``b.eq`` -> ``b``)."""
        if self.mnemonic.startswith("b."):
            return "b"
        return self.mnemonic

    @property
    def is_load(self) -> bool:
        return isa.is_load(self.mnemonic)

    @property
    def is_store(self) -> bool:
        return isa.is_store(self.mnemonic)

    @property
    def is_memory(self) -> bool:
        return isa.is_memory(self.mnemonic)

    @property
    def is_branch(self) -> bool:
        return isa.is_branch(self.mnemonic)

    @property
    def is_indirect_branch(self) -> bool:
        return isa.is_indirect_branch(self.mnemonic)

    @property
    def is_call(self) -> bool:
        return self.mnemonic in isa.CALLS

    # -- operand accessors --------------------------------------------------

    @property
    def mem(self) -> Optional[Mem]:
        """The memory operand of a load/store, or None."""
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    @property
    def transfer_regs(self) -> List[Reg]:
        """Registers moved to/from memory by a load/store (rt, and rt2)."""
        regs: List[Reg] = []
        for op in self.operands:
            if isinstance(op, Mem):
                break
            if isinstance(op, Reg):
                regs.append(op)
        return regs

    def defs(self) -> List[Reg]:
        """Architectural register destinations written by this instruction.

        Flags (NZCV) are not modeled here.  Memory is not a register.  The
        list is what the verifier needs to police reserved-register writes.
        """
        m = self.mnemonic
        out: List[Reg] = []
        if isa.is_memory(m):
            if isa.is_load(m):
                out.extend(self.transfer_regs)
            elif m in ("stxr", "stlxr"):
                # First operand is the 32-bit status register.
                first = self.operands[0]
                if isinstance(first, Reg):
                    out.append(first)
            mem = self.mem
            if mem is not None and mem.writes_back:
                out.append(mem.base)
            return out
        if m in ("bl", "blr"):
            return [LR]
        if isa.is_branch(m):
            return []
        if m in isa.FLAG_ONLY:
            return []
        if m in isa.UNSAFE_SYSTEM or m in isa.SAFE_SYSTEM:
            return []
        # Data-processing / FP / SIMD: first register-like operand is dest.
        if self.operands:
            first = self.operands[0]
            if isinstance(first, Reg):
                return [first]
            if isinstance(first, VecReg):
                return [first.reg]
        return []

    def uses(self) -> List[Reg]:
        """Registers read by this instruction (approximate, conservative)."""
        m = self.mnemonic
        defs = set(self.defs())
        out: List[Reg] = []

        def add(reg: Reg) -> None:
            out.append(reg)

        for i, op in enumerate(self.operands):
            if isinstance(op, Reg):
                if i == 0 and op in defs and not isa.is_store(m):
                    # Pure destination (except stores, where rt is a source,
                    # and movk, which read-modify-writes its destination).
                    if m == "movk":
                        add(op)
                    continue
                add(op)
            elif isinstance(op, VecReg):
                if not (i == 0 and op.reg in defs):
                    add(op.reg)
            elif isinstance(op, (Shifted, Extended)):
                add(op.reg)
            elif isinstance(op, Mem):
                add(op.base)
                r = op.offset_reg
                if r is not None:
                    add(r)
        if m == "ret" and not self.operands:
            add(LR)
        return out

    def branch_target(self) -> Optional[Label]:
        """The label of a direct branch, or None."""
        for op in self.operands:
            if isinstance(op, Label):
                return op
        return None


def ins(mnemonic: str, *operands: Operand, line: Optional[int] = None) -> Instruction:
    """Convenience constructor used heavily by the rewriter and generators."""
    return Instruction(mnemonic.lower(), tuple(operands), line)


def access_bytes(inst: Instruction) -> int:
    """Bytes touched per transfer register by a load/store instruction."""
    m = inst.mnemonic
    if m in ("ldrb", "strb", "ldrsb"):
        return 1
    if m in ("ldrh", "strh", "ldrsh"):
        return 2
    if m == "ldrsw":
        return 4
    regs = inst.transfer_regs
    if not regs:
        raise ValueError(f"not a memory instruction: {inst}")
    return max(1, regs[0].bits // 8)


def total_access_bytes(inst: Instruction) -> int:
    """Total bytes touched by the access (both registers of a pair)."""
    per = access_bytes(inst)
    if inst.mnemonic in isa.PAIR_MEMORY:
        return per * 2
    return per
