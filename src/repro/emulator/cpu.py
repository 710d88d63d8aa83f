"""Architectural CPU state: general registers, sp, pc, NZCV, SIMD&FP file."""

from __future__ import annotations

from typing import List

from ..arm64.operands import Extended, Imm, Mem, POST_INDEX, PRE_INDEX, \
    Shifted, ShiftedImm, canonical_condition
from ..arm64.registers import Reg

__all__ = ["CpuState", "MASK64", "MASK32"]

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


def to_signed(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


class CpuState:
    """Registers and flags of one hardware thread.

    General registers are stored as unsigned 64-bit Python ints; vector
    registers as unsigned 128-bit ints.  Register *views* (w vs x, s vs d vs
    q) are resolved at access time from the :class:`Reg` object.
    """

    __slots__ = ("regs", "sp", "pc", "n", "z", "c", "v", "vregs",
                 "exclusive_addr")

    def __init__(self):
        self.regs: List[int] = [0] * 31
        self.sp = 0
        self.pc = 0
        self.n = 0
        self.z = 0
        self.c = 0
        self.v = 0
        self.vregs: List[int] = [0] * 32
        # Exclusive monitor (ldxr/stxr); None when clear.
        self.exclusive_addr = None

    # -- integer registers ---------------------------------------------------

    def read(self, reg: Reg) -> int:
        """Read a GPR view; zero register reads as 0, sp reads the SP."""
        if reg.is_zero:
            return 0
        if reg.is_sp:
            value = self.sp
        else:
            value = self.regs[reg.index]
        if reg.bits == 32:
            return value & MASK32
        return value

    def write(self, reg: Reg, value: int) -> None:
        """Write a GPR view; 32-bit writes zero the top half (ARM64 rule)."""
        if reg.is_zero:
            return
        value &= MASK32 if reg.bits == 32 else MASK64
        if reg.is_sp:
            self.sp = value
        else:
            self.regs[reg.index] = value

    # -- vector registers ------------------------------------------------------

    def read_v(self, reg: Reg) -> int:
        value = self.vregs[reg.index]
        if reg.bits < 128:
            value &= (1 << reg.bits) - 1
        return value

    def write_v(self, reg: Reg, value: int) -> None:
        # Scalar writes zero the rest of the 128-bit register (ARM64 rule).
        self.vregs[reg.index] = value & ((1 << reg.bits) - 1)

    # -- operand evaluation ----------------------------------------------------

    def value(self, op) -> int:
        if isinstance(op, Reg):
            return self.read(op)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, ShiftedImm):
            return op.value << op.shift
        if isinstance(op, Shifted):
            value = self.read(op.reg)
            width = op.reg.bits
            amount = op.amount % width
            if op.kind == "lsl":
                return (value << amount) & ((1 << width) - 1)
            if op.kind == "lsr":
                return value >> amount
            if op.kind == "asr":
                return to_signed(value, width) >> amount & ((1 << width) - 1)
            if op.kind == "ror":
                mask = (1 << width) - 1
                return ((value >> amount) | (value << (width - amount))) & mask
        if isinstance(op, Extended):
            return self._extended_value(op)
        raise TypeError(f"cannot evaluate operand {op!r}")

    def _extended_value(self, op: Extended) -> int:
        value = self.read(op.reg)
        kind = op.kind
        size = {"b": 8, "h": 16, "w": 32, "x": 64}[kind[-1]]
        value &= (1 << size) - 1
        if kind.startswith("s"):
            value = to_signed(value, size) & MASK64
        return (value << (op.amount or 0)) & MASK64

    def address(self, mem: Mem):
        """(access address, post-writeback value or None)."""
        base = self.read(mem.base)
        if mem.mode == POST_INDEX:
            wb = (base + mem.imm_value) & MASK64
            return base, wb
        if mem.offset is None:
            return base, None
        if isinstance(mem.offset, Imm):
            addr = (base + mem.offset.value) & MASK64
            return addr, (addr if mem.mode == PRE_INDEX else None)
        addr = (base + self.value(mem.offset)) & MASK64
        return addr, None

    # -- flags -----------------------------------------------------------------

    def set_nzcv(self, n: int, z: int, c: int, v: int) -> None:
        self.n, self.z, self.c, self.v = n, z, c, v

    def set_add_flags(self, a: int, b: int, width: int, carry_in: int = 0):
        mask = (1 << width) - 1
        raw = a + b + carry_in
        result = raw & mask
        n = (result >> (width - 1)) & 1
        z = 1 if result == 0 else 0
        c = 1 if raw > mask else 0
        sa = to_signed(a, width)
        sb = to_signed(b, width)
        sres = to_signed(result, width)
        v = 1 if (sa + sb + carry_in != sres) else 0
        self.set_nzcv(n, z, c, v)
        return result

    def set_logic_flags(self, result: int, width: int):
        n = (result >> (width - 1)) & 1
        z = 1 if result == 0 else 0
        self.set_nzcv(n, z, 0, 0)

    @property
    def nzcv(self) -> int:
        return (self.n << 3) | (self.z << 2) | (self.c << 1) | self.v

    @nzcv.setter
    def nzcv(self, value: int) -> None:
        self.n = (value >> 3) & 1
        self.z = (value >> 2) & 1
        self.c = (value >> 1) & 1
        self.v = value & 1

    def condition_holds(self, name: str) -> bool:
        cond = canonical_condition(name)
        n, z, c, v = self.n, self.z, self.c, self.v
        base = {
            "eq": z == 1,
            "ne": z == 0,
            "cs": c == 1,
            "cc": c == 0,
            "mi": n == 1,
            "pl": n == 0,
            "vs": v == 1,
            "vc": v == 0,
            "hi": c == 1 and z == 0,
            "ls": not (c == 1 and z == 0),
            "ge": n == v,
            "lt": n != v,
            "gt": z == 0 and n == v,
            "le": not (z == 0 and n == v),
            "al": True,
            "nv": True,
        }
        return base[cond]

    def snapshot(self) -> dict:
        """A copyable view of the register state (context switches)."""
        return {
            "regs": list(self.regs),
            "sp": self.sp,
            "pc": self.pc,
            "nzcv": self.nzcv,
            "vregs": list(self.vregs),
        }

    def restore(self, snap: dict) -> None:
        # In-place so that what binds the register lists (the superblock
        # engine's generated bodies) stays valid across context switches.
        self.regs[:] = snap["regs"]
        self.sp = snap["sp"]
        self.pc = snap["pc"]
        self.nzcv = snap["nzcv"]
        self.vregs[:] = snap["vregs"]

    def clone(self) -> "CpuState":
        """An independent copy of the full state (differential probes).

        Unlike :meth:`snapshot`, includes ``exclusive_addr`` — the probe
        compares complete pre/post states, not just the context-switch
        view.
        """
        other = CpuState()
        other.restore(self.snapshot())
        other.exclusive_addr = self.exclusive_addr
        return other
