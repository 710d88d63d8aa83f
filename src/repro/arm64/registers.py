"""ARM64 register model.

ARM64 has 31 general-purpose 64-bit registers (``x0``-``x30``), a zero
register (``xzr``), and a dedicated stack pointer (``sp``).  Each 64-bit
register has a 32-bit view (``w0``-``w30``, ``wzr``, ``wsp``).  The SIMD and
floating-point register file has 32 128-bit registers (``v0``-``v31``) with
scalar views ``b``/``h``/``s``/``d``/``q`` of 8/16/32/64/128 bits.

Registers are interned: parsing the same name twice yields the same object,
so registers can be compared with ``is`` or ``==`` interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# Register-file kinds.
GPR = "gpr"  # x0-x30 / w0-w30
ZERO = "zero"  # xzr / wzr
STACK = "sp"  # sp / wsp
VECTOR = "vec"  # v/q/d/s/h/b views of the SIMD&FP file

#: Encoding index shared by the zero register and the stack pointer.
#: Which one a 0b11111 field means is determined by instruction context.
INDEX_31 = 31


@dataclass(frozen=True)
class Reg:
    """A single architectural register (a specific *view*, e.g. ``w3``)."""

    name: str
    index: int  # encoding index, 0-31
    bits: int  # width of this view in bits
    kind: str  # one of GPR, ZERO, STACK, VECTOR

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Reg({self.name})"

    @property
    def is_gpr(self) -> bool:
        """True for general-purpose registers (not sp/zr/vector)."""
        return self.kind == GPR

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    @property
    def is_sp(self) -> bool:
        return self.kind == STACK

    @property
    def is_vector(self) -> bool:
        """True for any view of the SIMD&FP register file."""
        return self.kind == VECTOR

    def as_64(self) -> "Reg":
        """The 64-bit view of this GPR/zero/sp register (``w3`` -> ``x3``)."""
        if self.is_vector:
            raise ValueError(f"{self.name} has no x-view")
        if self.kind == ZERO:
            return XZR
        if self.kind == STACK:
            return SP
        return X[self.index]

    def as_32(self) -> "Reg":
        """The 32-bit view of this GPR/zero/sp register (``x3`` -> ``w3``)."""
        if self.is_vector:
            raise ValueError(f"{self.name} has no w-view")
        if self.kind == ZERO:
            return WZR
        if self.kind == STACK:
            return WSP
        return W[self.index]


def _make_file() -> Dict[str, Reg]:
    regs: Dict[str, Reg] = {}
    for i in range(31):
        regs[f"x{i}"] = Reg(f"x{i}", i, 64, GPR)
        regs[f"w{i}"] = Reg(f"w{i}", i, 32, GPR)
    regs["xzr"] = Reg("xzr", INDEX_31, 64, ZERO)
    regs["wzr"] = Reg("wzr", INDEX_31, 32, ZERO)
    regs["sp"] = Reg("sp", INDEX_31, 64, STACK)
    regs["wsp"] = Reg("wsp", INDEX_31, 32, STACK)
    vec_bits = {"b": 8, "h": 16, "s": 32, "d": 64, "q": 128, "v": 128}
    for prefix, bits in vec_bits.items():
        for i in range(32):
            regs[f"{prefix}{i}"] = Reg(f"{prefix}{i}", i, bits, VECTOR)
    # Common aliases.
    regs["lr"] = regs["x30"]
    regs["fp"] = regs["x29"]
    return regs


_REGISTERS = _make_file()

X = [_REGISTERS[f"x{i}"] for i in range(31)]
W = [_REGISTERS[f"w{i}"] for i in range(31)]
V = [_REGISTERS[f"v{i}"] for i in range(32)]
D = [_REGISTERS[f"d{i}"] for i in range(32)]
S = [_REGISTERS[f"s{i}"] for i in range(32)]
Q = [_REGISTERS[f"q{i}"] for i in range(32)]
XZR = _REGISTERS["xzr"]
WZR = _REGISTERS["wzr"]
SP = _REGISTERS["sp"]
WSP = _REGISTERS["wsp"]
LR = _REGISTERS["x30"]


def lookup_register(name: str) -> Optional[Reg]:
    """Return the register named ``name`` (case-insensitive), or None."""
    return _REGISTERS.get(name.lower())


def parse_register(name: str) -> Reg:
    """Return the register named ``name``, raising ValueError if unknown."""
    reg = lookup_register(name)
    if reg is None:
        raise ValueError(f"unknown register: {name!r}")
    return reg


def gpr_or_zr(index: int, bits: int = 64) -> Reg:
    """Register for an encoding field where index 31 means the zero register."""
    if index == INDEX_31:
        return XZR if bits == 64 else WZR
    return X[index] if bits == 64 else W[index]


def gpr_or_sp(index: int, bits: int = 64) -> Reg:
    """Register for an encoding field where index 31 means the stack pointer."""
    if index == INDEX_31:
        return SP if bits == 64 else WSP
    return X[index] if bits == 64 else W[index]


def vec(index: int, bits: int = 128) -> Reg:
    """SIMD&FP register view of the given width."""
    prefix = {8: "b", 16: "h", 32: "s", 64: "d", 128: "q"}[bits]
    return _REGISTERS[f"{prefix}{index}"]
