"""ARMv8.0 machine-code encoder for the supported instruction subset.

Instructions are encoded to genuine AArch64 32-bit words (little-endian in
memory).  Alias mnemonics (``mov``, ``cmp``, ``lsl``-immediate, ``cset``,
``mul``, ...) are canonicalized to their underlying encodings, exactly as a
real assembler would, so the verifier always sees real machine code.

Label operands are resolved through a ``symbols`` mapping (name -> absolute
address) supplied by the assembler's layout pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from . import isa
from .instructions import Instruction
from .operands import (
    CONDITION_CODES,
    Cond,
    Extended,
    FloatImm,
    Imm,
    Label,
    Mem,
    OFFSET,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    ShiftedImm,
    VecReg,
    canonical_condition,
    invert_condition,
)
from .registers import INDEX_31, LR, Reg, SP, WSP, WZR, XZR

__all__ = ["EncodeError", "encode_instruction", "encode_bitmask",
           "encode_fp8", "reencode_word"]


class EncodeError(ValueError):
    """Raised when an instruction cannot be encoded."""


def _mask(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _signed_fits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


def _check_signed(value: int, bits: int, what: str) -> int:
    if not _signed_fits(value, bits):
        raise EncodeError(f"{what} {value} does not fit in {bits} signed bits")
    return _mask(value, bits)


def _check_unsigned(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise EncodeError(f"{what} {value} does not fit in {bits} unsigned bits")
    return value


# ---------------------------------------------------------------------------
# Bitmask immediates (logical-immediate N/immr/imms encoding)
# ---------------------------------------------------------------------------

def encode_bitmask(value: int, width: int) -> Optional[Tuple[int, int, int]]:
    """Encode ``value`` as a logical (bitmask) immediate.

    Returns (N, immr, imms) or None if the value is not encodable.  A bitmask
    immediate is a repetition of an element of size 2/4/8/16/32/64 bits, each
    element being a rotated run of ones (neither all-0 nor all-1).
    """
    value &= (1 << width) - 1
    if value == 0 or value == (1 << width) - 1:
        return None
    # Smallest element size whose repetition reproduces the value.
    element = value
    size = width
    for candidate in (2, 4, 8, 16, 32, 64):
        if candidate > width:
            break
        mask = (1 << candidate) - 1
        piece = value & mask
        repeated = 0
        for pos in range(0, width, candidate):
            repeated |= piece << pos
        if repeated == value:
            size, element = candidate, piece
            break
    mask = (1 << size) - 1
    ones = bin(element).count("1")
    run = (1 << ones) - 1
    # Find the rotation such that element == ROR(run, immr).
    for rotation in range(size):
        rotated = ((element >> rotation) | (element << (size - rotation))) & mask
        if rotated == run:
            immr = (size - rotation) % size
            n = 1 if size == 64 else 0
            imms = ((~((size << 1) - 1)) & 0x3F) | (ones - 1)
            return n, immr, imms
    return None


def decode_bitmask(n: int, immr: int, imms: int, width: int) -> Optional[int]:
    """Inverse of :func:`encode_bitmask`; None if the fields are invalid."""
    if n == 1:
        size = 64
    else:
        inverted = (~imms) & 0x3F
        if inverted == 0:
            return None
        size = 1 << (inverted.bit_length() - 1)
    if size > width:
        return None
    ones = (imms & (size - 1)) + 1
    if ones >= size:
        return None
    if immr >= size:
        return None  # non-canonical rotation
    pattern = (1 << ones) - 1
    rot = immr % size
    pattern = ((pattern >> rot) | (pattern << (size - rot))) & ((1 << size) - 1)
    result = 0
    for pos in range(0, width, size):
        result |= pattern << pos
    return result


# ---------------------------------------------------------------------------
# FP8 immediates (fmov scalar immediate)
# ---------------------------------------------------------------------------

def decode_fp8(imm8: int) -> float:
    sign = -1.0 if (imm8 >> 7) & 1 else 1.0
    mantissa = imm8 & 0xF
    # Standard VFPExpandImm: exponent = UInt(NOT(b):c:d) - 3
    b = (imm8 >> 6) & 1
    cd = (imm8 >> 4) & 0x3
    exp = (((b ^ 1) << 2) | cd) - 3
    return sign * (1.0 + mantissa / 16.0) * (2.0 ** exp)


_FP8_TABLE = {decode_fp8(i): i for i in range(255, -1, -1)}


def encode_fp8(value: float) -> Optional[int]:
    """The imm8 encoding of an fmov-able float, or None."""
    return _FP8_TABLE.get(value)


# ---------------------------------------------------------------------------
# Helpers for operand fields
# ---------------------------------------------------------------------------

_EXTEND_OPTION = {
    "uxtb": 0, "uxth": 1, "uxtw": 2, "uxtx": 3,
    "sxtb": 4, "sxth": 5, "sxtw": 6, "sxtx": 7,
}
_SHIFT_TYPE = {"lsl": 0, "lsr": 1, "asr": 2, "ror": 3}


def _cond_value(name: str) -> int:
    return CONDITION_CODES.index(canonical_condition(name))


def _gpr(reg: Reg, what: str, allow_sp: bool = False, allow_zr: bool = True) -> int:
    if reg.is_sp:
        if not allow_sp:
            raise EncodeError(f"{what}: sp not allowed here")
        return INDEX_31
    if reg.is_zero:
        if not allow_zr:
            raise EncodeError(f"{what}: zr not allowed here")
        return INDEX_31
    if not reg.is_gpr:
        raise EncodeError(f"{what}: expected general register, got {reg}")
    return reg.index


def _vreg(reg, what: str) -> int:
    if isinstance(reg, VecReg):
        return reg.reg.index
    if isinstance(reg, Reg) and reg.is_vector:
        return reg.index
    raise EncodeError(f"{what}: expected SIMD&FP register, got {reg}")


class _Ctx:
    """Encoding context: pc of the instruction and the symbol table."""

    def __init__(self, pc: int, symbols: Optional[Dict[str, int]]):
        self.pc = pc
        self.symbols = symbols or {}

    def resolve(self, label: Label) -> int:
        if label.name not in self.symbols:
            raise EncodeError(f"undefined symbol: {label.name}")
        return self.symbols[label.name] + label.addend

    def target_value(self, op, what: str) -> int:
        """Absolute target address from a Label or Imm operand."""
        if isinstance(op, Label):
            return self.resolve(op)
        if isinstance(op, Imm) and op.reloc is None:
            return op.value
        raise EncodeError(f"{what}: expected label or address, got {op}")

    def imm_value(self, op: Imm) -> int:
        if op.reloc == "lo12":
            if op.symbol is None or op.symbol not in self.symbols:
                raise EncodeError(f"undefined :lo12: symbol {op.symbol!r}")
            return (self.symbols[op.symbol] + op.value) & 0xFFF
        return op.value


# ---------------------------------------------------------------------------
# Encoders by class
# ---------------------------------------------------------------------------

def _enc_addsub_imm(sf: int, op: int, s: int, rd: int, rn: int, imm: int) -> int:
    sh = 0
    if imm & 0xFFF == 0 and imm != 0 and imm <= 0xFFF000:
        sh, imm = 1, imm >> 12
    _check_unsigned(imm, 12, "add/sub immediate")
    return (
        (sf << 31) | (op << 30) | (s << 29) | (0b100010 << 23) | (sh << 22)
        | (imm << 10) | (rn << 5) | rd
    )


def _enc_addsub_shifted(
    sf: int, op: int, s: int, rd: int, rn: int, rm: int, shift: int, amount: int
) -> int:
    _check_unsigned(amount, 6, "shift amount")
    return (
        (sf << 31) | (op << 30) | (s << 29) | (0b01011 << 24) | (shift << 22)
        | (rm << 16) | (amount << 10) | (rn << 5) | rd
    )


def _enc_addsub_extended(
    sf: int, op: int, s: int, rd: int, rn: int, rm: int, option: int, amount: int
) -> int:
    _check_unsigned(amount, 3, "extend shift")
    return (
        (sf << 31) | (op << 30) | (s << 29) | (0b01011001 << 21)
        | (rm << 16) | (option << 13) | (amount << 10) | (rn << 5) | rd
    )


def _enc_logical_shifted(
    sf: int, opc: int, n: int, rd: int, rn: int, rm: int, shift: int, amount: int
) -> int:
    _check_unsigned(amount, 6, "shift amount")
    return (
        (sf << 31) | (opc << 29) | (0b01010 << 24) | (shift << 22) | (n << 21)
        | (rm << 16) | (amount << 10) | (rn << 5) | rd
    )


def _enc_logical_imm(sf: int, opc: int, rd: int, rn: int, value: int) -> int:
    width = 64 if sf else 32
    fields = encode_bitmask(value, width)
    if fields is None:
        raise EncodeError(f"value {value:#x} is not a valid bitmask immediate")
    n, immr, imms = fields
    if sf == 0 and n == 1:
        raise EncodeError("64-bit bitmask immediate with 32-bit register")
    return (
        (sf << 31) | (opc << 29) | (0b100100 << 23) | (n << 22) | (immr << 16)
        | (imms << 10) | (rn << 5) | rd
    )


def _enc_movewide(sf: int, opc: int, rd: int, imm16: int, hw: int) -> int:
    _check_unsigned(imm16, 16, "move-wide immediate")
    if hw % 16 != 0 or hw // 16 > (3 if sf else 1):
        raise EncodeError(f"bad move-wide shift {hw}")
    return (
        (sf << 31) | (opc << 29) | (0b100101 << 23) | ((hw // 16) << 21)
        | (imm16 << 5) | rd
    )


def _enc_bitfield(sf: int, opc: int, rd: int, rn: int, immr: int, imms: int) -> int:
    n = sf
    return (
        (sf << 31) | (opc << 29) | (0b100110 << 23) | (n << 22) | (immr << 16)
        | (imms << 10) | (rn << 5) | rd
    )


def _enc_dp2(sf: int, rd: int, rn: int, rm: int, opcode: int) -> int:
    return (
        (sf << 31) | (0b0011010110 << 21) | (rm << 16) | (opcode << 10)
        | (rn << 5) | rd
    )


def _enc_dp3(
    sf: int, op31: int, o0: int, rd: int, rn: int, rm: int, ra: int
) -> int:
    return (
        (sf << 31) | (0b0011011 << 24) | (op31 << 21) | (rm << 16) | (o0 << 15)
        | (ra << 10) | (rn << 5) | rd
    )


def _enc_dp1(sf: int, rd: int, rn: int, opcode: int) -> int:
    return (
        (sf << 31) | (0b1011010110 << 21) | (opcode << 10) | (rn << 5) | rd
    )


def _enc_condsel(
    sf: int, op: int, op2: int, rd: int, rn: int, rm: int, cond: int
) -> int:
    return (
        (sf << 31) | (op << 30) | (0b011010100 << 21) | (rm << 16)
        | (cond << 12) | (op2 << 10) | (rn << 5) | rd
    )


def _enc_ldst_unsigned(
    size: int, v: int, opc: int, rt: int, rn: int, imm12: int
) -> int:
    _check_unsigned(imm12, 12, "ldr/str offset")
    return (
        (size << 30) | (0b111 << 27) | (v << 26) | (0b01 << 24) | (opc << 22)
        | (imm12 << 10) | (rn << 5) | rt
    )


def _enc_ldst_regoffset(
    size: int, v: int, opc: int, rt: int, rn: int, rm: int, option: int, s: int
) -> int:
    return (
        (size << 30) | (0b111 << 27) | (v << 26) | (opc << 22) | (1 << 21)
        | (rm << 16) | (option << 13) | (s << 12) | (0b10 << 10) | (rn << 5) | rt
    )


def _enc_ldst_imm9(
    size: int, v: int, opc: int, rt: int, rn: int, imm9: int, mode_bits: int
) -> int:
    imm9 = _check_signed(imm9, 9, "ldr/str pre/post offset")
    return (
        (size << 30) | (0b111 << 27) | (v << 26) | (opc << 22) | (imm9 << 12)
        | (mode_bits << 10) | (rn << 5) | rt
    )


def _enc_ldst_pair(
    opc: int, v: int, mode: int, load: int, rt: int, rt2: int, rn: int, imm7: int
) -> int:
    imm7 = _check_signed(imm7, 7, "ldp/stp offset")
    return (
        (opc << 30) | (0b101 << 27) | (v << 26) | (mode << 23) | (load << 22)
        | (imm7 << 15) | (rt2 << 10) | (rn << 5) | rt
    )


def _enc_exclusive(
    size: int, o2: int, load: int, o1: int, rs: int, o0: int, rt2: int,
    rn: int, rt: int,
) -> int:
    return (
        (size << 30) | (0b001000 << 24) | (o2 << 23) | (load << 22) | (o1 << 21)
        | (rs << 16) | (o0 << 15) | (rt2 << 10) | (rn << 5) | rt
    )


# ---------------------------------------------------------------------------
# Mnemonic dispatch
# ---------------------------------------------------------------------------

def encode_instruction(
    inst: Instruction, pc: int = 0, symbols: Optional[Dict[str, int]] = None
) -> int:
    """Encode one instruction to its 32-bit ARMv8 word."""
    ctx = _Ctx(pc, symbols)
    m = inst.mnemonic
    ops = inst.operands
    try:
        if m.startswith("b.") or m in ("b", "bl"):
            return _encode_branch(m, ops, ctx)
        if m in ("br", "blr", "ret"):
            return _encode_branch_reg(m, ops)
        if m in ("cbz", "cbnz"):
            return _encode_cb(m, ops, ctx)
        if m in ("tbz", "tbnz"):
            return _encode_tb(m, ops, ctx)
        if m in ("adr", "adrp"):
            return _encode_adr(m, ops, ctx)
        if isa.is_memory(m):
            return _encode_memory(m, ops, ctx)
        if m in isa.WIDE_MOVES:
            return _encode_movewide(m, ops)
        if m == "mov":
            return _encode_mov(ops)
        if m in isa.FP or m in isa.SIMD_ONLY or _is_vector_inst(inst):
            return _encode_fp_simd(m, ops, ctx)
        if m in isa.DATA_PROCESSING:
            return _encode_dataproc(m, ops, ctx)
        if m in isa.SYSTEM:
            return _encode_system(m, ops)
    except EncodeError as exc:
        raise EncodeError(f"{inst}: {exc}") from None
    raise EncodeError(f"unsupported mnemonic: {inst}")


def _is_vector_inst(inst: Instruction) -> bool:
    return any(isinstance(op, VecReg) for op in inst.operands)


def _sf_of(reg: Reg) -> int:
    return 1 if reg.bits == 64 else 0


def _branch_offset(op, m: str, ctx: _Ctx, bits: int) -> int:
    """The ``bits``-wide signed word offset from ``ctx.pc`` to ``op``."""
    offset = ctx.target_value(op, m) - ctx.pc
    if offset % 4:
        raise EncodeError("misaligned branch target")
    return _check_signed(offset // 4, bits, "branch offset")


def _encode_branch(m: str, ops, ctx: _Ctx) -> int:
    if m in ("b", "bl"):
        imm26 = _branch_offset(ops[0], m, ctx, 26)
        op = 1 if m == "bl" else 0
        return (op << 31) | (0b00101 << 26) | imm26
    cond = _cond_value(isa.branch_condition(m))
    imm19 = _branch_offset(ops[0], m, ctx, 19)
    return (0b01010100 << 24) | (imm19 << 5) | cond


def _encode_branch_reg(m: str, ops) -> int:
    opc = {"br": 0b0000, "blr": 0b0001, "ret": 0b0010}[m]
    if ops:
        rn = _gpr(ops[0], m)
    elif m == "ret":
        rn = LR.index
    else:
        raise EncodeError(f"{m} needs a register")
    return (0b1101011 << 25) | (opc << 21) | (0b11111 << 16) | (rn << 5)


def _encode_cb(m: str, ops, ctx: _Ctx) -> int:
    rt = ops[0]
    sf = _sf_of(rt)
    imm19 = _branch_offset(ops[1], m, ctx, 19)
    op = 1 if m == "cbnz" else 0
    return (
        (sf << 31) | (0b011010 << 25) | (op << 24) | (imm19 << 5)
        | _gpr(rt, m)
    )


def _encode_tb(m: str, ops, ctx: _Ctx) -> int:
    rt, bit, label = ops
    if not isinstance(bit, Imm):
        raise EncodeError("tbz/tbnz bit must be immediate")
    bitpos = _check_unsigned(bit.value, 6, "bit position")
    imm14 = _branch_offset(label, m, ctx, 14)
    op = 1 if m == "tbnz" else 0
    b5 = (bitpos >> 5) & 1
    b40 = bitpos & 0x1F
    return (
        (b5 << 31) | (0b011011 << 25) | (op << 24) | (b40 << 19) | (imm14 << 5)
        | _gpr(rt, m)
    )


def _encode_adr(m: str, ops, ctx: _Ctx) -> int:
    rd = _gpr(ops[0], m)
    target = ctx.target_value(ops[1], m)
    if m == "adrp":
        delta = (target >> 12) - (ctx.pc >> 12)
        imm = _check_signed(delta, 21, "adrp page offset")
        op = 1
    else:
        imm = _check_signed(target - ctx.pc, 21, "adr offset")
        op = 0
    immlo = imm & 0x3
    immhi = (imm >> 2) & 0x7FFFF
    return (op << 31) | (immlo << 29) | (0b10000 << 24) | (immhi << 5) | rd


def _encode_movewide(m: str, ops) -> int:
    rd = ops[0]
    sf = _sf_of(rd)
    opc = {"movn": 0b00, "movz": 0b10, "movk": 0b11}[m]
    imm_op = ops[1]
    if isinstance(imm_op, ShiftedImm):
        return _enc_movewide(sf, opc, _gpr(rd, m), imm_op.value, imm_op.shift)
    if isinstance(imm_op, Imm):
        return _enc_movewide(sf, opc, _gpr(rd, m), imm_op.value, 0)
    raise EncodeError(f"{m} needs an immediate")


def _encode_mov(ops) -> int:
    rd, src = ops
    sf = _sf_of(rd)
    if isinstance(src, Reg):
        if rd.is_sp or src.is_sp:
            # mov to/from sp is an alias of add #0.
            return _enc_addsub_imm(
                sf, 0, 0, _gpr(rd, "mov", allow_sp=True),
                _gpr(src, "mov", allow_sp=True), 0,
            )
        return _enc_logical_shifted(
            sf, 0b01, 0, _gpr(rd, "mov"), INDEX_31, _gpr(src, "mov"), 0, 0
        )
    if isinstance(src, ShiftedImm):
        return _enc_movewide(sf, 0b10, _gpr(rd, "mov"), src.value, src.shift)
    if isinstance(src, Imm):
        value = src.value
        width = 64 if sf else 32
        uvalue = value & ((1 << width) - 1)
        # movz with a shift?
        for hw in range(0, width // 16):
            if uvalue & ~(0xFFFF << (hw * 16)) == 0:
                return _enc_movewide(
                    sf, 0b10, _gpr(rd, "mov"), (uvalue >> (hw * 16)) & 0xFFFF,
                    hw * 16,
                )
        inv = (~uvalue) & ((1 << width) - 1)
        for hw in range(0, width // 16):
            if inv & ~(0xFFFF << (hw * 16)) == 0:
                return _enc_movewide(
                    sf, 0b00, _gpr(rd, "mov"), (inv >> (hw * 16)) & 0xFFFF,
                    hw * 16,
                )
        if encode_bitmask(uvalue, width) is not None:
            return _enc_logical_imm(sf, 0b01, _gpr(rd, "mov"), INDEX_31, uvalue)
        raise EncodeError(
            f"mov immediate {value:#x} not encodable; use movz/movk"
        )
    raise EncodeError(f"bad mov operands: {ops}")


_ADDSUB = {"add": (0, 0), "adds": (0, 1), "sub": (1, 0), "subs": (1, 1)}
_LOGICAL = {
    "and": (0b00, 0), "bic": (0b00, 1),
    "orr": (0b01, 0), "orn": (0b01, 1),
    "eor": (0b10, 0), "eon": (0b10, 1),
    "ands": (0b11, 0), "bics": (0b11, 1),
}


def _encode_dataproc(m: str, ops, ctx: _Ctx) -> int:
    # Aliases that reduce to other data-processing instructions.
    if m == "cmp":
        return _encode_dataproc("subs", (_zr_like(ops[0]),) + tuple(ops), ctx)
    if m == "cmn":
        return _encode_dataproc("adds", (_zr_like(ops[0]),) + tuple(ops), ctx)
    if m == "tst":
        return _encode_dataproc("ands", (_zr_like(ops[0]),) + tuple(ops), ctx)
    if m in ("neg", "negs"):
        real = "sub" if m == "neg" else "subs"
        return _encode_dataproc(
            real, (ops[0], _zr_like(ops[0]), ops[1]) + tuple(ops[2:]), ctx
        )
    if m == "mvn":
        return _encode_dataproc(
            "orn", (ops[0], _zr_like(ops[0]), ops[1]) + tuple(ops[2:]), ctx
        )
    if m in _ADDSUB:
        return _encode_addsub(m, ops, ctx)
    if m in _LOGICAL:
        return _encode_logical(m, ops, ctx)
    if m in ("lsl", "lsr", "asr", "ror"):
        return _encode_shift_alias(m, ops)
    if m in ("ubfm", "sbfm", "bfm", "ubfx", "sbfx", "bfi", "bfxil",
             "sxtb", "sxth", "sxtw", "uxtb", "uxth"):
        return _encode_bitfield_family(m, ops)
    if m in isa.MULDIV:
        return _encode_muldiv(m, ops)
    if m in isa.CONDOPS:
        return _encode_condops(m, ops)
    if m in ("clz", "rbit", "rev", "rev16", "rev32"):
        return _encode_dp1_family(m, ops)
    raise EncodeError(f"unsupported data-processing mnemonic {m}")


def _zr_like(reg: Reg) -> Reg:
    return XZR if reg.bits == 64 else WZR


def _encode_addsub(m: str, ops, ctx: _Ctx) -> int:
    op, s = _ADDSUB[m]
    rd, rn = ops[0], ops[1]
    sf = _sf_of(rd)
    src = ops[2] if len(ops) > 2 else None
    rd_idx = _gpr(rd, m, allow_sp=(s == 0))
    rn_idx = _gpr(rn, m, allow_sp=True)
    if isinstance(src, Imm):
        value = ctx.imm_value(src)
        if value < 0:
            op ^= 1
            value = -value
        return _enc_addsub_imm(sf, op, s, rd_idx, rn_idx, value)
    if isinstance(src, Reg):
        if rd.is_sp or rn.is_sp or (src.bits != rd.bits):
            # Register add involving sp uses the extended form (lsl #0/uxtw).
            option = 0b011 if sf else 0b010
            if src.bits == 32 and rd.bits == 64:
                option = 0b010  # uxtw
            return _enc_addsub_extended(
                sf, op, s, rd_idx, rn_idx, _gpr(src, m), option, 0
            )
        return _enc_addsub_shifted(
            sf, op, s, rd_idx, _gpr(rn, m), _gpr(src, m), 0, 0
        )
    if isinstance(src, Shifted):
        if rn.is_sp or rd.is_sp:
            if src.kind != "lsl" or src.amount > 4:
                raise EncodeError("sp add/sub requires lsl #0-4")
            option = 0b011
            return _enc_addsub_extended(
                sf, op, s, rd_idx, rn_idx, _gpr(src.reg, m), option, src.amount
            )
        return _enc_addsub_shifted(
            sf, op, s, rd_idx, _gpr(rn, m), _gpr(src.reg, m),
            _SHIFT_TYPE[src.kind], src.amount,
        )
    if isinstance(src, Extended):
        option = _EXTEND_OPTION[src.kind]
        return _enc_addsub_extended(
            sf, op, s, rd_idx, rn_idx, _gpr(src.reg, m), option,
            src.amount or 0,
        )
    raise EncodeError(f"bad add/sub operands")


def _encode_logical(m: str, ops, ctx: _Ctx) -> int:
    opc, n = _LOGICAL[m]
    rd, rn = ops[0], ops[1]
    sf = _sf_of(rd)
    src = ops[2]
    allow_sp_rd = m in ("and", "orr", "eor") and rd.is_sp
    if isinstance(src, Imm):
        if n:
            raise EncodeError(f"{m} has no immediate form")
        return _enc_logical_imm(
            sf, opc, _gpr(rd, m, allow_sp=True), _gpr(rn, m), src.value
        )
    if isinstance(src, Reg):
        return _enc_logical_shifted(
            sf, opc, n, _gpr(rd, m), _gpr(rn, m), _gpr(src, m), 0, 0
        )
    if isinstance(src, Shifted):
        return _enc_logical_shifted(
            sf, opc, n, _gpr(rd, m), _gpr(rn, m), _gpr(src.reg, m),
            _SHIFT_TYPE[src.kind], src.amount,
        )
    raise EncodeError(f"bad logical operands")


def _encode_shift_alias(m: str, ops) -> int:
    rd, rn, src = ops
    sf = _sf_of(rd)
    width = 64 if sf else 32
    if isinstance(src, Imm):
        shift = src.value % width
        if m == "lsl":
            return _enc_bitfield(
                sf, 0b10, _gpr(rd, m), _gpr(rn, m),
                (width - shift) % width, width - 1 - shift,
            )
        if m == "lsr":
            return _enc_bitfield(
                sf, 0b10, _gpr(rd, m), _gpr(rn, m), shift, width - 1
            )
        if m == "asr":
            return _enc_bitfield(
                sf, 0b00, _gpr(rd, m), _gpr(rn, m), shift, width - 1
            )
        if m == "ror":
            # ROR immediate is an alias of EXTR Rd, Rn, Rn, #shift.
            n = sf
            return (
                (sf << 31) | (0b00100111 << 23) | (n << 22)
                | (_gpr(rn, m) << 16) | (shift << 10) | (_gpr(rn, m) << 5)
                | _gpr(rd, m)
            )
    if isinstance(src, Reg):
        opcode = {"lsl": 0b001000, "lsr": 0b001001, "asr": 0b001010,
                  "ror": 0b001011}[m]
        return _enc_dp2(sf, _gpr(rd, m), _gpr(rn, m), _gpr(src, m), opcode)
    raise EncodeError(f"bad shift operands")


def _encode_bitfield_family(m: str, ops) -> int:
    rd = ops[0]
    sf = _sf_of(rd)
    width = 64 if sf else 32
    if m in ("sxtb", "sxth", "sxtw"):
        rn = ops[1]
        imms = {"sxtb": 7, "sxth": 15, "sxtw": 31}[m]
        return _enc_bitfield(sf, 0b00, _gpr(rd, m), _gpr(rn, m), 0, imms)
    if m in ("uxtb", "uxth"):
        rn = ops[1]
        imms = {"uxtb": 7, "uxth": 15}[m]
        return _enc_bitfield(0, 0b10, _gpr(rd, m), _gpr(rn, m), 0, imms)
    rn = ops[1]
    opc = {"sbfm": 0b00, "sbfx": 0b00, "bfm": 0b01, "bfi": 0b01,
           "bfxil": 0b01, "ubfm": 0b10, "ubfx": 0b10}[m]
    a, b = ops[2].value, ops[3].value
    if m in ("ubfm", "sbfm", "bfm"):
        immr, imms = a, b
    elif m in ("ubfx", "sbfx", "bfxil"):
        immr, imms = a, a + b - 1
    else:  # bfi
        immr, imms = (width - a) % width, b - 1
    return _enc_bitfield(sf, opc, _gpr(rd, m), _gpr(rn, m), immr, imms)


def _encode_muldiv(m: str, ops) -> int:
    rd = ops[0]
    sf = _sf_of(rd)
    g = lambda i: _gpr(ops[i], m)
    if m == "mul":
        return _enc_dp3(sf, 0b000, 0, g(0), g(1), g(2), INDEX_31)
    if m == "mneg":
        return _enc_dp3(sf, 0b000, 1, g(0), g(1), g(2), INDEX_31)
    if m == "madd":
        return _enc_dp3(sf, 0b000, 0, g(0), g(1), g(2), g(3))
    if m == "msub":
        return _enc_dp3(sf, 0b000, 1, g(0), g(1), g(2), g(3))
    if m == "smull":
        return _enc_dp3(1, 0b001, 0, g(0), g(1), g(2), INDEX_31)
    if m == "umull":
        return _enc_dp3(1, 0b101, 0, g(0), g(1), g(2), INDEX_31)
    if m == "smulh":
        return _enc_dp3(1, 0b010, 0, g(0), g(1), g(2), INDEX_31)
    if m == "umulh":
        return _enc_dp3(1, 0b110, 0, g(0), g(1), g(2), INDEX_31)
    if m == "sdiv":
        return _enc_dp2(sf, g(0), g(1), g(2), 0b000011)
    if m == "udiv":
        return _enc_dp2(sf, g(0), g(1), g(2), 0b000010)
    raise EncodeError(f"unsupported mul/div {m}")


def _encode_condops(m: str, ops) -> int:
    rd = ops[0]
    sf = _sf_of(rd)
    g = lambda op: _gpr(op, m)
    if m in ("csel", "csinc", "csinv", "csneg"):
        cond = _cond_value(ops[3].name)
        op, op2 = {"csel": (0, 0b00), "csinc": (0, 0b01), "csinv": (1, 0b00),
                   "csneg": (1, 0b01)}[m]
        return _enc_condsel(sf, op, op2, g(ops[0]), g(ops[1]), g(ops[2]), cond)
    if m == "cset":
        cond = _cond_value(invert_condition(ops[1].name))
        return _enc_condsel(sf, 0, 0b01, g(ops[0]), INDEX_31, INDEX_31, cond)
    if m == "csetm":
        cond = _cond_value(invert_condition(ops[1].name))
        return _enc_condsel(sf, 1, 0b00, g(ops[0]), INDEX_31, INDEX_31, cond)
    if m == "cinc":
        cond = _cond_value(invert_condition(ops[2].name))
        return _enc_condsel(sf, 0, 0b01, g(ops[0]), g(ops[1]), g(ops[1]), cond)
    if m == "cneg":
        cond = _cond_value(invert_condition(ops[2].name))
        return _enc_condsel(sf, 1, 0b01, g(ops[0]), g(ops[1]), g(ops[1]), cond)
    if m in ("ccmp", "ccmn"):
        rn, src, nzcv, cond = ops
        op = 1 if m == "ccmp" else 0
        base = (
            (sf_bit(rn) << 31) | (op << 30) | (1 << 29) | (0b11010010 << 21)
            | (_cond_value(cond.name) << 12) | (_gpr(rn, m) << 5)
            | (nzcv.value & 0xF)
        )
        if isinstance(src, Imm):
            return base | (_check_unsigned(src.value, 5, "ccmp imm") << 16) | (1 << 11)
        return base | (_gpr(src, m) << 16)
    raise EncodeError(f"unsupported conditional op {m}")


def sf_bit(reg: Reg) -> int:
    return 1 if reg.bits == 64 else 0


def _encode_dp1_family(m: str, ops) -> int:
    rd, rn = ops
    sf = _sf_of(rd)
    if m == "rbit":
        opcode = 0b000000
    elif m == "rev16":
        opcode = 0b000001
    elif m == "rev32":
        opcode = 0b000010
    elif m == "rev":
        opcode = 0b000011 if sf else 0b000010
    elif m == "clz":
        opcode = 0b000100
    else:
        raise EncodeError(f"unsupported {m}")
    return _enc_dp1(sf, _gpr(rd, m), _gpr(rn, m), opcode)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

_SIZE_OPC_INT = {
    # mnemonic -> fn(reg_bits) -> (size, opc)
    "ldr": lambda bits: (0b11, 0b01) if bits == 64 else (0b10, 0b01),
    "str": lambda bits: (0b11, 0b00) if bits == 64 else (0b10, 0b00),
    "ldrb": lambda bits: (0b00, 0b01),
    "strb": lambda bits: (0b00, 0b00),
    "ldrh": lambda bits: (0b01, 0b01),
    "strh": lambda bits: (0b01, 0b00),
    "ldrsb": lambda bits: (0b00, 0b10 if bits == 64 else 0b11),
    "ldrsh": lambda bits: (0b01, 0b10 if bits == 64 else 0b11),
    "ldrsw": lambda bits: (0b10, 0b10),
    "ldur": lambda bits: (0b11, 0b01) if bits == 64 else (0b10, 0b01),
    "stur": lambda bits: (0b11, 0b00) if bits == 64 else (0b10, 0b00),
}

_FP_SIZE_OPC = {
    # reg bits -> (size, opc_load, opc_store)
    8: (0b00, 0b01, 0b00),
    16: (0b01, 0b01, 0b00),
    32: (0b10, 0b01, 0b00),
    64: (0b11, 0b01, 0b00),
    128: (0b00, 0b11, 0b10),
}


def _mem_scale(m: str, rt: Reg) -> int:
    """log2 of the access size, used to scale unsigned immediates."""
    if m in ("ldrb", "strb", "ldrsb"):
        return 0
    if m in ("ldrh", "strh", "ldrsh"):
        return 1
    if m == "ldrsw":
        return 2
    return {8: 0, 16: 1, 32: 2, 64: 3, 128: 4}[rt.bits]


def _encode_memory(m: str, ops, ctx: _Ctx) -> int:
    if m in isa.PAIR_MEMORY:
        return _encode_pair(m, ops, ctx)
    if m in isa.EXCLUSIVE_MEMORY or m in ("ldar", "stlr"):
        return _encode_exclusive_family(m, ops)
    rt = ops[0]
    mem = ops[1]
    if not isinstance(mem, Mem):
        raise EncodeError(f"{m}: expected memory operand")
    is_fp = rt.is_vector
    if is_fp:
        size, opc_l, opc_s = _FP_SIZE_OPC[rt.bits]
        opc = opc_l if isa.is_load(m) else opc_s
        v = 1
    else:
        size, opc = _SIZE_OPC_INT[m](rt.bits)
        v = 0
    rt_idx = rt.index if is_fp else _gpr(rt, m)
    rn = _gpr(mem.base, m, allow_sp=True)
    scale = _mem_scale(m, rt)

    if m in isa.UNSCALED_MEMORY:
        if mem.mode != OFFSET or mem.has_register_offset:
            raise EncodeError(f"{m} only supports [base, #imm9]")
        return _enc_ldst_imm9(size, v, opc, rt_idx, rn, mem.imm_value, 0b00)

    if mem.mode == POST_INDEX:
        return _enc_ldst_imm9(size, v, opc, rt_idx, rn, mem.imm_value, 0b01)
    if mem.mode == PRE_INDEX:
        return _enc_ldst_imm9(size, v, opc, rt_idx, rn, mem.imm_value, 0b11)

    if mem.has_register_offset:
        off = mem.offset
        if isinstance(off, Reg):
            if off.bits != 64:
                raise EncodeError("register offset must be 64-bit or extended")
            return _enc_ldst_regoffset(
                size, v, opc, rt_idx, rn, _gpr(off, m), 0b011, 0
            )
        if isinstance(off, Shifted):
            if off.kind != "lsl":
                raise EncodeError("memory shift must be lsl")
            if off.amount not in (0, scale):
                raise EncodeError(
                    f"memory lsl amount must be 0 or {scale}, got {off.amount}"
                )
            s = 1 if off.amount == scale and off.amount != 0 else 0
            return _enc_ldst_regoffset(
                size, v, opc, rt_idx, rn, _gpr(off.reg, m), 0b011, s
            )
        if isinstance(off, Extended):
            option = {"uxtw": 0b010, "sxtw": 0b110, "sxtx": 0b111}.get(off.kind)
            if option is None:
                raise EncodeError(f"bad memory extend {off.kind}")
            amount = off.amount or 0
            if amount not in (0, scale):
                raise EncodeError(
                    f"memory extend amount must be 0 or {scale}, got {amount}"
                )
            s = 1 if amount == scale and amount != 0 else 0
            return _enc_ldst_regoffset(
                size, v, opc, rt_idx, rn, _gpr(off.reg, m), option, s
            )
    # Unsigned scaled immediate (or no offset).
    imm = mem.imm_value
    if isinstance(mem.offset, Imm):
        imm = ctx.imm_value(mem.offset)
    if imm >= 0 and imm % (1 << scale) == 0:
        return _enc_ldst_unsigned(size, v, opc, rt_idx, rn, imm >> scale)
    # Fall back to unscaled (ldur/stur encoding).
    return _enc_ldst_imm9(size, v, opc, rt_idx, rn, imm, 0b00)


def _encode_pair(m: str, ops, ctx: _Ctx) -> int:
    rt, rt2, mem = ops
    if not isinstance(mem, Mem):
        raise EncodeError(f"{m}: expected memory operand")
    load = 1 if m == "ldp" else 0
    if rt.is_vector:
        v = 1
        opc = {32: 0b00, 64: 0b01, 128: 0b10}[rt.bits]
        scale = {32: 2, 64: 3, 128: 4}[rt.bits]
        rt_idx, rt2_idx = rt.index, rt2.index
    else:
        v = 0
        opc = 0b10 if rt.bits == 64 else 0b00
        scale = 3 if rt.bits == 64 else 2
        rt_idx, rt2_idx = _gpr(rt, m), _gpr(rt2, m)
    mode = {OFFSET: 0b010, PRE_INDEX: 0b011, POST_INDEX: 0b001}[mem.mode]
    imm = mem.imm_value
    if imm % (1 << scale):
        raise EncodeError(f"{m} offset {imm} not a multiple of {1 << scale}")
    return _enc_ldst_pair(
        opc, v, mode, load, rt_idx, rt2_idx,
        _gpr(mem.base, m, allow_sp=True), imm >> scale,
    )


def _encode_exclusive_family(m: str, ops) -> int:
    if m in ("stxr", "stlxr"):
        rs, rt, mem = ops
        rs_idx = _gpr(rs, m)
    else:
        rt, mem = ops
        rs_idx = INDEX_31
    if not isinstance(mem, Mem) or mem.offset is not None:
        raise EncodeError(f"{m} only supports [base]")
    size = 0b11 if rt.bits == 64 else 0b10
    rn = _gpr(mem.base, m, allow_sp=True)
    rt_idx = _gpr(rt, m)
    if m == "ldxr":
        return _enc_exclusive(size, 0, 1, 0, INDEX_31, 0, INDEX_31, rn, rt_idx)
    if m == "ldaxr":
        return _enc_exclusive(size, 0, 1, 0, INDEX_31, 1, INDEX_31, rn, rt_idx)
    if m == "stxr":
        return _enc_exclusive(size, 0, 0, 0, rs_idx, 0, INDEX_31, rn, rt_idx)
    if m == "stlxr":
        return _enc_exclusive(size, 0, 0, 0, rs_idx, 1, INDEX_31, rn, rt_idx)
    if m == "ldar":
        return _enc_exclusive(size, 1, 1, 0, INDEX_31, 1, INDEX_31, rn, rt_idx)
    if m == "stlr":
        return _enc_exclusive(size, 1, 0, 0, INDEX_31, 1, INDEX_31, rn, rt_idx)
    raise EncodeError(f"unsupported exclusive {m}")


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------

_BARRIER_CRM = {"sy": 0b1111, "ish": 0b1011, "ishld": 0b1001, "ishst": 0b1010}


def _encode_system(m: str, ops) -> int:
    if m == "nop":
        return 0xD503201F
    if m == "svc":
        imm = ops[0].value if ops else 0
        return 0xD4000001 | (_check_unsigned(imm, 16, "svc") << 5)
    if m == "brk":
        imm = ops[0].value if ops else 0
        return 0xD4200000 | (_check_unsigned(imm, 16, "brk") << 5)
    if m == "hlt":
        imm = ops[0].value if ops else 0
        return 0xD4400000 | (_check_unsigned(imm, 16, "hlt") << 5)
    if m in ("dmb", "dsb", "isb"):
        crm = 0b1111
        if ops and isinstance(ops[0], Label):
            crm = _BARRIER_CRM.get(ops[0].name.lower(), 0b1111)
        op2 = {"dsb": 0b100, "dmb": 0b101, "isb": 0b110}[m]
        return 0xD5033000 | (crm << 8) | (op2 << 5) | 0b11111
    raise EncodeError(f"unsupported system instruction {m}")


# ---------------------------------------------------------------------------
# FP and SIMD
# ---------------------------------------------------------------------------

_FP_TYPE = {32: 0b00, 64: 0b01, 16: 0b11}
_FP2_OPCODE = {
    "fmul": 0b0000, "fdiv": 0b0001, "fadd": 0b0010, "fsub": 0b0011,
    "fmax": 0b0100, "fmin": 0b0101, "fnmul": 0b1000,
}
_FP1_OPCODE = {"fmov": 0b000000, "fabs": 0b000001, "fneg": 0b000010,
               "fsqrt": 0b000011}

_ARRANGEMENT = {
    # arrangement -> (Q, size)
    "8b": (0, 0b00), "16b": (1, 0b00),
    "4h": (0, 0b01), "8h": (1, 0b01),
    "2s": (0, 0b10), "4s": (1, 0b10),
    "2d": (1, 0b11), "1d": (0, 0b11),
}


def _encode_fp_simd(m: str, ops, ctx: _Ctx) -> int:
    if ops and isinstance(ops[0], VecReg):
        return _encode_vector(m, ops)
    if m in _FP2_OPCODE and len(ops) == 3:
        rd, rn, rm = ops
        t = _FP_TYPE[rd.bits]
        return (
            (0b00011110 << 24) | (t << 22) | (1 << 21) | (_vreg(rm, m) << 16)
            | (_FP2_OPCODE[m] << 12) | (0b10 << 10) | (_vreg(rn, m) << 5)
            | _vreg(rd, m)
        )
    if m in ("fmadd", "fmsub"):
        rd, rn, rm, ra = ops
        t = _FP_TYPE[rd.bits]
        o0 = 1 if m == "fmsub" else 0
        return (
            (0b00011111 << 24) | (t << 22) | (_vreg(rm, m) << 16) | (o0 << 15)
            | (_vreg(ra, m) << 10) | (_vreg(rn, m) << 5) | _vreg(rd, m)
        )
    if m in ("fabs", "fneg", "fsqrt") or (
        m == "fmov" and len(ops) == 2 and _both_fp(ops)
    ):
        rd, rn = ops
        t = _FP_TYPE[rd.bits]
        return (
            (0b00011110 << 24) | (t << 22) | (1 << 21)
            | (_FP1_OPCODE[m] << 15) | (0b10000 << 10) | (_vreg(rn, m) << 5)
            | _vreg(rd, m)
        )
    if m == "fcvt":
        rd, rn = ops
        t = _FP_TYPE[rn.bits]
        opc = {64: 0b01, 32: 0b00, 16: 0b11}[rd.bits]
        return (
            (0b00011110 << 24) | (t << 22) | (1 << 21) | (0b0001 << 17)
            | (opc << 15) | (0b10000 << 10) | (_vreg(rn, m) << 5)
            | _vreg(rd, m)
        )
    if m in ("fcmp", "fcmpe"):
        rn = ops[0]
        t = _FP_TYPE[rn.bits]
        e_bit = 1 if m == "fcmpe" else 0
        if isinstance(ops[1], (FloatImm, Imm)):
            opcode2 = (e_bit << 4) | 0b01000
            rm = 0
        else:
            opcode2 = e_bit << 4
            rm = _vreg(ops[1], m)
        return (
            (0b00011110 << 24) | (t << 22) | (1 << 21) | (rm << 16)
            | (0b001000 << 10) | (_vreg(rn, m) << 5) | opcode2
        )
    if m == "fcsel":
        rd, rn, rm, cond = ops
        t = _FP_TYPE[rd.bits]
        return (
            (0b00011110 << 24) | (t << 22) | (1 << 21) | (_vreg(rm, m) << 16)
            | (_cond_value(cond.name) << 12) | (0b11 << 10)
            | (_vreg(rn, m) << 5) | _vreg(rd, m)
        )
    if m in ("scvtf", "ucvtf"):
        rd, rn = ops
        t = _FP_TYPE[rd.bits]
        sf = 1 if rn.bits == 64 else 0
        opcode = 0b010 if m == "scvtf" else 0b011
        return (
            (sf << 31) | (0b0011110 << 24) | (t << 22) | (1 << 21)
            | (0b00 << 19) | (opcode << 16) | (_gpr(rn, m) << 5)
            | _vreg(rd, m)
        )
    if m in ("fcvtzs", "fcvtzu"):
        rd, rn = ops
        t = _FP_TYPE[rn.bits]
        sf = 1 if rd.bits == 64 else 0
        opcode = 0b000 if m == "fcvtzs" else 0b001
        return (
            (sf << 31) | (0b0011110 << 24) | (t << 22) | (1 << 21)
            | (0b11 << 19) | (opcode << 16) | (_vreg(rn, m) << 5)
            | _gpr(rd, m)
        )
    if m == "fmov":
        rd, rn = ops
        if isinstance(rn, (FloatImm, Imm)):
            value = float(rn.value)
            imm8 = encode_fp8(value)
            if imm8 is None:
                raise EncodeError(f"fmov immediate {value} not encodable")
            t = _FP_TYPE[rd.bits]
            return (
                (0b00011110 << 24) | (t << 22) | (1 << 21) | (imm8 << 13)
                | (0b100 << 10) | _vreg(rd, m)
            )
        # General-register <-> FP moves.
        if isinstance(rd, Reg) and rd.is_vector:
            sf = 1 if rn.bits == 64 else 0
            t = _FP_TYPE[rd.bits]
            opcode = 0b111
            return (
                (sf << 31) | (0b0011110 << 24) | (t << 22) | (1 << 21)
                | (0b00 << 19) | (opcode << 16) | (_gpr(rn, m) << 5)
                | _vreg(rd, m)
            )
        sf = 1 if rd.bits == 64 else 0
        t = _FP_TYPE[rn.bits]
        opcode = 0b110
        return (
            (sf << 31) | (0b0011110 << 24) | (t << 22) | (1 << 21)
            | (0b00 << 19) | (opcode << 16) | (_vreg(rn, m) << 5)
            | _gpr(rd, m)
        )
    raise EncodeError(f"unsupported FP instruction {m}")


def _both_fp(ops) -> bool:
    return all(isinstance(op, Reg) and op.is_vector for op in ops[:2])


_VEC3_INT = {
    # mnemonic -> (U, opcode), integer three-same
    "add": (0, 0b10000), "sub": (1, 0b10000), "mul": (0, 0b10011),
}
_VEC3_LOGIC = {
    # mnemonic -> (U, size, opcode)
    "and": (0, 0b00, 0b00011), "orr": (0, 0b10, 0b00011),
    "eor": (1, 0b00, 0b00011), "bic": (0, 0b01, 0b00011),
}
_VEC3_FP = {
    # mnemonic -> (U, opcode); size = 0|sz (fadd/fmul) or 1|sz (fsub)
    "fadd": (0, 0b11010, 0), "fsub": (0, 0b11010, 1), "fmul": (1, 0b11011, 0),
    "fmax": (0, 0b11110, 0), "fmin": (0, 0b11110, 1), "fdiv": (1, 0b11111, 0),
}


def _encode_vector(m: str, ops) -> int:
    rd = ops[0]
    if not isinstance(rd, VecReg):
        raise EncodeError(f"{m}: expected vector register")
    q, size = _ARRANGEMENT[rd.arrangement]
    if m == "movi":
        imm_op = ops[1]
        value = imm_op.value if isinstance(imm_op, Imm) else int(imm_op.value)
        if rd.arrangement in ("8b", "16b"):
            imm8 = _check_unsigned(value, 8, "movi immediate")
            op = 0
        elif rd.arrangement == "2d" and value == 0:
            imm8, op = 0, 1
        else:
            raise EncodeError("movi supports 8b/16b #imm8 or 2d #0 only")
        abc = (imm8 >> 5) & 0x7
        defgh = imm8 & 0x1F
        cmode = 0b1110
        return (
            (q << 30) | (op << 29) | (0b0111100000 << 19) | (abc << 16)
            | (cmode << 12) | (1 << 10) | (defgh << 5) | rd.reg.index
        )
    if m == "dup" and isinstance(ops[1], Reg) and not ops[1].is_vector:
        rn = ops[1]
        lane = rd.arrangement[-1]
        imm5 = {"b": 0b00001, "h": 0b00010, "s": 0b00100, "d": 0b01000}[lane]
        return (
            (q << 30) | (0b001110000 << 21) | (imm5 << 16) | (0b000011 << 10)
            | (_gpr(rn, m) << 5) | rd.reg.index
        )
    rn, rm = ops[1], ops[2]
    if not (isinstance(rn, VecReg) and isinstance(rm, VecReg)):
        raise EncodeError(f"{m}: expected three vector registers")
    if m in _VEC3_INT:
        u, opcode = _VEC3_INT[m]
    elif m in _VEC3_LOGIC:
        u, size, opcode = _VEC3_LOGIC[m]
    elif m in _VEC3_FP:
        u, opcode, hi = _VEC3_FP[m]
        sz = 1 if rd.lane_bits == 64 else 0
        size = (hi << 1) | sz
    else:
        raise EncodeError(f"unsupported vector instruction {m}")
    return (
        (q << 30) | (u << 29) | (0b01110 << 24) | (size << 22) | (1 << 21)
        | (rm.reg.index << 16) | (opcode << 11) | (1 << 10)
        | (rn.reg.index << 5) | rd.reg.index
    )


def reencode_word(word: int, pc: int = 0) -> Optional[int]:
    """Decode a word and encode the result back (round-trip probe).

    Returns the re-encoded word, or None when the word is undecodable.
    The enumerator in ``repro.prove`` rests on ``reencode_word(w) == w``
    holding for every decodable word of a class: it guarantees the
    decoded IR the verifier and the abstract interpreter agree on is a
    faithful, canonical reading of the encoding.
    """
    from .decoder import decode_word

    inst = decode_word(word, pc)
    if inst is None:
        return None
    return encode_instruction(inst, pc)
