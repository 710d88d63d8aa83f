"""ARMv8.0 machine-code encoder for the supported instruction subset.

Instructions are encoded to genuine AArch64 32-bit words (little-endian in
memory).  Alias mnemonics (``mov``, ``cmp``, ``lsl``-immediate, ``cset``,
``mul``, ...) are canonicalized to their underlying encodings, exactly as a
real assembler would, so the verifier always sees real machine code.

The encoder states no bit position of its own: each ``_encode_*`` function
picks a row of :data:`repro.arm64.decoder.ROWS` and computes its field
values, and :func:`_pack` ORs them into the row's ``match`` at the row's
offsets.  A value that does not fit its field raises :class:`EncodeError`,
as does an operand the decoder would read back as something else (a
register of the wrong width, an out-of-range shift or bit number), so
``decode(encode(i))`` is ``i`` up to aliases.

Label operands are resolved through a ``symbols`` mapping (name -> absolute
address) supplied by the assembler's layout pass.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import EncodeError as _EncodeError
from . import isa
from .decoder import (
    _ADDSUB_NAMES,
    _ARRANGEMENTS,
    _BARRIER_NAMES,
    _BARRIER_OPS,
    _BITFIELD_NAMES,
    _CONDSEL_NAMES,
    _DP1_NAMES,
    _DP2_NAMES,
    _DUP_ARRANGEMENTS,
    _FCVT_BITS,
    _FP1_NAMES,
    _FP2_NAMES,
    _FP_BITS,
    _FP_GPR_NAMES,
    _FP_LDST,
    _INT_LDST,
    _LOGICAL_NAMES,
    _MOVEWIDE_NAMES,
    _PAIR_BITS,
    _PAIR_MODES,
    _UNSCALED_NAMES,
    _VEC_FP,
    _VEC_INT,
    _VEC_LOGIC,
    _VEC_LOGIC_OPCODE,
    ROWS,
    decode_fp8,
    decode_word,
    row_fields,
)
from .instructions import Instruction
from .operands import (
    CONDITION_CODES,
    EXTEND_KINDS,
    SHIFT_KINDS,
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
)
from .registers import INDEX_31, LR, STACK, VECTOR, Reg, WZR, XZR

__all__ = ["encode_instruction", "encode_bitmask", "encode_fp8",
           "reencode_word"]


def _inverse(table: dict) -> dict:
    return {value: key for key, value in table.items()}


# ---------------------------------------------------------------------------
# The packer
# ---------------------------------------------------------------------------

#: row name -> (mask, match, field offsets, field widths).
_LAYOUTS = {name: (mask, match,
                   tuple(lo for _f, lo, _w in row_fields(fields)),
                   tuple(width for _f, _lo, width in row_fields(fields)))
            for name, (_group, mask, match, fields) in ROWS.items()}


def _pack(row: str, *values: int) -> int:
    """The word of encoding row ``row`` with its operand fields set to
    ``values``, given in the row's field order."""
    mask, match, offsets, widths = _LAYOUTS[row]
    word = match
    for value, lo, width in zip(values, offsets, widths, strict=True):
        if value >> width:  # negative, or wider than its field
            raise _EncodeError(_overflow(row, values))
        word |= value << lo
    if word & mask != match:
        raise _EncodeError(f"{row}: a field spills into the opcode bits")
    return word


def _overflow(row: str, values) -> str:
    """Which of ``values`` does not fit its field of ``row``."""
    name, value, width = next(
        (name, value, width) for value, (name, _lo, width)
        in zip(values, row_fields(ROWS[row][3])) if value >> width)
    return f"{name} {value} does not fit in {width} bits"


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------

def _check_signed(value: int, bits: int, what: str) -> int:
    """``value`` as a ``bits``-wide two's-complement field."""
    if not -(1 << (bits - 1)) <= value < (1 << (bits - 1)):
        raise _EncodeError(f"{what} {value} does not fit in {bits} signed bits")
    return value & ((1 << bits) - 1)


def _register_value(value: int, width: int, what: str) -> int:
    """An immediate for a ``width``-bit register: negative values wrap, as
    in ``mov w0, #-1``; values outside the register's range are refused."""
    if not -(1 << (width - 1)) <= value < (1 << width):
        raise _EncodeError(f"{what} {value:#x} does not fit a {width}-bit "
                           "register")
    return value & ((1 << width) - 1)


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


def _wide_move(value: int, width: int) -> Optional[Tuple[str, int, int]]:
    """(mnemonic, hw, imm16) of the one movz or movn that sets a
    ``width``-bit register to ``value``, or None."""
    inverted = ~value & ((1 << width) - 1)
    for mnemonic, target in (("movz", value), ("movn", inverted)):
        for hw in range(width // 16):
            if target & ~(0xFFFF << (hw * 16)) == 0:
                return mnemonic, hw, target >> (hw * 16)
    return None


_FP8_TABLE = {decode_fp8(i): i for i in range(255, -1, -1)}


def encode_fp8(value: float) -> Optional[int]:
    """The imm8 encoding of an fmov-able float, or None."""
    return _FP8_TABLE.get(value)


# ---------------------------------------------------------------------------
# Operand helpers
# ---------------------------------------------------------------------------

def _cond_value(name: str) -> int:
    try:
        return CONDITION_CODES.index(canonical_condition(name))
    except ValueError:
        raise _EncodeError(f"unknown condition {name!r}") from None


def _cond(op) -> int:
    if not isinstance(op, Cond):
        raise _EncodeError(f"expected a condition, got {op}")
    return _cond_value(op.name)


def _gpr(reg, what: str, bits: Optional[int] = None,
         allow_sp: bool = False) -> int:
    """The field value of a general register, ``bits`` wide when given."""
    if type(reg) is not Reg or reg.kind == VECTOR:
        raise _EncodeError(f"{what}: expected general register, got {reg}")
    if bits is not None and reg.bits != bits:
        raise _EncodeError(f"{what}: {reg} is not a {bits}-bit register")
    if reg.kind == STACK and not allow_sp:
        raise _EncodeError(f"{what}: sp not allowed here")
    return reg.index


def _vreg(reg, what: str, bits: Optional[int] = None) -> int:
    """The field value of a SIMD&FP register, ``bits`` wide when given."""
    if type(reg) is not Reg or reg.kind != VECTOR:
        raise _EncodeError(f"{what}: expected SIMD&FP register, got {reg}")
    if bits is not None and reg.bits != bits:
        raise _EncodeError(f"{what}: {reg} is not a {bits}-bit register")
    return reg.index


def _width(reg, what: str) -> int:
    """``sf``: 1 for a 64-bit general register, 0 for a 32-bit one."""
    if type(reg) is not Reg or reg.kind == VECTOR:
        raise _EncodeError(f"{what}: expected general register, got {reg}")
    return 1 if reg.bits == 64 else 0


def _imm(op, what: str) -> int:
    if not isinstance(op, Imm):
        raise _EncodeError(f"{what}: expected an immediate, got {op}")
    return op.value


_FP_TYPE = _inverse(_FP_BITS)


def _fp_type(reg, what: str) -> int:
    """The ``type`` field of a scalar FP register (h, s or d)."""
    _vreg(reg, what)
    if reg.bits not in _FP_TYPE:
        raise _EncodeError(f"{what}: {reg} is not an h, s or d register")
    return _FP_TYPE[reg.bits]


class _Ctx:
    """Encoding context: pc of the instruction and the symbol table."""

    def __init__(self, pc: int, symbols: Optional[Dict[str, int]]):
        self.pc = pc
        self.symbols = symbols or {}

    def resolve(self, label: Label) -> int:
        if label.name not in self.symbols:
            raise _EncodeError(f"undefined symbol: {label.name}")
        return self.symbols[label.name] + label.addend

    def target_value(self, op, what: str) -> int:
        """Absolute target address from a Label or Imm operand."""
        if isinstance(op, Label):
            return self.resolve(op)
        if isinstance(op, Imm) and op.reloc is None:
            return op.value
        raise _EncodeError(f"{what}: expected label or address, got {op}")

    def imm_value(self, op: Imm) -> int:
        if op.reloc == "lo12":
            if op.symbol is None or op.symbol not in self.symbols:
                raise _EncodeError(f"undefined :lo12: symbol {op.symbol!r}")
            return (self.symbols[op.symbol] + op.value) & 0xFFF
        return op.value


# ---------------------------------------------------------------------------
# Mnemonic dispatch
# ---------------------------------------------------------------------------

def encode_instruction(
    inst: Instruction, pc: int = 0, symbols: Optional[Dict[str, int]] = None
) -> int:
    """Encode one instruction to its 32-bit ARMv8 word."""
    m, ops = inst.mnemonic, inst.operands
    encode = _ENCODERS.get(m)
    if encode is None:
        raise _EncodeError(f"unsupported mnemonic: {inst}")
    if ops and type(ops[0]) is VecReg:
        encode = _encode_vector  # add, fadd, ... on lanes
    try:
        return encode(m, ops, _Ctx(pc, symbols))
    except _EncodeError as exc:
        raise _EncodeError(f"{inst}: {exc}") from None


def _branch_offset(op, m: str, ctx: _Ctx, bits: int) -> int:
    """The ``bits``-wide signed word offset from ``ctx.pc`` to ``op``."""
    offset = ctx.target_value(op, m) - ctx.pc
    if offset % 4:
        raise _EncodeError("misaligned branch target")
    return _check_signed(offset // 4, bits, "branch offset")


def _encode_branch(m: str, ops, ctx: _Ctx) -> int:
    if m in ("b", "bl"):
        return _pack("branch_imm", m == "bl",
                     _branch_offset(ops[0], m, ctx, 26))
    cond = _cond_value(isa.branch_condition(m))
    if CONDITION_CODES[cond] in ("al", "nv"):
        raise _EncodeError(f"{m} is not a conditional branch; use b")
    return _pack("branch_cond", _branch_offset(ops[0], m, ctx, 19), cond)


def _encode_branch_reg(m: str, ops, ctx: _Ctx) -> int:
    if ops:
        rn = _gpr(ops[0], m, 64)
    elif m == "ret":
        rn = LR.index
    else:
        raise _EncodeError(f"{m} needs a register")
    if m == "ret":
        return _pack("ret", rn)
    return _pack("br", m == "blr", rn)


def _encode_cb(m: str, ops, ctx: _Ctx) -> int:
    rt = ops[0]
    return _pack("cb", _width(rt, m), m == "cbnz",
                 _branch_offset(ops[1], m, ctx, 19), _gpr(rt, m))


def _encode_tb(m: str, ops, ctx: _Ctx) -> int:
    rt, bit, label = ops
    rt_idx, bitpos = _gpr(rt, m), _imm(bit, m)
    if not 0 <= bitpos < rt.bits:
        raise _EncodeError(f"bit {bitpos} is outside {rt}")
    imm14 = _branch_offset(label, m, ctx, 14)
    return _pack("tb", bitpos >> 5, m == "tbnz", bitpos & 0x1F, imm14, rt_idx)


def _encode_adr(m: str, ops, ctx: _Ctx) -> int:
    rd = _gpr(ops[0], m, 64)
    target = ctx.target_value(ops[1], m)
    if m == "adrp":
        imm = _check_signed((target >> 12) - (ctx.pc >> 12), 21,
                            "adrp page offset")
    else:
        imm = _check_signed(target - ctx.pc, 21, "adr offset")
    return _pack("adr", m == "adrp", imm & 0x3, imm >> 2, rd)


def _movewide(sf: int, opc: int, rd: int, imm16: int, shift: int) -> int:
    if shift % 16 or not 0 <= shift // 16 <= (3 if sf else 1):
        raise _EncodeError(f"bad move-wide shift {shift}")
    return _pack("movewide", sf, opc, shift // 16, imm16, rd)


_MOVEWIDE_OPC = _inverse(_MOVEWIDE_NAMES)


def _encode_movewide(m: str, ops, ctx: _Ctx) -> int:
    rd, imm_op = ops
    sf, rd_idx = _width(rd, m), _gpr(rd, m)
    if isinstance(imm_op, ShiftedImm):
        return _movewide(sf, _MOVEWIDE_OPC[m], rd_idx, imm_op.value,
                         imm_op.shift)
    return _movewide(sf, _MOVEWIDE_OPC[m], rd_idx, _imm(imm_op, m), 0)


def _encode_mov(m: str, ops, ctx: _Ctx) -> int:
    rd, src = ops
    sf = _width(rd, "mov")
    bits = rd.bits
    if isinstance(src, Reg):
        if rd.is_sp or src.is_sp:
            # mov to/from sp is an alias of add #0.
            return _pack("addsub_imm", sf, 0, 0, 0, 0,
                         _gpr(src, "mov", bits, allow_sp=True),
                         _gpr(rd, "mov", allow_sp=True))
        opc, n = _LOGICAL["orr"]
        return _pack("logical_shifted", sf, opc, 0, n,
                     _gpr(src, "mov", bits), 0, INDEX_31, _gpr(rd, "mov"))
    if isinstance(src, ShiftedImm):
        return _movewide(sf, _MOVEWIDE_OPC["movz"], _gpr(rd, "mov"),
                         src.value, src.shift)
    value = _register_value(_imm(src, "mov"), bits, "mov immediate")
    wide = _wide_move(value, bits)
    if wide is not None:
        mnemonic, hw, imm16 = wide
        return _pack("movewide", sf, _MOVEWIDE_OPC[mnemonic], hw, imm16,
                     _gpr(rd, "mov"))
    if encode_bitmask(value, bits) is not None:
        return _logical_imm(sf, _LOGICAL["orr"][0], _gpr(rd, "mov"),
                            INDEX_31, value)
    raise _EncodeError(f"mov immediate {value:#x} not encodable; "
                       "use movz/movk")


_UXTW, _UXTX = EXTEND_KINDS.index("uxtw"), EXTEND_KINDS.index("uxtx")
_ADDSUB = {name: (op, s) for op, names in enumerate(_ADDSUB_NAMES)
           for s, name in enumerate(names)}
_LOGICAL = {name: (opc, n) for opc, names in enumerate(_LOGICAL_NAMES)
            for n, name in enumerate(names)}


#: Flag-only aliases: the zero register is the destination.
_ZR_DEST = {"cmp": "subs", "cmn": "adds", "tst": "ands"}
#: Negating aliases: the zero register is the first source.
_ZR_SOURCE = {"neg": "sub", "negs": "subs", "mvn": "orn"}


def _encode_alias(m: str, ops, ctx: _Ctx) -> int:
    zr = XZR if _width(ops[0], m) else WZR
    if m in _ZR_DEST:
        real, ops = _ZR_DEST[m], (zr, *ops)
    else:
        real, ops = _ZR_SOURCE[m], (ops[0], zr, *ops[1:])
    return _ENCODERS[real](real, ops, ctx)


def _shift_amount(src: Shifted, bits: int, what: str) -> Tuple[int, int]:
    """(shift type, amount) of a shifted register operand."""
    if src.kind not in SHIFT_KINDS or not 0 <= src.amount < bits:
        raise _EncodeError(f"{what}: bad shift {src.kind} #{src.amount}")
    return SHIFT_KINDS.index(src.kind), src.amount


def _encode_addsub(m: str, ops, ctx: _Ctx) -> int:
    op, s = _ADDSUB[m]
    rd, rn = ops[0], ops[1]
    sf, bits = _width(rd, m), rd.bits
    src = ops[2] if len(ops) > 2 else None
    rd_idx = _gpr(rd, m, allow_sp=(s == 0))
    rn_idx = _gpr(rn, m, bits, allow_sp=True)
    if isinstance(src, Imm):
        value = ctx.imm_value(src)
        if value < 0:
            op ^= 1
            value = -value
        sh = 0
        if value & 0xFFF == 0 and value != 0 and value <= 0xFFF000:
            sh, value = 1, value >> 12
        return _pack("addsub_imm", sf, op, s, sh, value, rn_idx, rd_idx)
    if isinstance(src, Reg):
        if rd.is_sp or rn.is_sp or src.bits != bits:
            # Register add involving sp or a w-register source uses the
            # extended form: lsl #0 (uxtx) or uxtw.
            return _pack("addsub_extended", sf, op, s,
                         _gpr(src, m, None if sf else 32),
                         _UXTX if src.bits == 64 else _UXTW, 0, rn_idx, rd_idx)
        return _pack("addsub_shifted", sf, op, s, 0, _gpr(src, m, bits), 0,
                     _gpr(rn, m), rd_idx)
    if isinstance(src, Shifted):
        if rn.is_sp or rd.is_sp:
            if src.kind != "lsl" or not 0 <= src.amount <= 4:
                raise _EncodeError("sp add/sub requires lsl #0-4")
            return _pack("addsub_extended", sf, op, s,
                         _gpr(src.reg, m, bits), _UXTX, src.amount, rn_idx,
                         rd_idx)
        if src.kind == "ror":
            raise _EncodeError("add/sub takes no ror shift")
        shift, amount = _shift_amount(src, bits, m)
        return _pack("addsub_shifted", sf, op, s, shift, _gpr(src.reg, m, bits),
                     amount, _gpr(rn, m), rd_idx)
    if isinstance(src, Extended):
        option = EXTEND_KINDS.index(src.kind)
        amount = src.amount or 0
        if not 0 <= amount <= 4:
            raise _EncodeError(f"extend amount {amount} is not 0-4")
        rm = _gpr(src.reg, m, 64 if src.kind.endswith("x") else 32)
        return _pack("addsub_extended", sf, op, s, rm, option, amount, rn_idx,
                     rd_idx)
    raise _EncodeError("bad add/sub operands")


def _logical_imm(sf: int, opc: int, rd: int, rn: int, value: int) -> int:
    fields = encode_bitmask(value, 64 if sf else 32)
    if fields is None:
        raise _EncodeError(f"value {value:#x} is not a valid bitmask immediate")
    n, immr, imms = fields
    return _pack("logical_imm", sf, opc, n, immr, imms, rn, rd)


def _encode_logical(m: str, ops, ctx: _Ctx) -> int:
    opc, n = _LOGICAL[m]
    rd, rn, src = ops
    sf, bits = _width(rd, m), rd.bits
    rn_idx = _gpr(rn, m, bits)
    if isinstance(src, Imm):
        if n:
            raise _EncodeError(f"{m} has no immediate form")
        value = _register_value(src.value, bits, f"{m} immediate")
        return _logical_imm(sf, opc, _gpr(rd, m, allow_sp=m != "ands"),
                            rn_idx, value)
    if isinstance(src, Reg):
        return _pack("logical_shifted", sf, opc, 0, n, _gpr(src, m, bits), 0,
                     rn_idx, _gpr(rd, m))
    if isinstance(src, Shifted):
        shift, amount = _shift_amount(src, bits, m)
        return _pack("logical_shifted", sf, opc, shift, n,
                     _gpr(src.reg, m, bits), amount, rn_idx, _gpr(rd, m))
    raise _EncodeError("bad logical operands")


_DP2_OPCODE = _inverse(_DP2_NAMES)


def _encode_shift_alias(m: str, ops, ctx: _Ctx) -> int:
    rd, rn, src = ops
    sf, bits = _width(rd, m), rd.bits
    rd_idx, rn_idx = _gpr(rd, m), _gpr(rn, m, bits)
    if isinstance(src, Reg):
        return _pack("dp2", sf, _gpr(src, m, bits), _DP2_OPCODE[m], rn_idx,
                     rd_idx)
    shift = _imm(src, m)
    if not 0 <= shift < bits:
        raise _EncodeError(f"shift #{shift} is outside a {bits}-bit register")
    if m == "ror":
        # ROR immediate is an alias of EXTR Rd, Rn, Rn, #shift.
        return _pack("extr", sf, sf, rn_idx, shift, rn_idx, rd_idx)
    if m == "lsl":
        return _pack("bitfield", sf, _BITFIELD_OPC["ubfm"], sf,
                     (bits - shift) % bits, bits - 1 - shift, rn_idx, rd_idx)
    return _pack("bitfield", sf, _BITFIELD_OPC[_BITFIELD_BASE[m]], sf, shift,
                 bits - 1, rn_idx, rd_idx)


_BITFIELD_OPC = _inverse(_BITFIELD_NAMES)
#: alias -> the sbfm / bfm / ubfm it stands for.
_BITFIELD_BASE = {"asr": "sbfm", "sbfx": "sbfm", "sxtb": "sbfm",
                  "sxth": "sbfm", "sxtw": "sbfm", "bfi": "bfm", "bfxil": "bfm",
                  "lsr": "ubfm", "ubfx": "ubfm", "uxtb": "ubfm",
                  "uxth": "ubfm", "sbfm": "sbfm", "bfm": "bfm", "ubfm": "ubfm"}
#: sxt*/uxt* -> imms; the destination sets ``sf``.
_EXTENDS = {"sxtb": 7, "sxth": 15, "sxtw": 31, "uxtb": 7, "uxth": 15}


def _encode_bitfield_family(m: str, ops, ctx: _Ctx) -> int:
    rd, rn = ops[0], ops[1]
    sf, bits = _width(rd, m), rd.bits
    opc = _BITFIELD_OPC[_BITFIELD_BASE[m]]
    if m in _EXTENDS:
        if m.startswith("u") and sf:
            raise _EncodeError(f"{m} writes a 32-bit register")
        return _pack("bitfield", sf, opc, sf, 0, _EXTENDS[m], _gpr(rn, m),
                     _gpr(rd, m))
    a, b = _imm(ops[2], m), _imm(ops[3], m)
    if m in ("ubfm", "sbfm", "bfm"):
        immr, imms = a, b
    elif not (0 <= a < bits and 0 < b <= bits - a):
        raise _EncodeError(f"bit field #{a}, #{b} is outside {rd}")
    elif m == "bfi":
        immr, imms = (bits - a) % bits, b - 1
    else:  # ubfx / sbfx / bfxil
        immr, imms = a, a + b - 1
    if max(immr, imms) >= bits:
        raise _EncodeError(f"immr/imms #{immr}, #{imms} are outside {rd}")
    return _pack("bitfield", sf, opc, sf, immr, imms, _gpr(rn, m, bits),
                 _gpr(rd, m))


def _encode_muldiv(m: str, ops, ctx: _Ctx) -> int:
    rd = ops[0]
    sf, bits = _width(rd, m), rd.bits
    g = lambda i, width=bits: _gpr(ops[i], m, width)
    if m in ("mul", "mneg"):
        return _pack("madd", sf, g(2), m == "mneg", INDEX_31, g(1), g(0))
    if m in ("madd", "msub"):
        return _pack("madd", sf, g(2), m == "msub", g(3), g(1), g(0))
    if m in ("smull", "umull"):
        return _pack("mull", m == "umull", g(2, 32), g(1, 32), g(0, 64))
    if m in ("smulh", "umulh"):
        return _pack("mulh", m == "umulh", g(2, 64), g(1, 64), g(0, 64))
    return _pack("dp2", sf, g(2), _DP2_OPCODE[m], g(1), g(0))


_CONDSEL = {name: (op, o2) for op, names in enumerate(_CONDSEL_NAMES)
            for o2, name in enumerate(names)}


def _encode_condops(m: str, ops, ctx: _Ctx) -> int:
    rd = ops[0]
    sf, bits = _width(rd, m), rd.bits
    g = lambda op: _gpr(op, m, bits)
    if m in _CONDSEL:
        op, o2 = _CONDSEL[m]
        return _pack("condsel", sf, op, g(ops[2]), _cond(ops[3]), o2,
                     g(ops[1]), g(rd))
    if m in ("cset", "csetm"):
        cond = _cond(ops[1]) ^ 1  # the inverted condition
        return _pack("condsel", sf, m == "csetm", INDEX_31, cond, m == "cset",
                     INDEX_31, g(rd))
    if m in ("cinc", "cneg"):
        cond = _cond(ops[2]) ^ 1
        return _pack("condsel", sf, m == "cneg", g(ops[1]), cond, 1, g(ops[1]),
                     g(rd))
    # ccmp / ccmn
    rn, src, nzcv, cond = ops
    is_imm = isinstance(src, Imm)
    rm = src.value if is_imm else g(src)
    return _pack("ccmp", sf, m == "ccmp", rm, _cond(cond), is_imm,
                 g(rn), _imm(nzcv, m))


_DP1_OPCODE = {(name, sf): opcode for (sf, opcode), name in _DP1_NAMES.items()}


def _encode_dp1_family(m: str, ops, ctx: _Ctx) -> int:
    rd, rn = ops
    sf = _width(rd, m)
    if (m, sf) not in _DP1_OPCODE:
        raise _EncodeError(f"{m} has no {rd.bits}-bit form")
    return _pack("dp1", sf, _DP1_OPCODE[m, sf], _gpr(rn, m, rd.bits),
                 _gpr(rd, m))


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

#: (mnemonic, register bits) -> (size, opc) of the integer loads/stores.
_INT_LDST_CODES = _inverse(_INT_LDST)
#: (register bits, is a load) -> (size, opc) of the SIMD&FP loads/stores.
_FP_LDST_CODES = {(bits, opc & 1): (size, opc)
                  for (size, opc), bits in _FP_LDST.items()}
_PAIR_MODE = _inverse(_PAIR_MODES)
_SCALED_NAMES = _inverse(_UNSCALED_NAMES)


def _ldst_fields(m: str, rt) -> Tuple[int, int, int, int, int]:
    """(size, V, opc, Rt, scale) of a single-register load or store."""
    if isinstance(rt, Reg) and rt.is_vector:
        size, opc = _FP_LDST_CODES[rt.bits, isa.is_load(m)]
        return size, 1, opc, rt.index, 4 if rt.bits == 128 else size
    base = _SCALED_NAMES.get(m, m)
    _gpr(rt, m)
    if (base, rt.bits) not in _INT_LDST_CODES:
        raise _EncodeError(f"{m} has no {rt.bits}-bit register form")
    size, opc = _INT_LDST_CODES[base, rt.bits]
    # The access width, not the register's, scales the offset.
    return size, 0, opc, rt.index, size


def _encode_memory(m: str, ops, ctx: _Ctx) -> int:
    rt, mem = ops
    if not isinstance(mem, Mem):
        raise _EncodeError(f"{m}: expected memory operand")
    size, v, opc, rt_idx, scale = _ldst_fields(m, rt)
    rn = _gpr(mem.base, m, 64, allow_sp=True)

    if m in isa.UNSCALED_MEMORY:
        if mem.mode != OFFSET or mem.has_register_offset:
            raise _EncodeError(f"{m} only supports [base, #imm9]")
        return _unscaled(m, size, v, opc, rt_idx, rn, mem.imm_value, scale)
    if mem.mode in (POST_INDEX, PRE_INDEX):
        return _pack("ldst_imm9", size, v, opc,
                     _check_signed(mem.imm_value, 9, f"{m} offset"),
                     _PAIR_MODE[mem.mode], rn, rt_idx)

    if mem.has_register_offset:
        off = mem.offset
        if isinstance(off, Reg):
            return _pack("ldst_regoffset", size, v, opc, _gpr(off, m, 64),
                         _UXTX, 0, rn, rt_idx)
        kind, amount = off.kind, off.amount or 0
        if kind not in ("lsl", "uxtw", "sxtw", "sxtx"):
            raise _EncodeError(f"bad memory offset {kind}")
        option = _UXTX if kind == "lsl" else EXTEND_KINDS.index(kind)
        if amount not in (0, scale):
            raise _EncodeError(f"memory {kind} amount must be 0 or {scale}, "
                               f"got {amount}")
        return _pack("ldst_regoffset", size, v, opc,
                     _gpr(off.reg, m, 32 if kind.endswith("w") else 64),
                     option, amount != 0, rn, rt_idx)
    # Unsigned scaled immediate (or no offset).
    imm = mem.imm_value
    if isinstance(mem.offset, Imm):
        imm = ctx.imm_value(mem.offset)
    if imm >= 0 and imm % 2 ** scale == 0:
        return _pack("ldst_unsigned", size, v, opc, imm >> scale, rn, rt_idx)
    # Fall back to the unscaled (ldur/stur) encoding.
    return _unscaled(m, size, v, opc, rt_idx, rn, imm, scale)


def _unscaled(m: str, size: int, v: int, opc: int, rt: int, rn: int,
              imm: int, scale: int) -> int:
    """The ldur/stur encoding, which only an offset the scaled form cannot
    state may use."""
    if _SCALED_NAMES.get(m, m) not in _UNSCALED_NAMES:
        raise _EncodeError(f"{m} offset {imm} is not a multiple of "
                           f"{2 ** scale} in 0..{4095 * 2 ** scale}")
    if imm >= 0 and imm % 2 ** scale == 0:
        raise _EncodeError(f"{m} offset {imm} takes the scaled ldr/str form")
    return _pack("ldst_imm9", size, v, opc,
                 _check_signed(imm, 9, f"{m} offset"), 0b00, rn, rt)


_PAIR_OPC = {(v, bits): opc for (v, opc), bits in _PAIR_BITS.items()}


def _encode_pair(m: str, ops, ctx: _Ctx) -> int:
    rt, rt2, mem = ops
    if not isinstance(mem, Mem) or mem.has_register_offset:
        raise _EncodeError(f"{m}: expected [base, #imm7] memory operand")
    v = 1 if isinstance(rt, Reg) and rt.is_vector else 0
    reg = _vreg if v else _gpr
    rt_idx = reg(rt, m)
    if (v, rt.bits) not in _PAIR_OPC:
        raise _EncodeError(f"{m} has no {rt} pair form")
    scale = rt.bits.bit_length() - 4
    imm = mem.imm_value
    if imm % 2 ** scale:
        raise _EncodeError(f"{m} offset {imm} not a multiple of {2 ** scale}")
    return _pack("ldst_pair", _PAIR_OPC[v, rt.bits], v, _PAIR_MODE[mem.mode],
                 m == "ldp", _check_signed(imm >> scale, 7, f"{m} offset"),
                 reg(rt2, m, rt.bits), _gpr(mem.base, m, 64, allow_sp=True),
                 rt_idx)


#: mnemonic -> (o2, L, o0) of the exclusive and acquire/release group.
_EXCLUSIVE = {"ldxr": (0, 1, 0), "ldaxr": (0, 1, 1), "stxr": (0, 0, 0),
              "stlxr": (0, 0, 1), "ldar": (1, 1, 1), "stlr": (1, 0, 1)}


def _encode_exclusive_family(m: str, ops, ctx: _Ctx) -> int:
    if m in ("stxr", "stlxr"):
        rs, rt, mem = ops
        rs_idx = _gpr(rs, m, 32)
    else:
        rt, mem = ops
        rs_idx = INDEX_31
    if not isinstance(mem, Mem) or mem.offset is not None:
        raise _EncodeError(f"{m} only supports [base]")
    o2, load, o0 = _EXCLUSIVE[m]
    rt_idx = _gpr(rt, m)
    return _pack("exclusive", rt.bits.bit_length() - 4, o2, load, rs_idx, o0,
                 _gpr(mem.base, m, 64, allow_sp=True), rt_idx)


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------

_BARRIER_OP2 = _inverse(_BARRIER_OPS)
_BARRIER_CRM = _inverse(_BARRIER_NAMES)


def _encode_system(m: str, ops, ctx: _Ctx) -> int:
    if m == "nop":
        return _pack("nop")
    if m in ("svc", "brk", "hlt"):
        return _pack(m, _imm(ops[0], m) if ops else 0)
    if m in _BARRIER_OP2:
        option = str(ops[0]).lower() if ops else "sy"
        if option not in _BARRIER_CRM:
            raise _EncodeError(f"unknown barrier option {option!r}")
        return _pack("barrier", _BARRIER_CRM[option], _BARRIER_OP2[m])
    raise _EncodeError(f"unsupported system instruction {m}")


# ---------------------------------------------------------------------------
# FP and SIMD
# ---------------------------------------------------------------------------

_FP2_OPCODE = _inverse(_FP2_NAMES)
_FP1_OPCODE = _inverse(_FP1_NAMES)
_FCVT_OPCODE = _inverse(_FCVT_BITS)
#: (mnemonic, destination is the general register) -> (rmode, opcode).
_FP_GPR_CODES = _inverse(_FP_GPR_NAMES)


def _encode_fp(m: str, ops, ctx: _Ctx) -> int:
    if m in _FP2_OPCODE and len(ops) == 3:
        rd, rn, rm = ops
        t = _fp_type(rd, m)
        return _pack("fp2", t, _vreg(rm, m, rd.bits), _FP2_OPCODE[m],
                     _vreg(rn, m, rd.bits), _vreg(rd, m))
    if m in ("fmadd", "fmsub"):
        rd, rn, rm, ra = ops
        t = _fp_type(rd, m)
        return _pack("fmadd", t, _vreg(rm, m, rd.bits), m == "fmsub",
                     _vreg(ra, m, rd.bits), _vreg(rn, m, rd.bits),
                     _vreg(rd, m))
    if m in ("fcmp", "fcmpe"):
        rn, src = ops
        t = _fp_type(rn, m)
        if isinstance(src, (FloatImm, Imm)):
            if src.value != 0:
                raise _EncodeError(f"{m} compares with #0.0 only")
            return _pack("fcmp", t, 0, _vreg(rn, m), 2 * (m == "fcmpe") + 1)
        return _pack("fcmp", t, _vreg(src, m, rn.bits), _vreg(rn, m),
                     2 * (m == "fcmpe"))
    if m == "fcsel":
        rd, rn, rm, cond = ops
        return _pack("fcsel", _fp_type(rd, m), _vreg(rm, m, rd.bits),
                     _cond(cond), _vreg(rn, m, rd.bits),
                     _vreg(rd, m))
    if len(ops) != 2:
        raise _EncodeError(f"unsupported FP instruction {m}")
    rd, rn = ops
    if m in ("fmov", "fabs", "fneg", "fsqrt") and _both_fp(ops):
        return _pack("fp1", _fp_type(rd, m), _FP1_OPCODE[m],
                     _vreg(rn, m, rd.bits), _vreg(rd, m))
    if m == "fcvt":
        t = _fp_type(rn, m)
        if _fp_type(rd, m) == t:
            raise _EncodeError("fcvt converts between two widths")
        return _pack("fp1", t, _FCVT_OPCODE[rd.bits], _vreg(rn, m),
                     _vreg(rd, m))
    if m == "fmov" and isinstance(rn, (FloatImm, Imm)):
        imm8 = encode_fp8(float(rn.value))
        if imm8 is None:
            raise _EncodeError(f"fmov immediate {rn.value} not encodable")
        return _pack("fp_imm", _fp_type(rd, m), imm8, _vreg(rd, m))
    # Conversions and moves between a general and an FP register.
    to_gpr = m in ("fcvtzs", "fcvtzu") or m == "fmov" and \
        not (isinstance(rd, Reg) and rd.is_vector)
    fpr, gpr = (rn, rd) if to_gpr else (rd, rn)
    if (m, to_gpr) not in _FP_GPR_CODES:
        raise _EncodeError(f"unsupported FP instruction {m}")
    rmode, opcode = _FP_GPR_CODES[m, to_gpr]
    sf, ftype = _width(gpr, m), _fp_type(fpr, m)
    if m == "fmov" and fpr.bits != gpr.bits:
        raise _EncodeError(f"fmov between {rd} and {rn} changes the width")
    if to_gpr:
        rn_idx, rd_idx = _vreg(rn, m), _gpr(rd, m)
    else:
        rn_idx, rd_idx = _gpr(rn, m), _vreg(rd, m)
    return _pack("fp_gpr", sf, ftype, rmode, opcode, rn_idx, rd_idx)


def _both_fp(ops) -> bool:
    return all(isinstance(op, Reg) and op.is_vector for op in ops[:2])


_VEC_QSIZE = _inverse(_ARRANGEMENTS)
_VEC_INT_CODES = _inverse(_VEC_INT)
_VEC_LOGIC_CODES = _inverse(_VEC_LOGIC)
_VEC_FP_CODES = _inverse(_VEC_FP)
_DUP_CODES = _inverse(_DUP_ARRANGEMENTS)


def _encode_vector(m: str, ops, ctx: _Ctx) -> int:
    rd = ops[0]
    if type(rd) is not VecReg:
        raise _EncodeError(f"{m}: expected a vector register, got {rd}")
    arrangement = rd.arrangement
    if arrangement not in _VEC_QSIZE:
        raise _EncodeError(f"{m}: no .{arrangement} form")
    q, size = _VEC_QSIZE[arrangement]
    if m == "movi":
        value = _imm(ops[1], m)
        if arrangement in ("8b", "16b"):
            op = 0
        elif arrangement == "2d" and value == 0:
            op = 1
        else:
            raise _EncodeError("movi supports 8b/16b #imm8 or 2d #0 only")
        if not 0 <= value <= 0xFF:
            raise _EncodeError(f"movi immediate {value} is not 8 bits")
        return _pack("movi", q, op, value >> 5, value & 0x1F, rd.reg.index)
    if m == "dup" and isinstance(ops[1], Reg) and not ops[1].is_vector:
        imm5, q = _DUP_CODES[arrangement]
        return _pack("dup", q, imm5,
                     _gpr(ops[1], m, 64 if arrangement == "2d" else 32),
                     rd.reg.index)
    rn, rm = ops[1], ops[2]
    if not all(isinstance(op, VecReg) and op.arrangement == arrangement
               for op in (rn, rm)):
        raise _EncodeError(f"{m}: expected three .{arrangement} registers")
    if m in _VEC_INT_CODES:
        u, opcode = _VEC_INT_CODES[m]
    elif m in _VEC_LOGIC_CODES and arrangement in ("8b", "16b"):
        (u, size), opcode = _VEC_LOGIC_CODES[m], _VEC_LOGIC_OPCODE
    elif m in _VEC_FP_CODES and arrangement in ("2s", "4s", "2d"):
        u, opcode, hi = _VEC_FP_CODES[m]
        size = hi * 2 + (arrangement == "2d")
    else:
        raise _EncodeError(f"unsupported vector instruction {m}.{arrangement}")
    return _pack("simd3", q, u, size, rm.reg.index, opcode, rn.reg.index,
                 rd.reg.index)


#: mnemonic -> its ``_encode_*`` function; where two sets share a
#: mnemonic, the earlier set's function wins.
_ENCODERS = {}
for _names, _encode in (
        (isa.CONDITIONAL_BRANCHES | {"b", "bl"}, _encode_branch),
        (isa.INDIRECT_BRANCHES, _encode_branch_reg),
        (isa.COMPARE_BRANCHES, _encode_cb),
        (isa.TEST_BRANCHES, _encode_tb),
        (isa.ADDRESS, _encode_adr),
        (isa.PAIR_MEMORY, _encode_pair),
        (isa.BASE_ONLY_MEMORY, _encode_exclusive_family),
        (isa.MEMORY, _encode_memory),
        (isa.WIDE_MOVES, _encode_movewide),
        ({"mov"}, _encode_mov),
        (_ADDSUB, _encode_addsub),
        (_LOGICAL, _encode_logical),
        (_ZR_DEST.keys() | _ZR_SOURCE.keys(), _encode_alias),
        (isa.SHIFTS, _encode_shift_alias),
        (isa.BITFIELD, _encode_bitfield_family),
        (isa.MULDIV, _encode_muldiv),
        (isa.CONDOPS, _encode_condops),
        (isa.MISC_ALU, _encode_dp1_family),
        (isa.FP, _encode_fp),
        (isa.SIMD_ONLY, _encode_vector),
        (isa.SYSTEM, _encode_system)):
    for _name in _names:
        _ENCODERS.setdefault(_name, _encode)


def reencode_word(word: int, pc: int = 0) -> Optional[int]:
    """Decode a word and encode the result back (round-trip probe).

    Returns the re-encoded word, or None when the word is undecodable.
    The enumerator in ``repro.prove`` rests on ``reencode_word(w) == w``
    holding for every decodable word of a class: it guarantees the
    decoded IR the verifier and the abstract interpreter agree on is a
    faithful, canonical reading of the encoding.
    """
    inst = decode_word(word, pc)
    if inst is None:
        return None
    return encode_instruction(inst, pc)
