"""ARMv8.0 machine-code decoder for the supported instruction subset.

The decoder is the front half of the trusted verifier (paper §5.2): it turns
32-bit words back into :class:`Instruction` objects.  Any word it does not
recognize decodes to ``None``, which the verifier treats as an unsafe
instruction.  The decoder is deliberately *strict*: non-canonical encodings
(e.g. a shifted add immediate of zero) are rejected rather than normalized,
which keeps ``encode(decode(w)) == w`` for every accepted word — a property
the test suite checks exhaustively with Hypothesis.

Every supported encoding is stated once, as a row of :data:`ROWS`: its
fixed opcode bits (``mask``/``match``) and the position of each operand
field.  :func:`decode_word` finds the one row whose ``mask``/``match`` a
word meets, reads that row's fields and hands them to the row's decoder,
which checks only what a mask cannot express and builds the instruction.
The encoder packs the same rows' fields, the verifier's rule table
(``core/rules.py``) gives each row a rule, and ``repro.prove`` draws its
instruction classes from them.

Direct branch targets, adr/adrp targets, and similar PC-relative values are
decoded to absolute addresses (``Imm``) using the ``pc`` argument.  Field
reads use only ``>>`` and ``&``, so ``repro.prove`` runs the decoder on
symbolic words.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
)
from .registers import INDEX_31, V, gpr_or_sp, gpr_or_zr, vec

__all__ = ["decode_word", "decode_word_pc", "decode_text", "decoder_names",
           "decoding_class", "decode_bitmask", "decode_fp8", "ENCODINGS",
           "ROWS", "row_fields", "top_byte_index"]


def _sext(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def decode_bitmask(n: int, immr: int, imms: int, width: int) -> Optional[int]:
    """The value of a logical (bitmask) immediate; None if the fields are
    invalid or non-canonical (the inverse of ``encoder.encode_bitmask``)."""
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


def decode_fp8(imm8: int) -> float:
    """The float an ``fmov`` (scalar, immediate) imm8 stands for."""
    sign = -1.0 if (imm8 >> 7) & 1 else 1.0
    mantissa = imm8 & 0xF
    # Standard VFPExpandImm: exponent = UInt(NOT(b):c:d) - 3
    b = (imm8 >> 6) & 1
    cd = (imm8 >> 4) & 0x3
    exp = (((b ^ 1) << 2) | cd) - 3
    return sign * (1.0 + mantissa / 16.0) * (2.0 ** exp)


def top_byte_index(payloads) -> tuple:
    """256 buckets: ``payloads[i]`` for every ``ENCODINGS`` row ``i`` that
    a word whose top byte is the bucket number can still match, in order.

    The decoder and the verifier's rule table (``core/rules.py``) both
    dispatch through this: index by ``word >> 24``, then compare
    ``word & mask == match`` on the one to three rows left.
    """
    return tuple(tuple(payloads[i] for i in bucket) for bucket in _BUCKETS)


def decode_word(word: int, pc: int = 0) -> Optional[Instruction]:
    """Decode one 32-bit word, or return None if unrecognized."""
    return _claim(word, pc)[0]


def _claim(word: int, pc: int) -> Tuple[Optional[Instruction], Optional[str]]:
    """The decoded word and the group whose row claimed it, or
    ``(None, None)``: the row's fields go to the row's decoder."""
    word &= 0xFFFFFFFF
    for mask, match, decoder, fields, group in _INDEX[word >> 24]:
        if word & mask == match:
            inst = decoder(pc, *[word >> lo & ones for lo, ones in fields])
            if inst is not None:
                return inst, group
    return None, None


def decode_word_pc(word: int, pc: int = 0,
                   ) -> Tuple[Optional[Instruction], bool]:
    """:func:`decode_word`, plus whether the decode read ``pc``.

    ``False`` means the word decodes to an equal instruction at every
    address, so one decode may be shared by every place the word occurs.
    """
    inst, group = _claim(word, pc)
    return inst, group in _READS_PC


def decode_text(data: bytes, base: int = 0) -> List[Optional[Instruction]]:
    """Decode a text segment; entry i corresponds to address base + 4*i."""
    out: List[Optional[Instruction]] = []
    for offset in range(0, len(data) - len(data) % 4, 4):
        word = int.from_bytes(data[offset:offset + 4], "little")
        out.append(decode_word(word, base + offset))
    return out


def decoder_names() -> List[str]:
    """Encoding-group names in dispatch order.

    Class-space introspection for ``repro.prove``: each name corresponds
    to one encoding template family the decoder recognizes.
    """
    return list(dict.fromkeys(row[0] for row in ENCODINGS))


def decoding_class(word: int) -> Optional[str]:
    """The name of the encoding group that claims this word, or None."""
    return _claim(word, 0)[1]


# ---------------------------------------------------------------------------
# Field values shared with the encoder
# ---------------------------------------------------------------------------

_ADDSUB_NAMES = (("add", "adds"), ("sub", "subs"))                # [op][S]
_LOGICAL_NAMES = (("and", "bic"), ("orr", "orn"), ("eor", "eon"),
                  ("ands", "bics"))                               # [opc][N]
_MOVEWIDE_NAMES = {0b00: "movn", 0b10: "movz", 0b11: "movk"}
_BITFIELD_NAMES = {0b00: "sbfm", 0b01: "bfm", 0b10: "ubfm"}
_DP2_NAMES = {0b000010: "udiv", 0b000011: "sdiv", 0b001000: "lsl",
              0b001001: "lsr", 0b001010: "asr", 0b001011: "ror"}
#: (sf, opcode) -> mnemonic of the one-source group.
_DP1_NAMES = {(0, 0b000000): "rbit", (1, 0b000000): "rbit",
              (0, 0b000001): "rev16", (1, 0b000001): "rev16",
              (0, 0b000010): "rev", (1, 0b000010): "rev32",
              (1, 0b000011): "rev", (0, 0b000100): "clz", (1, 0b000100): "clz"}
_CONDSEL_NAMES = (("csel", "csinc"), ("csinv", "csneg"))          # [op][o2]
_BARRIER_OPS = {0b100: "dsb", 0b101: "dmb", 0b110: "isb"}
_BARRIER_NAMES = {0b1111: "sy", 0b1011: "ish", 0b1001: "ishld",
                  0b1010: "ishst"}
#: (size, opc) -> (mnemonic, register bits) for the integer loads/stores.
_INT_LDST = {
    (0b11, 0b01): ("ldr", 64), (0b11, 0b00): ("str", 64),
    (0b10, 0b01): ("ldr", 32), (0b10, 0b00): ("str", 32),
    (0b00, 0b01): ("ldrb", 32), (0b00, 0b00): ("strb", 32),
    (0b01, 0b01): ("ldrh", 32), (0b01, 0b00): ("strh", 32),
    (0b00, 0b10): ("ldrsb", 64), (0b00, 0b11): ("ldrsb", 32),
    (0b01, 0b10): ("ldrsh", 64), (0b01, 0b11): ("ldrsh", 32),
    (0b10, 0b10): ("ldrsw", 64),
}
#: (size, opc) -> register bits for the SIMD&FP ``ldr`` (opc odd) / ``str``.
_FP_LDST = {(0b00, 0b00): 8, (0b00, 0b01): 8, (0b01, 0b00): 16,
            (0b01, 0b01): 16, (0b10, 0b00): 32, (0b10, 0b01): 32,
            (0b11, 0b00): 64, (0b11, 0b01): 64, (0b00, 0b10): 128,
            (0b00, 0b11): 128}
_UNSCALED_NAMES = {"ldr": "ldur", "str": "stur"}
#: (V, opc) -> register bits of an ldp/stp pair.
_PAIR_BITS = {(0, 0b00): 32, (0, 0b10): 64, (1, 0b00): 32, (1, 0b01): 64,
              (1, 0b10): 128}
_PAIR_MODES = {0b01: POST_INDEX, 0b11: PRE_INDEX, 0b10: OFFSET}
_FP_BITS = {0b00: 32, 0b01: 64, 0b11: 16}
_FP2_NAMES = {0b0000: "fmul", 0b0001: "fdiv", 0b0010: "fadd", 0b0011: "fsub",
              0b0100: "fmax", 0b0101: "fmin", 0b1000: "fnmul"}
_FP1_NAMES = {0b000000: "fmov", 0b000001: "fabs", 0b000010: "fneg",
              0b000011: "fsqrt"}
#: fcvt opcode -> destination bits.
_FCVT_BITS = {0b000100: 32, 0b000101: 64, 0b000111: 16}
#: (rmode, opcode) -> (mnemonic, destination is the general register).
_FP_GPR_NAMES = {
    (0b00, 0b010): ("scvtf", False), (0b00, 0b011): ("ucvtf", False),
    (0b11, 0b000): ("fcvtzs", True), (0b11, 0b001): ("fcvtzu", True),
    (0b00, 0b110): ("fmov", True), (0b00, 0b111): ("fmov", False),
}
_ARRANGEMENTS = {
    (0, 0b00): "8b", (1, 0b00): "16b", (0, 0b01): "4h", (1, 0b01): "8h",
    (0, 0b10): "2s", (1, 0b10): "4s", (1, 0b11): "2d",
}
#: (U, opcode) -> mnemonic of the integer three-same vector ops.
_VEC_INT = {(0, 0b10000): "add", (1, 0b10000): "sub", (0, 0b10011): "mul"}
#: (U, size) -> mnemonic of the bitwise three-same ops, opcode
#: ``_VEC_LOGIC_OPCODE``.
_VEC_LOGIC_OPCODE = 0b00011
_VEC_LOGIC = {(0, 0b00): "and", (0, 0b10): "orr", (1, 0b00): "eor",
              (0, 0b01): "bic"}
#: (U, opcode, size >> 1) -> mnemonic of the FP three-same ops.
_VEC_FP = {(0, 0b11010, 0): "fadd", (0, 0b11010, 1): "fsub",
           (1, 0b11011, 0): "fmul", (0, 0b11110, 0): "fmax",
           (0, 0b11110, 1): "fmin", (1, 0b11111, 0): "fdiv"}
#: (imm5, Q) -> arrangement of dup (general): imm5's lowest set bit picks
#: the lane size, Q doubles the lane count.
_DUP_ARRANGEMENTS = {(0b00001, 0): "8b", (0b00001, 1): "16b",
                     (0b00010, 0): "4h", (0b00010, 1): "8h",
                     (0b00100, 0): "2s", (0b00100, 1): "4s",
                     (0b01000, 1): "2d"}


def _zr(bits: int, *fields: int) -> list:
    """The registers a run of zero-register fields name."""
    return [gpr_or_zr(f, bits) for f in fields]


def _shifted(rm, shift: int, amount: int):
    """``rm`` itself for ``lsl #0``, else the shifted register."""
    if shift == 0 and amount == 0:
        return rm
    return Shifted(rm, SHIFT_KINDS[shift], amount)


# ---------------------------------------------------------------------------
# The row decoders: ``_dec_<row>(pc, *fields)``, fields in row order
# ---------------------------------------------------------------------------

def _dec_nop(pc):
    return Instruction("nop")


def _dec_svc(pc, imm16):
    return Instruction("svc", (Imm(imm16),))


def _dec_brk(pc, imm16):
    return Instruction("brk", (Imm(imm16),))


def _dec_hlt(pc, imm16):
    return Instruction("hlt", (Imm(imm16),))


def _dec_barrier(pc, crm, op2):
    name, option = _BARRIER_OPS.get(op2), _BARRIER_NAMES.get(crm)
    if name is None or option is None:
        return None
    return Instruction(name, (Label(option),))


def _dec_branch_imm(pc, op, imm26):
    return Instruction("bl" if op else "b", (Imm(pc + _sext(imm26, 26) * 4),))


def _dec_branch_cond(pc, imm19, cond):
    name = CONDITION_CODES[cond]
    if name in ("al", "nv"):
        return None
    return Instruction(f"b.{name}", (Imm(pc + _sext(imm19, 19) * 4),))


def _dec_br(pc, opc, rn):
    return Instruction("blr" if opc else "br", (gpr_or_zr(rn),))


def _dec_ret(pc, rn):
    return Instruction("ret", (gpr_or_zr(rn),))


def _dec_cb(pc, sf, op, imm19, rt):
    rt = gpr_or_zr(rt, 64 if sf else 32)
    return Instruction("cbnz" if op else "cbz",
                       (rt, Imm(pc + _sext(imm19, 19) * 4)))


def _dec_tb(pc, b5, op, b40, imm14, rt):
    return Instruction("tbnz" if op else "tbz", (
        gpr_or_zr(rt), Imm(b5 << 5 | b40), Imm(pc + _sext(imm14, 14) * 4)))


def _dec_adr(pc, op, immlo, immhi, rd):
    rd = gpr_or_zr(rd)
    imm = _sext(immhi << 2 | immlo, 21)
    if op:
        return Instruction("adrp", (rd, Imm(((pc >> 12) + imm) << 12)))
    return Instruction("adr", (rd, Imm(pc + imm)))


def _dec_addsub_imm(pc, sf, op, s, sh, imm12, rn, rd):
    if sh and imm12 == 0:
        return None  # non-canonical
    bits = 64 if sf else 32
    rd = (gpr_or_zr if s else gpr_or_sp)(rd, bits)
    return Instruction(_ADDSUB_NAMES[op][s], (
        rd, gpr_or_sp(rn, bits), Imm(imm12 << (12 if sh else 0))))


def _dec_logical_imm(pc, sf, opc, n, immr, imms, rn, rd):
    if n and not sf:
        return None
    bits = 64 if sf else 32
    value = decode_bitmask(n, immr, imms, bits)
    if value is None:
        return None
    rd = (gpr_or_zr if opc == 0b11 else gpr_or_sp)(rd, bits)
    return Instruction(_LOGICAL_NAMES[opc][0],
                       (rd, gpr_or_zr(rn, bits), Imm(value)))


def _dec_movewide(pc, sf, opc, hw, imm16, rd):
    mnemonic = _MOVEWIDE_NAMES.get(opc)
    if mnemonic is None or not sf and hw > 1:
        return None
    rd = gpr_or_zr(rd, 64 if sf else 32)
    if hw:
        return Instruction(mnemonic, (rd, ShiftedImm(imm16, hw * 16)))
    return Instruction(mnemonic, (rd, Imm(imm16)))


def _dec_bitfield(pc, sf, opc, n, immr, imms, rn, rd):
    mnemonic = _BITFIELD_NAMES.get(opc)
    if mnemonic is None or n != sf or not sf and (immr > 31 or imms > 31):
        return None
    return Instruction(mnemonic,
                       (*_zr(64 if sf else 32, rd, rn), Imm(immr), Imm(imms)))


def _dec_extr(pc, sf, n, rm, imms, rn, rd):
    if n != sf or not sf and imms > 31 or rn != rm:
        return None  # general extr is not in the supported subset
    return Instruction("ror", (*_zr(64 if sf else 32, rd, rn), Imm(imms)))


def _dec_logical_shifted(pc, sf, opc, shift, n, rm, imm6, rn, rd):
    if not sf and imm6 > 31:
        return None
    rd, rn, rm = _zr(64 if sf else 32, rd, rn, rm)
    mnemonic = _LOGICAL_NAMES[opc][n]
    if mnemonic == "orr" and rn.is_zero and shift == 0 and imm6 == 0:
        return Instruction("mov", (rd, rm))
    return Instruction(mnemonic, (rd, rn, _shifted(rm, shift, imm6)))


def _dec_addsub_shifted(pc, sf, op, s, shift, rm, imm6, rn, rd):
    if shift == 0b11 or not sf and imm6 > 31:
        return None
    rd, rn, rm = _zr(64 if sf else 32, rd, rn, rm)
    return Instruction(_ADDSUB_NAMES[op][s],
                       (rd, rn, _shifted(rm, shift, imm6)))


def _dec_addsub_extended(pc, sf, op, s, rm, option, imm3, rn, rd):
    if imm3 > 4:
        return None
    bits = 64 if sf else 32
    rd = (gpr_or_zr if s else gpr_or_sp)(rd, bits)
    rm = gpr_or_zr(rm, 64 if option & 0b011 == 0b011 else 32)
    return Instruction(_ADDSUB_NAMES[op][s], (
        rd, gpr_or_sp(rn, bits), Extended(rm, EXTEND_KINDS[option],
                                          imm3 or None)))


def _dec_dp2(pc, sf, rm, opcode, rn, rd):
    mnemonic = _DP2_NAMES.get(opcode)
    if mnemonic is None:
        return None
    return Instruction(mnemonic, tuple(_zr(64 if sf else 32, rd, rn, rm)))


def _dec_dp1(pc, sf, opcode, rn, rd):
    mnemonic = _DP1_NAMES.get((sf, opcode))
    if mnemonic is None:
        return None
    return Instruction(mnemonic, tuple(_zr(64 if sf else 32, rd, rn)))


def _dec_madd(pc, sf, rm, o0, ra, rn, rd):
    return Instruction("msub" if o0 else "madd",
                       tuple(_zr(64 if sf else 32, rd, rn, rm, ra)))


def _dec_mull(pc, u, rm, rn, rd):
    return Instruction("umull" if u else "smull",
                       (gpr_or_zr(rd), *_zr(32, rn, rm)))


def _dec_mulh(pc, u, rm, rn, rd):
    return Instruction("umulh" if u else "smulh", tuple(_zr(64, rd, rn, rm)))


def _dec_condsel(pc, sf, op, rm, cond, o2, rn, rd):
    return Instruction(_CONDSEL_NAMES[op][o2], (
        *_zr(64 if sf else 32, rd, rn, rm), Cond(CONDITION_CODES[cond])))


def _dec_ccmp(pc, sf, op, rm, cond, imm, rn, nzcv):
    bits = 64 if sf else 32
    src = Imm(rm) if imm else gpr_or_zr(rm, bits)
    return Instruction("ccmp" if op else "ccmn", (
        gpr_or_zr(rn, bits), src, Imm(nzcv), Cond(CONDITION_CODES[cond])))


# ---------------------------------------------------------------------------
# Loads and stores
# ---------------------------------------------------------------------------

def _ldst_regs(size: int, v: int, opc: int, rn: int, rt: int):
    """(mnemonic, rt, rn, scale) of a single-register load/store, or None."""
    rn = gpr_or_sp(rn)
    if v:
        bits = _FP_LDST.get((size, opc))
        if bits is None:
            return None
        return ("ldr" if opc & 1 else "str", vec(rt, bits), rn,
                bits.bit_length() - 4)
    named = _INT_LDST.get((size, opc))
    if named is None:
        return None
    # The access width, not the register's, scales the offset.
    return named[0], gpr_or_zr(rt, named[1]), rn, size


def _dec_ldst_unsigned(pc, size, v, opc, imm12, rn, rt):
    named = _ldst_regs(size, v, opc, rn, rt)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    imm = imm12 << scale
    return Instruction(mnemonic, (rt, Mem(rn, Imm(imm) if imm else None)))


def _dec_ldst_imm9(pc, size, v, opc, imm9, mode, rn, rt):
    named = _ldst_regs(size, v, opc, rn, rt)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    imm = _sext(imm9, 9)
    if mode == 0b00:
        # Unscaled: canonical only if a scaled encoding could not express it.
        if imm >= 0 and imm % (1 << scale) == 0:
            return None
        unscaled = _UNSCALED_NAMES.get(mnemonic)
        if unscaled is None:
            return None
        return Instruction(unscaled, (rt, Mem(rn, Imm(imm))))
    if mode == 0b10:
        return None
    return Instruction(mnemonic, (rt, Mem(rn, Imm(imm), _PAIR_MODES[mode])))


def _dec_ldst_regoffset(pc, size, v, opc, rm, option, s, rn, rt):
    named = _ldst_regs(size, v, opc, rn, rt)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    if s and scale == 0:
        return None  # non-canonical for our encoder
    amount = scale if s else None
    if option == 0b011:
        rm = gpr_or_zr(rm, 64)
        offset = Shifted(rm, "lsl", amount) if s else rm
    elif option in (0b010, 0b110, 0b111):
        rm = gpr_or_zr(rm, 64 if option == 0b111 else 32)
        offset = Extended(rm, EXTEND_KINDS[option], amount)
    else:
        return None
    return Instruction(mnemonic, (rt, Mem(rn, offset)))


def _dec_ldst_pair(pc, opc, v, mode, load, imm7, rt2, rn, rt):
    bits = _PAIR_BITS.get((v, opc))
    mode_name = _PAIR_MODES.get(mode)
    if bits is None or mode_name is None:
        return None
    reg = vec if v else gpr_or_zr
    mnemonic = "ldp" if load else "stp"
    rt, rt2, rn = reg(rt, bits), reg(rt2, bits), gpr_or_sp(rn)
    imm = _sext(imm7, 7) << (bits.bit_length() - 4)
    if not imm and mode_name == OFFSET:
        return Instruction(mnemonic, (rt, rt2, Mem(rn, None)))
    return Instruction(mnemonic, (rt, rt2, Mem(rn, Imm(imm), mode_name)))


def _dec_exclusive(pc, size, o2, load, rs, o0, rn, rt):
    if size < 0b10:
        return None
    rt = gpr_or_zr(rt, 64 if size == 0b11 else 32)
    mem = Mem(gpr_or_sp(rn), None)
    if o2 == 0 and not load:
        return Instruction("stlxr" if o0 else "stxr",
                           (gpr_or_zr(rs, 32), rt, mem))
    if rs != INDEX_31:
        return None
    if o2 == 0:
        return Instruction("ldaxr" if o0 else "ldxr", (rt, mem))
    if not o0:
        return None
    return Instruction("ldar" if load else "stlr", (rt, mem))


# ---------------------------------------------------------------------------
# FP and SIMD
# ---------------------------------------------------------------------------

def _dec_fp_imm(pc, ftype, imm8, rd):
    bits = _FP_BITS.get(ftype)
    if bits is None:
        return None
    return Instruction("fmov", (vec(rd, bits), FloatImm(decode_fp8(imm8))))


def _dec_fp1(pc, ftype, opcode, rn, rd):
    bits = _FP_BITS.get(ftype)
    if bits is None:
        return None
    name = _FP1_NAMES.get(opcode)
    if name is not None:
        return Instruction(name, (vec(rd, bits), vec(rn, bits)))
    dst_bits = _FCVT_BITS.get(opcode)
    if dst_bits is None or dst_bits == bits:
        return None
    return Instruction("fcvt", (vec(rd, dst_bits), vec(rn, bits)))


def _dec_fp_gpr(pc, sf, ftype, rmode, opcode, rn, rd):
    bits = _FP_BITS.get(ftype)
    named = _FP_GPR_NAMES.get((rmode, opcode))
    if bits is None or named is None:
        return None
    mnemonic, to_gpr = named
    gbits = 64 if sf else 32
    if mnemonic == "fmov" and bits != gbits:
        return None
    if to_gpr:
        return Instruction(mnemonic, (gpr_or_zr(rd, gbits), vec(rn, bits)))
    return Instruction(mnemonic, (vec(rd, bits), gpr_or_zr(rn, gbits)))


def _dec_fp2(pc, ftype, rm, opcode, rn, rd):
    bits = _FP_BITS.get(ftype)
    name = _FP2_NAMES.get(opcode)
    if bits is None or name is None:
        return None
    return Instruction(name, (vec(rd, bits), vec(rn, bits), vec(rm, bits)))


def _dec_fcsel(pc, ftype, rm, cond, rn, rd):
    bits = _FP_BITS.get(ftype)
    if bits is None:
        return None
    return Instruction("fcsel", (vec(rd, bits), vec(rn, bits), vec(rm, bits),
                                 Cond(CONDITION_CODES[cond])))


def _dec_fcmp(pc, ftype, rm, rn, opc):
    bits = _FP_BITS.get(ftype)
    if bits is None or opc & 1 and rm:
        return None  # the compare with #0.0 (opc bit 0) names no Rm
    src = FloatImm(0.0) if opc & 1 else vec(rm, bits)
    return Instruction("fcmpe" if opc & 2 else "fcmp", (vec(rn, bits), src))


def _dec_fmadd(pc, ftype, rm, o0, ra, rn, rd):
    bits = _FP_BITS.get(ftype)
    if bits is None:
        return None
    return Instruction("fmsub" if o0 else "fmadd", (
        vec(rd, bits), vec(rn, bits), vec(rm, bits), vec(ra, bits)))


def _dec_simd3(pc, q, u, size, rm, opcode, rn, rd):
    arr = _ARRANGEMENTS.get((q, size))
    if arr is None:
        return None
    name = _VEC_INT.get((u, opcode))
    if name is None and opcode == _VEC_LOGIC_OPCODE:
        name, arr = _VEC_LOGIC.get((u, size)), "16b" if q else "8b"
    elif name is None:
        # FP three-same: size = hi|sz with lanes 2s/4s/2d.
        name = _VEC_FP.get((u, opcode, size >> 1))
        arr = ("4s" if q else "2s") if size & 1 == 0 else "2d" if q else None
    if name is None or arr is None:
        return None
    return Instruction(name, tuple(VecReg(V[i], arr) for i in (rd, rn, rm)))


def _dec_movi(pc, q, op, abc, defgh, rd):
    imm8 = abc << 5 | defgh
    if op == 0:
        return Instruction("movi", (VecReg(V[rd], "16b" if q else "8b"),
                                    Imm(imm8)))
    if q and imm8 == 0:
        return Instruction("movi", (VecReg(V[rd], "2d"), Imm(0)))
    return None


def _dec_dup(pc, q, imm5, rn, rd):
    arrangement = _DUP_ARRANGEMENTS.get((imm5, q))
    if arrangement is None:
        return None
    rn = gpr_or_zr(rn, 64 if arrangement == "2d" else 32)
    return Instruction("dup", (VecReg(V[rd], arrangement), rn))


#: The encoding rows in dispatch order: row name -> ``(group, mask, match,
#: fields)``.  A word belongs to a row when ``word & mask == match``; the
#: bits outside ``mask`` are the row's operand fields, listed high to low as
#: ``name:lo:width``.  ``_dec_<row name>`` decodes the row, and
#: ``encoder._pack(<row name>, ...)`` encodes it.  Rows are pairwise
#: disjoint, so at most one claims a word.  A group is the family
#: ``decoding_class`` reports; most have one row.
_RD5, _RN5, _RM5 = "rd:0:5", "rn:5:5", "rm:16:5"
_LDST_FIELDS = "size:30:2 v:26:1 opc:22:2 "
ROWS = {
    "nop": ("system", 0xFFFFFFFF, 0xD503201F, ""),
    "svc": ("system", 0xFFE0001F, 0xD4000001, "imm16:5:16"),
    "brk": ("system", 0xFFE0001F, 0xD4200000, "imm16:5:16"),
    "hlt": ("system", 0xFFE0001F, 0xD4400000, "imm16:5:16"),
    "barrier": ("system", 0xFFFFF01F, 0xD503301F, "crm:8:4 op2:5:3"),
    "branch_imm": ("branch_imm", 0x7C000000, 0x14000000,
                   "op:31:1 imm26:0:26"),
    "branch_cond": ("branch_cond", 0xFF000010, 0x54000000,
                    "imm19:5:19 cond:0:4"),
    "br": ("branch_reg", 0xFFDFFC1F, 0xD61F0000, f"opc:21:1 {_RN5}"),
    "ret": ("branch_reg", 0xFFFFFC1F, 0xD65F0000, _RN5),
    "cb": ("cb", 0x7E000000, 0x34000000,
           "sf:31:1 op:24:1 imm19:5:19 rt:0:5"),
    "tb": ("tb", 0x7E000000, 0x36000000,
           "b5:31:1 op:24:1 b40:19:5 imm14:5:14 rt:0:5"),
    "adr": ("adr", 0x1F000000, 0x10000000,
            f"op:31:1 immlo:29:2 immhi:5:19 {_RD5}"),
    "addsub_imm": ("addsub_imm", 0x1F800000, 0x11000000,
                   f"sf:31:1 op:30:1 S:29:1 sh:22:1 imm12:10:12 {_RN5} {_RD5}"),
    "logical_imm": ("logical_imm", 0x1F800000, 0x12000000,
                    f"sf:31:1 opc:29:2 N:22:1 immr:16:6 imms:10:6 {_RN5} "
                    f"{_RD5}"),
    "movewide": ("movewide", 0x1F800000, 0x12800000,
                 f"sf:31:1 opc:29:2 hw:21:2 imm16:5:16 {_RD5}"),
    "bitfield": ("bitfield", 0x1F800000, 0x13000000,
                 f"sf:31:1 opc:29:2 N:22:1 immr:16:6 imms:10:6 {_RN5} {_RD5}"),
    "extr": ("extr", 0x7FA00000, 0x13800000,
             f"sf:31:1 N:22:1 {_RM5} imms:10:6 {_RN5} {_RD5}"),
    "logical_shifted": ("logical_shifted", 0x1F000000, 0x0A000000,
                        f"sf:31:1 opc:29:2 shift:22:2 N:21:1 {_RM5} imm6:10:6 "
                        f"{_RN5} {_RD5}"),
    "addsub_shifted": ("addsub_shifted", 0x1F200000, 0x0B000000,
                       f"sf:31:1 op:30:1 S:29:1 shift:22:2 {_RM5} imm6:10:6 "
                       f"{_RN5} {_RD5}"),
    "addsub_extended": ("addsub_extended", 0x1FE00000, 0x0B200000,
                        f"sf:31:1 op:30:1 S:29:1 {_RM5} option:13:3 imm3:10:3 "
                        f"{_RN5} {_RD5}"),
    "dp2": ("dp2", 0x7FE00000, 0x1AC00000,
            f"sf:31:1 {_RM5} opcode:10:6 {_RN5} {_RD5}"),
    "dp1": ("dp1", 0x7FFF0000, 0x5AC00000,
            f"sf:31:1 opcode:10:6 {_RN5} {_RD5}"),
    "madd": ("dp3", 0x7FE00000, 0x1B000000,
             f"sf:31:1 {_RM5} o0:15:1 ra:10:5 {_RN5} {_RD5}"),
    "mull": ("dp3", 0xFF60FC00, 0x9B207C00, f"U:23:1 {_RM5} {_RN5} {_RD5}"),
    "mulh": ("dp3", 0xFF60FC00, 0x9B407C00, f"U:23:1 {_RM5} {_RN5} {_RD5}"),
    "condsel": ("condsel", 0x3FE00800, 0x1A800000,
                f"sf:31:1 op:30:1 {_RM5} cond:12:4 o2:10:1 {_RN5} {_RD5}"),
    "ccmp": ("ccmp", 0x3FE00410, 0x3A400000,
             f"sf:31:1 op:30:1 {_RM5} cond:12:4 imm:11:1 {_RN5} nzcv:0:4"),
    "ldst_unsigned": ("ldst_unsigned", 0x3B000000, 0x39000000,
                      f"{_LDST_FIELDS}imm12:10:12 {_RN5} rt:0:5"),
    "ldst_imm9": ("ldst_imm9", 0x3B200000, 0x38000000,
                  f"{_LDST_FIELDS}imm9:12:9 mode:10:2 {_RN5} rt:0:5"),
    "ldst_regoffset": ("ldst_regoffset", 0x3B200C00, 0x38200800,
                       f"{_LDST_FIELDS}{_RM5} option:13:3 S:12:1 {_RN5} "
                       "rt:0:5"),
    "ldst_pair": ("ldst_pair", 0x3A000000, 0x28000000,
                  f"opc:30:2 v:26:1 mode:23:2 load:22:1 imm7:15:7 rt2:10:5 "
                  f"{_RN5} rt:0:5"),
    "exclusive": ("exclusive", 0x3F207C00, 0x08007C00,
                  f"size:30:2 o2:23:1 L:22:1 rs:16:5 o0:15:1 {_RN5} rt:0:5"),
    "fp_imm": ("fp_imm", 0xFF201FE0, 0x1E201000,
               f"type:22:2 imm8:13:8 {_RD5}"),
    "fp1": ("fp1", 0xFF207C00, 0x1E204000,
            f"type:22:2 opcode:15:6 {_RN5} {_RD5}"),
    "fp_gpr": ("fp", 0x7F20FC00, 0x1E200000,
               f"sf:31:1 type:22:2 rmode:19:2 opcode:16:3 {_RN5} {_RD5}"),
    "fp2": ("fp", 0xFF200C00, 0x1E200800,
            f"type:22:2 {_RM5} opcode:12:4 {_RN5} {_RD5}"),
    "fcsel": ("fp", 0xFF200C00, 0x1E200C00,
              f"type:22:2 {_RM5} cond:12:4 {_RN5} {_RD5}"),
    "fcmp": ("fp", 0xFF20FC07, 0x1E202000,
             f"type:22:2 {_RM5} {_RN5} opc:3:2"),
    "fmadd": ("fp", 0xFF200000, 0x1F000000,
              f"type:22:2 {_RM5} o0:15:1 ra:10:5 {_RN5} {_RD5}"),
    "simd3": ("simd3", 0x9F200400, 0x0E200400,
              f"q:30:1 u:29:1 size:22:2 {_RM5} opcode:11:5 {_RN5} {_RD5}"),
    "movi": ("movi", 0x9FF8FC00, 0x0F00E400,
             f"q:30:1 op:29:1 abc:16:3 defgh:5:5 {_RD5}"),
    "dup": ("dup", 0xBFE0FC00, 0x0E000C00,
            f"q:30:1 imm5:16:5 {_RN5} {_RD5}"),
}
#: The rows as ``(group, mask, match, fields)`` tuples, in dispatch order.
ENCODINGS = tuple(ROWS.values())


def row_fields(layout: str) -> List[Tuple[str, int, int]]:
    """A row's ``fields`` string as ``(name, lo, width)`` triples."""
    return [(name, int(lo), int(width)) for name, lo, width in
            (item.split(":") for item in layout.split())]


_TOP_BYTES = [(mask >> 24, match >> 24)
              for _name, mask, match, _fields in ENCODINGS]
_BUCKETS = tuple(tuple(i for i, (mask, match) in enumerate(_TOP_BYTES)
                       if not (top ^ match) & mask) for top in range(256))
_INDEX = top_byte_index([
    (mask, match, globals()["_dec_" + name],
     tuple((lo, (1 << width) - 1) for _f, lo, width in row_fields(fields)),
     group)
    for name, (group, mask, match, fields) in ROWS.items()])

#: The encoding groups that turn a pc-relative field into an absolute
#: address; every other decoder ignores its ``pc`` argument.
_READS_PC = frozenset(("branch_imm", "branch_cond", "cb", "tb", "adr"))
