"""ARMv8.0 machine-code decoder for the supported instruction subset.

The decoder is the front half of the trusted verifier (paper §5.2): it turns
32-bit words back into :class:`Instruction` objects.  Any word it does not
recognize decodes to ``None``, which the verifier treats as an unsafe
instruction.  The decoder is deliberately *strict*: non-canonical encodings
(e.g. a shifted add immediate of zero) are rejected rather than normalized,
which keeps ``encode(decode(w)) == w`` for every accepted word — a property
the test suite checks exhaustively with Hypothesis.

Direct branch targets, adr/adrp targets, and similar PC-relative values are
decoded to absolute addresses (``Imm``) using the ``pc`` argument.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .encoder import decode_bitmask, decode_fp8
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
)
from .registers import INDEX_31, Reg, V, gpr_or_sp, gpr_or_zr, vec

__all__ = ["decode_word", "decode_word_pc", "decode_text", "decoder_names",
           "decoding_class", "ENCODINGS", "row_fields", "top_byte_index"]

_EXTEND_NAMES = ["uxtb", "uxth", "uxtw", "uxtx", "sxtb", "sxth", "sxtw", "sxtx"]
_SHIFT_NAMES = ["lsl", "lsr", "asr", "ror"]


def _bits(word: int, hi: int, lo: int) -> int:
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def _sext(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


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
    word &= 0xFFFFFFFF
    for mask, match, decoder, _name in _INDEX[word >> 24]:
        if word & mask == match:
            inst = decoder(word, pc)
            if inst is not None:
                return inst
    return None


def decode_word_pc(word: int, pc: int = 0,
                   ) -> Tuple[Optional[Instruction], bool]:
    """:func:`decode_word`, plus whether the decode read ``pc``.

    ``False`` means the word decodes to an equal instruction at every
    address, so one decode may be shared by every place the word occurs.
    """
    word &= 0xFFFFFFFF
    for mask, match, decoder, name in _INDEX[word >> 24]:
        if word & mask == match:
            inst = decoder(word, pc)
            if inst is not None:
                return inst, name in _READS_PC
    return None, False


def decode_text(data: bytes, base: int = 0) -> List[Optional[Instruction]]:
    """Decode a text segment; entry i corresponds to address base + 4*i."""
    out: List[Optional[Instruction]] = []
    for offset in range(0, len(data) - len(data) % 4, 4):
        word = int.from_bytes(data[offset:offset + 4], "little")
        out.append(decode_word(word, base + offset))
    return out


def decoder_names() -> List[str]:
    """Encoding-group decoder names in dispatch order.

    Class-space introspection for ``repro.prove``: each name corresponds
    to one encoding template family the decoder recognizes.
    """
    return list(dict.fromkeys(row[0] for row in ENCODINGS))


def decoding_class(word: int) -> Optional[str]:
    """The name of the encoding group that claims this word, or None."""
    word &= 0xFFFFFFFF
    for mask, match, decoder, name in _INDEX[word >> 24]:
        if word & mask == match and decoder(word, 0) is not None:
            return name
    return None


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------

def _dec_system(word: int, pc: int) -> Optional[Instruction]:
    if word == 0xD503201F:
        return Instruction("nop")
    if word & 0xFFE0001F == 0xD4000001:
        return Instruction("svc", (Imm(_bits(word, 20, 5)),))
    if word & 0xFFE0001F == 0xD4200000:
        return Instruction("brk", (Imm(_bits(word, 20, 5)),))
    if word & 0xFFE0001F == 0xD4400000:
        return Instruction("hlt", (Imm(_bits(word, 20, 5)),))
    if word & 0xFFFFF01F == 0xD503301F:
        op2 = _bits(word, 7, 5)
        name = {0b100: "dsb", 0b101: "dmb", 0b110: "isb"}.get(op2)
        if name is None:
            return None
        crm = _bits(word, 11, 8)
        barrier = {0b1111: "sy", 0b1011: "ish", 0b1001: "ishld",
                   0b1010: "ishst"}.get(crm)
        if barrier is None:
            return None
        return Instruction(name, (Label(barrier),))
    return None


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------

def _dec_branch_imm(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 26) != 0b00101:
        return None
    mnemonic = "bl" if word >> 31 else "b"
    offset = _sext(_bits(word, 25, 0), 26) * 4
    return Instruction(mnemonic, (Imm(pc + offset),))


def _dec_branch_cond(word: int, pc: int) -> Optional[Instruction]:
    if word & 0xFF000010 != 0x54000000:
        return None
    cond = CONDITION_CODES[word & 0xF]
    if cond in ("al", "nv"):
        return None
    offset = _sext(_bits(word, 23, 5), 19) * 4
    return Instruction(f"b.{cond}", (Imm(pc + offset),))


def _dec_branch_reg(word: int, pc: int) -> Optional[Instruction]:
    if word & 0xFFDFFC1F != 0xD61F0000 and word & 0xFFFFFC1F != 0xD65F0000:
        return None
    opc = _bits(word, 24, 21)
    name = {0b0000: "br", 0b0001: "blr", 0b0010: "ret"}.get(opc)
    if name is None or _bits(word, 20, 16) != 0b11111 or _bits(word, 15, 10):
        return None
    rn = gpr_or_zr(_bits(word, 9, 5))
    return Instruction(name, (rn,))


def _dec_cb(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 25) != 0b011010:
        return None
    sf = word >> 31
    mnemonic = "cbnz" if _bits(word, 24, 24) else "cbz"
    rt = gpr_or_zr(_bits(word, 4, 0), 64 if sf else 32)
    offset = _sext(_bits(word, 23, 5), 19) * 4
    return Instruction(mnemonic, (rt, Imm(pc + offset)))


def _dec_tb(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 25) != 0b011011:
        return None
    mnemonic = "tbnz" if _bits(word, 24, 24) else "tbz"
    bit = (_bits(word, 31, 31) << 5) | _bits(word, 23, 19)
    rt = gpr_or_zr(_bits(word, 4, 0), 64)
    offset = _sext(_bits(word, 18, 5), 14) * 4
    return Instruction(mnemonic, (rt, Imm(bit), Imm(pc + offset)))


# ---------------------------------------------------------------------------
# Data processing -- immediate
# ---------------------------------------------------------------------------

def _dec_adr(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) != 0b10000:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0))
    imm = _sext((_bits(word, 23, 5) << 2) | _bits(word, 30, 29), 21)
    if word >> 31:
        target = ((pc >> 12) + imm) << 12
        return Instruction("adrp", (rd, Imm(target)))
    return Instruction("adr", (rd, Imm(pc + imm)))


def _dec_addsub_imm(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 23) != 0b100010:
        return None
    sf, op, s = word >> 31, _bits(word, 30, 30), _bits(word, 29, 29)
    sh = _bits(word, 22, 22)
    imm12 = _bits(word, 21, 10)
    if sh and imm12 == 0:
        return None  # non-canonical
    bits = 64 if sf else 32
    rn = gpr_or_sp(_bits(word, 9, 5), bits)
    rd = (gpr_or_zr if s else gpr_or_sp)(_bits(word, 4, 0), bits)
    mnemonic = ("sub" if op else "add") + ("s" if s else "")
    value = imm12 << (12 if sh else 0)
    return Instruction(mnemonic, (rd, rn, Imm(value)))


def _dec_logical_imm(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 23) != 0b100100:
        return None
    sf = word >> 31
    opc = _bits(word, 30, 29)
    n, immr, imms = _bits(word, 22, 22), _bits(word, 21, 16), _bits(word, 15, 10)
    if n and not sf:
        return None
    width = 64 if sf else 32
    value = decode_bitmask(n, immr, imms, width)
    if value is None:
        return None
    bits = width
    mnemonic = ["and", "orr", "eor", "ands"][opc]
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rd_field = _bits(word, 4, 0)
    rd = (gpr_or_zr if opc == 0b11 else gpr_or_sp)(rd_field, bits)
    return Instruction(mnemonic, (rd, rn, Imm(value)))


def _dec_movewide(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 23) != 0b100101:
        return None
    sf = word >> 31
    opc = _bits(word, 30, 29)
    mnemonic = {0b00: "movn", 0b10: "movz", 0b11: "movk"}.get(opc)
    if mnemonic is None:
        return None
    hw = _bits(word, 22, 21)
    if not sf and hw > 1:
        return None
    imm16 = _bits(word, 20, 5)
    rd = gpr_or_zr(_bits(word, 4, 0), 64 if sf else 32)
    if hw:
        return Instruction(mnemonic, (rd, ShiftedImm(imm16, hw * 16)))
    return Instruction(mnemonic, (rd, Imm(imm16)))


def _dec_bitfield(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 23) != 0b100110:
        return None
    sf = word >> 31
    opc = _bits(word, 30, 29)
    mnemonic = {0b00: "sbfm", 0b01: "bfm", 0b10: "ubfm"}.get(opc)
    if mnemonic is None:
        return None
    n = _bits(word, 22, 22)
    if n != sf:
        return None
    bits = 64 if sf else 32
    immr, imms = _bits(word, 21, 16), _bits(word, 15, 10)
    if not sf and (immr > 31 or imms > 31):
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    return Instruction(mnemonic, (rd, rn, Imm(immr), Imm(imms)))


def _dec_extr(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 23) != 0b00100111:
        return None  # opc (30:29) must be 00: the rest is unallocated
    sf = word >> 31
    n = _bits(word, 22, 22)
    if n != sf or _bits(word, 21, 21):
        return None
    bits = 64 if sf else 32
    imms = _bits(word, 15, 10)
    if not sf and imms > 31:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rm = gpr_or_zr(_bits(word, 20, 16), bits)
    if rn == rm:
        return Instruction("ror", (rd, rn, Imm(imms)))
    return None  # general extr not in the supported subset


# ---------------------------------------------------------------------------
# Data processing -- register
# ---------------------------------------------------------------------------

def _dec_logical_shifted(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) != 0b01010:
        return None
    sf = word >> 31
    opc = _bits(word, 30, 29)
    shift = _bits(word, 23, 22)
    n = _bits(word, 21, 21)
    bits = 64 if sf else 32
    amount = _bits(word, 15, 10)
    if not sf and amount > 31:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rm = gpr_or_zr(_bits(word, 20, 16), bits)
    mnemonic = [["and", "bic"], ["orr", "orn"], ["eor", "eon"],
                ["ands", "bics"]][opc][n]
    if mnemonic == "orr" and rn.is_zero and shift == 0 and amount == 0:
        return Instruction("mov", (rd, rm))
    src = rm if shift == 0 and amount == 0 else Shifted(
        rm, _SHIFT_NAMES[shift], amount
    )
    return Instruction(mnemonic, (rd, rn, src))


def _dec_addsub_shifted(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) != 0b01011 or _bits(word, 21, 21):
        return None
    if _bits(word, 23, 22) == 0b11:
        return None
    sf, op, s = word >> 31, _bits(word, 30, 30), _bits(word, 29, 29)
    bits = 64 if sf else 32
    shift = _bits(word, 23, 22)
    amount = _bits(word, 15, 10)
    if not sf and amount > 31:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rm = gpr_or_zr(_bits(word, 20, 16), bits)
    mnemonic = ("sub" if op else "add") + ("s" if s else "")
    src = rm if shift == 0 and amount == 0 else Shifted(
        rm, _SHIFT_NAMES[shift], amount
    )
    return Instruction(mnemonic, (rd, rn, src))


def _dec_addsub_extended(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) != 0b01011 or not _bits(word, 21, 21):
        return None
    if _bits(word, 23, 22) != 0b00:
        return None
    sf, op, s = word >> 31, _bits(word, 30, 30), _bits(word, 29, 29)
    bits = 64 if sf else 32
    option = _bits(word, 15, 13)
    amount = _bits(word, 12, 10)
    if amount > 4:
        return None
    rd = (gpr_or_zr if s else gpr_or_sp)(_bits(word, 4, 0), bits)
    rn = gpr_or_sp(_bits(word, 9, 5), bits)
    rm_bits = 64 if option & 0x3 == 0x3 else 32
    rm = gpr_or_zr(_bits(word, 20, 16), rm_bits)
    mnemonic = ("sub" if op else "add") + ("s" if s else "")
    src = Extended(rm, _EXTEND_NAMES[option], amount or None)
    return Instruction(mnemonic, (rd, rn, src))


def _dec_dp2(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 21) != 0b0011010110:
        return None
    sf = word >> 31
    bits = 64 if sf else 32
    opcode = _bits(word, 15, 10)
    mnemonic = {0b000010: "udiv", 0b000011: "sdiv", 0b001000: "lsl",
                0b001001: "lsr", 0b001010: "asr", 0b001011: "ror"}.get(opcode)
    if mnemonic is None:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rm = gpr_or_zr(_bits(word, 20, 16), bits)
    return Instruction(mnemonic, (rd, rn, rm))


def _dec_dp1(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 21) != 0b1011010110 or _bits(word, 20, 16):
        return None
    sf = word >> 31
    bits = 64 if sf else 32
    opcode = _bits(word, 15, 10)
    table = {0b000000: "rbit", 0b000001: "rev16", 0b000100: "clz"}
    if sf:
        table[0b000010] = "rev32"
        table[0b000011] = "rev"
    else:
        table[0b000010] = "rev"
    mnemonic = table.get(opcode)
    if mnemonic is None:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    return Instruction(mnemonic, (rd, rn))


def _dec_dp3(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 24) != 0b0011011:
        return None
    sf = word >> 31
    op31 = _bits(word, 23, 21)
    o0 = _bits(word, 15, 15)
    bits = 64 if sf else 32
    ra_field = _bits(word, 14, 10)
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    if op31 == 0b000:
        rn = gpr_or_zr(_bits(word, 9, 5), bits)
        rm = gpr_or_zr(_bits(word, 20, 16), bits)
        ra = gpr_or_zr(ra_field, bits)
        mnemonic = "msub" if o0 else "madd"
        return Instruction(mnemonic, (rd, rn, rm, ra))
    if not sf:
        return None
    rn32 = gpr_or_zr(_bits(word, 9, 5), 32)
    rm32 = gpr_or_zr(_bits(word, 20, 16), 32)
    rn64 = gpr_or_zr(_bits(word, 9, 5), 64)
    rm64 = gpr_or_zr(_bits(word, 20, 16), 64)
    if op31 == 0b001 and o0 == 0 and ra_field == INDEX_31:
        return Instruction("smull", (rd, rn32, rm32))
    if op31 == 0b101 and o0 == 0 and ra_field == INDEX_31:
        return Instruction("umull", (rd, rn32, rm32))
    if op31 == 0b010 and o0 == 0 and ra_field == INDEX_31:
        return Instruction("smulh", (rd, rn64, rm64))
    if op31 == 0b110 and o0 == 0 and ra_field == INDEX_31:
        return Instruction("umulh", (rd, rn64, rm64))
    return None


def _dec_condsel(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 30, 21) & 0b0111111111 != 0b0011010100:
        return None
    if _bits(word, 28, 21) != 0b11010100:
        return None
    if _bits(word, 29, 29):
        return None
    sf = word >> 31
    op = _bits(word, 30, 30)
    op2 = _bits(word, 11, 10)
    bits = 64 if sf else 32
    mnemonic = {(0, 0b00): "csel", (0, 0b01): "csinc", (1, 0b00): "csinv",
                (1, 0b01): "csneg"}.get((op, op2))
    if mnemonic is None:
        return None
    rd = gpr_or_zr(_bits(word, 4, 0), bits)
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    rm = gpr_or_zr(_bits(word, 20, 16), bits)
    cond = Cond(CONDITION_CODES[_bits(word, 15, 12)])
    return Instruction(mnemonic, (rd, rn, rm, cond))


def _dec_ccmp(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 21) != 0b11010010 or not _bits(word, 29, 29):
        return None
    if _bits(word, 10, 10) or _bits(word, 4, 4):
        return None
    sf = word >> 31
    op = _bits(word, 30, 30)
    bits = 64 if sf else 32
    mnemonic = "ccmp" if op else "ccmn"
    rn = gpr_or_zr(_bits(word, 9, 5), bits)
    cond = Cond(CONDITION_CODES[_bits(word, 15, 12)])
    nzcv = Imm(_bits(word, 3, 0))
    if _bits(word, 11, 11):
        src = Imm(_bits(word, 20, 16))
    else:
        src = gpr_or_zr(_bits(word, 20, 16), bits)
    return Instruction(mnemonic, (rn, src, nzcv, cond))


# ---------------------------------------------------------------------------
# Loads and stores
# ---------------------------------------------------------------------------

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


def _ldst_regs(word: int):
    """(mnemonic, rt, rn, scale) of a single-register load/store, or None."""
    size, opc = _bits(word, 31, 30), _bits(word, 23, 22)
    rt, rn = _bits(word, 4, 0), gpr_or_sp(_bits(word, 9, 5))
    if _bits(word, 26, 26):
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


def _dec_ldst_unsigned(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 29, 27) != 0b111 or _bits(word, 25, 24) != 0b01:
        return None
    named = _ldst_regs(word)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    imm = _bits(word, 21, 10) << scale
    offset = Imm(imm) if imm else None
    return Instruction(mnemonic, (rt, Mem(rn, offset)))


def _dec_ldst_imm9(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 29, 27) != 0b111 or _bits(word, 25, 24) != 0b00:
        return None
    if _bits(word, 21, 21):
        return None
    mode_bits = _bits(word, 11, 10)
    named = _ldst_regs(word)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    imm = _sext(_bits(word, 20, 12), 9)
    if mode_bits == 0b00:
        # Unscaled: canonical only if a scaled encoding could not express it.
        if imm >= 0 and imm % (1 << scale) == 0:
            return None
        unscaled = {"ldr": "ldur", "str": "stur"}.get(mnemonic)
        if unscaled is None:
            return None
        return Instruction(unscaled, (rt, Mem(rn, Imm(imm))))
    if mode_bits == 0b01:
        return Instruction(mnemonic, (rt, Mem(rn, Imm(imm), POST_INDEX)))
    if mode_bits == 0b11:
        return Instruction(mnemonic, (rt, Mem(rn, Imm(imm), PRE_INDEX)))
    return None


def _dec_ldst_regoffset(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 29, 27) != 0b111 or _bits(word, 25, 24) != 0b00:
        return None
    if not _bits(word, 21, 21) or _bits(word, 11, 10) != 0b10:
        return None
    named = _ldst_regs(word)
    if named is None:
        return None
    mnemonic, rt, rn, scale = named
    option = _bits(word, 15, 13)
    s = _bits(word, 12, 12)
    amount = scale if s else 0
    if s and scale == 0:
        return None  # non-canonical for our encoder
    rm_idx = _bits(word, 20, 16)
    if option == 0b011:
        rm = gpr_or_zr(rm_idx, 64)
        offset = rm if not s else Shifted(rm, "lsl", amount)
    elif option in (0b010, 0b110):
        rm = gpr_or_zr(rm_idx, 32)
        offset = Extended(rm, _EXTEND_NAMES[option], amount if s else None)
    elif option == 0b111:
        rm = gpr_or_zr(rm_idx, 64)
        offset = Extended(rm, "sxtx", amount if s else None)
    else:
        return None
    return Instruction(mnemonic, (rt, Mem(rn, offset)))


def _dec_ldst_pair(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 29, 27) != 0b101 or _bits(word, 25, 25):
        return None
    opc = _bits(word, 31, 30)
    v = _bits(word, 26, 26)
    mode = _bits(word, 24, 23)
    load = _bits(word, 22, 22)
    if v:
        table = {0b00: 32, 0b01: 64, 0b10: 128}
        bits = table.get(opc)
        if bits is None:
            return None
        scale = {32: 2, 64: 3, 128: 4}[bits]
        rt_of = lambda idx: vec(idx, bits)
    else:
        if opc == 0b10:
            bits, scale = 64, 3
        elif opc == 0b00:
            bits, scale = 32, 2
        else:
            return None
        rt_of = lambda idx: gpr_or_zr(idx, bits)
    mode_name = {0b01: POST_INDEX, 0b11: PRE_INDEX, 0b10: OFFSET}.get(mode)
    if mode_name is None:
        return None
    mnemonic = "ldp" if load else "stp"
    rt = rt_of(_bits(word, 4, 0))
    rt2 = rt_of(_bits(word, 14, 10))
    rn = gpr_or_sp(_bits(word, 9, 5))
    imm = _sext(_bits(word, 21, 15), 7) << scale
    offset = Imm(imm) if (imm or mode_name != OFFSET) else None
    if offset is None and mode_name == OFFSET:
        return Instruction(mnemonic, (rt, rt2, Mem(rn, None)))
    return Instruction(mnemonic, (rt, rt2, Mem(rn, Imm(imm), mode_name)))


def _dec_exclusive(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 29, 24) != 0b001000:
        return None
    size = _bits(word, 31, 30)
    if size not in (0b10, 0b11):
        return None
    bits = 64 if size == 0b11 else 32
    o2 = _bits(word, 23, 23)
    load = _bits(word, 22, 22)
    o1 = _bits(word, 21, 21)
    rs_field = _bits(word, 20, 16)
    o0 = _bits(word, 15, 15)
    rt2_field = _bits(word, 14, 10)
    if o1 or rt2_field != INDEX_31:
        return None
    rn = gpr_or_sp(_bits(word, 9, 5))
    rt = gpr_or_zr(_bits(word, 4, 0), bits)
    mem = Mem(rn, None)
    if o2 == 0:
        if load:
            if rs_field != INDEX_31:
                return None
            return Instruction("ldaxr" if o0 else "ldxr", (rt, mem))
        rs = gpr_or_zr(rs_field, 32)
        return Instruction("stlxr" if o0 else "stxr", (rs, rt, mem))
    if not o0 or rs_field != INDEX_31:
        return None
    return Instruction("ldar" if load else "stlr", (rt, mem))


# ---------------------------------------------------------------------------
# FP and SIMD
# ---------------------------------------------------------------------------

_FP_BITS = {0b00: 32, 0b01: 64, 0b11: 16}
_FP2_NAMES = {0b0000: "fmul", 0b0001: "fdiv", 0b0010: "fadd", 0b0011: "fsub",
              0b0100: "fmax", 0b0101: "fmin", 0b1000: "fnmul"}
_FP1_NAMES = {0b000000: "fmov", 0b000001: "fabs", 0b000010: "fneg",
              0b000011: "fsqrt"}
#: (rmode, opcode) -> (mnemonic, destination is the general register).
_FP_GPR_NAMES = {
    (0b00, 0b010): ("scvtf", False), (0b00, 0b011): ("ucvtf", False),
    (0b11, 0b000): ("fcvtzs", True), (0b11, 0b001): ("fcvtzu", True),
    (0b00, 0b110): ("fmov", True), (0b00, 0b111): ("fmov", False),
}


def _dec_fp(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) not in (0b11110, 0b11111):
        return None
    if _bits(word, 30, 29):
        return None
    t = _bits(word, 23, 22)
    bits = _FP_BITS.get(t)
    if bits is None:
        return None
    sf = word >> 31

    if _bits(word, 28, 24) == 0b11111:
        if sf:
            return None
        o0 = _bits(word, 15, 15)
        rd = vec(_bits(word, 4, 0), bits)
        rn = vec(_bits(word, 9, 5), bits)
        rm = vec(_bits(word, 20, 16), bits)
        ra = vec(_bits(word, 14, 10), bits)
        if _bits(word, 21, 21):
            return None
        return Instruction("fmsub" if o0 else "fmadd", (rd, rn, rm, ra))

    if not _bits(word, 21, 21):
        # int<->fp conversions live here with bit21 set; nothing else.
        return None

    # Conversions and general moves (bits [15:10] == 000000).
    if _bits(word, 15, 10) == 0 and _bits(word, 20, 19) in (
        0b00, 0b11
    ) and _bits(word, 18, 16) in (0b000, 0b001, 0b010, 0b011, 0b110, 0b111):
        named = _FP_GPR_NAMES.get((_bits(word, 20, 19), _bits(word, 18, 16)))
        if named is None:
            return None
        mnemonic, to_gpr = named
        gbits = 64 if sf else 32
        if mnemonic == "fmov" and bits != gbits:
            return None
        rd, rn = _bits(word, 4, 0), _bits(word, 9, 5)
        if to_gpr:
            return Instruction(mnemonic, (gpr_or_zr(rd, gbits), vec(rn, bits)))
        return Instruction(mnemonic, (vec(rd, bits), gpr_or_zr(rn, gbits)))

    if sf:
        return None

    low = _bits(word, 11, 10)
    if low == 0b10:
        # Two-source arithmetic.
        name = _FP2_NAMES.get(_bits(word, 15, 12))
        if name is None:
            return None
        return Instruction(name, (
            vec(_bits(word, 4, 0), bits), vec(_bits(word, 9, 5), bits),
            vec(_bits(word, 20, 16), bits),
        ))
    if low == 0b11:
        cond = Cond(CONDITION_CODES[_bits(word, 15, 12)])
        return Instruction("fcsel", (
            vec(_bits(word, 4, 0), bits), vec(_bits(word, 9, 5), bits),
            vec(_bits(word, 20, 16), bits), cond,
        ))
    if low == 0b00:
        if _bits(word, 15, 10) == 0b001000:
            # fcmp family.
            opcode2 = _bits(word, 4, 0)
            rn = vec(_bits(word, 9, 5), bits)
            rm_field = _bits(word, 20, 16)
            if opcode2 == 0b00000:
                return Instruction("fcmp", (rn, vec(rm_field, bits)))
            if opcode2 == 0b01000 and rm_field == 0:
                return Instruction("fcmp", (rn, FloatImm(0.0)))
            if opcode2 == 0b10000:
                return Instruction("fcmpe", (rn, vec(rm_field, bits)))
            if opcode2 == 0b11000 and rm_field == 0:
                return Instruction("fcmpe", (rn, FloatImm(0.0)))
            return None
    return None


def _dec_fp_imm(word: int, pc: int) -> Optional[Instruction]:
    # fmov (scalar, immediate): 000 11110 tt 1 imm8 100 00000 Rd
    if _bits(word, 31, 24) != 0b00011110 or not _bits(word, 21, 21):
        return None
    if _bits(word, 12, 10) != 0b100 or _bits(word, 9, 5) != 0:
        return None
    bits = _FP_BITS.get(_bits(word, 23, 22))
    if bits is None:
        return None
    imm8 = _bits(word, 20, 13)
    return Instruction(
        "fmov", (vec(_bits(word, 4, 0), bits), FloatImm(decode_fp8(imm8)))
    )


def _dec_fp1(word: int, pc: int) -> Optional[Instruction]:
    # One-source FP: 000 11110 tt 1 opcode6 10000 Rn Rd
    if _bits(word, 31, 24) != 0b00011110 or not _bits(word, 21, 21):
        return None
    if _bits(word, 14, 10) != 0b10000:
        return None
    bits = _FP_BITS.get(_bits(word, 23, 22))
    if bits is None:
        return None
    opcode = _bits(word, 20, 15)
    rd_idx, rn_idx = _bits(word, 4, 0), _bits(word, 9, 5)
    name = _FP1_NAMES.get(opcode)
    if name is not None:
        return Instruction(name, (vec(rd_idx, bits), vec(rn_idx, bits)))
    if opcode in (0b000100, 0b000101, 0b000111):
        dst_bits = {0b000100: 32, 0b000101: 64, 0b000111: 16}[opcode]
        if dst_bits == bits:
            return None
        return Instruction("fcvt", (vec(rd_idx, dst_bits), vec(rn_idx, bits)))
    return None


_ARRANGEMENTS = {
    (0, 0b00): "8b", (1, 0b00): "16b", (0, 0b01): "4h", (1, 0b01): "8h",
    (0, 0b10): "2s", (1, 0b10): "4s", (1, 0b11): "2d",
}


def _dec_simd3(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 24) != 0b01110 or _bits(word, 31, 31):
        return None
    if not _bits(word, 21, 21) or not _bits(word, 10, 10):
        return None
    q = _bits(word, 30, 30)
    u = _bits(word, 29, 29)
    size = _bits(word, 23, 22)
    opcode = _bits(word, 15, 11)
    arrangement = _ARRANGEMENTS.get((q, size))
    if arrangement is None:
        return None

    def v3(name: str, arr: str) -> Instruction:
        return Instruction(name, (
            VecReg(V[_bits(word, 4, 0)], arr),
            VecReg(V[_bits(word, 9, 5)], arr),
            VecReg(V[_bits(word, 20, 16)], arr),
        ))

    if opcode == 0b10000:
        return v3("sub" if u else "add", arrangement)
    if opcode == 0b10011 and not u:
        return v3("mul", arrangement)
    if opcode == 0b00011:
        logic = {(0, 0b00): "and", (0, 0b10): "orr", (1, 0b00): "eor",
                 (0, 0b01): "bic"}.get((u, size))
        if logic is None:
            return None
        arr = "16b" if q else "8b"
        return v3(logic, arr)
    # FP three-same: size = hi|sz with lanes 2s/4s/2d.
    sz = size & 1
    hi = size >> 1
    arr = None
    if sz == 0:
        arr = "4s" if q else "2s"
    elif q:
        arr = "2d"
    if arr is None:
        return None
    fp_table = {
        (0, 0b11010, 0): "fadd", (0, 0b11010, 1): "fsub",
        (1, 0b11011, 0): "fmul", (0, 0b11110, 0): "fmax",
        (0, 0b11110, 1): "fmin", (1, 0b11111, 0): "fdiv",
    }
    name = fp_table.get((u, opcode, hi))
    if name is None:
        return None
    return v3(name, arr)


def _dec_movi(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 19) != 0b0111100000 or _bits(word, 31, 31):
        return None
    if _bits(word, 11, 10) != 0b01 or _bits(word, 15, 12) != 0b1110:
        return None
    q = _bits(word, 30, 30)
    op = _bits(word, 29, 29)
    imm8 = (_bits(word, 18, 16) << 5) | _bits(word, 9, 5)
    rd = V[_bits(word, 4, 0)]
    if op == 0:
        arr = "16b" if q else "8b"
        return Instruction("movi", (VecReg(rd, arr), Imm(imm8)))
    if q and imm8 == 0:
        return Instruction("movi", (VecReg(rd, "2d"), Imm(0)))
    return None


def _dec_dup(word: int, pc: int) -> Optional[Instruction]:
    if _bits(word, 28, 21) != 0b01110000 or _bits(word, 31, 31):
        return None
    if _bits(word, 15, 10) != 0b000011 or _bits(word, 29, 29):
        return None
    # imm5 one-hot picks the lane size; q doubles the lane count.
    arrangement = {(0b00001, 0): "8b", (0b00001, 1): "16b", (0b00010, 0): "4h",
                   (0b00010, 1): "8h", (0b00100, 0): "2s", (0b00100, 1): "4s",
                   (0b01000, 1): "2d"}.get(
        (_bits(word, 20, 16), _bits(word, 30, 30)))
    if arrangement is None:
        return None
    gbits = 64 if arrangement == "2d" else 32
    rn = gpr_or_zr(_bits(word, 9, 5), gbits)
    return Instruction("dup", (VecReg(V[_bits(word, 4, 0)], arrangement), rn))


#: The encoding groups as data, in dispatch order: ``(group, mask, match,
#: fields)``.  A word belongs to a row when ``word & mask == match``; the
#: bits outside ``mask`` are the row's operand fields, listed high to low as
#: ``name:lo:width``.  The group's ``_dec_<group>`` function then checks
#: the sub-encodings a mask cannot express and builds the instruction.
#: Rows are pairwise disjoint, so at most one claims a word.
#: ``core/rules.py`` gives every row the verifier's rule, and
#: ``repro.prove`` draws its instruction classes from the same rows.
_RD5, _RN5, _RM5 = "rd:0:5", "rn:5:5", "rm:16:5"
_LDST_FIELDS = "size:30:2 v:26:1 opc:22:2 "
ENCODINGS = (
    ("system", 0xFFFFFFFF, 0xD503201F, ""),                         # nop
    ("system", 0xFFE0001F, 0xD4000001, "imm16:5:16"),               # svc
    ("system", 0xFFE0001F, 0xD4200000, "imm16:5:16"),               # brk
    ("system", 0xFFE0001F, 0xD4400000, "imm16:5:16"),               # hlt
    ("system", 0xFFFFF01F, 0xD503301F, "crm:8:4 op2:5:3"),          # barriers
    ("branch_imm", 0x7C000000, 0x14000000, "op:31:1 imm26:0:26"),
    ("branch_cond", 0xFF000010, 0x54000000, "imm19:5:19 cond:0:4"),
    ("branch_reg", 0xFFDFFC1F, 0xD61F0000, f"opc:21:1 {_RN5}"),     # br / blr
    ("branch_reg", 0xFFFFFC1F, 0xD65F0000, _RN5),                   # ret
    ("cb", 0x7E000000, 0x34000000, "sf:31:1 op:24:1 imm19:5:19 rt:0:5"),
    ("tb", 0x7E000000, 0x36000000,
     "b5:31:1 op:24:1 b40:19:5 imm14:5:14 rt:0:5"),
    ("adr", 0x1F000000, 0x10000000,
     f"op:31:1 immlo:29:2 immhi:5:19 {_RD5}"),
    ("addsub_imm", 0x1F800000, 0x11000000,
     f"sf:31:1 op:30:1 S:29:1 sh:22:1 imm12:10:12 {_RN5} {_RD5}"),
    ("logical_imm", 0x1F800000, 0x12000000,
     f"sf:31:1 opc:29:2 N:22:1 immr:16:6 imms:10:6 {_RN5} {_RD5}"),
    ("movewide", 0x1F800000, 0x12800000,
     f"sf:31:1 opc:29:2 hw:21:2 imm16:5:16 {_RD5}"),
    ("bitfield", 0x1F800000, 0x13000000,
     f"sf:31:1 opc:29:2 N:22:1 immr:16:6 imms:10:6 {_RN5} {_RD5}"),
    ("extr", 0x7FA00000, 0x13800000,
     f"sf:31:1 N:22:1 {_RM5} imms:10:6 {_RN5} {_RD5}"),
    ("logical_shifted", 0x1F000000, 0x0A000000,
     f"sf:31:1 opc:29:2 shift:22:2 N:21:1 {_RM5} imm6:10:6 {_RN5} {_RD5}"),
    ("addsub_shifted", 0x1F200000, 0x0B000000,
     f"sf:31:1 op:30:1 S:29:1 shift:22:2 {_RM5} imm6:10:6 {_RN5} {_RD5}"),
    ("addsub_extended", 0x1FE00000, 0x0B200000,
     f"sf:31:1 op:30:1 S:29:1 {_RM5} option:13:3 imm3:10:3 {_RN5} {_RD5}"),
    ("dp2", 0x7FE00000, 0x1AC00000,
     f"sf:31:1 {_RM5} opcode:10:6 {_RN5} {_RD5}"),
    ("dp1", 0x7FFF0000, 0x5AC00000, f"sf:31:1 opcode:10:6 {_RN5} {_RD5}"),
    ("dp3", 0x7FE00000, 0x1B000000,                                 # madd/msub
     f"sf:31:1 {_RM5} o0:15:1 ra:10:5 {_RN5} {_RD5}"),
    ("dp3", 0xFF60FC00, 0x9B207C00, f"U:23:1 {_RM5} {_RN5} {_RD5}"), # [su]mull
    ("dp3", 0xFF60FC00, 0x9B407C00, f"U:23:1 {_RM5} {_RN5} {_RD5}"), # [su]mulh
    ("condsel", 0x3FE00800, 0x1A800000,
     f"sf:31:1 op:30:1 {_RM5} cond:12:4 o2:10:1 {_RN5} {_RD5}"),
    ("ccmp", 0x3FE00410, 0x3A400000,
     f"sf:31:1 op:30:1 {_RM5} cond:12:4 imm:11:1 {_RN5} nzcv:0:4"),
    ("ldst_unsigned", 0x3B000000, 0x39000000,
     f"{_LDST_FIELDS}imm12:10:12 {_RN5} rt:0:5"),
    ("ldst_imm9", 0x3B200000, 0x38000000,
     f"{_LDST_FIELDS}imm9:12:9 mode:10:2 {_RN5} rt:0:5"),
    ("ldst_regoffset", 0x3B200C00, 0x38200800,
     f"{_LDST_FIELDS}{_RM5} option:13:3 S:12:1 {_RN5} rt:0:5"),
    ("ldst_pair", 0x3A000000, 0x28000000,
     f"opc:30:2 v:26:1 mode:23:2 load:22:1 imm7:15:7 rt2:10:5 {_RN5} rt:0:5"),
    ("exclusive", 0x3F207C00, 0x08007C00,
     f"size:30:2 o2:23:1 L:22:1 rs:16:5 o0:15:1 {_RN5} rt:0:5"),
    ("fp_imm", 0xFF201FE0, 0x1E201000, f"type:22:2 imm8:13:8 {_RD5}"),
    ("fp1", 0xFF207C00, 0x1E204000, f"type:22:2 opcode:15:6 {_RN5} {_RD5}"),
    ("fp", 0x7F20FC00, 0x1E200000,  # to/from GPR
     f"sf:31:1 type:22:2 rmode:19:2 opcode:16:3 {_RN5} {_RD5}"),
    ("fp", 0xFF200C00, 0x1E200800,  # two-source
     f"type:22:2 {_RM5} opcode:12:4 {_RN5} {_RD5}"),
    ("fp", 0xFF200C00, 0x1E200C00,                                  # fcsel
     f"type:22:2 {_RM5} cond:12:4 {_RN5} {_RD5}"),
    ("fp", 0xFF20FC07, 0x1E202000, f"type:22:2 {_RM5} {_RN5} opc:3:2"),  # fcmp
    ("fp", 0xFF200000, 0x1F000000,  # fmadd/fmsub
     f"type:22:2 {_RM5} o0:15:1 ra:10:5 {_RN5} {_RD5}"),
    ("simd3", 0x9F200400, 0x0E200400,
     f"q:30:1 u:29:1 size:22:2 {_RM5} opcode:11:5 {_RN5} {_RD5}"),
    ("movi", 0x9FF8FC00, 0x0F00E400,
     f"q:30:1 op:29:1 abc:16:3 defgh:5:5 {_RD5}"),
    ("dup", 0xBFE0FC00, 0x0E000C00, f"q:30:1 imm5:16:5 {_RN5} {_RD5}"),
)


def row_fields(layout: str) -> List[Tuple[str, int, int]]:
    """A row's ``fields`` string as ``(name, lo, width)`` triples."""
    return [(name, int(lo), int(width)) for name, lo, width in
            (item.split(":") for item in layout.split())]


_TOP_BYTES = [(mask >> 24, match >> 24)
              for _name, mask, match, _fields in ENCODINGS]
_BUCKETS = tuple(tuple(i for i, (mask, match) in enumerate(_TOP_BYTES)
                       if not (top ^ match) & mask) for top in range(256))
_INDEX = top_byte_index([
    (mask, match, globals()["_dec_" + name], name)
    for name, mask, match, _fields in ENCODINGS])

#: The encoding groups that turn a pc-relative field into an absolute
#: address; every other decoder ignores its ``pc`` argument.
_READS_PC = frozenset(("branch_imm", "branch_cond", "cb", "tb", "adr"))
