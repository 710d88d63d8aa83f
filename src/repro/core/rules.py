"""The verifier's accept rule, as data over raw 32-bit words (paper §5.2).

``arm64.decoder.ENCODINGS`` states each supported encoding group once as a
``(group, mask, match, fields)`` row; this module gives every row a *rule*.
A rule reads bit fields of the word, never a decoded instruction, and
returns a code: ``0`` (the decoder does not decode the word), ``OK``
(accepted whatever follows), a ``NEED_*`` bit (accepted if the following
words complete the pattern, which :func:`settled` decides over a look-ahead
window) or ``DECODED`` (rejected), with the structure flags that window
reads.  Every code that is not ``OK`` also carries the ``R_*`` reason bits
that say why the word is, or if its pattern stays incomplete will be,
rejected: the verifier words its violations from those bits and the word's
fields, so the table gives the reason as well as the verdict.  A rule
accepts only what the decoder decodes, so it also states the sub-encodings
a mask cannot.  It uses only ``>>``, ``&``, comparison and arithmetic, so
``repro.prove`` runs it on symbolic words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

from ..arm64.decoder import ENCODINGS, top_byte_index
from .constants import SP_SMALL_IMM

__all__ = ["OK", "BRANCH", "SPMEM", "SPSMALL", "SPDEF", "NEEDS", "DECODED",
           "rule_index", "classify", "settled", "x30_guard_follows"]

OK = 1            # accepted, whatever follows
BRANCH = 2        # any branch: ends an sp window
SPMEM = 4         # memory access based on sp ...
SPSMALL = 8       # ... by a small immediate (or: sp drifts by one)
SPDEF = 16        # writes sp other than by an access's writeback
NEED_X30 = 32     # next word must be ``add x30, x21, wN, uxtw``
NEED_X18 = 64     # next word must be ``add x18, x21, wN, uxtw``
NEED_CALL = 128   # next word must be ``blr x30`` (or the x30 guard)
NEED_SP = 256     # an sp guard (small drift: or a small sp access) must follow
NEEDS = NEED_X30 | NEED_X18 | NEED_CALL | NEED_SP
DECODED = 512     # decodes, but not accepted

# Reason bits, in the order the verifier words them (the order in which the
# decoded checker yields its reasons).  A message reads only the fields
# named here; the few that print the instruction decode the word.
R_UNSAFE = 1 << 10          # not on the safe list (svc, hlt)
R_EXCLUSIVE = 1 << 11       # LL/SC or ordered access, disallowed by policy
R_SP_REGOFF = 1 << 12       # [sp, <register offset>]
R_SP_DISP = 1 << 13         # [sp, #d], d past the guard region
R_REGOFF = 1 << 14          # [Rn, <register offset>], Rn x18/x23/x24
R_DISP = 1 << 15            # [Rn, #d], d past the guard region
R_WRITEBACK = 1 << 16       # writeback moves reserved base register Rn
R_X21_EXTEND = 1 << 17      # [x21, <register, extended other than uxtw>]
R_X21_STORE = 1 << 18       # store into the read-only runtime-call table
R_X21_WRITEBACK = 1 << 19   # writeback moves x21
R_X21_NEGATIVE = 1 << 20    # [x21, #d], d < 0
R_X21_DISP = 1 << 21        # [x21, #d], d past the table
R_X21_ADDRESSING = 1 << 22  # [x21, <register, shifted>]
R_BASE = 1 << 23            # any other base register Rn
R_RT = 1 << 24              # a load writes Rt: x18/x21/x23/x24, all of
R_RT2 = 1 << 25             # ... x22, w30 or x30 (x30: fine ahead of its
R_RS = 1 << 26              # guard); Rt2 of a pair; stxr's status Rs
R_WIDE = 1 << 27            # the registers R_RT/R_RT2 name are 64-bit
R_TARGET = 1 << 28          # br/blr/ret through another register Rn
R_WRITE = 1 << 29           # writes Rd: x18/x21/x23/x24, 64-bit x22, x30
R_SP = 1 << 30              # writes sp (SPSMALL: by a small immediate)

_GUARD = 0x8B2042A0        # add xD, x21, wN, uxtw  (N, D masked out)
_GUARD_MASK = 0xFFE0FFE0
_SP_GUARD = 0x8B3662BF     # add sp, x21, x22
_BLR_X30 = 0xD63F03C0
_BIC_W18 = 0x0A390012      # bic w18, wN, w25  (N masked out)

_TARGETS = (18, 23, 24, 30)          # registers a br/blr/ret may use

# The code for writing a GPR (31 = zr) as a (32-bit, 64-bit) pair: x22 keeps
# its top half zero; x30 is written whole and only ahead of its guard; x21
# never changes and x18/x23/x24 only by the guard (see _addsub_extended).
_WRONG = DECODED | R_WRITE
_PLAIN, _LO32, _LINK, _FIXED = (OK, OK), (OK, _WRONG), \
    (_WRONG, NEED_X30 | R_WRITE), (_WRONG, _WRONG)
_WRITES = tuple(_FIXED if r in (18, 21, 23, 24) else _LO32 if r == 22
                else _LINK if r == 30 else _PLAIN for r in range(32))


def _rd(word) -> int:
    """Rd at 4:0 (31 = zr), 64-bit when sf (bit 31) is set."""
    return _WRITES[word & 31][word >> 31]


def _refuse(code: int, why: int) -> int:
    """``code``'s structure flags, rejected for the reasons ``why``."""
    return code & ~OK | DECODED | why


def _always(code: int):
    return lambda word: code


def _unless(rule, *unallocated):
    """``rule``, after refusing the group's unallocated sub-encodings:
    ``(mask, match)`` pairs the word must not match."""
    def checked(word) -> int:
        for mask, match in unallocated:
            if word & mask == match:
                return 0
        return rule(word)
    return checked


def _among(rule, shift: int, mask: int, allowed: tuple):
    """``rule``, for words whose opcode field is one of ``allowed``."""
    return lambda word: rule(word) if (word >> shift) & mask in allowed else 0


_SP_WRITE = NEED_SP | SPDEF | R_SP


def _addsub_imm(word) -> int:
    imm12 = (word >> 10) & 0xFFF
    shifted = word & 0x00400000
    if shifted and imm12 == 0:
        return 0                                            # non-canonical
    if word & 0x2000001F == 31:                             # S == 0, Rd = sp
        small = word & 0x800003E0 == 0x800003E0 and not shifted \
            and imm12 < SP_SMALL_IMM                        # add sp, sp, #small
        return _SP_WRITE | SPSMALL if small else _SP_WRITE
    return _rd(word)


def _addsub_extended(word) -> int:
    if word & _GUARD_MASK == _GUARD and word & 31 in _TARGETS:
        return OK                                           # the §3 guard
    if word & 0x2000001F == 31:                             # S == 0, Rd = sp
        return OK if word == _SP_GUARD else _SP_WRITE
    return _rd(word)


def _logical_imm(word) -> int:
    imms = (word >> 10) & 63
    size = 64 if word & 0x00400000 else 1 << (imms ^ 63).bit_length() >> 1
    if imms & (size - 1) == size - 1 or (word >> 16) & 63 >= size:
        return 0    # bitmask element: all ones, or rotated past its size
    if word & 31 == 31 and word & 0x60000000 != 0x60000000:  # Rd = sp
        return _SP_WRITE
    return _rd(word)


def _logical_shifted(word) -> int:
    if word & 0xFFFFFC1F == _BIC_W18 and word & 0x3E0 != 0x3E0:
        return NEED_X18 | R_WRITE                           # the masked guard
    return _rd(word)


def _branch_reg(word) -> int:
    if (word >> 5) & 31 in _TARGETS:
        return OK | BRANCH
    return DECODED | BRANCH | R_TARGET


def _ror(word) -> int:
    """extr is supported only as its ror alias (Rn == Rm)."""
    return _rd(word) if (word >> 5) & 31 == (word >> 16) & 31 else 0


def _fp_gpr(word) -> int:
    """Conversions and moves between the FP and general register files."""
    op = (word >> 16) & 31                                  # rmode : opcode
    if op in (2, 3):
        return OK                                           # scvtf / ucvtf
    if op in (24, 25):
        return _rd(word)                                    # fcvtz[su]
    if op in (6, 7) and word >> 31 == (word >> 22) & 3:     # fmov, same width
        return _rd(word) if op == 6 else OK
    return 0


def _simd3(word) -> int:
    q, u = (word >> 30) & 1, (word >> 29) & 1
    size, opcode = (word >> 22) & 3, (word >> 11) & 31
    if size == 3 and not q:
        return 0
    if opcode == 16 or opcode == 19 and not u:
        return OK                                           # add / sub / mul
    if opcode == 3:
        return OK if (u, size) in ((0, 0), (0, 2), (1, 0), (0, 1)) else 0
    if size & 1 and not q:
        return 0
    return OK if (u, opcode, size >> 1) in (
        (0, 26, 0), (0, 26, 1), (1, 27, 0), (0, 30, 0), (0, 30, 1),
        (1, 31, 0)) else 0                                  # FP three-same


def _ldst_kind(key: int):
    """``v << 4 | size << 2 | opc`` -> (load, dest, scale) or None; ``dest``
    is the width index of the GPR a load writes, None when it writes none."""
    vector, size, opc = key >> 4, (key >> 2) & 3, key & 3
    if vector:                      # b/h/s/d by size; q is size 0, opc 1x
        return (opc & 1, None, size if opc < 2 else 4) \
            if opc < 2 or not size else None
    if opc < 2:                     # str[bh] / ldr[bh]
        return opc, size // 3 if opc else None, size
    return (1, 3 - opc, size) if size + opc < 5 else None    # ldrs[bhw]


_LDST = tuple(_ldst_kind(key) for key in range(32))


def _memory_rules(max_displacement: int, sandbox_loads: bool,
                  allow_exclusives: bool, writeback_hole: bool) -> dict:
    """The load/store rules, the only ones a ``VerifierPolicy`` changes.

    ``writeback_hole`` re-opens the PR-2 hole (writeback through a reserved
    base) for the prover's non-vacuity self-test; the verifier never sets it.
    """

    def access(rn: int, load, disp, writeback) -> int:
        """Addressing safety of base ``rn`` + immediate ``disp``."""
        sp = rn == 31
        flags = OK if not sp else OK | SPMEM | SPSMALL \
            if abs(disp) < SP_SMALL_IMM else OK | SPMEM
        if load and not sandbox_loads:
            # Unchecked loads must still not move a reserved register.
            held = writeback and not writeback_hole \
                and rn in (18, 21, 22, 23, 24, 30)
            return _refuse(flags, R_WRITEBACK) if held else flags
        if rn in (18, 23, 24):
            why = 0 if abs(disp) < max_displacement else R_DISP
            if writeback and not writeback_hole:
                why |= R_WRITEBACK
        elif rn == 21:          # the read-only runtime-call table
            why = R_X21_STORE if not load else R_X21_WRITEBACK if writeback \
                else R_X21_NEGATIVE if disp < 0 \
                else 0 if disp < max_displacement else R_X21_DISP
        elif sp:
            why = 0 if abs(disp) < max_displacement else R_SP_DISP
        else:
            why = R_BASE
        return _refuse(flags, why) if why else flags

    def loads(code: int, dest, rt: int, rt2: int = 31,
              call: bool = False) -> int:
        """Fold the GPRs a load writes (width index ``dest``; 31 = zr, for
        no second register) into its access code."""
        if dest is None or _WRITES[rt] is _PLAIN and _WRITES[rt2] is _PLAIN:
            return code
        why, fixed = 0, False
        for bit, wrote in ((R_RT, _WRITES[rt][dest]),
                           (R_RT2, _WRITES[rt2][dest])):
            if wrote != OK:
                why |= bit
                fixed = fixed or not wrote & NEED_X30
        if not why:
            return code
        why |= R_WIDE if dest else 0
        if code & OK and not fixed:     # x30, ahead of its guard
            return code & ~OK | why | (NEED_CALL if call else NEED_X30)
        return _refuse(code, why)

    def kind_of(word):
        return _LDST[(word >> 22) & 16 | (word >> 28) & 12 | (word >> 22) & 3]

    def unsigned(word) -> int:
        kind = kind_of(word)
        if kind is None:
            return 0
        load, dest, scale = kind
        disp = ((word >> 10) & 0xFFF) << scale
        rn = (word >> 5) & 31
        code = access(rn, load, disp, False)
        if dest is None or _WRITES[word & 31] is _PLAIN:
            return code
        # ``ldr x30, [x21, #n]`` may instead be the head of a runtime call.
        call = rn == 21 and word >> 22 == 0x3E5 and disp < max_displacement
        return loads(code, dest, word & 31, call=call)

    def imm9(word) -> int:
        kind, mode = kind_of(word), (word >> 10) & 3
        if kind is None or mode == 2:
            return 0
        load, dest, scale = kind
        disp = (word >> 12) & 0x1FF
        disp -= (disp & 0x100) << 1                         # sign-extend
        if mode == 0 and (disp >= 0 and disp % (1 << scale) == 0
                          or not word & 0x04000000
                          and word & 0x80800000 != 0x80000000):
            return 0    # ldur/stur: plain ldr/str only, and not if scalable
        code = access((word >> 5) & 31, load, disp, mode != 0)
        return loads(code, dest, word & 31)

    def regoffset(word) -> int:
        kind = kind_of(word)
        if kind is None or not word & 0x4000 \
                or word & 0x1000 and not kind[2]:
            return 0
        if kind[0] and not sandbox_loads:
            code = OK | SPMEM if word & 0x3E0 == 0x3E0 else OK
        elif word & 0xF3E0 == 0x42A0:   # ``[x21, wN, uxtw]``, the zero-cost
            code = OK                   # guard, is the only one allowed
        else:
            rn = (word >> 5) & 31
            code = _refuse(SPMEM, R_SP_REGOFF) if rn == 31 \
                else DECODED | R_REGOFF if rn in (18, 23, 24) \
                else DECODED | R_BASE if rn != 21 \
                else DECODED | R_X21_ADDRESSING if word & 0xE000 == 0x6000 \
                else DECODED | R_X21_EXTEND
        return loads(code, kind[1], word & 31)

    def pair(word) -> int:
        opc, vector = word >> 30, word & 0x04000000
        mode = (word >> 23) & 3
        if mode == 0 or opc == 3 or opc == 1 and not vector:
            return 0
        disp = (word >> 15) & 0x7F
        disp -= (disp & 0x40) << 1                          # sign-extend
        disp <<= 2 + opc if vector else 2 + (opc >> 1)
        load = word & 0x00400000
        code = access((word >> 5) & 31, load, disp, mode != 2)
        dest = opc >> 1 if load and not vector else None
        return loads(code, dest, word & 31, (word >> 10) & 31)

    def exclusive(word) -> int:
        size, load = word >> 30, word & 0x00400000
        plain = word & 0x00800000               # ldar / stlr
        status = (word >> 16) & 31
        if size < 2 or (load or plain) and status != 31 \
                or plain and not word & 0x8000:
            return 0
        code = access((word >> 5) & 31, load, 0, False)
        if not allow_exclusives:
            return _refuse(code & (SPMEM | SPSMALL), R_EXCLUSIVE)
        if load:
            return loads(code, size & 1, word & 31)
        return code if plain or _WRITES[status][0] == OK \
            else _refuse(code, R_RS)

    return {"ldst_unsigned": unsigned, "ldst_imm9": imm9,
            "ldst_regoffset": regoffset, "ldst_pair": pair,
            "exclusive": exclusive}


_FLOW = _always(OK | BRANCH)
_WIDE_SHIFT = (0x80008000, 0x00008000)      # 32-bit op, shift amount > 31
_N_NOT_SF = ((0x80400000, 0x00400000), (0x80400000, 0x80000000))
_FP_TYPE2 = (0x00C00000, 0x00800000)        # FP type 10 is unallocated

#: The rule of every encoding row the policy does not touch, by group or,
#: where a group's rows differ, by ``(group, match)``.
_RULES = {
    ("system", 0xD503201F): _always(OK),                    # nop
    ("system", 0xD4200000): _always(OK),                    # brk
    ("system", 0xD503301F): _among(_among(_always(OK), 5, 7, (4, 5, 6)),
                                   8, 15, (9, 10, 11, 15)),  # barriers
    "system": _always(DECODED | R_UNSAFE),                  # svc, hlt
    "branch_imm": _FLOW, "cb": _FLOW, "tb": _FLOW,
    "branch_cond": _unless(_FLOW, (0xE, 0xE)),              # not al / nv
    "branch_reg": _branch_reg,
    "adr": lambda word: _WRITES[word & 31][1],
    "addsub_imm": _addsub_imm,
    "logical_imm": _unless(_logical_imm, _N_NOT_SF[0]),
    "movewide": _unless(_rd, (0x60000000, 0x20000000),      # opc 01
                        (0x80400000, 0x00400000)),          # 32-bit, hw > 1
    "bitfield": _unless(_rd, (0x60000000, 0x60000000), *_N_NOT_SF,
                        (0x80200000, 0x00200000), _WIDE_SHIFT),
    "extr": _unless(_ror, *_N_NOT_SF, _WIDE_SHIFT),
    "logical_shifted": _unless(_logical_shifted, _WIDE_SHIFT),
    "addsub_shifted": _unless(_rd, (0x00C00000, 0x00C00000), _WIDE_SHIFT),
    "addsub_extended": _among(_addsub_extended, 10, 7, (0, 1, 2, 3, 4)),
    "dp2": _among(_rd, 10, 63, (2, 3, 8, 9, 10, 11)),
    "dp1": _unless(_among(_rd, 10, 63, (0, 1, 2, 3, 4)),
                   (0x8000FC00, 0x00000C00)),               # 32-bit rev32
    "dp3": _rd, "condsel": _rd, "ccmp": _always(OK),
    "fp_imm": _unless(_always(OK), _FP_TYPE2),
    # fmov/fabs/fneg/fsqrt, and fcvt (4, 5, 7) to a width not its own
    "fp1": _unless(_among(_always(OK), 15, 63, (0, 1, 2, 3, 4, 5, 7)),
                   _FP_TYPE2, (0x00DF8000, 0x00020000),
                   (0x00DF8000, 0x00428000), (0x00DF8000, 0x00C38000)),
    ("fp", 0x1E200000): _unless(_fp_gpr, _FP_TYPE2),
    ("fp", 0x1E200800): _unless(                            # two-source
        _among(_always(OK), 12, 15, (0, 1, 2, 3, 4, 5, 8)), _FP_TYPE2),
    ("fp", 0x1E200C00): _unless(_always(OK), _FP_TYPE2),    # fcsel
    # fcmp with zero (bit 3) names no Rm
    ("fp", 0x1E202000): _unless(_always(OK), _FP_TYPE2, *(
        (0x00000008 | rm, 8 | rm) for rm in (1 << b for b in range(16, 21)))),
    ("fp", 0x1F000000): _unless(_always(OK), _FP_TYPE2),    # fmadd / fmsub
    "simd3": _simd3,
    "movi": _unless(_always(OK), (0x60000000, 0x20000000), *(
        (0x20000000 | bit, 0x20000000 | bit)                # 64-bit: #0 only
        for bit in (1 << b for b in (5, 6, 7, 8, 9, 16, 17, 18)))),
    "dup": _unless(_among(_always(OK), 16, 31, (1, 2, 4, 8)),
                   (0x401F0000, 0x00080000)),               # no 1d lanes
}


@lru_cache(maxsize=16)
def rule_index(max_displacement: int, sandbox_loads: bool,
               allow_exclusives: bool, writeback_hole: bool = False) -> tuple:
    """The joined table for one policy: per top byte, the ``(mask, match,
    rule)`` rows a word can still match.  A group without a rule is an
    error here, so the decoder cannot grow without the verifier noticing."""
    rules = dict(_RULES, **_memory_rules(
        max_displacement, sandbox_loads, allow_exclusives, writeback_hole))
    return top_byte_index([
        (mask, match, rules.get((name, match)) or rules[name])
        for name, mask, match, _fields in ENCODINGS])


def classify(index: tuple, words: Sequence) -> List[int]:
    """One code per word: the single pass over the text."""
    codes = []
    for word in words:
        for mask, match, rule in index[word >> 24]:
            if word & mask == match:
                codes.append(rule(word))
                break
        else:
            codes.append(0)
    return codes


def x30_guard_follows(words: Sequence, i: int) -> bool:
    """Is the word after ``i`` the x30 guard?"""
    return i + 1 < len(words) and words[i + 1] & 0xFFE0FFFF == _GUARD | 30


def settled(words: Sequence, codes: Sequence[int], i: int) -> bool:
    """Do the words after ``i`` complete the pattern ``codes[i]`` needs?"""
    code = codes[i]
    last = len(words) - 1
    if not code & NEED_SP:
        if i == last:
            return False
        nxt = words[i + 1] & 0xFFE0FFFF
        if code & NEED_X18:
            return nxt == _GUARD | 18
        return nxt == _GUARD | 30 or bool(code & NEED_CALL
                                          and words[i + 1] == _BLR_X30)
    # sp arithmetic: a guard -- or, after a small drift, a small trapping
    # access -- must re-establish sp before any branch or other sp use
    # (the §4.2 same-basic-block rules).
    for j in range(i + 1, last + 1):
        if words[j] == _SP_GUARD:
            return True
        code_j = codes[j]
        if code_j & SPMEM:
            return bool(code & SPSMALL and code_j & SPSMALL)
        if not code_j or code_j & (SPDEF | BRANCH):
            return False
    return False
