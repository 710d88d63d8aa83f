"""The LFI static verifier (paper §5.2).

A single linear pass over the text segment's *machine code*: every raw
32-bit word is looked up in the rule table (``rules.py``: encoding rows ->
verdict and reason bits) and the few words whose verdict depends on what
follows are settled over a look-ahead window.  A rejected word's violations
are worded from its reason bits and fields (``_REASONS``); it is decoded
only for a message that prints the instruction, and ``Violation.disasm`` is
decoded when it is read.  The decoded checker below (``_check`` and
friends) states the same rules over decoded instructions: it is the
reference the table is tested against, reasons included, and
``repro.prove`` runs it beside the table.  A word the table rejects stays
rejected even if no reason can be worded for it.  Together they enforce:

1. loads, stores, and indirect branches only target reserved registers
   (guaranteed to hold valid sandbox addresses) or use safe addressing
   modes;
2. reserved registers are only modified in invariant-preserving ways
   (x21 never; x18/x23/x24 only via the ``add xR, x21, wN, uxtw`` guard;
   x22 only with 32-bit writes; sp and x30 via their dedicated guard
   patterns);
3. only instructions from the premade safe-ARMv8.0 allowlist appear —
   anything the decoder does not recognize is rejected.

The verifier is the trusted half of the system: the rewriter (like the
compiler that feeds it) is *untrusted*, and nothing here depends on knowing
how the rewriter works — e.g. hoisted access runs verify with the same two
rules that verify everything else (§4.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from ..arm64 import isa
from ..arm64.decoder import decode_word
from ..arm64.instructions import Instruction
from ..arm64.operands import Extended, Imm, Mem, OFFSET
from ..arm64.registers import Reg, SP, W, X
from ..errors import VerificationError as _VerificationError
from .constants import (
    ADDRESS_INDICES,
    BRANCH_TARGET_INDICES,
    MAX_IMM_DISPLACEMENT,
    RESERVED_INDICES,
    SP_SMALL_IMM,
)
from .rules import (BRANCH, DECODED, NEEDS, OK, R_BASE, R_DISP, R_EXCLUSIVE,
                    R_REGOFF, R_RS, R_RT, R_RT2, R_SP, R_SP_DISP, R_SP_REGOFF,
                    R_TARGET, R_UNSAFE, R_WIDE, R_WRITE, R_WRITEBACK,
                    R_X21_ADDRESSING, R_X21_DISP, R_X21_EXTEND,
                    R_X21_NEGATIVE, R_X21_STORE, R_X21_WRITEBACK, SPDEF,
                    SPMEM, SPSMALL, classify, rule_index, settled,
                    x30_guard_follows)

__all__ = ["Violation", "VerificationResult", "VerifierPolicy", "Verifier",
           "verify_text", "verify_elf"]


#: Ordered (substring, code) table mapping human-readable violation
#: reasons to stable machine-readable codes.  First match wins, so more
#: specific patterns come first.  Prover and fuzz tooling key on these
#: codes instead of parsing prose.  The verifier stores each violation's
#: code as it words the reason; this table names the decoded checker's
#: reasons, and the code of a ``Violation`` built from prose alone.
_REASON_CODES = (
    ("undecodable instruction", "undecodable"),
    ("text size not a multiple", "text-size"),
    ("not on the safe list", "unsafe-mnemonic"),
    ("disallowed by policy", "exclusives-disallowed"),
    ("writeback would modify reserved register", "writeback-reserved"),
    ("writeback would modify x21", "writeback-x21"),
    ("register-offset addressing from sp", "sp-regoffset"),
    ("sp displacement", "sp-displacement"),
    ("register-offset addressing from", "regoffset-reserved"),
    ("unsafe extend", "unsafe-extend"),
    ("store through x21", "store-x21"),
    ("negative displacement from x21", "x21-negative"),
    ("x21 displacement", "x21-displacement"),
    ("unsafe addressing from x21", "x21-addressing"),
    ("displacement", "displacement"),
    ("unguarded base register", "unguarded-base"),
    ("load writes x21", "load-x21"),
    ("load writes reserved register", "load-reserved"),
    ("64-bit load writes x22", "load-x22-64"),
    ("32-bit write to link register", "x30-32bit-write"),
    ("load writes x30 without", "load-x30-unguarded"),
    ("malformed indirect branch", "branch-malformed"),
    ("indirect branch through unguarded", "branch-unguarded"),
    ("write to x21", "write-x21"),
    ("64-bit write to x22", "write-x22-64"),
    ("modified by something other than the guard", "unguarded-write"),
    ("sp arithmetic without a following sp access", "sp-arith-unclosed"),
    ("unsafe sp modification", "sp-unsafe"),
    ("memory instruction without memory operand", "malformed-memory"),
)

#: Reason given when the table rejects a word it gives no reason for.
_UNEXPLAINED = "rejected by the rule table"


def reason_code(reason: str) -> str:
    """The stable code of a reason given as prose."""
    for pattern, code in _REASON_CODES:
        if pattern in reason:
            return code
    return "other"


class Violation:
    """One verification failure.

    ``disasm`` carries the decoded instruction's disassembly and ``mode``
    the verifier policy label, so reports are actionable without
    re-decoding the word or knowing which policy produced them.  Both
    default to empty for compatibility with positional construction;
    ``disasm=None`` decodes the word the first time ``disasm`` is read.
    ``code`` is the stable machine-readable code of the reason, named by
    :func:`reason_code` unless given.  A violation hashes over its fields,
    so they are read-only: each is a property over a private slot.
    """

    __slots__ = ("_address", "_word", "_reason", "_mode", "_code", "_disasm")

    address = property(attrgetter("_address"))
    word = property(attrgetter("_word"))
    reason = property(attrgetter("_reason"))
    mode = property(attrgetter("_mode"))
    code = property(attrgetter("_code"))

    def __init__(self, address: int, word: int, reason: str,
                 disasm: Optional[str] = "", mode: str = "",
                 code: Optional[str] = None):
        self._address, self._word, self._reason = address, word, reason
        self._mode, self._disasm = mode, disasm
        self._code = reason_code(reason) if code is None else code

    @property
    def disasm(self) -> str:
        if self._disasm is None:
            inst = decode_word(self.word, self.address)
            self._disasm = "" if inst is None else str(inst)
        return self._disasm

    def _key(self) -> tuple:
        return self.address, self.word, self.reason, self.disasm, self.mode

    def __eq__(self, other) -> bool:
        if other.__class__ is not Violation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Violation(address={self.address!r}, word={self.word!r}, "
                f"reason={self.reason!r}, disasm={self.disasm!r}, "
                f"mode={self.mode!r})")

    def __str__(self) -> str:
        text = f"{self.address:#x}: {self.word:#010x}: "
        if self.disasm:
            text += f"{self.disasm}: "
        text += self.reason
        if self.mode:
            text += f" [{self.mode}]"
        return text


@dataclass(frozen=True)
class VerifierPolicy:
    """Knobs for the verifier.

    ``allow_exclusives=False`` implements the §7.1 hardening example:
    LL/SC instructions (usable for timerless side channels) are simply
    disallowed by the verifier.
    """

    allow_exclusives: bool = True
    #: Maximum immediate displacement covered by the guard regions.
    max_displacement: int = MAX_IMM_DISPLACEMENT
    #: When False, load addressing is not checked (the paper's "no loads"
    #: fault-isolation-only mode, §6.1); stores, indirect branches, and all
    #: register invariants are still enforced.
    sandbox_loads: bool = True

    def label(self) -> str:
        """Short human-readable mode label for reports and violations."""
        text = "sandbox" if self.sandbox_loads else "store-only"
        if not self.allow_exclusives:
            text += "+no-exclusives"
        return text


@dataclass
class VerificationResult:
    ok: bool
    violations: List[Violation] = field(default_factory=list)
    instructions: int = 0
    bytes_verified: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            summary = "; ".join(str(v) for v in self.violations[:5])
            raise _VerificationError(
                f"{len(self.violations)} violation(s): {summary}"
            )



def _is_guard(inst: Instruction, dest_index: int) -> bool:
    """Is this exactly ``add x<dest>, x21, wN, uxtw`` (the §3 guard)?"""
    if inst.mnemonic != "add" or len(inst.operands) != 3:
        return False
    rd, rn, ext = inst.operands
    return (dest_index < 31 and rd == X[dest_index] and rn == X[21]
            and isinstance(ext, Extended) and ext.kind == "uxtw"
            and not ext.amount and ext.reg.bits == 32)


def _is_masked_index(inst: Instruction) -> bool:
    """Is this exactly ``bic w18, wN, w25`` (the §16 poison mask)?"""
    if inst.mnemonic != "bic" or len(inst.operands) != 3:
        return False
    rd, rn, rm = inst.operands
    return (rd == W[18] and rm == W[25] and isinstance(rn, Reg)
            and rn.is_gpr and rn.bits == 32)


def _is_sp_guard(inst: Instruction) -> bool:
    """Is this exactly ``add sp, x21, x22`` (§4.2)?"""
    if inst.mnemonic != "add" or len(inst.operands) != 3:
        return False
    rd, rn, src = inst.operands
    if not (rd == SP and isinstance(rn, Reg) and rn.is_gpr
            and rn.index == 21):
        return False
    return src == X[22] or (
        isinstance(src, Extended) and src.reg == X[22]
        and src.kind in ("uxtx", "lsl") and not src.amount)


def _structure(inst: Instruction) -> int:
    """What the decoded checker's sp window sees of a decoded word: the
    structure flags the rule table gives a rejected one."""
    flags = DECODED | (BRANCH if inst.is_branch else 0)
    mem = inst.mem
    if mem is None or not mem.base.is_sp:
        return flags | SPDEF if any(d.is_sp for d in inst.defs()) else flags
    small = (mem.offset is None or isinstance(mem.offset, Imm)) \
        and abs(mem.imm_value) < SP_SMALL_IMM
    return flags | SPMEM | SPSMALL if small else flags | SPMEM


class _Text:
    """A text whose rejected words are being worded: the words, and the
    word being worded decoded and printed, once a message has needed it."""

    __slots__ = ("words", "base", "decoded", "disasm")

    def __init__(self, words: Sequence[int], base: int):
        self.words, self.base = words, base
        self.decoded: Optional[Instruction] = None
        self.disasm: Optional[str] = None

    def rn(self, i: int) -> str:
        """The register ``words[i]``'s Rn field (bits 9:5) names."""
        index = (self.words[i] >> 5) & 31
        return f"x{index}" if index < 31 else "xzr"

    def inst(self, i: int) -> Instruction:
        """``words[i]`` decoded at its address (the word being worded)."""
        if self.decoded is None:
            self.decoded = decode_word(self.words[i], self.base + 4 * i)
        return self.decoded

    def shown(self, i: int) -> str:
        """``str`` of :meth:`inst`: the word's disassembly."""
        if self.disasm is None:
            self.disasm = str(self.inst(i))
        return self.disasm

    def loaded(self, i: int, bits: int, index: int, wide: bool = True
               ) -> Optional[Tuple[str, str]]:
        """What a load (or a store-exclusive's status) writing GPR
        ``index`` breaks; for x30, unless its guard follows."""
        if index == 21:
            return "load-x21", "load writes x21"
        if index == 22:
            return ("load-x22-64",
                    "64-bit load writes x22 (32-bit invariant)")
        if index != 30:
            return ("load-reserved",
                    f"load writes reserved register x{index}")
        if not (wide and bits & R_WIDE):
            return "x30-32bit-write", "32-bit write to link register"
        if x30_guard_follows(self.words, i):
            return None
        return ("load-x30-unguarded",
                "load writes x30 without a following link-register guard")

    def written(self, i: int) -> Tuple[str, str]:
        """What writing Rd breaks."""
        index = self.words[i] & 31
        if index == 21:
            return "write-x21", "write to x21 (sandbox base)"
        if index == 22:
            return ("write-x22-64", "64-bit write to x22 breaks its "
                    f"invariant: {self.shown(i)}")
        return ("unguarded-write", f"x{index} modified by something other "
                f"than the guard: {self.shown(i)}")


#: What each reason bit says of word ``i`` of text ``t`` (code ``b``):
#: ``(code, reason)``, or None when the word's context excuses it.  Bits
#: ascend in the order the decoded checker yields its reasons, so
#: ``verify_text`` words them lowest first.  A reason that prints the
#: instruction, or a part of it the fields do not hold, decodes the word.
_REASONS = {
    R_UNSAFE: lambda t, i, b: (
        "unsafe-mnemonic",
        f"instruction not on the safe list: {t.inst(i).mnemonic}"),
    R_EXCLUSIVE: lambda t, i, b: (
        "exclusives-disallowed",
        "exclusive/ordered instruction disallowed by policy: "
        f"{t.inst(i).mnemonic}"),
    R_SP_REGOFF: lambda t, i, b: (
        "sp-regoffset", "register-offset addressing from sp"),
    R_SP_DISP: lambda t, i, b: (
        "sp-displacement",
        f"sp displacement {abs(t.inst(i).mem.imm_value)} exceeds guard "
        "region"),
    R_REGOFF: lambda t, i, b: (
        "regoffset-reserved", f"register-offset addressing from {t.rn(i)}"),
    R_DISP: lambda t, i, b: (
        "displacement",
        f"displacement {abs(t.inst(i).mem.imm_value)} exceeds guard region"),
    R_WRITEBACK: lambda t, i, b: (
        "writeback-reserved",
        f"writeback would modify reserved register {t.rn(i)}"),
    R_X21_EXTEND: lambda t, i, b: (
        "unsafe-extend",
        f"unsafe extend {t.inst(i).mem.offset.kind} "
        f"#{t.inst(i).mem.offset.amount or 0} from x21"),
    R_X21_STORE: lambda t, i, b: (
        "store-x21", "store through x21 (runtime-call table is read-only)"),
    R_X21_WRITEBACK: lambda t, i, b: (
        "writeback-x21", "writeback would modify x21"),
    R_X21_NEGATIVE: lambda t, i, b: (
        "x21-negative", "negative displacement from x21"),
    R_X21_DISP: lambda t, i, b: (
        "x21-displacement",
        f"x21 displacement {abs(t.inst(i).mem.imm_value)} out of table"),
    R_X21_ADDRESSING: lambda t, i, b: (
        "x21-addressing", f"unsafe addressing from x21: {t.inst(i).mem}"),
    R_BASE: lambda t, i, b: (
        "unguarded-base", f"unguarded base register {t.rn(i)}"),
    R_RT: lambda t, i, b: t.loaded(i, b, t.words[i] & 31),
    R_RT2: lambda t, i, b: t.loaded(i, b, (t.words[i] >> 10) & 31),
    R_RS: lambda t, i, b: t.loaded(i, b, (t.words[i] >> 16) & 31, False),
    R_TARGET: lambda t, i, b: (
        "branch-unguarded",
        f"indirect branch through unguarded register {t.rn(i)}"),
    R_WRITE: lambda t, i, b: t.written(i),
    R_SP: lambda t, i, b: (
        ("sp-arith-unclosed", "sp arithmetic without a following sp access "
         "in the same basic block") if b & SPSMALL else
        ("sp-unsafe", f"unsafe sp modification: {t.shown(i)}")),
}
_WORDED = sum(_REASONS)


class Verifier:
    """Stateless linear verifier: the rule table over raw words gives the
    verdict and the reasons; the decoded checker is its reference."""

    #: True only for ``repro.prove``'s self-test subclass, whose table is
    #: deliberately looser than the decoded checker.
    weakened = False

    def __init__(self, policy: Optional[VerifierPolicy] = None):
        self.policy = policy = policy or VerifierPolicy()
        self._index = rule_index(policy.max_displacement,
                                 policy.sandbox_loads,
                                 policy.allow_exclusives)

    # -- public API ----------------------------------------------------------

    def verify_text(self, data: bytes, base: int = 0) -> VerificationResult:
        """Verify one text segment (a single linear pass)."""
        result = VerificationResult(ok=True)
        violations = result.violations
        count = len(data) // 4
        if len(data) % 4:
            violations.append(Violation(base + 4 * count, 0,
                                        "text size not a multiple of 4",
                                        code="text-size"))
        words = struct.unpack_from(f"<{count}I", data)
        codes = classify(self._index, words)
        mode = self.policy.label()
        text = _Text(words, base)
        undecodable = 0
        for i in self._rejected(words, codes):
            address, word, bits = base + 4 * i, words[i], codes[i]
            if not bits:
                undecodable += 1
                violations.append(Violation(address, word,
                                            "undecodable instruction", "",
                                            mode, "undecodable"))
                continue
            # Word each reason the code gives, lowest bit first.  A word
            # decoded for its message keeps that text as its disassembly;
            # any other decodes when its ``disasm`` is read.
            text.decoded = text.disasm = None
            reasons = []
            todo = bits & _WORDED
            while todo:
                bit = todo & -todo
                todo ^= bit
                reason = _REASONS[bit](text, i, bits)
                if reason is not None:
                    reasons.append(reason)
            disasm = None if text.decoded is None else text.shown(i)
            for code, reason in reasons or (("other", _UNEXPLAINED),):
                violations.append(Violation(address, word, reason, disasm,
                                            mode, code))
        result.ok = not violations
        result.instructions = count - undecodable
        result.bytes_verified = count * 4
        return result

    def classify(self, words: Sequence) -> List[int]:
        """The rule table's code for each word, before look-ahead."""
        return classify(self._index, words)

    def accepts(self, words: Sequence, index: Optional[int] = None) -> bool:
        """The rule table's verdict on ``words`` (or on ``words[index]``
        within them): ``repro.prove``'s entry point, where a word may be
        symbolic."""
        rejected = self._rejected(words, classify(self._index, words))
        return not rejected if index is None else index not in rejected

    @staticmethod
    def _rejected(words: Sequence, codes: List[int]) -> List[int]:
        """Indices of the words the rule table does not accept."""
        return [i for i, code in enumerate(codes) if not code & OK
                and not (code & NEEDS and settled(words, codes, i))]

    def verify_elf(self, image) -> VerificationResult:
        """Verify every executable segment of an ELF image."""
        result = VerificationResult(ok=True)
        for segment in image.segments:
            if not segment.flags & 0x1:  # PF_X
                continue
            part = self.verify_text(bytes(segment.data), segment.vaddr)
            result.instructions += part.instructions
            result.bytes_verified += part.bytes_verified
            result.violations.extend(part.violations)
            result.ok = result.ok and part.ok
        return result

    def check_instruction(self, inst: Instruction,
                          stream: Optional[Sequence[Optional[Instruction]]]
                          = None, index: int = 0) -> List[str]:
        """Per-instruction check entry point (used by ``repro.prove``).

        Returns the violation reasons for ``inst`` at position ``index``
        of ``stream`` (default: the instruction alone).  Empty list means
        the verifier accepts the instruction in that context.
        """
        if stream is None:
            stream = [inst]
        return list(self._check(inst, stream, index))

    # -- the decoded checker ---------------------------------------------------

    def _check(self, inst: Instruction,
               stream: Sequence[Optional[Instruction]], i: int):
        m = inst.mnemonic
        if m not in isa.SAFE_MNEMONICS:
            yield f"instruction not on the safe list: {m}"
            return
        if not self.policy.allow_exclusives and (
            m in isa.EXCLUSIVE_MEMORY or m in ("ldar", "stlr")
        ):
            yield f"exclusive/ordered instruction disallowed by policy: {m}"
            return
        if inst.is_memory:
            if self.policy.sandbox_loads or not inst.is_load:
                yield from self._check_memory(inst, stream, i)
            elif inst.mem is not None and inst.mem.writes_back \
                    and inst.mem.base.index in RESERVED_INDICES | {30} \
                    and not inst.mem.base.is_sp and inst.mem.base.is_gpr:
                # Even unsandboxed loads must not move the sandbox base,
                # the 32-bit invariant register, a hoisting register, or
                # the link register via writeback (found by fuzzing: the
                # old ADDRESS_INDICES check let `ldr x0, [x21], #8`
                # through in no-loads mode).
                yield ("writeback would modify reserved register "
                       f"{inst.mem.base}")
            yield from self._check_memory_destinations(inst, stream, i)
            return
        if inst.is_indirect_branch:
            yield from self._check_indirect_branch(inst)
            return
        yield from self._check_register_writes(inst, stream, i)

    # Memory addressing safety (rule 1).

    def _check_memory(self, inst: Instruction,
                      stream: Sequence[Optional[Instruction]], i: int):
        mem = inst.mem
        if mem is None:
            yield "memory instruction without memory operand"
            return
        base = mem.base
        offset = mem.offset
        imm_ok = offset is None or isinstance(offset, Imm)
        displacement = abs(mem.imm_value)

        if base.is_sp:
            if not imm_ok:
                yield "register-offset addressing from sp"
            elif displacement >= self.policy.max_displacement:
                yield f"sp displacement {displacement} exceeds guard region"
            return

        if base.index in ADDRESS_INDICES and base.bits == 64 and base.is_gpr:
            if not imm_ok:
                yield f"register-offset addressing from {base}"
                return
            if displacement >= self.policy.max_displacement:
                yield f"displacement {displacement} exceeds guard region"
            if mem.writes_back:
                yield f"writeback would modify reserved register {base}"
            return

        if base.is_gpr and base.index == 21 and base.bits == 64:
            # Either the zero-instruction guard form, or a table read.
            if isinstance(offset, Extended):
                if (offset.kind == "uxtw" and not offset.amount
                        and offset.reg.bits == 32):
                    return  # the guarded addressing mode: always in-sandbox
                yield (f"unsafe extend {offset.kind}"
                       f" #{offset.amount or 0} from x21")
                return
            if imm_ok:
                if inst.is_store:
                    yield "store through x21 (runtime-call table is read-only)"
                elif mem.writes_back:
                    yield "writeback would modify x21"
                elif mem.imm_value < 0:
                    yield "negative displacement from x21"
                elif displacement >= self.policy.max_displacement:
                    yield f"x21 displacement {displacement} out of table"
                return
            yield f"unsafe addressing from x21: {mem}"
            return

        yield f"unguarded base register {base}"

    # Loads must not write reserved registers (rule 2, memory flavour).

    def _check_memory_destinations(self, inst: Instruction,
                                   stream: Sequence[Optional[Instruction]],
                                   i: int):
        mem = inst.mem
        written: List[Reg] = []
        if inst.is_load:
            written.extend(r for r in inst.transfer_regs if not r.is_vector)
        elif inst.mnemonic in ("stxr", "stlxr"):
            status = inst.operands[0]
            if isinstance(status, Reg) and not status.is_vector:
                written.append(status)
        for reg in written:
            idx = reg.index
            if idx == 21:
                yield "load writes x21"
            elif idx in (18, 23, 24):
                yield f"load writes reserved register x{idx}"
            elif idx == 22:
                if reg.bits == 64:
                    yield "64-bit load writes x22 (32-bit invariant)"
            elif idx == 30:
                if reg.bits == 32:
                    yield "32-bit write to link register"
                    continue
                if self._is_runtime_call(inst, stream, i):
                    continue
                nxt = stream[i + 1] if i + 1 < len(stream) else None
                if nxt is None or not _is_guard(nxt, 30):
                    yield ("load writes x30 without a following "
                           "link-register guard")

    def _is_runtime_call(self, inst: Instruction,
                         stream: Sequence[Optional[Instruction]],
                         i: int) -> bool:
        """``ldr x30, [x21, #n]`` followed by ``blr x30`` (§4.4)."""
        mem = inst.mem
        if inst.mnemonic != "ldr" or mem is None:
            return False
        if not (mem.base.is_gpr and mem.base.index == 21):
            return False
        if mem.mode != OFFSET or (
            mem.offset is not None and not isinstance(mem.offset, Imm)
        ):
            return False
        if not 0 <= mem.imm_value < self.policy.max_displacement:
            return False
        nxt = stream[i + 1] if i + 1 < len(stream) else None
        return (nxt is not None and nxt.mnemonic == "blr"
                and len(nxt.operands) == 1
                and isinstance(nxt.operands[0], Reg)
                and nxt.operands[0].index == 30)

    # Indirect branch targets (rule 1, branch flavour).

    def _check_indirect_branch(self, inst: Instruction):
        target = inst.operands[0] if inst.operands else None
        if target is None:  # bare ret == ret x30
            return
        if not isinstance(target, Reg) or target.is_vector \
                or target.bits != 64:
            yield f"malformed indirect branch {inst}"
            return
        if target.index not in BRANCH_TARGET_INDICES:
            yield f"indirect branch through unguarded register {target}"

    # Reserved register writes (rule 2).

    def _check_register_writes(self, inst: Instruction,
                               stream: Sequence[Optional[Instruction]],
                               i: int):
        for reg in inst.defs():
            if reg.is_vector:
                continue
            idx = reg.index
            if reg.is_sp:
                yield from self._check_sp_write(inst, stream, i)
            elif idx == 21:
                yield "write to x21 (sandbox base)"
            elif idx in (18, 23, 24):
                if reg.bits == 64 and _is_guard(inst, idx):
                    continue
                # The masked guard (§16): ``bic w18, wN, w25`` is
                # tolerated when the very next instruction is the x18
                # guard — nothing can execute in between, and even a
                # computed jump landing on the add still produces
                # x21 + uint32, a sandbox address.  Mirrors the x30
                # mov-then-guard tolerance below.
                if idx == 18 and _is_masked_index(inst):
                    nxt = stream[i + 1] if i + 1 < len(stream) else None
                    if nxt is not None and _is_guard(nxt, 18):
                        continue
                yield (f"x{idx} modified by something other than the "
                       f"guard: {inst}")
            elif idx == 22:
                if reg.bits != 32:
                    yield f"64-bit write to x22 breaks its invariant: {inst}"
            elif idx == 30:
                if inst.is_call:
                    continue  # bl/blr write pc+4: always in-sandbox
                if reg.bits == 64 and _is_guard(inst, 30):
                    continue
                # A plain write is tolerated when the very next instruction
                # re-establishes the invariant (the rewriter's mov-then-
                # guard pattern) — nothing can execute in between.
                nxt = stream[i + 1] if i + 1 < len(stream) else None
                if (reg.bits == 64 and nxt is not None
                        and _is_guard(nxt, 30)):
                    continue
                yield (f"x30 modified by something other than the "
                       f"guard: {inst}")

    def _check_sp_write(self, inst: Instruction,
                        stream: Sequence[Optional[Instruction]], i: int):
        if _is_sp_guard(inst):
            return
        m = inst.mnemonic
        small = False
        if m in ("add", "sub") and len(inst.operands) == 3:
            rd, rn, src = inst.operands
            # The 64-bit check matters: a 32-bit `add wsp, wsp, #imm`
            # truncates sp to its low 32 bits — an absolute address far
            # outside the sandbox — so it is never a "small drift"
            # (found by the ``repro.prove`` symbolic executor; pinned as
            # the ``sp-arith-32bit`` corpus entry).
            small = (isinstance(rn, Reg) and rn.is_sp
                     and rd.bits == 64
                     and isinstance(src, Imm)
                     and 0 <= src.value < SP_SMALL_IMM)
        if self._sp_reestablished(stream, i, allow_access=small):
            return
        if small:
            yield ("sp arithmetic without a following sp access in the "
                   "same basic block")
        else:
            yield f"unsafe sp modification: {inst}"

    def _sp_reestablished(self, stream: Sequence[Optional[Instruction]],
                          i: int, allow_access: bool) -> bool:
        """Scan forward: the sp invariant is restored if we reach the sp
        guard (``mov w22, wsp; add sp, x21, x22``) — or, for small drifts,
        a trapping sp-based memory access — before any branch or other sp
        modification (the §4.2 same-basic-block rules).

        The re-establishing access must itself use a *small* immediate:
        an access at ``sp + d`` only pins sp within ``|d|`` of the mapped
        region, so accepting an arbitrary in-guard displacement here
        would let sp drift by up to ``max_displacement`` per window and
        walk out of the guard band over enough windows (found by the
        ``repro.prove`` symbolic executor; pinned as the
        ``sp-arith-large-offset`` corpus entry)."""
        for j in range(i + 1, len(stream)):
            nxt = stream[j]
            if nxt is None:
                return False
            if _is_sp_guard(nxt):
                return True
            flags = _structure(nxt)
            if flags & SPMEM:
                return bool(allow_access and flags & SPSMALL)
            if flags & (SPDEF | BRANCH):
                return False
        return False


def verify_text(data: bytes, base: int = 0,
                policy: Optional[VerifierPolicy] = None) -> VerificationResult:
    return Verifier(policy).verify_text(data, base)


def verify_elf(image, policy: Optional[VerifierPolicy] = None
               ) -> VerificationResult:
    return Verifier(policy).verify_elf(image)
