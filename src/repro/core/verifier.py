"""The LFI static verifier (paper §5.2).

A single linear pass over the text segment's *machine code*: every raw
32-bit word is looked up in the rule table (``rules.py``: encoding rows ->
verdict) and the few words whose verdict depends on what follows are
settled over a look-ahead window.  A word is decoded only when the table
did not accept it, to say why: the decoded checker below (``_check`` and
friends) produces the reasons, and is the reference the table is tested
against.  A word the table rejects stays rejected even if the checker
cannot fault it.  Together they enforce:

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
from typing import List, Optional, Sequence

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
from .rules import (BRANCH, DECODED, NEEDS, OK, SPDEF, SPMEM, SPSMALL,
                    classify, rule_index, settled)

__all__ = ["Violation", "VerificationResult", "VerifierPolicy", "Verifier",
           "verify_text", "verify_elf"]


#: Ordered (substring, code) table mapping human-readable violation
#: reasons to stable machine-readable codes.  First match wins, so more
#: specific patterns come first.  Prover and fuzz tooling key on these
#: codes instead of parsing prose.
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

#: Reason given when the table rejects a word the checker cannot fault.
_UNEXPLAINED = "rejected by the rule table"


@dataclass(frozen=True)
class Violation:
    """One verification failure.

    ``disasm`` carries the decoded instruction's disassembly and ``mode``
    the verifier policy label, so reports are actionable without
    re-decoding the word or knowing which policy produced them.  Both
    default to empty for compatibility with positional construction.
    """

    address: int
    word: int
    reason: str
    disasm: str = ""
    mode: str = ""

    @property
    def code(self) -> str:
        """Stable machine-readable code for the reason category."""
        for pattern, code in _REASON_CODES:
            if pattern in self.reason:
                return code
        return "other"

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


class _Decoded:
    """The text as instructions, each decoded the first time it is read
    (only words the rule table did not accept, and their look-ahead)."""

    def __init__(self, words: Sequence[int], base: int):
        self._words, self._base = words, base
        self._insts: dict = {}

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, i: int) -> Optional[Instruction]:
        try:
            return self._insts[i]
        except KeyError:
            inst = self._insts[i] = decode_word(self._words[i],
                                                self._base + 4 * i)
            return inst


def _structure(inst: Instruction) -> int:
    """What a look-ahead window sees of a decodable, rejected word."""
    flags = DECODED | (BRANCH if inst.is_branch else 0)
    mem = inst.mem
    if mem is None or not mem.base.is_sp:
        return flags | SPDEF if any(d.is_sp for d in inst.defs()) else flags
    small = (mem.offset is None or isinstance(mem.offset, Imm)) \
        and abs(mem.imm_value) < SP_SMALL_IMM
    return flags | SPMEM | SPSMALL if small else flags | SPMEM


class Verifier:
    """Stateless linear verifier: rule table over raw words, decoded
    checker for the explanation."""

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
        count = len(data) // 4
        if len(data) % 4:
            result.ok = False
            result.violations.append(
                Violation(base + 4 * count, 0, "text size not a multiple of 4")
            )
        words = struct.unpack_from(f"<{count}I", data)
        rejected, stream = self._rejected(words, base)
        undecodable = 0
        for i in rejected:
            inst = stream[i]
            if inst is None:
                undecodable += 1
                self._fail(result, base + 4 * i, words[i],
                           "undecodable instruction")
                continue
            for reason in list(self._check(inst, stream, i)) or [_UNEXPLAINED]:
                self._fail(result, base + 4 * i, words[i], reason, inst=inst)
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
        rejected = self._rejected(words)[0]
        return not rejected if index is None else index not in rejected

    def _rejected(self, words: Sequence, base: int = 0):
        """Indices of the words the rule table does not accept, and the
        lazily decoded text their explanation reads."""
        codes = classify(self._index, words)
        pending = [i for i, code in enumerate(codes) if not code & OK]
        stream = _Decoded(words, base)
        for i in pending:
            # A rejected word still shapes the windows of its neighbours.
            if not codes[i] and stream[i] is not None:
                codes[i] = _structure(stream[i])
        return [i for i in pending
                if not (codes[i] & NEEDS and settled(words, codes, i))], stream

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

    # -- checks ---------------------------------------------------------------

    def _fail(self, result: VerificationResult, address: int, word: int,
              reason: str, inst: Optional[Instruction] = None) -> None:
        result.ok = False
        result.violations.append(Violation(
            address, word, reason,
            disasm=str(inst) if inst is not None else "",
            mode=self.policy.label()))

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
