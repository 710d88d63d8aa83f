"""Seeded mutation engine: corrupt verified machine code.

Mutants model what a malicious (or broken) toolchain could hand the
verifier: the input is the *text segment of a verified binary*, and each
mutation perturbs it while keeping it a plausible instruction stream.

Supported operators, all deterministic under one ``random.Random``:

* ``bitflip``  — flip one bit of one instruction word;
* ``guarddel`` — replace a guard (``add xN, x21, wM, uxtw``) with a ``nop``
  or with an unguarded ``mov xN, xM``, so the guarded register loses its
  sandbox base;
* ``regsub``   — rewrite one 5-bit register field (Rd/Rn/Rm) to a reserved
  or otherwise interesting register index;
* ``splice``   — copy or swap instruction words within the segment,
  tearing guards away from the accesses they protect.

A corpus entry stores the mutated text itself, so it replays
byte-for-byte without re-running the planner.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..arm64.decoder import decode_word
from ..arm64.operands import Extended
from ..arm64.registers import Reg

__all__ = ["Mutation", "MutationEngine", "apply_mutations", "find_guards"]

OPS = ("bitflip", "guarddel", "regsub", "splice")

#: ``nop``.
_NOP = 0xD503201F
#: ``orr xD, xzr, xM`` == ``mov xD, xM``: base 0xAA0003E0 | Rm<<16 | Rd.
_MOV_BASE = 0xAA0003E0

#: Register indices a ``regsub`` prefers: the five reserved registers, the
#: link register, and the stack-adjacent x29 (plus 0 as a bland control).
_INTERESTING_REGS = (18, 21, 22, 23, 24, 30, 29, 0)

#: 5-bit register field positions: Rd/Rt, Rn, Rm.
_REG_FIELDS = (0, 5, 16)


@dataclass(frozen=True)
class Mutation:
    """One mutation: an op name and its integer arguments."""

    op: str
    args: Tuple[int, ...]


def _words(text: bytes) -> List[int]:
    return list(struct.unpack(f"<{len(text) // 4}I", text[: len(text) & ~3]))


def _pack(words: Sequence[int]) -> bytes:
    return struct.pack(f"<{len(words)}I", *words)


def find_guards(text: bytes, base: int = 0) -> List[Tuple[int, int, int]]:
    """``(word_index, dest_index, src_index)`` of every Table-3 guard."""
    guards = []
    for i, word in enumerate(_words(text)):
        inst = decode_word(word, base + 4 * i)
        if inst is None or inst.mnemonic != "add" or len(inst.operands) != 3:
            continue
        rd, rn, ext = inst.operands
        if not (isinstance(rd, Reg) and rd.is_gpr and not rd.is_sp):
            continue
        if not (isinstance(rn, Reg) and rn.is_gpr and rn.index == 21):
            continue
        if isinstance(ext, Extended) and ext.kind == "uxtw" \
                and not ext.amount:
            guards.append((i, rd.index, ext.reg.index))
    return guards


def apply_mutations(text: bytes, mutations: Sequence[Mutation]) -> bytes:
    """Apply mutations to a text segment (pure, deterministic)."""
    words = _words(text)
    for m in mutations:
        if m.op == "bitflip":
            index, bit = m.args
            words[index % len(words)] ^= 1 << (bit % 32)
        elif m.op == "guarddel":
            index, to_nop, src = m.args
            rd = words[index % len(words)] & 0x1F
            if to_nop:
                words[index % len(words)] = _NOP
            else:
                words[index % len(words)] = (
                    _MOV_BASE | ((src % 31) << 16) | rd
                )
        elif m.op == "regsub":
            index, shift, new = m.args
            i = index % len(words)
            # Mask to 32 bits: a mutation may carry any shift, and the
            # word must stay packable.
            words[i] = ((words[i] & ~(0x1F << shift))
                        | ((new & 0x1F) << shift)) & 0xFFFFFFFF
        elif m.op == "splice":
            dst, src, swap = m.args
            dst %= len(words)
            src %= len(words)
            if swap:
                words[dst], words[src] = words[src], words[dst]
            else:
                words[dst] = words[src]
        else:
            raise ValueError(f"unknown mutation op {m.op!r}")
    return _pack(words)


class MutationEngine:
    """Plans deterministic mutation batches against one text segment."""

    def __init__(self, rng):
        self.rng = rng

    def plan(self, text: bytes, count: int = 1) -> List[Mutation]:
        """Draw ``count`` mutations for ``text`` (at least one)."""
        words = _words(text)
        if not words:
            return []
        guards = find_guards(text)
        out: List[Mutation] = []
        for _ in range(max(1, count)):
            op = self.rng.choice(OPS)
            if op == "guarddel" and not guards:
                op = "bitflip"
            if op == "bitflip":
                out.append(Mutation("bitflip", (
                    self.rng.randrange(len(words)), self.rng.randrange(32),
                )))
            elif op == "guarddel":
                index, _rd, src = guards[self.rng.randrange(len(guards))]
                out.append(Mutation("guarddel", (
                    index, self.rng.randrange(2), src,
                )))
            elif op == "regsub":
                out.append(Mutation("regsub", (
                    self.rng.randrange(len(words)),
                    self.rng.choice(_REG_FIELDS),
                    self.rng.choice(_INTERESTING_REGS),
                )))
            else:
                out.append(Mutation("splice", (
                    self.rng.randrange(len(words)),
                    self.rng.randrange(len(words)),
                    self.rng.randrange(2),
                )))
        return out
