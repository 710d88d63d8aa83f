"""Seeded generators of well-formed ARM64 assembly programs.

Programs are built from a library of *fragments* — short instruction
sequences that each leave the program in a canonical state (buffer pointer
restored, stack pointer balanced, no reserved registers touched) — so any
sequence of fragments is a valid rewriter input whose native and rewritten
executions must agree on the observed state (``x0``-``x7`` plus the data
buffer).

The generator draws from any :class:`random.Random`-compatible source, so
the same code path serves both the seeded CLI campaign (``random.Random``)
and Hypothesis property tests (``st.randoms(use_true_random=False)``,
which gives shrinking for free).

Fragment coverage, per the paper's Table 1 and §4:

* loads/stores in every addressing mode (immediate scaled/unscaled,
  pre/post-index writeback, register offset, extended register offset,
  pairs, exclusives, acquire/release);
* indirect branches (``br``/``blr`` through work registers and ``x30``);
* sp manipulation (frame push/pop, ``mov sp, xN`` save/restore, sp-based
  pair writeback);
* x30 manipulation (calls, stack save/restore of the link register,
  address materialization into ``x30``);
* control flow (conditional/compare/test branches, bounded loops).

A program ends at ``brk #0`` or, in about one program in three, at the
memory fault of a loop whose verified access walks off the mapped data
on a trip from the 2nd to the 7th: the engines then leave a looping
body by a fault, mid-loop, with the loop's registers changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["GenConfig", "GeneratedProgram", "AsmGenerator", "BUF_SIZE"]

#: Size of the data buffer all generated memory traffic stays inside.
BUF_SIZE = 4096

#: Observed work registers (compared between native and rewritten runs).
WORK = [f"x{i}" for i in range(8)]

#: Scratch registers (never part of the observed state).
ADDR = "x9"    # address materialization (adr targets)
BUF = "x10"    # buffer pointer (restored after every fragment)
IDX = "x11"    # bounded index for register-offset addressing
LOOP = "x12"   # loop counter
SPS = "x13"    # stack-pointer save slot
STATUS = "x15"  # store-exclusive status
WALK = "x14"   # the offset a faulting loop walks out of the data by

#: Bytes mapped from the buffer's start: the data segment's one 16 KiB
#: page (the buffer is its only section).
MAPPED = 16 * 1024

#: Valid logical (bitmask) immediates for and/orr/eor.
LOGICAL_IMMS = (
    0x1, 0x3, 0x7, 0xF, 0xFF, 0xF0, 0x3F0, 0xFF00, 0xFFFF,
    0x7FFFFFFF, 0xFFFFFFFF00000000, 0x5555555555555555,
)

#: Masks keeping a byte index inside the buffer for each access width.
_BYTE_MASK = 0xFFF       # any byte
_HALF_MASK = 0xFFE       # 2-aligned, < 4096
_WORD_MASK = 0xFFC       # 4-aligned
_DWORD_MASK = 0xFF8      # 8-aligned

_CONDS = ("eq", "ne", "lt", "ge", "gt", "le", "hi", "ls", "hs", "lo")


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generation campaign."""

    #: Number of top-level fragments per program (drawn uniformly in range).
    min_fragments: int = 3
    max_fragments: int = 12
    #: Emit LL/SC and acquire/release fragments (must be off when fuzzing
    #: the §7.1 ``allow_exclusives=False`` hardening policy).
    exclusives: bool = True
    #: Emit bounded loops.
    loops: bool = True
    #: Emit direct/indirect calls to generated leaf functions.
    calls: bool = True


@dataclass
class GeneratedProgram:
    """One generated program, kept fragment-addressable for shrinking."""

    fragments: List[List[str]]
    leaves: List[List[str]] = field(default_factory=list)
    #: What runs after the fragments: ``brk #0``, or a loop that faults.
    ending: List[str] = field(default_factory=lambda: ["brk #0"])

    @property
    def source(self) -> str:
        lines = [".text", ".globl _start", "_start:"]
        for i in range(8):
            lines.append(f"    movz x{i}, #{(i * 0x1234 + 7) & 0xFFFF}")
        lines += [
            f"    adrp {BUF}, buffer",
            f"    add {BUF}, {BUF}, :lo12:buffer",
            f"    mov {IDX}, #0",
            f"    mov {STATUS}, #0",
        ]
        for fragment in self.fragments:
            lines.extend(f"    {line}" for line in fragment)
        lines.extend(f"    {line}" for line in self.ending)
        for leaf in self.leaves:
            lines.extend(leaf)
        lines += [".data", ".balign 16", "buffer:", f"    .skip {BUF_SIZE}"]
        return "\n".join(lines) + "\n"

    def instruction_estimate(self) -> int:
        return sum(len(f) for f in self.fragments) + sum(
            len(l) for l in self.leaves
        ) + len(self.ending)

    def with_fragments(self, keep: Sequence[int]) -> "GeneratedProgram":
        """A copy containing only the fragments at ``keep`` (for shrinking)."""
        return GeneratedProgram(
            fragments=[self.fragments[i] for i in keep],
            leaves=list(self.leaves),
            ending=list(self.ending),
        )


class AsmGenerator:
    """Draws well-formed programs from an ``random.Random``-like source."""

    def __init__(self, config: Optional[GenConfig] = None):
        self.config = config or GenConfig()

    # -- public API ----------------------------------------------------------

    def generate(self, rng) -> GeneratedProgram:
        self._label = 0
        config = self.config
        leaves = []
        if config.calls:
            leaves = [self._leaf(rng, i) for i in range(2)]
        count = rng.randint(config.min_fragments, config.max_fragments)
        kinds = self._kinds(rng)
        fragments = [self._fragment(rng, rng.choice(kinds), len(leaves))
                     for _ in range(count)]
        ending = ["brk #0"]
        if config.loops and rng.randrange(3) == 0:
            ending = self._faulting_loop(rng) + ending
        return GeneratedProgram(fragments=fragments, leaves=leaves,
                                ending=ending)

    # -- helpers -------------------------------------------------------------

    def _kinds(self, rng) -> List[str]:
        kinds = [
            # Weighted pool: plain ALU twice, everything else once.
            "alu", "alu",
            "load_imm", "store_imm", "pair", "unscaled", "byte_half",
            "pre_post", "reg_offset", "ext_offset",
            "sp_frame", "sp_mov", "sp_pair",
            "cond_skip", "cb_skip", "tb_skip",
            "jump_indirect", "jump_x30",
        ]
        if self.config.exclusives:
            kinds += ["exclusive", "acqrel"]
        if self.config.loops:
            kinds += ["loop"]
        if self.config.calls:
            kinds += ["call", "call_indirect", "call_saved_lr"]
        return kinds

    def _next_label(self, stem: str) -> str:
        self._label += 1
        return f"L{stem}_{self._label}"

    def _reg(self, rng) -> str:
        return rng.choice(WORK)

    def _reg_pair(self, rng):
        a = rng.choice(WORK)
        b = rng.choice([r for r in WORK if r != a])
        return a, b

    def _off(self, rng, mask: int, step: int) -> int:
        return rng.randrange(0, (mask + 1) // step) * step

    # -- straight-line fragments (safe inside loops) --------------------------

    def _alu(self, rng) -> List[str]:
        a, b, c = self._reg(rng), self._reg(rng), self._reg(rng)
        pick = rng.randrange(8)
        if pick == 0:
            return [f"add {a}, {b}, #{rng.randrange(4096)}"]
        if pick == 1:
            return [f"sub {a}, {b}, #{rng.randrange(4096)}"]
        if pick == 2:
            op = rng.choice(["and", "orr", "eor"])
            return [f"{op} {a}, {b}, #{rng.choice(LOGICAL_IMMS)}"]
        if pick == 3:
            op = rng.choice(["add", "sub", "and", "orr", "eor", "mul"])
            return [f"{op} {a}, {b}, {c}"]
        if pick == 4:
            op = rng.choice(["add", "sub"])
            kind = rng.choice(["lsl", "lsr", "asr"])
            return [f"{op} {a}, {b}, {c}, {kind} #{rng.randrange(4)}"]
        if pick == 5:
            return [f"movz {a}, #{rng.randrange(1 << 16)}"]
        if pick == 6:
            op = rng.choice(["lsl", "lsr", "asr"])
            return [f"{op} {a}, {b}, #{rng.randrange(64)}"]
        cond = rng.choice(_CONDS)
        return [f"cmp {b}, {c}", f"csel {a}, {b}, {c}, {cond}"]

    def _load_imm(self, rng) -> List[str]:
        return [f"ldr {self._reg(rng)}, "
                f"[{BUF}, #{self._off(rng, _DWORD_MASK, 8)}]"]

    def _store_imm(self, rng) -> List[str]:
        return [f"str {self._reg(rng)}, "
                f"[{BUF}, #{self._off(rng, _DWORD_MASK, 8)}]"]

    def _pair(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        off = rng.randrange(0, 504 // 8) * 8
        if rng.randrange(2):
            return [f"ldp {a}, {b}, [{BUF}, #{off}]"]
        return [f"stp {a}, {b}, [{BUF}, #{off}]"]

    def _unscaled(self, rng) -> List[str]:
        # Centre the pointer so signed imm9 offsets stay inside the buffer.
        # Only negative offsets: a non-negative multiple of the access size
        # has a canonical *scaled* encoding, and the decoder rejects the
        # unscaled form for it.
        reg = self._reg(rng)
        off = -8 * rng.randrange(1, 32)
        op = rng.choice(["ldur", "stur"])
        return [
            f"add {BUF}, {BUF}, #256",
            f"{op} {reg}, [{BUF}, #{off}]",
            f"sub {BUF}, {BUF}, #256",
        ]

    def _byte_half(self, rng) -> List[str]:
        reg = self._reg(rng)
        w = f"w{reg[1:]}"
        pick = rng.randrange(6)
        if pick == 0:
            return [f"ldrb {w}, [{BUF}, #{self._off(rng, _BYTE_MASK, 1)}]"]
        if pick == 1:
            return [f"strb {w}, [{BUF}, #{self._off(rng, _BYTE_MASK, 1)}]"]
        if pick == 2:
            return [f"ldrh {w}, [{BUF}, #{self._off(rng, _HALF_MASK, 2)}]"]
        if pick == 3:
            return [f"strh {w}, [{BUF}, #{self._off(rng, _HALF_MASK, 2)}]"]
        if pick == 4:
            return [f"ldrsb {reg}, [{BUF}, #{self._off(rng, _BYTE_MASK, 1)}]"]
        return [f"ldrsw {reg}, [{BUF}, #{self._off(rng, _WORD_MASK, 4)}]"]

    def _pre_post(self, rng) -> List[str]:
        reg = self._reg(rng)
        imm = rng.randrange(1, 32) * 8
        pick = rng.randrange(4)
        if pick == 0:
            return [f"ldr {reg}, [{BUF}, #{imm}]!",
                    f"sub {BUF}, {BUF}, #{imm}"]
        if pick == 1:
            return [f"str {reg}, [{BUF}, #{imm}]!",
                    f"sub {BUF}, {BUF}, #{imm}"]
        if pick == 2:
            return [f"ldr {reg}, [{BUF}], #{imm}",
                    f"sub {BUF}, {BUF}, #{imm}"]
        return [f"str {reg}, [{BUF}], #{imm}",
                f"sub {BUF}, {BUF}, #{imm}"]

    def _reg_offset(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        op = rng.choice(["ldr", "str"])
        if rng.randrange(2):
            return [f"and {IDX}, {a}, #0xFF8",
                    f"{op} {b}, [{BUF}, {IDX}]"]
        return [f"and {IDX}, {a}, #0x1FF",
                f"{op} {b}, [{BUF}, {IDX}, lsl #3]"]

    def _ext_offset(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        widx = f"w{IDX[1:]}"
        wa = f"w{a[1:]}"
        op = rng.choice(["ldr", "str"])
        if rng.randrange(2):
            return [f"and {widx}, {wa}, #0xFF8",
                    f"{op} {b}, [{BUF}, {widx}, uxtw]"]
        return [f"and {widx}, {wa}, #0x1FF",
                f"{op} {b}, [{BUF}, {widx}, uxtw #3]"]

    def _exclusive(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        ws = f"w{STATUS[1:]}"
        off = self._off(rng, _DWORD_MASK, 8)
        return [
            f"add {BUF}, {BUF}, #{off}" if off else f"mov {IDX}, {IDX}",
            f"ldxr {a}, [{BUF}]",
            f"stxr {ws}, {b}, [{BUF}]",
            f"sub {BUF}, {BUF}, #{off}" if off else f"mov {IDX}, {IDX}",
        ]

    def _acqrel(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        return [f"ldar {a}, [{BUF}]", f"stlr {b}, [{BUF}]"]

    def _sp_frame(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        size = rng.randrange(1, 31) * 16
        slot = rng.randrange(0, size // 8) * 8
        return [
            f"sub sp, sp, #{size}",
            f"str {a}, [sp, #{slot}]",
            f"ldr {b}, [sp, #{slot}]",
            f"add sp, sp, #{size}",
        ]

    def _sp_mov(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        return [
            f"mov {SPS}, sp",
            "sub sp, sp, #48",
            f"str {a}, [sp, #16]",
            f"ldr {b}, [sp, #16]",
            f"mov sp, {SPS}",
        ]

    def _sp_pair(self, rng) -> List[str]:
        a, b = self._reg_pair(rng)
        return [
            f"stp {a}, {b}, [sp, #-32]!",
            f"ldp {a}, {b}, [sp], #32",
        ]

    # -- control flow ----------------------------------------------------------

    def _cond_skip(self, rng, nleaves: int) -> List[str]:
        a, b = self._reg_pair(rng)
        label = self._next_label("skip")
        body = self._alu(rng)
        return ([f"cmp {a}, {b}", f"b.{rng.choice(_CONDS)} {label}"]
                + body + [f"{label}:"])

    def _cb_skip(self, rng, nleaves: int) -> List[str]:
        reg = self._reg(rng)
        label = self._next_label("cb")
        op = rng.choice(["cbz", "cbnz"])
        return [f"{op} {reg}, {label}"] + self._alu(rng) + [f"{label}:"]

    def _tb_skip(self, rng, nleaves: int) -> List[str]:
        reg = self._reg(rng)
        label = self._next_label("tb")
        op = rng.choice(["tbz", "tbnz"])
        bit = rng.randrange(0, 64)
        return [f"{op} {reg}, #{bit}, {label}"] + self._alu(rng) + [f"{label}:"]

    def _loop(self, rng, nleaves: int, count: int = 0,
              tail: Sequence[str] = ()) -> List[str]:
        label = self._next_label("loop")
        count = count or rng.randrange(2, 6)
        body: List[str] = []
        for _ in range(rng.randrange(1, 4)):
            body.extend(self._straight(rng))
        return ([f"mov {LOOP}, #{count}", f"{label}:"] + body + list(tail)
                + [f"subs {LOOP}, {LOOP}, #1", f"b.ne {label}"])

    def _faulting_loop(self, rng) -> List[str]:
        """A loop whose register-offset access, guarded like any other,
        walks ``WALK`` off the mapped data on trip ``fault``: the end."""
        fault = rng.randrange(2, 8)
        # Trip k reaches start + (k - 1) * stride, all 8 bytes mapped until
        # trip fault; an add immediate is at most 4095.
        longest = min(4088, (MAPPED - 8) // max(1, fault - 2))
        stride = 8 * rng.randrange(1, longest // 8 + 1)
        lo = max(0, MAPPED - (fault - 1) * stride)
        start = lo + 8 * rng.randrange(
            (MAPPED - 8 - (fault - 2) * stride - lo) // 8 + 1)
        op, reg = rng.choice(["ldr", "str"]), self._reg(rng)
        return [f"movz {WALK}, #{start}"] + self._loop(
            rng, 0, fault + rng.randrange(4),
            (f"{op} {reg}, [{BUF}, {WALK}]", f"add {WALK}, {WALK}, #{stride}"))

    def _jump_indirect(self, rng, nleaves: int) -> List[str]:
        label = self._next_label("jmp")
        return ([f"adr {ADDR}, {label}", f"br {ADDR}"]
                + self._alu(rng)  # skipped over by the branch
                + [f"{label}:"])

    def _jump_x30(self, rng, nleaves: int) -> List[str]:
        label = self._next_label("lr")
        branch = "ret" if rng.randrange(2) else "br x30"
        return [f"adr x30, {label}", branch, f"{label}:"]

    def _call(self, rng, nleaves: int) -> List[str]:
        return [f"bl leaf{rng.randrange(nleaves)}"]

    def _call_indirect(self, rng, nleaves: int) -> List[str]:
        return [f"adr {ADDR}, leaf{rng.randrange(nleaves)}",
                f"blr {ADDR}"]

    def _call_saved_lr(self, rng, nleaves: int) -> List[str]:
        return [
            "str x30, [sp, #-16]!",
            f"bl leaf{rng.randrange(nleaves)}",
            "ldr x30, [sp], #16",
        ]

    # -- assembly of the pieces -------------------------------------------------

    _STRAIGHT = ("alu", "load_imm", "store_imm", "pair", "unscaled",
                 "byte_half", "pre_post", "reg_offset", "ext_offset",
                 "sp_frame", "sp_pair")

    def _straight(self, rng) -> List[str]:
        kind = rng.choice(self._STRAIGHT)
        return getattr(self, f"_{kind}")(rng)

    def _fragment(self, rng, kind: str, nleaves: int) -> List[str]:
        if kind in self._STRAIGHT or kind in ("sp_mov", "exclusive",
                                              "acqrel"):
            return getattr(self, f"_{kind}")(rng)
        return getattr(self, f"_{kind}")(rng, nleaves)

    def _leaf(self, rng, index: int) -> List[str]:
        lines = [f"leaf{index}:"]
        for _ in range(rng.randrange(1, 4)):
            lines.extend(f"    {line}" for line in self._alu(rng))
        lines.append("    ret")
        return lines
