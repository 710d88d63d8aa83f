"""Superblock (translated-block) execution engine for the emulator hot path.

The stepping interpreter in :mod:`repro.emulator.machine` pays Python
dispatch cost on every instruction: a decode-cache lookup, a handler
dispatch, generic operand evaluation, and a :meth:`_Costing.charge` call.
This module translates straight-line instruction runs into immutable
:class:`Superblock` objects whose ops are *specialized closures* (direct
register-list access, precomputed immediates and branch targets) and
dispatches whole blocks from :meth:`Machine.run`.

Design rules (DESIGN.md §10, §15):

* a block ends at the first branch, registered host entry, undecodable
  word, or page boundary — blocks never cross a page, so invalidation is
  page-exact — and before a trap instruction (``svc``/``brk``/``hlt``),
  which is a block of its own;
* an op is one closure plus one *cost row* per instruction it retires:
  what a block costs is data, charged by whichever body runs it;
* a run is translated once per *content*: a :class:`BlockTemplate`, keyed
  by the run's bytes (and the guard positions and cost model), holds
  closure recipes with every pc-derived constant as a displacement from
  the block start, and every block of those words — any slot, machine or
  runtime in the process — is the template bound to a machine and a start;
* verified guard sequences named by the loader's ``guard_map`` are fused
  into a single op that performs both architectural effects and carries
  both instructions' rows;
* a block ending in the runtime-call idiom (``ldr x30, [x21, #n]``;
  ``blr x30`` — the rewriter's :func:`is_runtime_call_load` predicate)
  ends in a fused two-row op for the pair; the dispatch loop then hands
  the address it lands on straight to the runtime's *springboard*
  (``machine.springboard``) instead of raising ``HostCallTrap``, and the
  springboard resumes translated execution inline when the scheduler
  allows (DESIGN.md §15);
* blocks chain: each block caches its observed fall-through and taken
  successors, validated by a ``valid`` flag plus start-pc check, so hot
  loops dispatch block-to-block without a host-entry check or cache
  lookup; invalidation clears ``valid``, which lazily unlinks every
  chain through the dead block;
* one dispatch loop runs every block; cold costed blocks charge their
  rows through the very :class:`_Costing` methods ``Machine.step`` uses
  and hot ones through compiled source with the same float operations in
  the same order, so cycle counts, trace timestamps, and metrics
  snapshots are bit-identical between engines;
* a block never overruns the remaining fuel: oversized blocks fall back
  to per-instruction stepping for the tail of the timeslice;
* the block cache invalidates on any mapping change (``mmap``/``munmap``/
  ``mprotect``/``share_region``/image load) via the
  :class:`~repro.memory.pages.PagedMemory` map observer, which also covers
  fork (the child's slot is freshly shared into).

The engine is *not* used when per-instruction observability is active:
any registered step probe (profiler, metrics, sampling tracer), a
process's ``step_mode`` flag, or ``EngineConfig(kind="stepping")``
forces the original interpreter, whose behaviour is unchanged.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import takewhile
from typing import Dict, List, Optional, Tuple

from ..arm64.decoder import decode_word
from ..arm64.instructions import Instruction, access_bytes
from ..arm64.operands import Extended, Imm, Mem, POST_INDEX, PRE_INDEX, \
    Shifted, ShiftedImm, VecReg, canonical_condition
from ..arm64.registers import LR, Reg
from ..core.rewriter import is_runtime_call_load
from ..memory.pages import MemoryFault
from .cpu import MASK32, MASK64

__all__ = ["Superblock", "SuperblockEngine"]

#: Op kinds — what an op's ``exec()`` returns.  Bit 0: the address it
#: accessed; bit 1: whether it branched.
K_SIMPLE = 0   # None: no memory access, never taken
K_MEM = 1      # address int: load/store, never taken
K_BRANCH = 2   # taken bool: terminator
K_GENERIC = 3  # (taken, mem_addr or None): original handler semantics

#: Row roles — what one retired instruction's charge takes from that
#: result.  The row of a single-instruction op has the role numbered like
#: the op's kind; the rows of a fused op split the result between them.
R_PLAIN = K_SIMPLE     # nothing
R_MEM = K_MEM          # the address: TLB walk and cache-miss penalties
R_BRANCH = K_BRANCH    # the flag: fetch bubble when taken
R_GENERIC = K_GENERIC  # both, and the address may be None
R_TAKEN = 4            # a branch that always leaves: the bubble is constant

#: Costed blocks are compiled into specialized closures once they show
#: signs of re-execution; until then the dispatch loop walks their rows, so
#: straight-line code never pays the ~2ms/block codegen cost (measured:
#: threshold 8 compiles only the hot loop bodies of the Table-4 kernels
#: while 2 compiles every init block for no wall-clock gain).
_COMPILE_THRESHOLD = 8
#: Blocks larger than this are never compiled: generated source for a
#: page-spanning straight-line run would cost more to compile than the
#: dispatch overhead it saves.
_COMPILE_MAX_OPS = 256

_UNSIGNED_LOADS = frozenset(["ldr", "ldrb", "ldrh", "ldur"])
_SIGNED_LOADS = {"ldrsb": 8, "ldrsh": 16, "ldrsw": 32}
_SIMPLE_STORES = frozenset(["str", "strb", "strh", "stur"])

#: Generic handlers that read ``cpu.pc`` for the link register.  Inside a
#: block ``cpu.pc`` is stale, so their generic fallbacks restore it first.
_PC_READING = frozenset(["bl", "blr"])


_WORD = struct.Struct("<I")


class _Bindings(dict):
    """Op factory -> the factory with one machine's objects bound to its
    leading parameters that are named after them (see the factories)."""

    def __init__(self, machine):
        cpu, memory = machine.cpu, machine.memory
        self.objects = {"cpu": cpu, "regs": cpu.regs, "vregs": cpu.vregs,
                        "read": memory.read, "write": memory.write,
                        "handlers": machine._exec}

    def __missing__(self, factory):
        names = factory.__code__.co_varnames[:factory.__code__.co_argcount]
        bound = self[factory] = partial(factory, *map(
            self.objects.get, takewhile(self.objects.__contains__, names)))
        return bound


class BlockTemplate:
    """A straight-line run translated once for everywhere its words occur.

    ``ops`` holds a recipe ``(kind, factory, args, rel, rows)`` per op:
    ``factory(<machine objects>, *args, *(start + d for d in rel))`` is
    the closure of a block starting at ``start``, and a cost row's pc is
    likewise a displacement from it.  Nothing here names an address or a
    machine, so nothing ever invalidates a template.  ``moving`` indexes
    the ops with a ``rel``; ``factory`` is the compiled body's maker
    (``_compile_block``), built when the first costed block of this
    content gets hot.
    """

    __slots__ = ("ops", "size", "call_tail", "factory", "moving")

    def __init__(self, ops: list, size: int, call_tail: bool):
        self.ops = ops
        self.size = size
        self.call_tail = call_tail
        self.factory = None
        self.moving = [i for i, op in enumerate(ops) if op[3]]


#: (run bytes, guard positions, cost identity) -> BlockTemplate, process-
#: wide: every slot, ``Machine`` and ``Runtime`` holding the same words
#: instantiates the same template.  Flushed whole at the cap, like
#: ``block_cache_cap``; live blocks keep the template they came from.
_TEMPLATES: Dict[tuple, BlockTemplate] = {}
_TEMPLATE_CAP = 4096
#: repr of (cost model, TLB-walk scale) -> its small-int identity in keys.
_COST_IDS: Dict[str, int] = {}


class Superblock:
    """A predecoded straight-line run of instructions.

    A :class:`BlockTemplate` bound to a machine and a start address.
    ``ops`` is a list of ``(kind, exec, rows)`` tuples: one closure with
    the op's whole architectural effect, and one cost row ``(pc - start,
    icost, lat, uses, defs, role)`` per instruction it retires, in order.
    A fused guard sequence or runtime-call tail is simply an op with two
    rows.  ``count`` is the run's fuel cost, the number of rows in it;
    ``end`` is both the fall-through address and the exclusive byte bound
    used for invalidation overlap checks.

    ``call_tail`` marks a block whose last op is the fused runtime-call
    pair (``ldr x30, [x21, #n]`` + ``blr x30``): the dispatch loop offers
    the address such a block lands on to the runtime's springboard.

    ``link_fall``/``link_taken`` are the block-chaining inline caches
    (observed successor blocks); ``valid`` is cleared on invalidation so
    stale links are rejected by the dispatch loop without needing to
    find and unlink every predecessor.

    ``fn`` is the block's specialized closure, compiled by
    :meth:`SuperblockEngine._compile_block` once ``hits`` shows the
    block re-executing under the cost model; None until then (and
    forever, on the uncosted path).
    """

    __slots__ = ("start", "end", "ops", "count", "call_tail", "template",
                 "valid", "link_fall", "link_taken", "fn", "hits",
                 "__weakref__")

    def __init__(self, start: int, ops: list, template: BlockTemplate):
        self.start = start
        self.end = start + template.size
        self.ops = ops
        self.count = template.size >> 2  # one row per instruction
        self.call_tail = template.call_tail
        self.template = template
        self.valid = True
        self.link_fall: Optional["Superblock"] = None
        self.link_taken: Optional["Superblock"] = None
        self.fn = None
        self.hits = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Superblock({self.start:#x}..{self.end:#x}, "
                f"{len(self.ops)} ops, fuel {self.count})")


# ---------------------------------------------------------------------------
# Specialized op thunk factories.
#
# Every factory closes over the CPU register list (kept identity-stable by
# CpuState.restore) and precomputed constants; each replicates the exact
# architectural effect of the corresponding machine.py handler.  Leading
# parameters named cpu / regs / vregs / read / write / handlers are bound to
# the machine's objects by ``_Bindings``; trailing target / link / pc ones
# are a recipe's displacements made absolute.
# ---------------------------------------------------------------------------

def _is_plain_gpr(reg) -> bool:
    return (isinstance(reg, Reg) and reg.is_gpr and not reg.is_zero
            and not reg.is_sp)


_COND_EVAL = {
    "eq": lambda cpu: cpu.z == 1,
    "ne": lambda cpu: cpu.z == 0,
    "cs": lambda cpu: cpu.c == 1,
    "cc": lambda cpu: cpu.c == 0,
    "mi": lambda cpu: cpu.n == 1,
    "pl": lambda cpu: cpu.n == 0,
    "vs": lambda cpu: cpu.v == 1,
    "vc": lambda cpu: cpu.v == 0,
    "hi": lambda cpu: cpu.c == 1 and cpu.z == 0,
    "ls": lambda cpu: not (cpu.c == 1 and cpu.z == 0),
    "ge": lambda cpu: cpu.n == cpu.v,
    "lt": lambda cpu: cpu.n != cpu.v,
    "gt": lambda cpu: cpu.z == 0 and cpu.n == cpu.v,
    "le": lambda cpu: not (cpu.z == 0 and cpu.n == cpu.v),
    "al": lambda cpu: True,
    "nv": lambda cpu: True,
}


def _t_add_imm(regs, d, a_i, b, width, sub):
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i] - b) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i] + b) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32) - b) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32) + b) & MASK32
    return run


def _t_add_reg(regs, d, a_i, b_i, width, sub):
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i] - regs[b_i]) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i] + regs[b_i]) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (regs[b_i] & MASK32)) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (regs[b_i] & MASK32)) & MASK32
    return run


def _t_add_uxtw(regs, d, a_i, w_i):
    """``add Xd, Xn, wM, uxtw`` — the LFI guard form, unfused."""
    def run():
        regs[d] = (regs[a_i] + (regs[w_i] & MASK32)) & MASK64
    return run


def _flag_thunk(cpu, regs, d, a_i, width, get_b, carry_in):
    """Shared flags body for adds/subs/cmp/cmn (b already inverted for
    subtraction).  Replicates Machine._set_add_flags exactly."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    wrap = 1 << width
    if width == 64:
        def read_a():
            return regs[a_i]
    else:
        def read_a():
            return regs[a_i] & MASK32

    def run():
        a = read_a()
        b = get_b()
        raw = a + b + carry_in
        result = raw & mask
        cpu.n = 1 if result & top else 0
        cpu.z = 1 if result == 0 else 0
        cpu.c = 1 if raw > mask else 0
        sa = a - wrap if a & top else a
        sb = b - wrap if b & top else b
        sres = result - wrap if result & top else result
        cpu.v = 1 if (sa + sb + carry_in != sres) else 0
        if d is not None:
            regs[d] = result
    return run


def _t_addsub_flags_imm(cpu, regs, d, a_i, b, width, sub):
    mask = (1 << width) - 1
    if sub:
        b = (~b) & mask
        carry = 1
    else:
        b = b & mask
        carry = 0
    return _flag_thunk(cpu, regs, d, a_i, width, lambda: b, carry)


def _t_addsub_flags_reg(cpu, regs, d, a_i, b_i, width, sub):
    mask = (1 << width) - 1
    if width == 64:
        if sub:
            def get_b():
                return (~regs[b_i]) & mask
        else:
            def get_b():
                return regs[b_i]
    else:
        if sub:
            def get_b():
                return (~(regs[b_i] & MASK32)) & mask
        else:
            def get_b():
                return regs[b_i] & MASK32
    return _flag_thunk(cpu, regs, d, a_i, width, get_b, 1 if sub else 0)


def _t_mov_const(regs, d, const):
    def run():
        regs[d] = const
    return run


def _t_adrp(regs, d, pages, pc):
    return _t_mov_const(regs, d, (((pc >> 12) + pages) << 12) & MASK64)


def _t_mov_reg(regs, d, s_i, width):
    if width == 64:
        def run():
            regs[d] = regs[s_i]
    else:
        def run():
            regs[d] = regs[s_i] & MASK32
    return run


def _t_movk(regs, d, keep, bits, width):
    if width == 64:
        def run():
            regs[d] = (regs[d] & keep) | bits
    else:
        def run():
            regs[d] = ((regs[d] & MASK32) & keep) | bits
    return run


def _t_logic_imm(regs, d, a_i, b, width, op):
    if width == 64:
        if op == "and":
            def run():
                regs[d] = regs[a_i] & b
        elif op == "orr":
            def run():
                regs[d] = regs[a_i] | b
        else:
            def run():
                regs[d] = regs[a_i] ^ b
    else:
        if op == "and":
            def run():
                regs[d] = (regs[a_i] & MASK32) & b
        elif op == "orr":
            def run():
                regs[d] = (regs[a_i] & MASK32) | b
        else:
            def run():
                regs[d] = (regs[a_i] & MASK32) ^ b
    return run


def _t_logic_reg(regs, d, a_i, b_i, width, op):
    if width == 64:
        if op == "and":
            def run():
                regs[d] = regs[a_i] & regs[b_i]
        elif op == "orr":
            def run():
                regs[d] = regs[a_i] | regs[b_i]
        else:
            def run():
                regs[d] = regs[a_i] ^ regs[b_i]
    else:
        if op == "and":
            def run():
                regs[d] = (regs[a_i] & regs[b_i]) & MASK32
        elif op == "orr":
            def run():
                regs[d] = (regs[a_i] | regs[b_i]) & MASK32
        else:
            def run():
                regs[d] = (regs[a_i] ^ regs[b_i]) & MASK32
    return run


def _t_shift_imm(regs, d, a_i, amount, width, op):
    mask = (1 << width) - 1
    if op == "lsl":
        if width == 64:
            def run():
                regs[d] = (regs[a_i] << amount) & MASK64
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32) << amount) & MASK32
    elif op == "lsr":
        if width == 64:
            def run():
                regs[d] = regs[a_i] >> amount
        else:
            def run():
                regs[d] = (regs[a_i] & MASK32) >> amount
    else:  # asr
        top = 1 << (width - 1)
        wrap = 1 << width

        def run():
            a = regs[a_i] if width == 64 else regs[a_i] & MASK32
            if a & top:
                a -= wrap
            regs[d] = (a >> amount) & mask
    return run


def _t_addsub_shifted(regs, d, a_i, b_i, amount, width, sub):
    """``add/sub Xd, Xn, Xm, lsl #k`` (array indexing in the FP kernels)."""
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i]
                           - ((regs[b_i] << amount) & MASK64)) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i]
                           + ((regs[b_i] << amount) & MASK64)) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (((regs[b_i] & MASK32) << amount)
                              & MASK32)) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (((regs[b_i] & MASK32) << amount)
                              & MASK32)) & MASK32
    return run


def _t_madd(regs, d, n_i, m_i, a_i, width, msub):
    mask = (1 << width) - 1
    if width == 64:
        if msub:
            def run():
                regs[d] = (regs[a_i] - regs[n_i] * regs[m_i]) & mask
        else:
            def run():
                regs[d] = (regs[a_i] + regs[n_i] * regs[m_i]) & mask
    else:
        if msub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (regs[n_i] & MASK32)
                           * (regs[m_i] & MASK32)) & mask
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (regs[n_i] & MASK32)
                           * (regs[m_i] & MASK32)) & mask
    return run


def _t_bitfield(regs, d, n_i, width, immr, imms, signed):
    """ubfm/sbfm with precomputed field geometry (lsr/lsl/ubfx aliases)."""
    mask = (1 << width) - 1
    if imms >= immr:
        length = imms - immr + 1
        rshift = immr
        shift = 0
    else:
        length = imms + 1
        rshift = 0
        shift = width - immr
    fmask = (1 << length) - 1
    sign_bit = 1 << (length - 1)
    sign_fill = mask & ~((1 << min(shift + length, width)) - 1)
    src64 = width == 64

    def run():
        src = regs[n_i] if src64 else regs[n_i] & MASK32
        field = (src >> rshift) & fmask
        result = (field << shift) & mask
        if signed and field & sign_bit:
            result |= sign_fill
        regs[d] = result
    return run


# -- scalar floating point factories ------------------------------------------

def _t_fp2(vregs, d, n_i, m_i, bits, op, b2f, f2b):
    """Scalar fadd/fsub/fmul with equal-width d/s operands."""
    vmask = (1 << bits) - 1
    if op == "fadd":
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           + b2f(vregs[m_i] & vmask, bits), bits)
    elif op == "fsub":
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           - b2f(vregs[m_i] & vmask, bits), bits)
    else:  # fmul
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           * b2f(vregs[m_i] & vmask, bits), bits)
    return run


def _t_fp3(vregs, d, n_i, m_i, a_i, bits, msub, b2f, f2b):
    """Scalar fmadd/fmsub (the FP kernels' hottest data op)."""
    vmask = (1 << bits) - 1
    if msub:
        def run():
            prod = b2f(vregs[n_i] & vmask, bits) \
                * b2f(vregs[m_i] & vmask, bits)
            vregs[d] = f2b(b2f(vregs[a_i] & vmask, bits) - prod, bits)
    else:
        def run():
            prod = b2f(vregs[n_i] & vmask, bits) \
                * b2f(vregs[m_i] & vmask, bits)
            vregs[d] = f2b(b2f(vregs[a_i] & vmask, bits) + prod, bits)
    return run


# -- vector integer factories -------------------------------------------------

def _t_vec3_bitwise(vregs, d, n_i, m_i, full_mask, op):
    """Lane-independent vector and/orr/eor collapse to one bitop."""
    if op == "and":
        def run():
            vregs[d] = (vregs[n_i] & vregs[m_i]) & full_mask
    elif op == "orr":
        def run():
            vregs[d] = (vregs[n_i] | vregs[m_i]) & full_mask
    else:  # eor
        def run():
            vregs[d] = (vregs[n_i] ^ vregs[m_i]) & full_mask
    return run


def _t_vec3_lanes(vregs, d, n_i, m_i, lanes, bits, op):
    """Lane-wise vector add/sub/mul over a same-arrangement triple."""
    mask = (1 << bits) - 1
    shifts = tuple(range(0, lanes * bits, bits))
    if op == "add":
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) + ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    elif op == "sub":
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) - ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    else:  # mul
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) * ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    return run


# -- memory op factories ------------------------------------------------------

def _t_load(regs, cpu, read, t, base_i, imm, size, signed_bits, tbits,
            sp_base):
    """Loads with a register+immediate address into a GPR target."""
    if signed_bits is None:
        if sp_base:
            def run():
                addr = (cpu.sp + imm) & MASK64
                regs[t] = int.from_bytes(read(addr, size), "little")
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                regs[t] = int.from_bytes(read(addr, size), "little")
                return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32
        if sp_base:
            def run():
                addr = (cpu.sp + imm) & MASK64
                raw = int.from_bytes(read(addr, size), "little")
                if raw & sign:
                    raw -= wrap
                regs[t] = raw & tmask
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                raw = int.from_bytes(read(addr, size), "little")
                if raw & sign:
                    raw -= wrap
                regs[t] = raw & tmask
                return addr
    return run


def _t_load_uxtw(regs, read, t, base_i, w_i, size, signed_bits, tbits):
    """``ldr Xt, [x21, wM, uxtw]`` — the zero-instruction guard mode."""
    if signed_bits is None:
        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_store(regs, cpu, write, t, base_i, imm, size, sp_base, zero_src):
    smask = (1 << (size * 8)) - 1
    if sp_base:
        if zero_src:
            data = (0).to_bytes(size, "little")

            def run():
                addr = (cpu.sp + imm) & MASK64
                write(addr, data)
                return addr
        else:
            def run():
                addr = (cpu.sp + imm) & MASK64
                write(addr, (regs[t] & smask).to_bytes(size, "little"))
                return addr
    else:
        if zero_src:
            data = (0).to_bytes(size, "little")

            def run():
                addr = (regs[base_i] + imm) & MASK64
                write(addr, data)
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                write(addr, (regs[t] & smask).to_bytes(size, "little"))
                return addr
    return run


def _t_store_uxtw(regs, write, t, base_i, w_i, size, zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_vload(vregs, regs, cpu, read, t, base_i, imm, size, vmask, sp_base):
    """FP/SIMD register load (``ldr d0, [x1, #8]`` and friends)."""
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
            return addr
    return run


def _t_vload_uxtw(vregs, regs, read, t, base_i, w_i, size, vmask):
    def run():
        addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
        vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
        return addr
    return run


def _t_vstore(vregs, regs, cpu, write, t, base_i, imm, size, vmask, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
            return addr
    return run


def _t_vstore_uxtw(vregs, regs, write, t, base_i, w_i, size, vmask):
    def run():
        addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
        write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
        return addr
    return run


def _t_ldp(regs, cpu, read, t1, t2, base_i, imm, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            regs[t1] = int.from_bytes(read(addr, 8), "little")
            regs[t2] = int.from_bytes(read(addr + 8, 8), "little")
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            regs[t1] = int.from_bytes(read(addr, 8), "little")
            regs[t2] = int.from_bytes(read(addr + 8, 8), "little")
            return addr
    return run


def _t_stp(regs, cpu, write, t1, t2, base_i, imm, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            write(addr, (regs[t1] & MASK64).to_bytes(8, "little"))
            write(addr + 8, (regs[t2] & MASK64).to_bytes(8, "little"))
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            write(addr, (regs[t1] & MASK64).to_bytes(8, "little"))
            write(addr + 8, (regs[t2] & MASK64).to_bytes(8, "little"))
            return addr
    return run


# -- branch factories ---------------------------------------------------------

def _t_b(cpu, target):
    def run():
        cpu.pc = target
        return True
    return run


def _t_bl(cpu, regs, target, link):
    def run():
        regs[30] = link
        cpu.pc = target
        return True
    return run


def _t_bcond(cpu, cond, target):
    holds = _COND_EVAL[cond]

    def run():
        if holds(cpu):
            cpu.pc = target
            return True
        return False
    return run


def _t_cb(cpu, regs, t_i, width, want_zero, target):
    if width == 64:
        def read_t():
            return regs[t_i]
    else:
        def read_t():
            return regs[t_i] & MASK32
    if want_zero:
        def run():
            if read_t() == 0:
                cpu.pc = target
                return True
            return False
    else:
        def run():
            if read_t() != 0:
                cpu.pc = target
                return True
            return False
    return run


def _t_tb(cpu, regs, t_i, bit, want_set, target):
    if want_set:
        def run():
            if (regs[t_i] >> bit) & 1:
                cpu.pc = target
                return True
            return False
    else:
        def run():
            if not ((regs[t_i] >> bit) & 1):
                cpu.pc = target
                return True
            return False
    return run


def _t_br(cpu, regs, t_i):
    def run():
        cpu.pc = regs[t_i] & MASK64
        return True
    return run


def _t_blr(cpu, regs, t_i, link):
    def run():
        target = regs[t_i] & MASK64
        regs[30] = link
        cpu.pc = target
        return True
    return run


def _t_call_tail(cpu, regs, read, base_i, imm, link):
    """``ldr x30, [x21, #n]`` + ``blr x30`` — the runtime-call pair (§4.4).

    Net architectural effect of executing both instructions: ``x30``
    holds the return address and ``pc`` the loaded entry point.  A fault
    in the table load raises before any register is written, exactly as
    the stepping ``ldr`` would.  Returns ``(True, table address)``: the
    address for the load's row, the flag for the dispatch loop.
    """
    def run():
        addr = (regs[base_i] + imm) & MASK64
        target = int.from_bytes(read(addr, 8), "little")
        regs[30] = link
        cpu.pc = target
        return True, addr
    return run


def _t_generic(handlers, cpu, inst, word, pc):
    """The stepping handler of the instruction at ``pc``: the op of
    whatever has no specialized thunk.  ``inst`` is None when its decode
    reads pc, and is then decoded from ``word`` where the block now is."""
    if inst is None:
        inst = decode_word(word, pc)
    call = partial(handlers[inst.base], inst)
    if inst.base not in _PC_READING:
        return call

    def run():
        cpu.pc = pc
        return call()
    return run


# -- fused guard factories ----------------------------------------------------

def _t_fused_guard_load(regs, read, g_d, g_s, t, imm, size, signed_bits,
                        tbits, base_i):
    """``add Xg, x21, wS, uxtw`` + ``ldr Xt, [Xg(, #imm)]``."""
    if signed_bits is None:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_fused_guard_store(regs, write, g_d, g_s, t, imm, size, base_i,
                         zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_fused_offset_load(regs, read, o_d, o_s, o_imm, o_sub, t, size,
                         signed_bits, tbits, base_i):
    """``add wD, wS, #imm`` + ``ldr Xt, [x21, wD, uxtw]`` (Table 3)."""
    if signed_bits is None:
        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_fused_offset_store(regs, write, o_d, o_s, o_imm, o_sub, t, size,
                          base_i, zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_fused_guard_branch(cpu, regs, g_d, g_s, base_i, link=None):
    """``add Xg, x21, wS, uxtw`` + ``br/blr/ret Xg`` (branch guard)."""
    if link is None:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            cpu.pc = g
            return True
    else:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            regs[30] = link
            cpu.pc = g
            return True
    return run


def _t_fused_sp_guard(cpu, regs, w_d, base_i):
    """``mov w22, wsp`` + ``add sp, x21, x22`` (sp guard pair)."""
    def run():
        w = cpu.sp & MASK32
        regs[w_d] = w
        cpu.sp = (regs[base_i] + w) & MASK64
    return run


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class SuperblockEngine:
    """Block cache + translator + block-dispatch loop for one Machine."""

    def __init__(self, machine):
        # Imported lazily: machine.py imports this module at its top.
        from . import machine as M
        self._M = M
        self.machine = machine
        self._blocks: Dict[int, Superblock] = {}
        config = machine.engine_config
        #: Whether the dispatch loop follows block successor links.
        self.chaining = config.chaining
        #: Translation-cache flush threshold (None = unbounded).
        self.block_cache_cap = config.block_cache_cap
        #: Counters exposed for tests and diagnostics.
        self.translations = 0
        self.template_hits = 0
        self.template_misses = 0
        self.invalidations = 0
        self.chain_links = 0
        self.fused_calls = 0
        self.compiled_blocks = 0
        self._bindings = _Bindings(machine)
        #: template -> its ops bound to this machine, None where an op
        #: reads pc; capped like the templates themselves.
        self._bound: Dict[BlockTemplate, list] = {}
        #: What rows and compiled bodies read of the machine, in keys.
        model = machine.model
        self._cost_id = None if model is None else _COST_IDS.setdefault(
            repr((model, machine.tlb_walk_scale)), len(_COST_IDS))

    # -- cache management ---------------------------------------------------

    def invalidate_range(self, address: int, size: int) -> None:
        """Drop every block overlapping ``[address, address + size)``.

        Dropped blocks are also marked ``valid = False`` so chained
        predecessors reject their stale links on the next dispatch —
        invalidation unlinks chains without a reverse-edge index — and
        drop their own links, so a dead loop is freed by reference count
        rather than left as a cycle for the collector.
        """
        blocks = self._blocks
        if not blocks:
            return
        end = address + size
        dead = [start for start, block in blocks.items()
                if start < end and block.end > address]
        for start in dead:
            block = blocks.pop(start)
            block.valid = False
            block.link_fall = block.link_taken = None
        self.invalidations += len(dead)

    def invalidate_all(self) -> None:
        self.invalidate_range(0, 1 << 64)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    def block_at(self, pc: int) -> Optional[Superblock]:
        return self._blocks.get(pc)

    # -- driving ------------------------------------------------------------

    def run(self, fuel: Optional[int]) -> None:
        """Run blocks until a trap; raises OutOfFuel when fuel runs out.

        Semantics match ``Machine.run``'s stepping loop exactly: with
        fuel ``n``, exactly ``n`` instructions retire (the ``n+1``-th may
        raise its trap first) and then ``OutOfFuel`` is raised.
        """
        remaining = fuel if fuel is not None else (1 << 62)
        if remaining <= 0:
            raise self._M.OutOfFuel()
        remaining = self._dispatch(remaining)
        # A block larger than the remaining fuel: fall back to stepping
        # for the tail of the slice, then report preemption.
        step = self.machine.step
        for _ in range(remaining):
            step()
        raise self._M.OutOfFuel()

    def _dispatch(self, remaining: int) -> int:
        """The block-dispatch loop; returns the fuel left for stepping.

        Per block: follow the predecessor's chain link or look the block
        up (host check, translate, link), stop if it would overrun the
        fuel, run its body, then advance pc and fuel and offer a fused
        runtime call to the springboard.  The body is chosen by what is
        there to observe: without a cost model the op closures alone;
        with one, the block's compiled closure once it has one, and until
        then its rows walked through the same :class:`_Costing` methods
        ``Machine.step`` charges with.
        """
        M = self._M
        machine = self.machine
        cpu = machine.cpu
        host = machine._host_entries
        blocks = self._blocks
        translate = self._translate
        springboard = machine.springboard
        chaining = self.chaining
        costing = machine._costing
        if costing is not None:
            charge = costing.charge_row
            penalty = costing.memory_penalty
            tb = machine.model.taken_branch_cost
        n = 0
        links = 0
        prev = None
        prev_taken = False
        try:
            while True:
                pc0 = cpu.pc
                block = None
                if prev is not None:
                    nxt = prev.link_taken if prev_taken else prev.link_fall
                    if nxt is not None and nxt.valid and nxt.start == pc0:
                        # Chain follow: a valid linked block can never
                        # start at a host entry (registering one
                        # invalidates every covering block), so the host
                        # check and the cache lookup are both skipped.
                        block = nxt
                        links += 1
                if block is None:
                    if pc0 in host:
                        raise M.HostCallTrap(pc0, pc0)
                    block = blocks.get(pc0)
                    if block is None:
                        block = translate(pc0)
                    if prev is not None:
                        if prev_taken:
                            prev.link_taken = block
                        else:
                            prev.link_fall = block
                count = block.count
                if count > remaining:
                    return remaining
                taken = False
                try:
                    if costing is None:
                        for kind, exec_, rows in block.ops:
                            if kind < K_BRANCH:
                                exec_()
                            elif kind == K_BRANCH:
                                taken = exec_()
                            else:
                                taken = exec_()[0]
                    else:
                        fn = block.fn
                        if fn is None and block.hits >= 0:
                            block.hits += 1
                            if block.hits >= _COMPILE_THRESHOLD:
                                fn = block.fn = self._compile_block(block)
                                if fn is None:
                                    block.hits = -1  # too large; stop trying
                        if fn is not None:
                            taken = fn()
                        else:
                            for kind, exec_, rows in block.ops:
                                if kind == K_SIMPLE:
                                    exec_()
                                elif kind == K_MEM:
                                    addr = exec_()
                                elif kind == K_BRANCH:
                                    taken = exec_()
                                else:
                                    taken, addr = exec_()
                                for _pc, icost, lat, uses, defs, role in rows:
                                    extra = bw = 0.0
                                    if role & R_MEM and addr is not None:
                                        extra, bw = penalty(addr)
                                    if role == R_TAKEN \
                                            or role & R_BRANCH and taken:
                                        icost += tb
                                    charge(icost + bw, lat, uses, defs, extra)
                except MemoryFault as fault:
                    # The one fault rule (a compiled closure applies it
                    # itself and raises MemTrap): the ops before the one
                    # that faulted have retired, and so have its rows
                    # ahead of its first memory row — a fused guard's
                    # register write is already in place; the trap pc is
                    # the memory row's.
                    for _kind, _exec, done in block.ops:
                        if done is rows:
                            break
                        n += len(done)
                    for at, icost, lat, uses, defs, role in rows:
                        if role & R_MEM:
                            break
                        if costing is not None:
                            charge(icost, lat, uses, defs)
                        n += 1
                    cpu.pc = pc = block.start + at
                    raise M.MemTrap(pc, fault) from None
                n += count
                remaining -= count
                if not taken:
                    cpu.pc = block.end
                if remaining == 0:
                    # Preemption wins even over a runtime call the block
                    # just landed on, as in stepping (the next slice's
                    # host check raises HostCallTrap).
                    raise M.OutOfFuel()
                if not block.call_tail:
                    if chaining:
                        prev = block
                        prev_taken = taken
                    continue
                # Hand the call straight to the runtime's springboard
                # instead of raising HostCallTrap; it returns fresh fuel
                # to resume inline, or raises to end the slice.
                prev = None
                entry = cpu.pc
                if springboard is None or entry not in host:
                    continue
                machine.instret += n
                n = 0
                remaining, force_step = springboard(entry)
                if force_step:
                    return remaining
        finally:
            machine.instret += n
            self.chain_links += links

    def _compile_block(self, block: Superblock):
        """``block``'s specialized straight-line closure: its template's
        compiled body (generated on first use, once per content and cost
        model) bound to the block's closures, this machine and ``start``.
        Returns None when the block is not worth compiling (oversized)."""
        if len(block.ops) > _COMPILE_MAX_OPS:
            return None
        machine = self.machine
        costing = machine._costing
        template = block.template
        if template.factory is None:
            template.factory = self._compile(template)
        self.compiled_blocks += 1
        return template.factory(
            block.ops, costing, costing.ready, costing.ready.get,
            machine.cpu, machine, costing.tlb.lookup, costing.l1.lookup,
            costing.l2.lookup, MemoryFault, self._M.MemTrap, block.start)

    def _compile(self, template: BlockTemplate):
        """Compile ``template.ops`` into the maker of a straight-line closure.

        Walking rows pays per-op Python overhead on every execution: tuple
        unpacks, kind and role switches, two calls per row and scoreboard
        loops over ``uses``/``defs``.  For a block that re-executes (a
        loop body) all of that is static, so it is unrolled here into
        generated source with every static quantity — issue costs,
        latencies, scoreboard keys, pc displacements, model miss charges —
        folded in as literals (``repr`` of a float round-trips exactly).
        The row emitter below is the source form of
        ``_Costing.memory_penalty`` and ``_Costing.charge_row``: the *same
        float operations in the same order*, so cycle totals stay
        bit-identical; compilation is pure host-side speedup (DESIGN.md
        §15).  The op closures, the machine and the block's start (``pc0``)
        are the maker's parameters.

        The closure keeps ``t_issue``/``t_done`` in locals and commits
        them in a ``finally``, so a mid-block trap leaves exactly what
        walking the rows would have.
        """
        ops = template.ops
        costing = self.machine._costing
        model = self.machine.model
        tb = model.taken_branch_cost

        lines: List[str] = []
        emit = lines.append

        def charge(ind, row):
            _pc, icost, lat, uses, defs, role = row
            bw = ""
            lat_expr = repr(lat)
            if role & R_MEM:
                emit(f"{ind}extra = 0.0")
                emit(f"{ind}bw = 0.0")
                at = ind
                if role == R_GENERIC:
                    emit(f"{ind}if addr is not None:")
                    at += "    "
                emit(f"{at}if not tlb_lookup(addr):")
                emit(f"{at}    extra += {costing.walk!r}")
                emit(f"{at}    bw += {costing.walk_issue!r}")
                emit(f"{at}if not l1_lookup(addr):")
                emit(f"{at}    extra += {model.l1_miss_cycles!r}")
                emit(f"{at}    bw += {model.l1_miss_issue!r}")
                emit(f"{at}    if not l2_lookup(addr):")
                emit(f"{at}        extra += {model.l2_miss_cycles!r}")
                emit(f"{at}        bw += {model.l2_miss_issue!r}")
                bw = " + bw"
                lat_expr += " + extra"
            if role & R_BRANCH:
                emit(f"{ind}if taken:")
                emit(f"{ind}    t_issue += {icost + tb!r}{bw}")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {icost!r}{bw}")
            elif role == R_TAKEN:
                emit(f"{ind}t_issue += {icost + tb!r}")
            else:
                emit(f"{ind}t_issue += {icost!r}{bw}")
            emit(f"{ind}start = t_issue")
            for key in uses:
                emit(f"{ind}t = ready_get({key!r})")
                emit(f"{ind}if t is not None and t > start:")
                emit(f"{ind}    start = t")
            emit(f"{ind}finish = start + {lat_expr}")
            for key in defs:
                emit(f"{ind}ready[{key!r}] = finish")
            emit(f"{ind}if finish > t_done:")
            emit(f"{ind}    t_done = finish")

        ind = "            "
        retired = 0
        for i, (kind, *_recipe, rows) in enumerate(ops):
            call = ("e{}()", "addr = e{}()", "taken = e{}()",
                    "taken, addr = e{}()")[kind].format(i)
            ahead = next((k for k, row in enumerate(rows)
                          if row[5] & R_MEM), None)
            if ahead is None:
                emit(f"{ind}{call}")
            else:
                # The fault rule of the dispatch loop, as source.
                pc = f"pc0 + {rows[ahead][0]}"
                emit(f"{ind}try:")
                emit(f"{ind}    {call}")
                emit(f"{ind}except MemoryFault as fault:")
                for row in rows[:ahead]:
                    charge(ind + "    ", row)
                emit(f"{ind}    machine.instret += {retired + ahead}")
                emit(f"{ind}    cpu.pc = {pc}")
                emit(f"{ind}    raise MemTrap({pc}, fault) from None")
            for row in rows:
                charge(ind, row)
            retired += len(rows)

        binds = ", ".join(
            [f"e{i}=ops[{i}][1]" for i in range(len(ops))]
            + ["costing=costing", "ready=ready", "ready_get=ready_get",
               "cpu=cpu", "machine=machine", "tlb_lookup=tlb_lookup",
               "l1_lookup=l1_lookup", "l2_lookup=l2_lookup",
               "MemoryFault=MemoryFault", "MemTrap=MemTrap", "pc0=pc0"])
        src = "\n".join(
            ["def _factory(ops, costing, ready, ready_get, cpu, machine,",
             "             tlb_lookup, l1_lookup, l2_lookup, MemoryFault,",
             "             MemTrap, pc0):",
             f"    def run({binds}):",
             "        t_issue = costing.t_issue",
             "        t_done = costing.t_done",
             "        taken = False",
             "        try:",
             *lines,
             "        finally:",
             "            costing.t_issue = t_issue",
             "            costing.t_done = t_done",
             "        return taken",
             "    return run",
             ""])
        namespace: Dict[str, object] = {}
        exec(compile(src, "<superblock>", "exec"), namespace)
        return namespace["_factory"]

    # -- translation --------------------------------------------------------

    def _translate(self, start: int) -> Superblock:
        """The block of the straight-line run starting at ``start``: its
        template, looked up by content or derived, bound to this machine.

        The run is read from guest memory under the checks ``fetch``
        makes, every time, and the key holds all of it, so a block is
        only ever a translation of the words the guest holds now.  Raises
        the same trap ``Machine.step`` would raise if the *first*
        instruction is unfetchable or undecodable; later problems simply
        end the run (the next dispatch raises them with the exact pc).
        """
        M = self._M
        machine = self.machine
        cap = self.block_cache_cap
        if cap is not None and len(self._blocks) >= cap:
            # Deterministic full flush: same translation pressure on every
            # run with the same config, so counters stay reproducible.
            self.invalidate_all()
        try:
            buf, first = machine.memory.fetch_page(start)
        except MemoryFault as fault:
            raise M.MemTrap(start, fault) from None
        host = machine._host_entries
        guard_map = machine.guard_map
        known = M.WORD_FACTS
        UNDECODABLE, PLAIN, TRAP = M.W_UNDECODABLE, M.W_PLAIN, M.W_TRAP
        guards = 0  # bit i: guard_map names the run's i-th instruction
        bit = 1
        at = start
        for word, in _WORD.iter_unpack(memoryview(buf)[first:]):
            if at in host and at != start:
                break
            shape = (known.get(word)
                     or M.word_facts(word, machine._exec))[0]
            if shape == UNDECODABLE:
                if at == start:
                    raise M.UnknownInstructionTrap(start, word)
                break
            if shape == TRAP and at != start:
                break
            if guard_map and at in guard_map:
                guards |= bit
            bit <<= 1
            at += 4
            if shape != PLAIN:
                break

        key = (bytes(buf[first:first + at - start]), guards, self._cost_id)
        template = _TEMPLATES.get(key)
        if template is None:
            self.template_misses += 1
            if len(_TEMPLATES) >= _TEMPLATE_CAP:
                _TEMPLATES.clear()
            template = _TEMPLATES[key] = self._derive(key[0], guards)
        else:
            self.template_hits += 1
        # Bind: once per machine for the ops that read no pc (their
        # closures hold no state, so every block of the template here
        # shares them), per block for the ones that do.
        bind = self._bindings
        ops = self._bound.get(template)
        if ops is None:
            if len(self._bound) >= _TEMPLATE_CAP:
                self._bound.clear()
            ops = self._bound[template] = [
                (kind, None if rel else bind[factory](*args), rows)
                for kind, factory, args, rel, rows in template.ops]
        ops = ops.copy()
        for i in template.moving:
            kind, factory, args, rel, rows = template.ops[i]
            ops[i] = (kind, bind[factory](
                *args, *[(start + d) & MASK64 for d in rel]), rows)
        block = self._blocks[start] = Superblock(start, ops, template)
        self.translations += 1
        self.fused_calls += template.call_tail
        return block

    def _derive(self, text: bytes, guards: int) -> BlockTemplate:
        """Translate the run ``text`` in block coordinates: pc 0 is its
        first instruction, so every address a decode or a link computes
        from pc comes out as a displacement from the block start."""
        M = self._M
        handlers = self.machine._exec
        decoded: List[Tuple[int, tuple]] = []  # (pc, predecode-like entry)
        for pc in range(0, len(text), 4):
            word = int.from_bytes(text[pc:pc + 4], "little")
            _shape, inst, klass, uses, defs = M.word_facts(word, handlers)
            moves = inst is None  # the decode reads pc
            decoded.append((pc, (decode_word(word, pc) if moves else inst,
                                 word if moves else None, klass, uses, defs)))

        # Springboard fusion: a block ending in the verified runtime-call
        # idiom (``ldr x30, [x21, #n]; blr x30`` — recognized by the same
        # predicate the rewriter uses) compiles the pair into a single
        # two-row op, and the dispatch loop hands the landing address to
        # the runtime springboard without trap-based unwinding.
        call = None
        if len(decoded) >= 2 and decoded[-1][1][0].base == "blr" \
                and is_runtime_call_load(
                    [decoded[-2][1][0], decoded[-1][1][0]], 0):
            ldr_pc, ldr = decoded[-2]
            blr_pc, blr = decoded[-1]
            form = self._mem_form(ldr[0].mem)
            if form is not None and form[0] == "imm" and not form[2]:
                call = (K_GENERIC, _t_call_tail, (form[1], form[3]),
                        (blr_pc + 4,), (self._row(ldr_pc, ldr, R_MEM),
                                        self._row(blr_pc, blr, R_TAKEN)))
                del decoded[-2:]

        ops = []
        i = 0
        while i < len(decoded):
            pc_i, entry = decoded[i]
            if guards >> (pc_i >> 2) & 1 and i + 1 < len(decoded):
                fused = self._try_fuse(pc_i, entry, decoded[i + 1][1])
                if fused is not None:
                    ops.append(fused)
                    i += 2
                    continue
            ops.append(self._build_op(pc_i, entry))
            i += 1
        if call is not None:
            ops.append(call)
        return BlockTemplate(ops, len(text), call is not None)

    # -- op construction ----------------------------------------------------

    def _row(self, pc: int, entry: tuple, role: int) -> tuple:
        """The cost row of the ``_derive`` entry at ``pc``."""
        _inst, _word, klass, uses, defs = entry
        model = self.machine.model
        if model is None:
            return (pc, 0.0, 0.0, uses, defs, role)
        return (pc, model.issue_cost(klass), model.result_latency(klass),
                uses, defs, role)

    def _build_op(self, pc: int, entry: tuple) -> tuple:
        inst, word = entry[:2]
        kind, factory, args, *rel = self._specialize(pc, inst) or (
            K_GENERIC, _t_generic, (inst if word is None else None, word),
            (pc,))
        # Its one row takes everything the op returns: role == kind.
        return (kind, factory, args, rel[0] if rel else None,
                (self._row(pc, entry, kind),))

    def _specialize(self, pc: int, inst: Instruction):
        """The recipe of a specialized thunk ``(kind, factory, args[, pc-
        relative args])``, or None for the generic fallback.  ``pc`` and
        every address ``inst`` was decoded to are displacements from the
        block start."""
        M = self._M
        base = inst.base
        m = inst.mnemonic
        ops = inst.operands

        # -- branches ------------------------------------------------------
        if base == "b":
            if not isinstance(ops[0], Imm):
                return None
            if m == "b":
                return (K_BRANCH, _t_b, (), (ops[0].value,))
            cond = self._canonical(m[2:])
            if cond is None:
                return None
            return (K_BRANCH, _t_bcond, (cond,), (ops[0].value,))
        if base == "bl":
            if not isinstance(ops[0], Imm):
                return None
            return (K_BRANCH, _t_bl, (), (ops[0].value, pc + 4))
        if base == "br":
            if not _is_plain_gpr(ops[0]):
                return None
            return (K_BRANCH, _t_br, (ops[0].index,))
        if base == "blr":
            if not _is_plain_gpr(ops[0]):
                return None
            return (K_BRANCH, _t_blr, (ops[0].index,), (pc + 4,))
        if base == "ret":
            reg = ops[0] if ops else LR
            if not _is_plain_gpr(reg):
                return None
            return (K_BRANCH, _t_br, (reg.index,))
        if base in ("cbz", "cbnz"):
            rt, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (K_BRANCH, _t_cb, (rt.index, rt.bits, base == "cbz"),
                    (target.value,))
        if base in ("tbz", "tbnz"):
            rt, bit, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (K_BRANCH, _t_tb, (rt.index, bit.value, base == "tbnz"),
                    (target.value,))

        # -- vector / floating point ---------------------------------------
        if ops and isinstance(ops[0], VecReg):
            return self._specialize_vector(inst)

        if base in ("fadd", "fsub", "fmul") and len(ops) == 3:
            rd, rn, rm = ops
            if all(isinstance(r, Reg) and r.is_vector for r in ops) \
                    and rd.bits == rn.bits == rm.bits \
                    and rd.bits in (32, 64):
                return (K_SIMPLE, _t_fp2, (
                    rd.index, rn.index, rm.index, rd.bits,
                    base, M._bits_to_float, M._float_to_bits))
            return None

        if base in ("fmadd", "fmsub") and len(ops) == 4:
            rd, rn, rm, ra = ops
            if all(isinstance(r, Reg) and r.is_vector for r in ops) \
                    and rd.bits == rn.bits == rm.bits == ra.bits \
                    and rd.bits in (32, 64):
                return (K_SIMPLE, _t_fp3, (
                    rd.index, rn.index, rm.index, ra.index,
                    rd.bits, base == "fmsub",
                    M._bits_to_float, M._float_to_bits))
            return None

        # -- data processing ----------------------------------------------
        if base in ("add", "sub", "adds", "subs"):
            rd, rn, rm = ops[0], ops[1], ops[2]
            if not isinstance(rd, Reg) or rd.is_vector:
                return None
            setflags = base.endswith("s")
            sub = base.startswith("sub")
            width = rd.bits
            if not _is_plain_gpr(rn):
                return None
            if setflags:
                if not (rd.is_zero or _is_plain_gpr(rd)):
                    return None
                d = None if rd.is_zero else rd.index
                if isinstance(rm, (Imm, ShiftedImm)):
                    b = (rm.value << rm.shift if isinstance(rm, ShiftedImm)
                         else rm.value) & ((1 << width) - 1)
                    return (K_SIMPLE, _t_addsub_flags_imm, (
                        d, rn.index, b, width, sub))
                if _is_plain_gpr(rm) and rm.bits == width:
                    return (K_SIMPLE, _t_addsub_flags_reg, (
                        d, rn.index, rm.index, width, sub))
                return None
            if not _is_plain_gpr(rd):
                return None
            if isinstance(rm, (Imm, ShiftedImm)):
                b = (rm.value << rm.shift if isinstance(rm, ShiftedImm)
                     else rm.value) & ((1 << width) - 1)
                return (K_SIMPLE, _t_add_imm, (rd.index, rn.index, b,
                                               width, sub))
            if isinstance(rm, Reg) and _is_plain_gpr(rm) \
                    and rm.bits == width:
                return (K_SIMPLE, _t_add_reg, (rd.index, rn.index,
                                               rm.index, width, sub))
            if not sub and width == 64 and isinstance(rm, Extended) \
                    and rm.kind == "uxtw" and not rm.amount \
                    and _is_plain_gpr(rm.reg):
                return (K_SIMPLE, _t_add_uxtw, (rd.index, rn.index,
                                                rm.reg.index))
            if isinstance(rm, Shifted) and rm.kind == "lsl" \
                    and _is_plain_gpr(rm.reg) and rm.reg.bits == width:
                return (K_SIMPLE, _t_addsub_shifted, (
                    rd.index, rn.index, rm.reg.index,
                    rm.amount % width, width, sub))
            return None

        if base in ("mov", "movz", "movn"):
            rd, src = ops
            if not isinstance(rd, Reg) or not _is_plain_gpr(rd):
                return None
            mask = (1 << rd.bits) - 1
            if isinstance(src, (Imm, ShiftedImm)):
                v = src.value << src.shift if isinstance(src, ShiftedImm) \
                    else src.value
                if base == "movn":
                    v = ~v
                return (K_SIMPLE, _t_mov_const, (rd.index, v & mask))
            if base == "mov" and _is_plain_gpr(src):
                return (K_SIMPLE, _t_mov_reg, (rd.index, src.index,
                                               rd.bits))
            return None

        if base == "movk":
            rd, src = ops
            if not _is_plain_gpr(rd):
                return None
            shift = src.shift if isinstance(src, ShiftedImm) else 0
            imm = src.value
            keep = ((1 << rd.bits) - 1) & ~(0xFFFF << shift)
            return (K_SIMPLE, _t_movk, (rd.index, keep, imm << shift,
                                        rd.bits))

        if base in ("adr", "adrp"):
            rd, src = ops
            if not _is_plain_gpr(rd) or not isinstance(src, Imm):
                return None
            if base == "adr":
                return (K_SIMPLE, _t_mov_const, (rd.index,), (src.value,))
            return (K_SIMPLE, _t_adrp,
                    (rd.index, (src.value >> 12) - (pc >> 12)), (pc,))

        if base in ("and", "orr", "eor"):
            rd, rn, rm = ops
            if not isinstance(rd, Reg) or rd.is_vector \
                    or not _is_plain_gpr(rd) or not _is_plain_gpr(rn):
                return None
            width = rd.bits
            if isinstance(rm, Imm):
                b = rm.value & ((1 << width) - 1)
                return (K_SIMPLE, _t_logic_imm, (rd.index, rn.index, b,
                                                 width, base))
            if isinstance(rm, Reg) and _is_plain_gpr(rm) \
                    and rm.bits == width:
                return (K_SIMPLE, _t_logic_reg, (rd.index, rn.index,
                                                 rm.index, width, base))
            return None

        if base in ("lsl", "lsr", "asr"):
            rd, rn, src = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or not isinstance(src, Imm):
                return None
            return (K_SIMPLE, _t_shift_imm, (rd.index, rn.index,
                                             src.value % rd.bits, rd.bits,
                                             base))

        if base in ("madd", "msub") and len(ops) == 4:
            rd, rn, rm, ra = ops
            if not (_is_plain_gpr(rd) and _is_plain_gpr(rn)
                    and _is_plain_gpr(rm) and _is_plain_gpr(ra)) \
                    or not rd.bits == rn.bits == rm.bits == ra.bits:
                return None
            return (K_SIMPLE, _t_madd, (rd.index, rn.index, rm.index,
                                        ra.index, rd.bits, base == "msub"))

        if base in ("ubfm", "sbfm") and len(ops) == 4:
            rd, rn, immr, imms = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or rd.bits != rn.bits:
                return None
            return (K_SIMPLE, _t_bitfield, (rd.index, rn.index, rd.bits,
                                            immr.value, imms.value,
                                            base == "sbfm"))

        # -- memory --------------------------------------------------------
        if base in _UNSIGNED_LOADS or base in _SIGNED_LOADS:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            if rt.is_vector:
                if base in _SIGNED_LOADS:
                    return None
                form = self._mem_form(memop)
                if form is None:
                    return None
                mode, base_i, sp_base, imm, w_i = form
                size = access_bytes(inst)
                vmask = (1 << rt.bits) - 1
                if mode == "imm":
                    return (K_MEM, _t_vload, (rt.index, base_i, imm, size,
                                              vmask, sp_base))
                return (K_MEM, _t_vload_uxtw, (rt.index, base_i, w_i, size,
                                               vmask))
            if not (rt.is_zero or _is_plain_gpr(rt)):
                return None
            if rt.is_zero:
                return None  # prefetch-style form: keep generic
            signed_bits = _SIGNED_LOADS.get(base)
            size = access_bytes(inst)
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, w_i = form
            if mode == "imm":
                return (K_MEM, _t_load, (rt.index, base_i, imm, size,
                                         signed_bits, rt.bits, sp_base))
            return (K_MEM, _t_load_uxtw, (rt.index, base_i, w_i, size,
                                          signed_bits, rt.bits))

        if base in _SIMPLE_STORES:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            if rt.is_vector:
                form = self._mem_form(memop)
                if form is None:
                    return None
                mode, base_i, sp_base, imm, w_i = form
                size = access_bytes(inst)
                vmask = (1 << rt.bits) - 1
                if mode == "imm":
                    return (K_MEM, _t_vstore, (rt.index, base_i, imm, size,
                                               vmask, sp_base))
                return (K_MEM, _t_vstore_uxtw, (rt.index, base_i, w_i, size,
                                                vmask))
            if not (rt.is_zero or _is_plain_gpr(rt)):
                return None
            size = access_bytes(inst)
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, w_i = form
            t = 0 if rt.is_zero else rt.index
            if mode == "imm":
                return (K_MEM, _t_store, (t, base_i, imm, size, sp_base,
                                          rt.is_zero))
            return (K_MEM, _t_store_uxtw, (t, base_i, w_i, size,
                                           rt.is_zero))

        if base in ("ldp", "stp"):
            rt, rt2, memop = ops
            if rt.is_vector or rt2.is_vector or rt.bits != 64 \
                    or rt2.bits != 64:
                return None
            if not _is_plain_gpr(rt) or not _is_plain_gpr(rt2):
                return None
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, _w_i = form
            if mode != "imm":
                return None
            return (K_MEM, _t_ldp if base == "ldp" else _t_stp,
                    (rt.index, rt2.index, base_i, imm, sp_base))

        return None

    def _specialize_vector(self, inst: Instruction):
        """Lane-arranged vector ops (``add v0.4s, v1.4s, v2.4s`` etc.).

        Only the same-arrangement integer triple forms are specialized;
        anything else (float lanes, movi/dup, mixed arrangements) keeps
        the generic handler.
        """
        base = inst.base
        ops = inst.operands
        if base not in ("add", "sub", "mul", "and", "orr", "eor") \
                or len(ops) != 3:
            return None
        rd, rn, rm = ops
        if not all(isinstance(o, VecReg) for o in ops):
            return None
        if not (rd.arrangement == rn.arrangement == rm.arrangement):
            return None
        d, n, m = rd.reg.index, rn.reg.index, rm.reg.index
        bits = rd.lane_bits
        lanes = rd.lanes
        if base in ("and", "orr", "eor"):
            full_mask = (1 << (lanes * bits)) - 1
            return (K_SIMPLE, _t_vec3_bitwise, (d, n, m, full_mask, base))
        return (K_SIMPLE, _t_vec3_lanes, (d, n, m, lanes, bits, base))

    @staticmethod
    def _mem_form(memop: Mem):
        """Classify a Mem operand for specialization.

        Returns ``(mode, base_index, sp_base, imm, w_index)`` where mode
        is ``"imm"`` (base register + immediate) or ``"uxtw"`` (the guard
        addressing mode), or None if the form needs the generic handler.
        """
        if memop.mode in (PRE_INDEX, POST_INDEX):
            return None
        base = memop.base
        if not isinstance(base, Reg) or base.is_zero or base.is_vector:
            return None
        sp_base = base.is_sp
        base_i = None if sp_base else base.index
        off = memop.offset
        if off is None:
            return ("imm", base_i, sp_base, 0, None)
        if isinstance(off, Imm):
            return ("imm", base_i, sp_base, off.value, None)
        if isinstance(off, Extended) and off.kind == "uxtw" \
                and not off.amount and _is_plain_gpr(off.reg) \
                and not sp_base:
            return ("uxtw", base_i, sp_base, 0, off.reg.index)
        return None

    @staticmethod
    def _canonical(cond: str) -> Optional[str]:
        try:
            cond = canonical_condition(cond)
        except ValueError:
            return None
        return cond if cond in _COND_EVAL else None

    # -- guard fusion --------------------------------------------------------

    def _try_fuse(self, pc: int, guard_entry: tuple,
                  access_entry: tuple) -> Optional[tuple]:
        """Fuse a verified guard instruction with its consumer.

        Returns the recipe of a two-row op — the guard's row, then the
        consumer's, so both are charged in retire order and cycle
        accounting stays bit-identical to stepping — or None.
        """
        guard, access = guard_entry[0], access_entry[0]
        gops = guard.operands

        fused = None  # (factory, args[, pc-relative args])
        # A guarded load/store unless a pattern below says otherwise.
        kind, role = K_MEM, R_MEM

        # Pattern 1: address guard  add Xg, Xb, wS, uxtw  + consumer.
        if guard.mnemonic == "add" and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 64 \
                and _is_plain_gpr(gops[1]) \
                and isinstance(gops[2], Extended) \
                and gops[2].kind == "uxtw" and not gops[2].amount \
                and _is_plain_gpr(gops[2].reg):
            g_d = gops[0].index
            base_i = gops[1].index
            g_s = gops[2].reg.index
            aops = access.operands
            ab = access.base
            if ab in ("br", "blr", "ret"):
                reg = aops[0] if aops else LR
                if _is_plain_gpr(reg) and reg.index == g_d:
                    fused = (_t_fused_guard_branch, (g_d, g_s, base_i),
                             (pc + 8,) if ab == "blr" else None)
                    kind, role = K_BRANCH, R_TAKEN
            elif (ab in _UNSIGNED_LOADS or ab in _SIGNED_LOADS
                    or ab in _SIMPLE_STORES) and len(aops) == 2 \
                    and isinstance(aops[1], Mem):
                rt, memop = aops
                form = self._mem_form(memop)
                if form is not None and form[0] == "imm" \
                        and not form[2] and form[1] == g_d \
                        and not rt.is_vector:
                    imm = form[3]
                    size = access_bytes(access)
                    is_store = ab in _SIMPLE_STORES
                    if is_store and (rt.is_zero or _is_plain_gpr(rt)):
                        t = 0 if rt.is_zero else rt.index
                        fused = (_t_fused_guard_store, (
                            g_d, g_s, t, imm, size,
                            base_i, rt.is_zero))
                    elif not is_store and _is_plain_gpr(rt):
                        fused = (_t_fused_guard_load, (
                            g_d, g_s, rt.index, imm, size,
                            _SIGNED_LOADS.get(ab), rt.bits, base_i))

        # Pattern 2: offset fold  add/sub wD, wS, #imm  +
        #            op [Xb, wD, uxtw]  (Table 3 rows 2, 5-7).
        elif guard.mnemonic in ("add", "sub") and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and _is_plain_gpr(gops[1]) and gops[1].bits == 32 \
                and isinstance(gops[2], Imm):
            o_d = gops[0].index
            o_s = gops[1].index
            o_imm = gops[2].value & MASK32
            o_sub = guard.mnemonic == "sub"
            aops = access.operands
            ab = access.base
            if (ab in _UNSIGNED_LOADS or ab in _SIGNED_LOADS
                    or ab in _SIMPLE_STORES) and len(aops) == 2 \
                    and isinstance(aops[1], Mem):
                rt, memop = aops
                form = self._mem_form(memop)
                if form is not None and form[0] == "uxtw" \
                        and form[4] == o_d and not rt.is_vector:
                    base_i = form[1]
                    size = access_bytes(access)
                    is_store = ab in _SIMPLE_STORES
                    if is_store and (rt.is_zero or _is_plain_gpr(rt)):
                        t = 0 if rt.is_zero else rt.index
                        fused = (_t_fused_offset_store, (
                            o_d, o_s, o_imm, o_sub, t,
                            size, base_i, rt.is_zero))
                    elif not is_store and _is_plain_gpr(rt):
                        fused = (_t_fused_offset_load, (
                            o_d, o_s, o_imm, o_sub,
                            rt.index, size, _SIGNED_LOADS.get(ab),
                            rt.bits, base_i))

        # Pattern 3: sp guard pair  mov wD, wsp + add sp, Xb, XD  (the
        #            decoder spells the mov ``add wD, wsp, #0``).
        elif guard.mnemonic == "add" and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and isinstance(gops[1], Reg) and gops[1].is_sp \
                and gops[1].bits == 32 \
                and isinstance(gops[2], Imm) and not gops[2].value:
            w_d = gops[0].index
            aops = access.operands
            if access.mnemonic == "add" and len(aops) == 3 \
                    and isinstance(aops[0], Reg) and aops[0].is_sp \
                    and _is_plain_gpr(aops[1]):
                src = aops[2]
                src_reg = src.reg if isinstance(src, Extended) else src
                src_ok = isinstance(src, Reg) and _is_plain_gpr(src) \
                    and src.bits == 64
                if isinstance(src, Extended):
                    src_ok = src.kind in ("uxtx", "lsl") \
                        and not src.amount and _is_plain_gpr(src.reg) \
                        and src.reg.bits == 64
                if src_ok and src_reg.index == w_d:
                    fused = (_t_fused_sp_guard, (w_d, aops[1].index))
                    kind, role = K_SIMPLE, R_PLAIN

        if fused is None:
            return None
        factory, args, *rel = fused
        return (kind, factory, args, rel[0] if rel else None,
                (self._row(pc, guard_entry, R_PLAIN),
                 self._row(pc + 4, access_entry, role)))
