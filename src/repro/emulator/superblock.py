"""Superblock (translated-block) execution engine for the emulator hot path.

The stepping interpreter in :mod:`repro.emulator.machine` pays Python
dispatch cost on every instruction: a decode-cache lookup, a handler
dispatch, generic operand evaluation, and a :meth:`_Costing.charge` call.
This module translates straight-line instruction runs into immutable
:class:`Superblock` objects and dispatches whole blocks from
:meth:`Machine.run`.  What an op does is stated once, as source lines
(the ``_e_*`` emitters): a cold block runs one closure per op made from
those lines, a hot one a single generated function in which the lines
are inlined with their operands as literals.

Design rules (DESIGN.md §10, §15):

* a block ends at the first branch, registered host entry, undecodable
  word, or page boundary — blocks never cross a page, so invalidation is
  page-exact — and before a trap instruction (``svc``/``brk``/``hlt``),
  which is a block of its own;
* an op is one decoded instruction: its lines plus its one *cost row*.
  What a block does and what it costs are both data, and a body — the
  closure walk or the generated function — is lines + rows.  A guard is
  an ordinary op (DESIGN.md §10, "why there is no guard fusion");
* a run is translated once per *content*: a :class:`BlockTemplate`, keyed
  by the run's bytes (and the cost model), holds op recipes with every
  pc-derived constant as a displacement from the block start — and, once
  the content is hot, the generated body's code — and every block of
  those words — any slot, machine or runtime in the process, sandboxed
  or native — is the template bound to a machine and a start;
* a block ending in the runtime-call idiom (``ldr x30, [x21, #n]``;
  ``blr x30`` — the rewriter's :func:`is_runtime_call_load` predicate)
  carries that as a fact, ``call_tail``: the pair are the same two ops as
  anywhere else, and the dispatch loop hands the address such a block
  lands on straight to the runtime's *springboard*
  (``machine.springboard``) instead of raising ``HostCallTrap``; the
  springboard resumes translated execution inline when the scheduler
  allows (DESIGN.md §15);
* every turn of the dispatch loop is one host-entry check and one cache
  lookup; the one successor worth skipping them for, a hot block whose
  branch targets its own start, iterates inside its generated body —
  whole trips, as many as the fuel covers — and comes back to the
  dispatch loop once;
* one dispatch loop runs every block; cold costed blocks charge their
  rows through the very :class:`_Costing` methods ``Machine.step`` uses
  and hot ones through generated source with the same float operations
  in the same order, so cycle counts, trace timestamps, and metrics
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

import re
import struct
from functools import partial
from itertools import takewhile
from time import perf_counter
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

#: Op kinds — what an op's ``exec()`` returns, and so what its cost row
#: takes from that.  Bit 0: the address it accessed (the TLB walk and
#: cache-miss penalties; a generic op's may be None); bit 1: whether it
#: branched (the fetch bubble when taken).
K_SIMPLE = 0   # None: no memory access, never taken
K_MEM = 1      # address int: load/store, never taken
K_BRANCH = 2   # taken bool: terminator
K_GENERIC = 3  # (taken, mem_addr or None): original handler semantics

#: A block gets its generated body once it shows signs of re-execution;
#: until then the dispatch loop runs its closures, so straight-line code
#: never pays for codegen.  Measured per process on the fourteen
#: ``exec-steady`` images: 8 generates 24 bodies (2.0 ms each with rows,
#: 0.75 ms without: 47 / 18 ms) — the kernels' loop bodies; 2 or 4 generate
#: 90-98 (115-150 / 35-50 ms), every init block too, for no resolvable
#: gain in the steady state; 16 and 32 generate the same 24 as 8.
_COMPILE_THRESHOLD = 8
#: Blocks larger than this never get one: generated source for a
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
    """Maker -> the maker with one machine's objects (and its engine)
    bound to its leading parameters that are named after them
    (``objects``)."""

    def __init__(self, machine, engine):
        cpu, memory, costing = machine.cpu, machine.memory, machine._costing
        self.objects = {"cpu": cpu, "regs": cpu.regs, "vregs": cpu.vregs,
                        **memory.source_objects(),
                        "handlers": machine._exec, "machine": machine,
                        "engine": engine}
        if costing is not None:
            tlb, l1 = costing.tlb, costing.l1
            self.objects.update(
                costing=costing, ready=costing.ready,
                ready_get=costing.ready.get, tlb=tlb, l1=l1,
                tlb_sets=tlb._sets, l1_sets=l1._sets, tlb_lookup=tlb.lookup,
                l1_lookup=l1.lookup, l2_lookup=costing.l2.lookup)

    def bind(self, maker):
        names = maker.__code__.co_varnames[:maker.__code__.co_argcount]
        return partial(maker, *map(
            self.objects.get, takewhile(self.objects.__contains__, names)))

    def __missing__(self, maker):
        bound = self[maker] = self.bind(maker)
        return bound


class BlockTemplate:
    """A straight-line run translated once for everywhere its words occur.

    ``ops`` holds a recipe ``(kind, maker, args, rel, row)`` per
    instruction: ``maker(<machine objects>, *args, *(start + d for d in
    rel))`` is the closure of a block starting at ``start``,
    ``maker.emit`` the source lines it was made from, and ``row`` its cost
    row ``(pc - start, icost, lat, uses, defs)``, the pc likewise a
    displacement from the start.  Nothing here names an address or a
    machine, so nothing ever invalidates a template.  ``moving`` indexes
    the ops with a ``rel``; ``code`` is the maker of the generated body
    (``SuperblockEngine._compile``) and ``consts`` the objects it indexes,
    built when the first block of this content gets hot.  ``loops`` says
    the run ends in a direct, link-free branch to its own first
    instruction — displacement 0 wherever the words sit — so its
    generated body iterates inside itself; ``call_tail`` that it ends in
    the runtime-call pair (``ldr x30, [x21, #n]`` + ``blr x30``), so the
    dispatch loop offers the address it lands on to the springboard.
    """

    __slots__ = ("ops", "size", "call_tail", "code", "consts", "moving",
                 "loops")

    def __init__(self, ops: list, size: int, call_tail: bool):
        self.ops = ops
        self.size = size
        self.call_tail = call_tail
        self.code = self.consts = None
        self.moving = [i for i, op in enumerate(ops) if op[3]]
        self.loops = ops[-1][0] == K_BRANCH and ops[-1][3] == (0,)


#: (run bytes, cost identity) -> BlockTemplate, process-wide: every slot,
#: ``Machine`` and ``Runtime`` holding the same words instantiates the
#: same template.  Flushed whole at the cap, like
#: ``block_cache_cap``; live blocks keep the template they came from.
_TEMPLATES: Dict[tuple, BlockTemplate] = {}
_TEMPLATE_CAP = 4096
#: repr of (cost model, TLB-walk scale, TLB geometry) -> its small-int
#: identity in keys.
_COST_IDS: Dict[str, int] = {}
#: cost identity -> [bodies generated, host ms spent generating them].
_GENERATED: Dict[Optional[int], list] = {}


class Superblock:
    """A predecoded straight-line run of instructions.

    A :class:`BlockTemplate` bound to a machine and a start address.
    ``ops`` is a list of ``(kind, exec, row)`` tuples, one per
    instruction: the closure with its architectural effect and its cost
    row.  ``count`` is the run's fuel cost, the number of instructions in
    it; ``end`` is both the fall-through address and the exclusive byte
    bound used for invalidation overlap checks.  Nothing refers to a
    block but the engine's cache: dropping it from there invalidates it.

    ``fn`` is the template's generated body bound to this machine,
    ``fn(start, fuel)`` returning the instructions it retired, negated
    when it left by falling through: set once ``hits`` shows the block
    re-executing, or at translation when the content got hot before (such
    a block has no ``ops``); None until then.
    """

    __slots__ = ("start", "end", "ops", "count", "call_tail", "template",
                 "fn", "hits", "__weakref__")

    def __init__(self, start: int, template: BlockTemplate):
        self.start = start
        self.end = start + template.size
        self.ops = None
        self.count = template.size >> 2  # one row per instruction
        self.call_tail = template.call_tail
        self.template = template
        self.fn = None
        self.hits = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Superblock({self.start:#x}..{self.end:#x}, "
                f"{len(self.template.ops)} ops, fuel {self.count})")


# ---------------------------------------------------------------------------
# Op emitters: an op is lines.
#
# Each emitter states one op shape's whole architectural effect, once, as
# Python source lines — the exact effect of the machine.py handler.  Its
# leading parameters are the op's *operands* as source text; the rest are
# the *static* arguments that pick the shape.  A generated block body
# passes the operands as literals (pc-derived ones as ``pc0 + d``); the
# op's cold closure is the same lines with the operands left as the
# emitter's own parameter names, compiled once per (emitter, static) into
# a maker whose closure variables they are (``_op``).  Lines may name the
# machine's ``cpu`` / ``regs`` / ``vregs`` / ``load`` / ``store`` /
# ``handlers`` and anything in ``_NAMESPACE``; a memory op leaves the
# address it accessed in ``addr``, a branch sets ``taken`` when it leaves.
# What the two bodies word differently — a guest access, the float view of
# an FP register — an emitter asks its *writer* ``w`` for.
# ---------------------------------------------------------------------------

M64 = hex(MASK64)
M32 = hex(MASK32)

#: What generated source may name besides machine objects and operands.
_NAMESPACE = {
    "MemoryFault": MemoryFault, "decode_word": decode_word,
    "pack_q": struct.Struct("<Q").pack, "unpack_q": struct.Struct("<Q").unpack,
    "pack_d": struct.Struct("<d").pack, "unpack_d": struct.Struct("<d").unpack,
}
_NAME = re.compile(r"[A-Za-z_]\w*")
#: How an op's closure hands its result to the dispatch loop, by kind.
_RETURNS = ("", "return addr", "return taken", "return taken, addr")

_COND_SRC = {
    "eq": "cpu.z == 1", "ne": "cpu.z == 0",
    "cs": "cpu.c == 1", "cc": "cpu.c == 0",
    "mi": "cpu.n == 1", "pl": "cpu.n == 0",
    "vs": "cpu.v == 1", "vc": "cpu.v == 0",
    "hi": "cpu.c == 1 and cpu.z == 0",
    "ls": "not (cpu.c == 1 and cpu.z == 0)",
    "ge": "cpu.n == cpu.v", "lt": "cpu.n != cpu.v",
    "gt": "cpu.z == 0 and cpu.n == cpu.v",
    "le": "not (cpu.z == 0 and cpu.n == cpu.v)",
    "al": "True", "nv": "True",
}


def _is_plain_gpr(reg) -> bool:
    return (isinstance(reg, Reg) and reg.is_gpr and not reg.is_zero
            and not reg.is_sp)


def _emits(kind):
    def mark(emitter):
        emitter.kind = kind
        return emitter
    return mark


def _names_in(lines) -> set:
    return set(_NAME.findall(" ".join(lines)))


def _function(name: str, params, body, inner: str = "run()"):
    """``def name(params)`` returning the function ``inner`` of ``body``."""
    src = "\n".join([f"def {name}({', '.join(params)}):",
                     f"    def {inner}:",
                     *["        " + line for line in body],
                     "    return run", ""])
    scope: Dict[str, object] = {}
    exec(compile(src, f"<superblock {name}>", "exec"), _NAMESPACE, scope)
    return scope[name]


class _Writer:
    """How an op's lines word what the two bodies do differently.  In a
    cold closure (no ``memory``) a guest access is a call of ``load``/
    ``store`` — counted: a template's totals decide what its generated body
    inlines — and a float is converted where it is read.  In a generated
    body (DESIGN.md §10) the kinds of access ``inline`` names, (loads,
    stores), go through the memory's page entries, and ``views`` holds the
    64-bit FP registers whose float is in the local ``f<n>``."""

    def __init__(self, memory=None, inline=(False, False)):
        self.memory, self.inline = memory, inline
        self.loads = self.stores = 0
        self.views: set = set()

    def load(self, dest, size, at="addr", post="") -> List[str]:
        """Lines of ``dest = <the size bytes at at>post``."""
        self.loads += 1
        if self.inline[0]:
            return self.memory.load_source(dest, size, at, post)
        return [f"{dest} = load({at}, {size}){post}"]

    def store(self, size, value, at="addr") -> List[str]:
        self.stores += 1
        if self.inline[1]:
            return self.memory.store_source(size, value, at)
        return [f"store({at}, {size}, {value})"]

    def f(self, index, bits) -> str:
        """Source of scalar FP register ``index`` as a Python float."""
        if bits != 64:
            return f"b2f(vregs[{index}] & {M32}, 32)"
        if index in self.views:
            return f"f{index}"
        value = f"unpack_d(pack_q(vregs[{index}] & {M64}))[0]"
        if self.memory is None:
            return value
        self.views.add(index)
        return f"(f{index} := {value})"

    def f_set(self, d, bits, value) -> str:
        """The line writing the float ``value`` to FP register ``d``."""
        self.views.discard(d)
        if bits != 64:  # may overflow to infinity; a double always packs
            return f"vregs[{d}] = f2b({value}, 32)"
        if self.memory is not None:
            self.views.add(d)
            value = f"f{d} := {value}"
        return f"vregs[{d}] = unpack_q(pack_d({value}))[0]"

    def handled(self) -> List[str]:
        """The lines after a stepping handler, which may write anything."""
        self.views.clear()
        return [self.memory.DROP_SOURCE] if any(self.inline) else []


_MAKERS: Dict[tuple, object] = {}
_MACHINE_NAMES = ("cpu", "regs", "vregs", "load", "store", "handlers")


def _op(emitter, *static):
    """The maker of one op shape's cold closure: ``make(<the machine
    objects its lines name>, *operands)``.  ``make.emit(w, *operands)``
    are the lines themselves in writer ``w``'s wording, ``make.kind`` what
    the closure returns, ``make.accesses`` its (loads, stores)."""
    make = _MAKERS.get((emitter, static))
    if make is None:
        code = emitter.__code__
        operands = code.co_varnames[1:code.co_argcount - len(static)]
        w = _Writer()
        lines = emitter(w, *operands, *static)
        kind = emitter.kind
        named = _names_in(lines)
        make = _MAKERS[emitter, static] = _function(
            emitter.__name__,
            [name for name in _MACHINE_NAMES if name in named]
            + list(operands),
            ["taken = False"] * (kind == K_BRANCH) + lines + [_RETURNS[kind]])
        make.kind = kind
        make.accesses = (w.loads, w.stores)
        make.emit = lambda w, *operands: emitter(w, *operands, *static)
    return make


def _r(index, width=64) -> str:
    """Source of the ``width``-bit view of GPR ``index``."""
    return f"regs[{index}]" if width == 64 else f"(regs[{index}] & {M32})"


def _operand2(b, width, form) -> str:
    """Source of a data-processing second operand: ``form`` is "imm",
    "reg", "uxtw" (the guard's ``wM, uxtw``) or an ``lsl`` amount."""
    if form == "imm":
        return str(b)
    if form == "uxtw":
        return f"(regs[{b}] & {M32})"
    if form == "reg":
        return _r(b, width)
    return f"(({_r(b, width)} << {form}) & {hex((1 << width) - 1)})"


@_emits(K_SIMPLE)
def _e_addsub(w, d, n, b, width, sub, form):
    return [f"regs[{d}] = ({_r(n, width)} {'-' if sub else '+'} "
            f"{_operand2(b, width, form)}) & {hex((1 << width) - 1)}"]


@_emits(K_SIMPLE)
def _e_addsub_flags(w, d, n, b, width, sub, form, writes):
    """adds/subs/cmp/cmn: ``Machine._set_add_flags`` on ``n + b`` or
    ``n + ~b + 1`` (an immediate arrives already inverted)."""
    mask = (1 << width) - 1
    top = hex(1 << (width - 1))
    y = _operand2(b, width, form)
    if sub and form != "imm":
        y = f"(~{y}) & {hex(mask)}"
    return [f"x = {_r(n, width)}",
            f"y = {y}",
            f"raw = x + y{' + 1' if sub else ''}",
            f"res = raw & {hex(mask)}",
            f"cpu.n = 1 if res & {top} else 0",
            "cpu.z = 1 if res == 0 else 0",
            f"cpu.c = 1 if raw > {hex(mask)} else 0",
            # Signed overflow: the operands agree in sign and the result
            # does not.
            f"cpu.v = 1 if (x ^ res) & (y ^ res) & {top} else 0",
            ] + [f"regs[{d}] = res"] * writes


@_emits(K_SIMPLE)
def _e_mov_const(w, d, const):
    return [f"regs[{d}] = {const}"]


@_emits(K_SIMPLE)
def _e_adrp(w, d, pages, pc):
    return [f"regs[{d}] = ((({pc} >> 12) + {pages}) << 12) & {M64}"]


@_emits(K_SIMPLE)
def _e_mov_reg(w, d, s, width):
    return [f"regs[{d}] = {_r(s, width)}"]


@_emits(K_SIMPLE)
def _e_movk(w, d, keep, bits, width):
    return [f"regs[{d}] = ({_r(d, width)} & {keep}) | {bits}"]


@_emits(K_SIMPLE)
def _e_logic(w, d, n, b, width, op, form):
    sign = {"and": "&", "orr": "|", "eor": "^"}[op]
    return [f"regs[{d}] = {_r(n, width)} {sign} {_operand2(b, width, form)}"]


@_emits(K_SIMPLE)
def _e_shift_imm(w, d, n, amount, width, op):
    mask = hex((1 << width) - 1)
    if op == "lsl":
        return [f"regs[{d}] = ({_r(n, width)} << {amount}) & {mask}"]
    if op == "lsr":
        return [f"regs[{d}] = {_r(n, width)} >> {amount}"]
    return [f"x = {_r(n, width)}",
            f"if x & {hex(1 << (width - 1))}:",
            f"    x -= {hex(1 << width)}",
            f"regs[{d}] = (x >> {amount}) & {mask}"]


@_emits(K_SIMPLE)
def _e_madd(w, d, n, m, a, width, msub, zero_addend):
    acc = "0" if zero_addend else _r(a, width)
    return [f"regs[{d}] = ({acc} {'-' if msub else '+'} {_r(n, width)} "
            f"* {_r(m, width)}) & {hex((1 << width) - 1)}"]


@_emits(K_SIMPLE)
def _e_bitfield(w, d, n, rshift, fmask, shift, sign, fill, width, signed):
    """ubfm/sbfm (lsr/lsl/ubfx/sxtw aliases) over the field geometry
    ``SuperblockEngine._specialize`` folds from immr/imms."""
    lines = [f"x = ({_r(n, width)} >> {rshift}) & {fmask}",
             f"res = (x << {shift}) & {hex((1 << width) - 1)}"]
    if signed:
        lines += [f"if x & {sign}:", f"    res |= {fill}"]
    return lines + [f"regs[{d}] = res"]


# -- scalar floating point and vector integer ---------------------------------

@_emits(K_SIMPLE)
def _e_fp2(w, d, n, m, bits, op):
    sign = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
    return [w.f_set(d, bits, f"{w.f(n, bits)} {sign} {w.f(m, bits)}")]


@_emits(K_SIMPLE)
def _e_fp3(w, d, n, m, a, bits, msub):
    return [f"x = {w.f(n, bits)} * {w.f(m, bits)}",
            w.f_set(d, bits, f"{w.f(a, bits)} {'-' if msub else '+'} x")]


@_emits(K_SIMPLE)
def _e_vec3(w, d, n, m, lanes, bits, op):
    """Same-arrangement vector add/sub/mul (lane by lane) and and/orr/eor
    (lane-independent: one bit operation)."""
    w.views.discard(d)
    if op in ("and", "orr", "eor"):
        sign = {"and": "&", "orr": "|", "eor": "^"}[op]
        return [f"vregs[{d}] = (vregs[{n}] {sign} vregs[{m}]) "
                f"& {hex((1 << lanes * bits) - 1)}"]
    sign = {"add": "+", "sub": "-", "mul": "*"}[op]
    mask = hex((1 << bits) - 1)
    return [f"x = vregs[{n}]", f"y = vregs[{m}]", f"vregs[{d}] = " + " | ".join(
        f"((((x >> {sh}) & {mask}) {sign} ((y >> {sh}) & {mask})) & {mask})"
        f" << {sh}" for sh in range(0, lanes * bits, bits))]


# -- memory -------------------------------------------------------------------

def _addressed(b, off, mode, wb):
    """``(line setting addr, base writeback line or None)``.  ``mode``:
    "imm" / "sp" (``off`` an immediate), "uxtw" (the guard mode) or an
    ``lsl`` amount (``off`` a 64-bit register); ``wb``: None, PRE_INDEX or
    POST_INDEX."""
    if mode in ("imm", "sp"):
        base = "cpu.sp" if mode == "sp" else f"regs[{b}]"
        if wb == POST_INDEX:
            return f"addr = {base}", f"{base} = (addr + {off}) & {M64}"
        return (f"addr = ({base} + {off}) & {M64}",
                f"{base} = addr" if wb else None)
    if mode == "uxtw":
        index = f"(regs[{off}] & {M32})"
    else:
        index = f"((regs[{off}] << {mode}) & {M64})" if mode \
            else f"regs[{off}]"
    return f"addr = (regs[{b}] + {index}) & {M64}", None


@_emits(K_MEM)
def _e_load(w, t, b, off, size, signed, tbits, vector, mode, wb):
    address, writeback = _addressed(b, off, mode, wb)
    if vector:
        w.views.discard(t)
        moved = w.load(f"vregs[{t}]", size,
                       post=f" & {hex((1 << tbits) - 1)}")
    elif not signed:
        moved = w.load(f"regs[{t}]", size)
    else:
        moved = w.load("raw", size) + [
            f"if raw & {hex(1 << (signed - 1))}:",
            f"    raw -= {hex(1 << signed)}",
            f"regs[{t}] = raw & {M64 if tbits == 64 else M32}"]
    return [address] + moved + [writeback] * bool(writeback)


@_emits(K_MEM)
def _e_store(w, t, b, off, size, vector, zero, mode, wb):
    address, writeback = _addressed(b, off, mode, wb)
    value = "0" if zero else \
        f"{'v' * vector}regs[{t}] & {hex((1 << size * 8) - 1)}"
    return [address] + w.store(size, value) + [writeback] * bool(writeback)


@_emits(K_MEM)
def _e_pair(w, t, t2, b, off, is_load, mode, wb):
    """ldp/stp of two X registers."""
    address, writeback = _addressed(b, off, mode, wb)
    if is_load:
        moves = w.load(f"regs[{t}]", 8) + w.load(f"regs[{t2}]", 8, "addr + 8")
    else:
        moves = w.store(8, f"regs[{t}] & {M64}") \
            + w.store(8, f"regs[{t2}] & {M64}", "addr + 8")
    return [address] + moves + [writeback] * bool(writeback)


# -- branches -----------------------------------------------------------------

def _leave(target, condition=None, link=None):
    lines = [f"regs[30] = {link}"] * (link is not None) \
        + [f"cpu.pc = {target}", "taken = True"]
    if condition is None:
        return lines
    return [f"if {condition}:"] + ["    " + line for line in lines]


@_emits(K_BRANCH)
def _e_b(w, target):
    return _leave(target)


@_emits(K_BRANCH)
def _e_bl(w, target, link):
    return _leave(target, link=link)


@_emits(K_BRANCH)
def _e_bcond(w, target, cond):
    return _leave(target, _COND_SRC[cond])


@_emits(K_BRANCH)
def _e_cb(w, t, target, width, want_zero):
    return _leave(target, f"{_r(t, width)} {'==' if want_zero else '!='} 0")


@_emits(K_BRANCH)
def _e_tb(w, t, bit, target, want_set):
    return _leave(target,
                  f"{'' if want_set else 'not '}(regs[{t}] >> {bit}) & 1")


@_emits(K_BRANCH)
def _e_br(w, t):
    return _leave(f"regs[{t}] & {M64}")


@_emits(K_BRANCH)
def _e_blr(w, t, link):
    return [f"x = regs[{t}] & {M64}"] + _leave("x", link=link)


@_emits(K_GENERIC)
def _e_generic(w, inst, base):
    """The stepping handler: the op of whatever has no emitter."""
    return [f"taken, addr = handlers[{base}]({inst})"] + w.handled()


@_emits(K_GENERIC)
def _e_generic_at(w, inst, base, pc, reads_pc, decodes):
    """A stepping handler that reads ``cpu.pc`` (stale inside a block:
    ``bl``/``blr``), or (``decodes``) whose instruction must be decoded
    from the word ``inst`` where the block now is."""
    if decodes:
        inst = f"decode_word({inst}, {pc})"
    return [f"cpu.pc = {pc}"] * reads_pc \
        + [f"taken, addr = handlers[{base}]({inst})"] + w.handled()


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
        #: Translation-cache flush threshold (None = unbounded).
        self.block_cache_cap = machine.engine_config.block_cache_cap
        #: Counters exposed for tests and diagnostics.
        self.translations = 0
        self.template_hits = 0
        self.template_misses = 0
        self.invalidations = 0
        #: Trips looping bodies ran beyond the first of each call.
        self.loop_trips = 0
        self.compiled_blocks = 0
        _NAMESPACE.update(MemTrap=M.MemTrap, b2f=M._bits_to_float,
                          f2b=M._float_to_bits)
        self._bindings = _Bindings(machine, self)
        #: template -> its ops bound to this machine, None where an op
        #: reads pc; capped like the templates themselves.
        self._bound: Dict[BlockTemplate, list] = {}
        #: template -> its generated body bound to this machine.
        self._bodies: Dict[BlockTemplate, object] = {}
        #: What rows and generated bodies read of the machine, in keys.
        model, tlb = machine.model, machine.tlb
        self._cost_id = None if model is None else _COST_IDS.setdefault(
            repr((model, machine.tlb_walk_scale, tlb.sets, tlb.ways,
                  tlb.page_size)), len(_COST_IDS))

    # -- cache management ---------------------------------------------------

    def invalidate_range(self, address: int, size: int) -> None:
        """Drop every block overlapping ``[address, address + size)``:
        the cache holds the only reference to a block, so the next
        dispatch of its pc translates the bytes then there."""
        blocks = self._blocks
        if not blocks:
            return
        end = address + size
        dead = [start for start, block in blocks.items()
                if start < end and block.end > address]
        for start in dead:
            del blocks[start]
        self.invalidations += len(dead)

    def invalidate_all(self) -> None:
        self.invalidate_range(0, 1 << 64)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    def block_at(self, pc: int) -> Optional[Superblock]:
        return self._blocks.get(pc)

    @property
    def generated(self) -> Tuple[int, float]:
        """Bodies generated in this process for this machine's cost
        identity, and the host milliseconds that took."""
        return tuple(_GENERATED.get(self._cost_id, (0, 0.0)))

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

        Per block: look it up (host check, cache, translate), stop if it
        would overrun the fuel, run its body, then advance pc and fuel by
        what it retired and offer a runtime call to the springboard.  The
        body is chosen by what is there to observe: the block's generated
        function once it has one (its content got hot, here or anywhere
        in the process) — called one way, ``fn(pc0, remaining)``, whether
        it retires the block once or, a self-loop, as many whole trips as
        the fuel covers; until then its op closures, alone without a cost
        model and with one each followed by its row, charged through the
        same :class:`_Costing` methods ``Machine.step`` charges with.
        """
        M = self._M
        machine = self.machine
        cpu = machine.cpu
        host = machine._host_entries
        blocks = self._blocks
        translate = self._translate
        springboard = machine.springboard
        costing = machine._costing
        if costing is not None:
            charge = costing.charge_row
            penalty = costing.memory_penalty
            tb = machine.model.taken_branch_cost
        n = 0
        try:
            while True:
                pc0 = cpu.pc
                if pc0 in host:
                    raise M.HostCallTrap(pc0, pc0)
                block = blocks.get(pc0)
                if block is None:
                    block = translate(pc0)
                count = block.count
                if count > remaining:
                    return remaining
                taken = False
                done = count
                try:
                    fn = block.fn
                    if fn is None and block.hits >= 0:
                        block.hits += 1
                        if block.hits >= _COMPILE_THRESHOLD:
                            fn = self._compile_block(block)
                            if fn is None:
                                block.hits = -1  # too large; stop trying
                    if fn is not None:
                        done = fn(pc0, remaining)
                        if done < 0:
                            done = -done
                        else:
                            taken = True
                    elif costing is None:
                        for kind, exec_, row in block.ops:
                            if kind < K_BRANCH:
                                exec_()
                            elif kind == K_BRANCH:
                                taken = exec_()
                            else:
                                taken = exec_()[0]
                    else:
                        for kind, exec_, row in block.ops:
                            _pc, icost, lat, uses, defs = row
                            extra = bw = 0.0
                            if kind == K_SIMPLE:
                                exec_()
                            elif kind == K_MEM:
                                extra, bw = penalty(exec_())
                            else:
                                if kind == K_BRANCH:
                                    taken = exec_()
                                else:
                                    taken, addr = exec_()
                                    if addr is not None:
                                        extra, bw = penalty(addr)
                                if taken:
                                    icost += tb
                            charge(icost + bw, lat, uses, defs, extra)
                except MemoryFault as fault:
                    # The one fault rule (a generated body applies it
                    # itself and raises MemTrap): the ops before the one
                    # that faulted have retired; the trap pc is its row's.
                    n += row[0] >> 2
                    cpu.pc = pc = pc0 + row[0]
                    raise M.MemTrap(pc, fault) from None
                n += done
                remaining -= done
                if not taken:
                    cpu.pc = block.end
                if remaining == 0:
                    # Preemption wins even over a runtime call the block
                    # just landed on, as in stepping (the next slice's
                    # host check raises HostCallTrap).
                    raise M.OutOfFuel()
                # Hand a runtime call straight to the springboard instead
                # of raising HostCallTrap; it returns fresh fuel to resume
                # inline, or raises to end the slice.
                if not block.call_tail or springboard is None \
                        or cpu.pc not in host:
                    continue
                machine.instret += n
                n = 0
                remaining, force_step = springboard(cpu.pc)
                if force_step:
                    return remaining
        finally:
            machine.instret += n

    def _compile_block(self, block: Superblock):
        """Give ``block`` its template's generated body (built on first
        use, once per content and cost identity in the process) bound to
        this machine; None when it is not worth generating (oversized)."""
        template = block.template
        fn = self._bodies.get(template)
        if fn is None:
            if template.code is None:
                if len(template.ops) > _COMPILE_MAX_OPS:
                    return None
                template.code, template.consts = self._compile(template)
            if len(self._bodies) >= _TEMPLATE_CAP:
                self._bodies.clear()
            fn = self._bodies[template] = \
                self._bindings.bind(template.code)(template.consts)
        self.compiled_blocks += 1
        block.fn = fn
        return fn

    def _compile(self, template: BlockTemplate):
        """Generate ``template``'s body: ``(maker, constants)`` of one
        function ``run(pc0, fuel)`` returning the instructions it
        retired, negated when it left by falling through.

        A body is lines + rows.  Each op contributes its emitter's lines
        with the operands as literals, then — under a cost model — its
        cost row as source: ``_Costing.memory_penalty`` and
        ``_Costing.charge_row`` with every static quantity (issue costs,
        latencies, scoreboard keys, model miss charges) folded in and the
        *same float operations in the same order*, so cycle totals stay
        bit-identical and the body is pure host-side speedup (DESIGN.md
        §15).  What a row walk does per row is done per call instead
        (DESIGN.md §10, "what a body may keep in locals for one call"):

        * the scoreboard lives in locals, one per key: a key's ready time
          is read from ``costing.ready`` at most once and a key the block
          defines is stored once, at the body's exit or in the arm of the
          fault (or handler exception) that ends it early, so what the
          body leaves is exactly what a row walk would have;
        * ``t_issue``/``t_done`` and the TLB/L1 counts are locals
          committed in a ``finally``, and a memory row is the gauges' own
          ``lookup`` as source (``Tlb.lookup_source``);
        * guest accesses and FP conversions are worded by ``_Writer``.

        An op that can fault runs under the dispatch loop's fault rule as
        source.  A template that ``loops`` gets the same lines and rows
        inside a ``for``: a trip per whole block the fuel covers, left
        when the branch falls through.  Nothing a trip can do unmaps or
        patches the block it is in (mappings and host entries change only
        on the host side of a trap or springboard, which end a block), so
        no trip looks the block up again.  The keys read before the block
        defines them are loaded above the loop, the locals carry from
        trip to trip, and one arm around the loop states what the
        completed trips add to whatever ends a later one: their
        instructions, and every key the block defines.

        The maker's parameters are the machine objects the body names
        (bound by ``_Bindings``) and the template's constants: the code
        names no address, machine or slot, so it serves every block of
        the content anywhere.
        """
        began = perf_counter()
        costing = self.machine._costing
        loops = template.loops
        # Kept in locals where something can hit: in a loop, or where a
        # second access of the kind (a second memory row) follows.
        loads, stores = map(sum, zip(*(op[1].accesses
                                       for op in template.ops)))
        w = _Writer(self.machine.memory,
                    (loops or loads > 1, loops or stores > 1))
        rows = sum(op[0] & K_MEM for op in template.ops)  # memory rows
        units = loops or rows > 1
        consts: List[object] = []
        lines: List[str] = []
        emit = lines.append

        def literal(value) -> str:
            if isinstance(value, (int, str)):
                return repr(value)
            consts.append(value)
            return f"consts[{len(consts) - 1}]"

        def probe(gauge, cycles, issue, below=()):
            """One gauge of ``_Costing.memory_penalty``: its ``lookup`` as
            source around a miss's charges and the next level's probe."""
            source = getattr(costing, gauge).lookup_source
            hit = [f"h_{gauge} += 1"]
            miss = [f"extra += {cycles!r}", f"bw += {issue!r}", *below]
            if units:
                return source(f"{gauge}_sets", hit, [f"m_{gauge} += 1"] + miss,
                              last=f"u_{gauge}")
            return source(f"{gauge}_sets", hit, miss, call=f"{gauge}_lookup")

        if costing is not None:
            model = costing.model
            tb = model.taken_branch_cost
            #: ``_Costing.memory_penalty(addr)`` into ``extra``/``bw``.
            penalty = probe("tlb", costing.walk, costing.walk_issue) + probe(
                "l1", model.l1_miss_cycles, model.l1_miss_issue,
                ["if not l2_lookup(addr):",
                 f"    extra += {model.l2_miss_cycles!r}",
                 f"    bw += {model.l2_miss_issue!r}"])

        def charge(ind, kind, row, board):
            """The row of an op of ``kind``; ``board``: key -> whether its
            local ``k<key>`` surely holds a time (the block defined it) or
            may hold None (it was read from ``costing.ready``)."""
            _pc, icost, lat, uses, defs = row
            bw = ""
            lat_expr = repr(lat)
            if kind & K_MEM:
                emit(f"{ind}extra = bw = 0.0")
                if kind == K_GENERIC:
                    emit(f"{ind}if addr is not None:")
                lines.extend(ind + "    " * (kind == K_GENERIC) + line
                             for line in penalty)
                bw = " + bw"
                lat_expr += " + extra"
            if kind & K_BRANCH:
                emit(f"{ind}if taken:")
                emit(f"{ind}    t_issue += {icost + tb!r}{bw}")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {icost!r}{bw}")
            else:
                emit(f"{ind}t_issue += {icost!r}{bw}")
            start = "t_issue"
            for key in dict.fromkeys(uses):
                if start == "t_issue":
                    emit(f"{ind}start = t_issue")
                    start = "start"
                if key not in board:
                    board[key] = False
                    emit(f"{ind}k{key} = ready_get({key!r})")
                waits = f"k{key} > start" if board[key] \
                    else f"k{key} is not None and k{key} > start"
                emit(f"{ind}if {waits}:")
                emit(f"{ind}    start = k{key}")
            emit(f"{ind}finish = {start} + {lat_expr}")
            if defs:
                board.update(dict.fromkeys(defs, True))
                emit(ind + " = ".join(f"k{key}" for key in
                                      dict.fromkeys(defs)) + " = finish")
            emit(f"{ind}if finish > t_done:")
            emit(f"{ind}    t_done = finish")

        def flush(ind, board):
            for key, certain in board.items():
                if certain:
                    emit(f"{ind}ready[{key!r}] = k{key}")

        count = template.size >> 2
        head = []  # what runs once, above the first trip
        board: Dict[object, bool] = {}
        defined: Dict[object, bool] = {}  # every key the block defines
        if costing is not None:
            head += ["t_issue = costing.t_issue", "t_done = costing.t_done"]
        if costing is not None and loops:
            for *_recipe, row in template.ops:
                for key in row[3]:
                    if key not in defined and key not in board:
                        board[key] = False
                        head.append(f"k{key} = ready_get({key!r})")
                defined.update(dict.fromkeys(row[4], True))
        ind = "        " if loops else "    " if costing is not None else ""
        for retired, op in enumerate(template.ops):
            kind, make, args, rel, row = op
            body = make.emit(w, *map(literal, args), *[
                f"((pc0 + {d}) & {M64})" for d in rel or ()])
            if loops and op is template.ops[-1]:
                # The looping branch: pc is pc0 on entry and nothing in
                # between moves it, so its store waits for the exit.
                body = [line for line in body
                        if line.strip() != f"cpu.pc = ((pc0 + 0) & {M64})"]
            if not kind & K_MEM:
                lines.extend(ind + line for line in body)
            else:
                # The fault rule of the dispatch loop, as source.
                pc = f"pc0 + {row[0]}"
                arm = ind + "    "
                emit(f"{ind}try:")
                lines.extend(arm + line for line in body)
                emit(f"{ind}except MemoryFault as fault:")
                if costing is not None:
                    flush(arm, board)
                emit(f"{arm}machine.instret += {retired}")
                emit(f"{arm}cpu.pc = {pc}")
                emit(f"{arm}raise MemTrap({pc}, fault) from None")
                if costing is not None and kind == K_GENERIC \
                        and any(board.values()):
                    # Whatever else a handler raises: the ops before it
                    # have been charged, it has not.
                    emit(f"{ind}except BaseException:")
                    flush(arm, board)
                    emit(f"{arm}raise")
            if costing is not None:
                charge(ind, kind, row, board)

        done = str(count)
        closing = []  # the ``finally`` of the body's ``try``
        if loops:
            done = f"(trips + 1) * {count}"
            head.append("trips = 0")
            closing.append("engine.loop_trips += trips")
            lines[:0] = [f"    for trips in range(fuel // {count}):",
                         "        taken = False"]
            lines += ["        if not taken:", "            break"]
        else:
            head.append("taken = False")
        if rows and any(w.inline):
            head.append(w.memory.DROP_SOURCE)
        if costing is not None:
            flush("    ", board)
            if rows:
                head.append("h_tlb = h_l1 = 0")
                closing += ["tlb.hits += h_tlb", "l1.hits += h_l1"]
            if rows and units:
                head += ["m_tlb = m_l1 = 0", "u_tlb = u_l1 = -1"]
                closing += ["tlb.misses += m_tlb", "l1.misses += m_l1"]
            closing += ["costing.t_issue = t_issue", "costing.t_done = t_done"]
        if loops:
            emit("except BaseException:")
            emit(f"    machine.instret += trips * {count}")
            if defined:
                emit("    if trips:")
                flush("        ", defined)
            emit("    raise")
        if closing:
            lines = ["try:", *lines, "finally:",
                     *["    " + line for line in closing]]
        body = [*head, *lines, *["if taken:", "    cpu.pc = pc0"] * loops,
                f"return {done} if taken else -{done}"]
        maker = _function("body", [*self._bindings.objects, "consts"], body,
                          "run(pc0, fuel)")
        stats = _GENERATED.setdefault(self._cost_id, [0, 0.0])
        stats[0] += 1
        stats[1] += (perf_counter() - began) * 1e3
        return maker, consts

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
        known = M.WORD_FACTS
        UNDECODABLE, PLAIN, TRAP = M.W_UNDECODABLE, M.W_PLAIN, M.W_TRAP
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
            at += 4
            if shape != PLAIN:
                break

        key = (bytes(buf[first:first + at - start]), self._cost_id)
        template = _TEMPLATES.get(key)
        if template is None:
            self.template_misses += 1
            if len(_TEMPLATES) >= _TEMPLATE_CAP:
                _TEMPLATES.clear()
            template = _TEMPLATES[key] = self._derive(key[0])
        else:
            self.template_hits += 1
        block = self._blocks[start] = Superblock(start, template)
        self.translations += 1
        if template.code is not None:
            # The content got hot before, somewhere in the process: this
            # block runs its generated body from the first execution and
            # never needs closures.
            self._compile_block(block)
            return block
        # Bind: once per machine for the ops that read no pc (their
        # closures hold no state, so every block of the template here
        # shares them), per block for the ones that do.
        bind = self._bindings
        ops = self._bound.get(template)
        if ops is None:
            if len(self._bound) >= _TEMPLATE_CAP:
                self._bound.clear()
            ops = self._bound[template] = [
                (kind, None if rel else bind[make](*args), row)
                for kind, make, args, rel, row in template.ops]
        block.ops = ops = ops.copy()
        for i in template.moving:
            kind, make, args, rel, row = template.ops[i]
            ops[i] = (kind, bind[make](
                *args, *[(start + d) & MASK64 for d in rel]), row)
        return block

    def _derive(self, text: bytes) -> BlockTemplate:
        """Translate the run ``text`` in block coordinates: pc 0 is its
        first instruction, so every address a decode or a link computes
        from pc comes out as a displacement from the block start."""
        M = self._M
        handlers = self.machine._exec
        model = self.machine.model
        ops = []
        insts = []
        for pc in range(0, len(text), 4):
            word = int.from_bytes(text[pc:pc + 4], "little")
            _shape, inst, klass, uses, defs = M.word_facts(word, handlers)
            if inst is None:  # the decode reads pc
                inst = decode_word(word, pc)
            else:
                word = None
            insts.append(inst)
            make, args, *rel = self._specialize(pc, inst) \
                or self._generic(pc, inst, word)
            row = (pc, 0.0, 0.0, uses, defs) if model is None else (
                pc, model.issue_cost(klass), model.result_latency(klass),
                uses, defs)
            ops.append((make.kind, make, args, rel[0] if rel else None, row))
        # A run ending in the verified runtime-call idiom (recognized by
        # the same predicate the rewriter uses): a fact about the block,
        # which lets the dispatch loop hand the landing address to the
        # runtime springboard without trap-based unwinding.
        call_tail = len(insts) >= 2 and is_runtime_call_load(insts[-2:], 0)
        return BlockTemplate(ops, len(text), call_tail)

    # -- op construction ----------------------------------------------------

    @staticmethod
    def _generic(pc: int, inst: Instruction, word: Optional[int]):
        """The recipe of the stepping handler of ``inst`` (``word`` is
        not None when its decode reads pc)."""
        base = inst.base
        if word is not None or base in _PC_READING:
            return (_op(_e_generic_at, base in _PC_READING,
                        word is not None),
                    (inst if word is None else word, base), (pc,))
        return (_op(_e_generic), (inst, base))

    def _specialize(self, pc: int, inst: Instruction):
        """The recipe ``(maker, operands[, pc-relative operands])`` of
        the emitter stating ``inst``, or None for the stepping handler.
        ``pc`` and every address ``inst`` was decoded to are
        displacements from the block start."""
        base = inst.base
        m = inst.mnemonic
        ops = inst.operands

        # -- branches ------------------------------------------------------
        if base == "b":
            if not isinstance(ops[0], Imm):
                return None
            if m == "b":
                return (_op(_e_b), (), (ops[0].value,))
            cond = self._canonical(m[2:])
            if cond is None:
                return None
            return (_op(_e_bcond, cond), (), (ops[0].value,))
        if base == "bl":
            if not isinstance(ops[0], Imm):
                return None
            return (_op(_e_bl), (), (ops[0].value, pc + 4))
        if base in ("br", "ret"):
            reg = ops[0] if ops else LR
            if not _is_plain_gpr(reg):
                return None
            return (_op(_e_br), (reg.index,))
        if base == "blr":
            if not _is_plain_gpr(ops[0]):
                return None
            return (_op(_e_blr), (ops[0].index,), (pc + 4,))
        if base in ("cbz", "cbnz"):
            rt, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (_op(_e_cb, rt.bits, base == "cbz"), (rt.index,),
                    (target.value,))
        if base in ("tbz", "tbnz"):
            rt, bit, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (_op(_e_tb, base == "tbnz"), (rt.index, bit.value),
                    (target.value,))

        # -- vector / floating point ---------------------------------------
        if ops and isinstance(ops[0], VecReg):
            # Only the same-arrangement integer triples; anything else
            # (float lanes, movi/dup, mixed arrangements) stays generic.
            if base not in ("add", "sub", "mul", "and", "orr", "eor") \
                    or len(ops) != 3 \
                    or not all(isinstance(o, VecReg) for o in ops) \
                    or not ops[0].arrangement == ops[1].arrangement \
                    == ops[2].arrangement:
                return None
            return (_op(_e_vec3, ops[0].lanes, ops[0].lane_bits, base),
                    tuple(o.reg.index for o in ops))

        if base in ("fadd", "fsub", "fmul", "fmadd", "fmsub"):
            fused = base in ("fmadd", "fmsub")
            if len(ops) != 3 + fused \
                    or not all(isinstance(r, Reg) and r.is_vector
                               and r.bits == ops[0].bits for r in ops) \
                    or ops[0].bits not in (32, 64):
                return None
            indexes = tuple(r.index for r in ops)
            if fused:
                return (_op(_e_fp3, ops[0].bits, base == "fmsub"), indexes)
            return (_op(_e_fp2, ops[0].bits, base), indexes)

        # -- data processing ----------------------------------------------
        if base in ("add", "sub", "adds", "subs"):
            rd, rn, rm = ops[0], ops[1], ops[2]
            if not isinstance(rd, Reg) or rd.is_vector \
                    or not _is_plain_gpr(rn):
                return None
            setflags = base.endswith("s")
            sub = base.startswith("sub")
            width = rd.bits
            if not (_is_plain_gpr(rd) or setflags and rd.is_zero):
                return None
            if isinstance(rm, (Imm, ShiftedImm)):
                form = "imm"
                b = (rm.value << rm.shift if isinstance(rm, ShiftedImm)
                     else rm.value) & ((1 << width) - 1)
                if setflags and sub:
                    b = ~b & ((1 << width) - 1)
            elif _is_plain_gpr(rm) and rm.bits == width:
                form, b = "reg", rm.index
            elif setflags:
                return None
            elif not sub and width == 64 and isinstance(rm, Extended) \
                    and rm.kind == "uxtw" and not rm.amount \
                    and _is_plain_gpr(rm.reg):
                form, b = "uxtw", rm.reg.index
            elif isinstance(rm, Shifted) and rm.kind == "lsl" \
                    and _is_plain_gpr(rm.reg) and rm.reg.bits == width:
                form, b = rm.amount % width, rm.reg.index
            else:
                return None
            if setflags:
                return (_op(_e_addsub_flags, width, sub, form,
                            not rd.is_zero),
                        (0 if rd.is_zero else rd.index, rn.index, b))
            return (_op(_e_addsub, width, sub, form),
                    (rd.index, rn.index, b))

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
                return (_op(_e_mov_const), (rd.index, v & mask))
            if base == "mov" and _is_plain_gpr(src):
                return (_op(_e_mov_reg, rd.bits), (rd.index, src.index))
            return None

        if base == "movk":
            rd, src = ops
            if not _is_plain_gpr(rd):
                return None
            shift = src.shift if isinstance(src, ShiftedImm) else 0
            keep = ((1 << rd.bits) - 1) & ~(0xFFFF << shift)
            return (_op(_e_movk, rd.bits),
                    (rd.index, keep, src.value << shift))

        if base in ("adr", "adrp"):
            rd, src = ops
            if not _is_plain_gpr(rd) or not isinstance(src, Imm):
                return None
            if base == "adr":
                return (_op(_e_mov_const), (rd.index,), (src.value,))
            return (_op(_e_adrp),
                    (rd.index, (src.value >> 12) - (pc >> 12)), (pc,))

        if base in ("and", "orr", "eor"):
            rd, rn, rm = ops
            if not isinstance(rd, Reg) or rd.is_vector \
                    or not _is_plain_gpr(rd) or not _is_plain_gpr(rn):
                return None
            width = rd.bits
            if isinstance(rm, Imm):
                return (_op(_e_logic, width, base, "imm"),
                        (rd.index, rn.index, rm.value & ((1 << width) - 1)))
            if isinstance(rm, Reg) and _is_plain_gpr(rm) \
                    and rm.bits == width:
                return (_op(_e_logic, width, base, "reg"),
                        (rd.index, rn.index, rm.index))
            return None

        if base in ("lsl", "lsr", "asr"):
            rd, rn, src = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or not isinstance(src, Imm):
                return None
            return (_op(_e_shift_imm, rd.bits, base),
                    (rd.index, rn.index, src.value % rd.bits))

        if base in ("madd", "msub") and len(ops) == 4:
            rd, rn, rm, ra = ops
            if not (_is_plain_gpr(rd) and _is_plain_gpr(rn)
                    and _is_plain_gpr(rm)
                    and (ra.is_zero or _is_plain_gpr(ra))) \
                    or not rd.bits == rn.bits == rm.bits == ra.bits:
                return None
            return (_op(_e_madd, rd.bits, base == "msub", ra.is_zero),
                    (rd.index, rn.index, rm.index,
                     0 if ra.is_zero else ra.index))

        if base in ("ubfm", "sbfm") and len(ops) == 4:
            rd, rn, immr, imms = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or rd.bits != rn.bits:
                return None
            width, immr, imms = rd.bits, immr.value, imms.value
            if imms >= immr:
                length, rshift, shift = imms - immr + 1, immr, 0
            else:
                length, rshift, shift = imms + 1, 0, width - immr
            fill = ((1 << width) - 1) & ~((1 << min(shift + length,
                                                    width)) - 1)
            return (_op(_e_bitfield, width, base == "sbfm"),
                    (rd.index, rn.index, rshift, (1 << length) - 1, shift,
                     1 << (length - 1), fill))

        # -- memory --------------------------------------------------------
        if base in _UNSIGNED_LOADS or base in _SIGNED_LOADS \
                or base in _SIMPLE_STORES:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, b, off, wb = form
            size = access_bytes(inst)
            if base in _SIMPLE_STORES:
                if not (rt.is_vector or rt.is_zero or _is_plain_gpr(rt)):
                    return None
                return (_op(_e_store, size, rt.is_vector, rt.is_zero, mode,
                            wb), (0 if rt.is_zero else rt.index, b, off))
            signed = _SIGNED_LOADS.get(base)
            # (A load into the zero register is a prefetch-style form.)
            if signed and rt.is_vector \
                    or not (rt.is_vector or _is_plain_gpr(rt)):
                return None
            return (_op(_e_load, size, signed, rt.bits, rt.is_vector, mode,
                        wb), (rt.index, b, off))

        if base in ("ldp", "stp"):
            rt, rt2, memop = ops
            if not (_is_plain_gpr(rt) and _is_plain_gpr(rt2)
                    and rt.bits == rt2.bits == 64):
                return None
            form = self._mem_form(memop)
            if form is None or form[0] not in ("imm", "sp"):
                return None
            mode, b, off, wb = form
            return (_op(_e_pair, base == "ldp", mode, wb),
                    (rt.index, rt2.index, b, off))

        return None

    @staticmethod
    def _mem_form(memop: Mem):
        """Classify a Mem operand for ``_addressed``.

        Returns ``(mode, base index, offset, writeback)`` — mode "imm" or
        "sp" (base register or sp + immediate offset, possibly pre- or
        post-indexed), "uxtw" (the guard addressing mode, offset a W
        register index) or an ``lsl`` amount (offset an X register
        index) — or None if the form needs the generic handler.
        """
        base = memop.base
        if not isinstance(base, Reg) or base.is_zero or base.is_vector:
            return None
        mode, b = ("sp", 0) if base.is_sp else ("imm", base.index)
        wb = memop.mode if memop.mode in (PRE_INDEX, POST_INDEX) else None
        off = memop.offset
        if off is None or isinstance(off, Imm):
            return (mode, b, memop.imm_value, wb)
        if wb or mode == "sp":
            return None
        if isinstance(off, Extended):
            if off.kind == "uxtw" and not off.amount \
                    and _is_plain_gpr(off.reg):
                return ("uxtw", b, off.reg.index, None)
            return None
        amount = 0
        if isinstance(off, Shifted) and off.kind == "lsl":
            off, amount = off.reg, off.amount % 64
        if _is_plain_gpr(off) and off.bits == 64:
            return (amount, b, off.index, None)
        return None

    @staticmethod
    def _canonical(cond: str) -> Optional[str]:
        try:
            cond = canonical_condition(cond)
        except ValueError:
            return None
        return cond if cond in _COND_SRC else None
