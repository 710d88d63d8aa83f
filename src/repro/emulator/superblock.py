"""Superblock (translated-block) execution engine for the emulator hot path.

The stepping interpreter in :mod:`repro.emulator.machine` pays Python
dispatch cost on every instruction: a decode-cache lookup, a handler
dispatch, generic operand evaluation, and a :meth:`_Costing.charge` call.
This module translates instruction runs into immutable
:class:`Superblock` objects and dispatches whole blocks from
:meth:`Machine.run`.  What an op does is stated once, as source lines
(the ``_e_*`` emitters), and a hot block runs a single generated
function in which the lines are inlined with their operands as literals.
A block whose content is not hot yet is stepped: ``Machine.step``, the
reference semantics, runs it an instruction at a time.

Design rules (DESIGN.md §10, §11):

* a run is a path: it reads past a conditional direct branch not to its
  first word (the taken path is a *side exit*) and follows a ``b``
  forward on its page; it ends at any other branch, a host entry, an
  undecodable word, or the page end — never crossing a page, so
  invalidation is page-exact — and before a trap instruction
  (``svc``/``brk``/``hlt``), which is a block of its own;
* an op is one decoded instruction: its lines plus its one *cost row*.
  What a block does and what it costs are both data, and a generated
  body is lines + rows.  A guard is an ordinary op (DESIGN.md §10, "why
  there is no guard fusion");
* a run is translated once per *content*: a :class:`BlockTemplate`, keyed
  by the run's bytes (and the cost model), holds op recipes with every
  pc-derived constant as a displacement from the block start, the
  content's temperature — its executions by any block in the process —
  and, once that reaches ``_COMPILE_THRESHOLD``, the generated body's
  code; every block of those words — any slot, machine or runtime in the
  process, sandboxed or native — is the template at a start;
* a block ending in the runtime-call idiom (``ldr x30, [x21, #n]``;
  ``blr x30`` — the rewriter's :func:`is_runtime_call_load` predicate)
  carries that as a fact, ``call_tail``: the pair are the same two ops as
  anywhere else, and the dispatch loop hands the address such a block
  lands on straight to the runtime's *springboard* (handed to
  ``Machine.run`` per slice) instead of raising ``HostCallTrap``; the
  springboard resumes translated execution inline when the scheduler
  allows (DESIGN.md §11);
* every turn of the dispatch loop is one host-entry check and one cache
  lookup; the one successor worth skipping them for, a hot block whose
  closing branch targets its own start, iterates inside its generated
  body — whole trips, as many as the fuel covers — and comes back to the
  dispatch loop once, at the fall-through or a side exit;
* one dispatch loop runs every block: a cold one through ``Machine.step``
  itself, a hot one through generated source that makes the
  :class:`_Costing` float operations in the same order, so cycle counts,
  trace timestamps, and metrics snapshots are bit-identical between
  engines;
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
from collections import namedtuple
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
from ..memory.layout import SANDBOX_BITS, slot_keys
from ..memory.pages import MemoryFault
from .cpu import MASK32, MASK64

__all__ = ["Superblock", "SuperblockEngine"]

#: Op kinds — what an op's lines leave, and so what its cost row takes
#: from that.  Bit 0: the address it accessed in ``addr`` (the TLB walk
#: and cache-miss penalties; a generic op's may be None); bit 1: whether
#: it branched, in ``taken`` (the fetch bubble when taken).
K_SIMPLE = 0   # no memory access, never taken
K_MEM = 1      # load/store, never taken
K_BRANCH = 2   # terminator
K_GENERIC = 3  # both, from the stepping handler

#: A content gets its generated body at this many executions, counted
#: over every block of it in the process; until then its blocks are
#: stepped, so code that runs a few times never pays for codegen.
#: Measured on the fourteen ``exec-steady`` images (seed 7): bodies
#: generated in a process after one pass / two, ms generating them with
#: rows, and a later pass's bytecodes (``cold-start``'s in brackets):
#: 4 — 98 / 106, 137 / 144 ms, 118.19 M [6.23 M]; 8 — 55 / 98, 110 / 140,
#: 118.41 M [6.33 M]; 16 — 33 / 55, 73 / 117, 118.70 M [6.41 M]; 32 —
#: 25 / 33, 63 / 77, 119.30 M [6.68 M].  4 buys 0.2 % of the steady state
#: with 43 more bodies in the first pass; 16 and 32 step ever more of it.
_COMPILE_THRESHOLD = 8
#: Contents larger than this never get one (``BlockTemplate.hits`` -1):
#: generated source for a page-spanning straight-line run would cost more
#: to compile than stepping it costs.  A run reads past a branch only
#: below this many instructions, and ends at it once it has.
_COMPILE_MAX_OPS = 256

_UNSIGNED_LOADS = frozenset(["ldr", "ldrb", "ldrh", "ldur"])
_SIGNED_LOADS = {"ldrsb": 8, "ldrsh": 16, "ldrsw": 32}
_SIMPLE_STORES = frozenset(["str", "strb", "strh", "stur"])

#: Generic handlers that read ``cpu.pc`` for the link register.  Inside a
#: block ``cpu.pc`` is stale, so their generic fallbacks restore it first.
_PC_READING = frozenset(["bl", "blr"])


_WORD = struct.Struct("<I")


class _Bindings:
    """One machine's components by the names a generated body's maker
    gives its leading parameters (``objects``).  None of them holds the
    machine or its engine: a body gets those as arguments, so the blocks
    that keep it keep no cycle alive."""

    def __init__(self, machine):
        cpu, memory, costing = machine.cpu, machine.memory, machine._costing
        self.objects = {"cpu": cpu, "regs": cpu.regs, "vregs": cpu.vregs,
                        **memory.source_objects(),
                        "handlers": machine._exec}
        if costing is not None:
            tlb, l1, l2 = costing.tlb, costing.l1, costing.l2
            self.objects.update(
                costing=costing, ready=costing.ready,
                ready_get=costing.ready.get, tlb=tlb, l1=l1, l2=l2,
                tlb_sets=tlb._sets, l1_sets=l1._sets, l2_sets=l2._sets,
                memory_penalty=costing.memory_penalty)

    def bind(self, maker):
        names = maker.__code__.co_varnames[:maker.__code__.co_argcount]
        return partial(maker, *map(
            self.objects.get, takewhile(self.objects.__contains__, names)))


class BlockTemplate:
    """A run translated once for everywhere its words occur.

    ``ops`` holds a recipe ``(kind, shape, args, rel, row)`` per
    instruction in path order: ``shape.emit(w, *args, *(start + d for d
    in rel))`` are its lines in a block starting at ``start``, and ``row``
    its cost row ``(pc - start, icost, lat, uses, defs)``, the pc likewise
    a displacement from the start — a ``b`` the run follows is an op
    without lines whose row issues the taken-branch bubble.  ``exit`` is
    the fall-through pc's displacement (the path only moves forward, so
    it also bounds every word read) and ``exits`` the indexes of the
    side exits.  Nothing here names an address or a machine, so nothing
    ever invalidates a template.  ``hits`` is the content's temperature:
    how many times any block of it, on any machine, was dispatched — -1
    for a run too large ever to get a body.
    ``code`` is the maker of the generated body
    (``SuperblockEngine._compile``) and ``consts`` the objects it indexes,
    built when ``hits`` reaches ``_COMPILE_THRESHOLD``.  ``loops`` says
    the run ends in a direct, link-free branch to its own first
    instruction — displacement 0 wherever the words sit — so its
    generated body iterates inside itself; ``call_tail`` that it ends in
    the runtime-call pair (``ldr x30, [x21, #n]`` + ``blr x30``), so the
    dispatch loop offers the address it lands on to the springboard.
    """

    __slots__ = ("ops", "exit", "exits", "call_tail", "code", "consts",
                 "hits", "loops")

    def __init__(self, ops: list, exit: int, exits: tuple, call_tail: bool):
        self.ops = ops
        self.exit = exit
        self.exits = exits
        self.call_tail = call_tail
        self.code = self.consts = None
        self.hits = -1 if len(ops) > _COMPILE_MAX_OPS else 0
        self.loops = ops[-1][0] == K_BRANCH and ops[-1][3] == (0,)


#: (run bytes, cost identity) -> BlockTemplate, process-wide: every slot,
#: ``Machine`` and ``Runtime`` holding the same words instantiates the
#: same template.  Flushed whole at the cap; live blocks keep the
#: template they came from.
_TEMPLATES: Dict[tuple, BlockTemplate] = {}
_TEMPLATE_CAP = 4096
#: repr of (cost model, TLB-walk scale, TLB geometry) -> its small-int
#: identity in keys.
_COST_IDS: Dict[str, int] = {}
#: cost identity -> [bodies generated, host ms spent generating them].
_GENERATED: Dict[Optional[int], list] = {}


class Superblock:
    """A predecoded run of instructions.

    A :class:`BlockTemplate` at a start address on one machine.
    ``count`` is the run's fuel cost, the number of instructions on its
    path; ``end`` is both the fall-through address and the exclusive
    byte bound of every word read, used for invalidation overlap checks.
    Nothing refers to a block but the engine's cache: dropping it from
    there invalidates it.

    ``fn`` is the template's generated body bound to this machine,
    ``fn(start, fuel, machine, engine)`` returning the instructions it
    retired, negated when it left by falling through: set at translation
    when the content is hot already, or at the dispatch that makes it
    hot; None until then, and the block is stepped.
    """

    __slots__ = ("start", "end", "count", "call_tail", "template", "fn",
                 "__weakref__")

    def __init__(self, start: int, template: BlockTemplate):
        self.start = start
        self.end = start + template.exit
        self.count = len(template.ops)
        self.call_tail = template.call_tail
        self.template = template
        self.fn = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Superblock({self.start:#x}..{self.end:#x}, "
                f"{len(self.template.ops)} ops, fuel {self.count})")


# ---------------------------------------------------------------------------
# Op emitters: an op is lines.
#
# Each emitter states one op shape's whole architectural effect, once, as
# Python source lines — the exact effect of the machine.py handler.  Its
# leading parameters are the op's *operands* as source text; the rest are
# the *static* arguments that pick the shape (``_op``).  A generated block
# body passes the operands as literals (pc-derived ones as ``pc0 + d``).
# Lines may name the machine's ``cpu`` / ``vregs`` / ``load`` / ``store`` /
# ``handlers`` and anything in ``_NAMESPACE``; a memory op leaves the
# address it accessed in ``addr``, a branch sets ``taken`` once, to whether
# it leaves.  How a body words a GPR, NZCV, a guest access or the float
# view of an FP register an emitter asks its *writer* ``w`` for.
# ---------------------------------------------------------------------------

M64 = hex(MASK64)
M32 = hex(MASK32)

#: What generated source may name besides machine objects and operands.
_NAMESPACE = {
    "MemoryFault": MemoryFault, "decode_word": decode_word,
    "pack_q": struct.Struct("<Q").pack, "unpack_q": struct.Struct("<Q").unpack,
    "pack_d": struct.Struct("<d").pack, "unpack_d": struct.Struct("<d").unpack,
    "NEG_INF": float("-inf"),
}

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

#: The same conditions on deferred flags: the last setter's operands in
#: ``fx`` and ``{y}`` (the local ``fy``, or an immediate; both below ``1 <<
#: width``), ``fraw = fx + {y} [+ 1]`` and ``fres = fraw & {m}``; ``{t}`` is
#: the sign bit.  N is ``fres >= {t}``, Z ``fres == 0``, C ``fraw > {m}``
#: and V ``(fx ^ fres) & ({y} ^ fres) >= {t}``, so N == V is ``fres ^ ((fx
#: ^ fres) & ({y} ^ fres)) < {t}``.
_SAME_NV = "(fres ^ ((fx ^ fres) & ({y} ^ fres))) < {t}"
_COND_DEFERRED = {
    "eq": "fres == 0", "ne": "fres != 0",
    "cs": "fraw > {m}", "cc": "fraw <= {m}",
    "mi": "fres >= {t}", "pl": "fres < {t}",
    "vs": "(fx ^ fres) & ({y} ^ fres) >= {t}",
    "vc": "(fx ^ fres) & ({y} ^ fres) < {t}",
    "hi": "fraw > {m} and fres != 0", "ls": "fraw <= {m} or fres == 0",
    "ge": _SAME_NV, "lt": f"not {_SAME_NV}",
    "gt": f"fres != 0 and {_SAME_NV}", "le": f"fres == 0 or not {_SAME_NV}",
    "al": "True", "nv": "True",
}


def _nzcv_source(width: int, y: str) -> List[str]:
    """The lines storing deferred flags of ``width`` to ``cpu`` as the
    ints 0/1 ``CpuState.set_add_flags`` leaves."""
    return [f"cpu.n = fres >> {width - 1}", "cpu.z = 0 if fres else 1",
            f"cpu.c = fraw >> {width}",
            f"cpu.v = ((fx ^ fres) & ({y} ^ fres)) >> {width - 1}"]


def _is_plain_gpr(reg) -> bool:
    return (isinstance(reg, Reg) and reg.is_gpr and not reg.is_zero
            and not reg.is_sp)


def _emits(kind):
    def mark(emitter):
        emitter.kind = kind
        return emitter
    return mark


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
    """How an op's lines word a GPR, NZCV, a guest access and the float
    of an FP register in a generated body (DESIGN.md §10).  The kinds of
    access ``inline`` names, (loads, stores), go through ``memory``'s page
    entries and the others call ``load``/``store``; both are counted, and
    an op's counts (``_op``) decide what a template's body inlines.
    ``views`` holds the 64-bit FP registers whose float is in the local
    ``f<n>``.

    ``gprs`` is None when GPR ``n`` is ``regs[n]``; in a looping body it
    is the set of the GPRs the loop names, each in the local ``r<n>``.
    ``flags`` is None when ``cpu.n``/``z``/``c``/``v`` hold NZCV, else
    ``(width, y)`` of the last flag-setter, whose operands are in ``fx``
    and ``y`` (``fy``, or its immediate), ``fraw`` and ``fres``
    (``_COND_DEFERRED``).  ``fresh`` holds until the first setter or
    stepping handler of a trip: before it, from a loop's second trip, the
    flags are the previous trip's, deferred as ``entry`` (None: ``cpu``
    holds them on every trip).  ``read_fresh`` records that something
    read them there."""

    def __init__(self, memory=None, inline=(False, False), gprs=None,
                 entry=None):
        self.memory, self.inline = memory, inline
        self.loads = self.stores = 0
        self.views: set = set()
        self.gprs, self.entry = gprs, entry
        self.flags = None
        self.fresh, self.read_fresh = True, False

    def x(self, index) -> str:
        """The name of GPR ``index``: its 64-bit value, or a target."""
        if self.gprs is None:
            return f"regs[{index}]"
        self.gprs.add(int(index))
        return f"r{index}"

    def r(self, index, width=64) -> str:
        """Source of the ``width``-bit view of GPR ``index``."""
        return self.x(index) if width == 64 \
            else f"({self.x(index)} & {M32})"

    def set_flags(self, width, y) -> None:
        """An op left its NZCV in ``fx``/``y``/``fraw``/``fres``."""
        self.flags, self.fresh = (width, y), False

    def cond(self, cond) -> str:
        """Source of condition ``cond`` on NZCV, wherever it is."""
        self.read_fresh |= self.fresh
        if self.flags is None:
            return _COND_SRC[cond]
        width, y = self.flags
        return _COND_DEFERRED[cond].format(
            m=hex((1 << width) - 1), t=hex(1 << (width - 1)), y=y)

    def nzcv(self) -> List[str]:
        """The lines storing deferred NZCV to ``cpu``, where a body
        leaves: a fault arm, a side exit, the body's exit."""
        if self.flags is not None:
            return _nzcv_source(*self.flags)
        if self.fresh and self.entry is not None:
            return ["if trips:",
                    *["    " + line for line in _nzcv_source(*self.entry)]]
        return []

    def fill(self) -> List[str]:
        """The lines loading the loop's GPR locals from ``regs``."""
        return [f"r{n} = regs[{n}]" for n in sorted(self.gprs or ())]

    def spill(self) -> List[str]:
        """The lines storing the loop's GPR locals to ``regs``."""
        return [f"regs[{n}] = r{n}" for n in sorted(self.gprs or ())]

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
        self.views.add(index)
        return f"(f{index} := unpack_d(pack_q(vregs[{index}] & {M64}))[0])"

    def f_set(self, d, bits, value) -> str:
        """The line writing the float ``value`` to FP register ``d``."""
        self.views.discard(d)
        if bits != 64:  # may overflow to infinity; a double always packs
            return f"vregs[{d}] = f2b({value}, 32)"
        self.views.add(d)
        return f"vregs[{d}] = unpack_q(pack_d(f{d} := {value}))[0]"

    def handler(self, call) -> List[str]:
        """The lines of the stepping-handler ``call``, which may read and
        write anything: NZCV and the GPR locals stored before it, the
        locals reloaded and every view and page entry dropped after."""
        lines = self.nzcv() + self.spill() + [call] + self.fill()
        self.read_fresh |= self.fresh
        self.flags, self.fresh = None, False
        self.views.clear()
        return lines + ([self.memory.DROP_SOURCE] if any(self.inline) else [])


_Shape = namedtuple("_Shape", "emit kind accesses")
_SHAPES: Dict[tuple, _Shape] = {}


def _op(emitter, *static):
    """One op shape: ``shape.emit(w, *operands)`` are its lines in writer
    ``w``'s wording, ``shape.kind`` what they leave, ``shape.accesses``
    their (loads, stores)."""
    shape = _SHAPES.get((emitter, static))
    if shape is None:
        code = emitter.__code__
        w = _Writer()
        emitter(w, *code.co_varnames[1:code.co_argcount - len(static)],
                *static)
        shape = _SHAPES[emitter, static] = _Shape(
            lambda w, *operands: emitter(w, *operands, *static),
            emitter.kind, (w.loads, w.stores))
    return shape


def _operand2(w, b, width, form) -> str:
    """Source of a data-processing second operand: ``form`` is "imm",
    "reg", "uxtw" (the guard's ``wM, uxtw``) or an ``lsl`` amount."""
    if form == "imm":
        return str(b)
    if form == "uxtw":
        return w.r(b, 32)
    if form == "reg":
        return w.r(b, width)
    return f"(({w.r(b, width)} << {form}) & {hex((1 << width) - 1)})"


@_emits(K_SIMPLE)
def _e_addsub(w, d, n, b, width, sub, form):
    return [f"{w.x(d)} = ({w.r(n, width)} {'-' if sub else '+'} "
            f"{_operand2(w, b, width, form)}) & {hex((1 << width) - 1)}"]


@_emits(K_SIMPLE)
def _e_addsub_flags(w, d, n, b, width, sub, form, writes):
    """adds/subs/cmp/cmn: ``CpuState.set_add_flags`` on ``n + b`` or
    ``n + ~b + 1`` (an immediate arrives already inverted), its NZCV left
    deferred (``_Writer.flags``)."""
    mask = hex((1 << width) - 1)
    lines = [f"fx = {w.r(n, width)}"]
    if form == "imm":
        y = str(b)
        lines.append(f"fraw = fx + ({y}{' + 1' if sub else ''})")  # folded
    else:
        y = _operand2(w, b, width, form)
        lines += [f"fy = {f'(~{y}) & {mask}' if sub else y}",
                  f"fraw = fx + fy{' + 1' if sub else ''}"]
        y = "fy"
    w.set_flags(width, y)
    return lines + [f"fres = fraw & {mask}"] \
        + ([f"{w.x(d)} = fres"] if writes else [])


@_emits(K_SIMPLE)
def _e_mov_const(w, d, const):
    return [f"{w.x(d)} = {const}"]


@_emits(K_SIMPLE)
def _e_adrp(w, d, pages, pc):
    return [f"{w.x(d)} = ((({pc} >> 12) + {pages}) << 12) & {M64}"]


@_emits(K_SIMPLE)
def _e_mov_reg(w, d, s, width):
    return [f"{w.x(d)} = {w.r(s, width)}"]


@_emits(K_SIMPLE)
def _e_movk(w, d, keep, bits, width):
    return [f"{w.x(d)} = ({w.r(d, width)} & {keep}) | {bits}"]


@_emits(K_SIMPLE)
def _e_logic(w, d, n, b, width, op, form):
    sign = {"and": "&", "orr": "|", "eor": "^"}[op]
    return [f"{w.x(d)} = {w.r(n, width)} {sign} "
            f"{_operand2(w, b, width, form)}"]


@_emits(K_SIMPLE)
def _e_shift_imm(w, d, n, amount, width, op):
    mask = hex((1 << width) - 1)
    if op == "lsl":
        return [f"{w.x(d)} = ({w.r(n, width)} << {amount}) & {mask}"]
    if op == "lsr":
        return [f"{w.x(d)} = {w.r(n, width)} >> {amount}"]
    return [f"x = {w.r(n, width)}",
            f"if x & {hex(1 << (width - 1))}:",
            f"    x -= {hex(1 << width)}",
            f"{w.x(d)} = (x >> {amount}) & {mask}"]


@_emits(K_SIMPLE)
def _e_madd(w, d, n, m, a, width, msub, zero_addend):
    acc = "0" if zero_addend else w.r(a, width)
    return [f"{w.x(d)} = ({acc} {'-' if msub else '+'} {w.r(n, width)} "
            f"* {w.r(m, width)}) & {hex((1 << width) - 1)}"]


@_emits(K_SIMPLE)
def _e_bitfield(w, d, n, rshift, fmask, shift, sign, fill, width, signed):
    """ubfm/sbfm (lsr/lsl/ubfx/sxtw aliases) over the field geometry
    ``SuperblockEngine._specialize`` folds from immr/imms."""
    lines = [f"x = ({w.r(n, width)} >> {rshift}) & {fmask}",
             f"res = (x << {shift}) & {hex((1 << width) - 1)}"]
    if signed:
        lines += [f"if x & {sign}:", f"    res |= {fill}"]
    return lines + [f"{w.x(d)} = res"]


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

def _addressed(w, b, off, mode, wb):
    """``(line setting addr, base writeback line or None)``.  ``mode``:
    "imm" / "sp" (``off`` an immediate), "uxtw" (the guard mode) or an
    ``lsl`` amount (``off`` a 64-bit register); ``wb``: None, PRE_INDEX or
    POST_INDEX."""
    if mode in ("imm", "sp"):
        base = "cpu.sp" if mode == "sp" else w.x(b)
        if wb == POST_INDEX:
            return f"addr = {base}", f"{base} = (addr + {off}) & {M64}"
        return (f"addr = ({base} + {off}) & {M64}",
                f"{base} = addr" if wb else None)
    if mode == "uxtw":
        index = w.r(off, 32)
    else:
        index = f"(({w.x(off)} << {mode}) & {M64})" if mode else w.x(off)
    return f"addr = ({w.x(b)} + {index}) & {M64}", None


@_emits(K_MEM)
def _e_load(w, t, b, off, size, signed, tbits, vector, mode, wb):
    address, writeback = _addressed(w, b, off, mode, wb)
    if vector:
        w.views.discard(t)
        moved = w.load(f"vregs[{t}]", size,
                       post=f" & {hex((1 << tbits) - 1)}")
    elif not signed:
        moved = w.load(w.x(t), size)
    else:
        moved = w.load("raw", size) + [
            f"if raw & {hex(1 << (signed - 1))}:",
            f"    raw -= {hex(1 << signed)}",
            f"{w.x(t)} = raw & {M64 if tbits == 64 else M32}"]
    return [address] + moved + [writeback] * bool(writeback)


@_emits(K_MEM)
def _e_store(w, t, b, off, size, vector, zero, mode, wb):
    address, writeback = _addressed(w, b, off, mode, wb)
    value = "0" if zero else f"{f'vregs[{t}]' if vector else w.x(t)} " \
        f"& {hex((1 << size * 8) - 1)}"
    return [address] + w.store(size, value) + [writeback] * bool(writeback)


@_emits(K_MEM)
def _e_pair(w, t, t2, b, off, is_load, mode, wb):
    """ldp/stp of two X registers."""
    address, writeback = _addressed(w, b, off, mode, wb)
    if is_load:
        moves = w.load(w.x(t), 8) + w.load(w.x(t2), 8, "addr + 8")
    else:
        moves = w.store(8, f"{w.x(t)} & {M64}") \
            + w.store(8, f"{w.x(t2)} & {M64}", "addr + 8")
    return [address] + moves + [writeback] * bool(writeback)


# -- branches -----------------------------------------------------------------

def _leave(w, target, condition="True", link=None):
    """A branch's lines: ``taken`` set once, then, when it is, the link
    and pc — unless ``target`` is None: the body stores pc itself where it
    acts on ``taken`` (a side exit's arm, a loop's back edge)."""
    moves = [f"{w.x(30)} = {link}"] if link is not None else []
    if target is not None:
        moves.append(f"cpu.pc = {target}")
    if condition == "True":
        return ["taken = True"] + moves
    return [f"taken = {condition}"] + ["if taken:"] * bool(moves) \
        + ["    " + line for line in moves]


@_emits(K_BRANCH)
def _e_b(w, target):
    return _leave(w, target)


@_emits(K_SIMPLE)
def _e_followed(w):
    """A ``b`` the run follows: its target is the next op."""
    return []


@_emits(K_BRANCH)
def _e_bl(w, target, link):
    return _leave(w, target, link=link)


@_emits(K_BRANCH)
def _e_bcond(w, target, cond):
    return _leave(w, target, w.cond(cond))


@_emits(K_BRANCH)
def _e_cb(w, t, target, width, want_zero):
    return _leave(w, target,
                  f"{w.r(t, width)} {'==' if want_zero else '!='} 0")


@_emits(K_BRANCH)
def _e_tb(w, t, bit, target, want_set):
    return _leave(w, target,
                  f"{'' if want_set else 'not '}({w.x(t)} >> {bit}) & 1")


@_emits(K_BRANCH)
def _e_br(w, t):
    return _leave(w, f"{w.x(t)} & {M64}")


@_emits(K_BRANCH)
def _e_blr(w, t, link):
    return [f"x = {w.x(t)} & {M64}"] + _leave(w, "x", link=link)


@_emits(K_GENERIC)
def _e_generic(w, inst, base):
    """The stepping handler: the op of whatever has no emitter."""
    return w.handler(f"taken, addr = handlers[{base}]({inst})")


@_emits(K_GENERIC)
def _e_generic_at(w, inst, base, pc, reads_pc, decodes):
    """A stepping handler that reads ``cpu.pc`` (stale inside a block:
    ``bl``/``blr``), or (``decodes``) whose instruction must be decoded
    from the word ``inst`` where the block now is."""
    if decodes:
        inst = f"decode_word({inst}, {pc})"
    return [f"cpu.pc = {pc}"] * reads_pc \
        + w.handler(f"taken, addr = handlers[{base}]({inst})")


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class SuperblockEngine:
    """Block cache + translator + block-dispatch loop for one Machine.

    The machine owns the engine; the engine keeps the machine's
    components, never the machine, which :meth:`run` is handed."""

    def __init__(self, machine):
        # Imported lazily: machine.py imports this module at its top.
        from . import machine as M
        self._M = M
        self._cpu, self._memory, self._model = \
            machine.cpu, machine.memory, machine.model
        self._costing, self._host, self._handlers = \
            machine._costing, machine._host_entries, machine._exec
        self._blocks: Dict[int, Superblock] = {}
        #: slot -> the starts of its blocks (a block lies in one page).
        self._slot_blocks: Dict[int, set] = {}
        #: Counters exposed for tests and diagnostics.
        self.translations = 0
        self.template_hits = 0
        self.template_misses = 0
        self.invalidations = 0
        #: Trips looping bodies ran beyond the first of each call.
        self.loop_trips = 0
        #: Branches translations read past: conditional and followed ``b``.
        self.traced_branches = 0
        self.compiled_blocks = 0
        _NAMESPACE.update(MemTrap=M.MemTrap, b2f=M._bits_to_float,
                          f2b=M._float_to_bits)
        self._bindings = _Bindings(machine)
        #: template -> its generated body bound to this machine; capped
        #: like the templates themselves.
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
        dispatch of its pc translates the bytes then there.  Walks the
        blocks of the range's slot only."""
        blocks, index = self._blocks, self._slot_blocks
        end = address + size
        for slot in slot_keys(index, address >> SANDBOX_BITS,
                              (end - 1) >> SANDBOX_BITS):
            starts = index[slot]
            dead = [start for start in starts
                    if start < end and blocks[start].end > address]
            for start in dead:
                del blocks[start]
            starts.difference_update(dead)
            if not starts:
                del index[slot]
            self.invalidations += len(dead)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    @property
    def generated(self) -> Tuple[int, float]:
        """Bodies generated in this process for this machine's cost
        identity, and the host milliseconds that took."""
        return tuple(_GENERATED.get(self._cost_id, (0, 0.0)))

    # -- driving ------------------------------------------------------------

    def run(self, machine, fuel: Optional[int], springboard=None) -> None:
        """Run ``machine``'s blocks until a trap; raises OutOfFuel when
        fuel runs out.

        Semantics match ``Machine.run``'s stepping loop exactly: with
        fuel ``n``, exactly ``n`` instructions retire (the ``n+1``-th may
        raise its trap first) and then ``OutOfFuel`` is raised.
        """
        remaining = fuel if fuel is not None else (1 << 62)
        if remaining <= 0:
            raise self._M.OutOfFuel()
        remaining = self._dispatch(machine, remaining, springboard)
        # A block larger than the remaining fuel: fall back to stepping
        # for the tail of the slice, then report preemption.
        step = machine.step
        for _ in range(remaining):
            step()
        raise self._M.OutOfFuel()

    def _dispatch(self, machine, remaining: int, springboard) -> int:
        """The block-dispatch loop; returns the fuel left for stepping.

        Per block: look it up (host check, cache, translate), stop if it
        would overrun the fuel, run it, then advance fuel by what it
        retired and offer a runtime call to the springboard.  A block runs
        its generated body once its content is hot, here or anywhere in
        the process — called one way, ``fn(pc0, remaining)``, whether it
        retires the block once or, a self-loop, as many whole trips as the
        fuel covers; until then ``Machine.step`` runs it along its path
        and retires, charges, sets pc and raises as the reference does.
        """
        M = self._M
        cpu = self._cpu
        step = machine.step
        host = self._host
        blocks = self._blocks
        translate = self._translate
        step_path = self._step_path
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
                fn = block.fn
                if fn is None:
                    template = block.template
                    if template.hits >= 0:
                        template.hits += 1
                        if template.hits >= _COMPILE_THRESHOLD:
                            fn = self._compile_block(block)
                if fn is None:
                    remaining -= step_path(step, block)
                else:
                    done = fn(pc0, remaining, machine, self)
                    if done < 0:
                        done = -done
                        cpu.pc = block.end
                    n += done
                    remaining -= done
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

    def _step_path(self, step, block: Superblock) -> int:
        """Step a cold run along its path as long as it stays on it (a
        taken side exit leaves); returns the instructions retired."""
        cpu, start = self._cpu, block.start
        done = 0
        for op in block.template.ops:
            if cpu.pc != start + op[4][0]:
                break
            step()
            done += 1
        return done

    def _compile_block(self, block: Superblock):
        """Give ``block`` its template's generated body (built on first
        use, once per content and cost identity in the process) bound to
        this machine."""
        template = block.template
        fn = self._bodies.get(template)
        if fn is None:
            if template.code is None:
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
        function ``run(pc0, fuel, machine, engine)`` returning the
        instructions it retired, negated when it left by falling through.

        A body is lines + rows.  Each op contributes its emitter's lines
        with the operands as literals, then — under a cost model — its
        cost row as source: ``_Costing.memory_penalty`` and
        ``_Costing.charge_row`` with every static quantity (issue costs,
        latencies, scoreboard keys, model miss charges) folded in and the
        *same float operations in the same order*, so cycle totals stay
        bit-identical and the body is pure host-side speedup (DESIGN.md
        §10).  What stepping does per instruction is done per call
        instead (DESIGN.md §10, "what a body may keep in locals for one
        call"):

        * the scoreboard lives in locals, one per key: a key's ready time
          is read from ``costing.ready`` at most once (``-inf`` if absent)
          and a key the block defines is stored once, at the body's exit
          or in the arm of the fault (or handler exception) that ends it
          early, so what the body leaves is exactly what stepping would
          have; a finish is merged into ``t_done`` only where no later op
          is sure to exceed it (``cover``);
        * ``t_issue``/``t_done`` and the misses are locals committed in a
          ``finally`` (hits: an exit's accesses less misses), and a memory
          row is the gauges' ``lookup`` as source (``Tlb.lookup_source``);
        * guest accesses and FP conversions are worded by ``_Writer``;
        * so is NZCV: a flag-setter leaves its operands in locals, a
          ``b.cond`` reads them, and ``cpu.n``..``cpu.v`` are stored only
          where the body leaves (a fault arm, a side exit, its exit) and
          before a stepping handler;
        * in a looping body, so are the GPRs the loop names: locals
          ``r<n>`` loaded above the first trip, stored in the ``finally``
          and around a stepping handler.

        An op that can fault runs under stepping's fault rule as source,
        and an op that calls a stepping handler under the same rule for
        whatever else the handler raises: the ops before it have retired
        and been charged, and pc is its own.  A taken side exit stores its
        pc, its flags and what the ops up to it defined and returns the
        count they retired (all static along the path).  A template that
        ``loops`` gets the same lines and rows inside a ``for``: a trip per
        whole block the fuel covers, its closing branch the back edge
        (``if not taken: break``).  Nothing a trip can do unmaps or
        patches the block it is in (mappings and host entries change only
        on the host side of a trap or springboard, which end a block), so
        no trip looks the block up again.  The keys read before the block
        defines them are loaded above the loop, the locals carry from
        trip to trip, and one arm around the loop states what the
        completed trips add to whatever ends a later one: their
        instructions, and every key the block defines.  Flags follow the
        same rule: an op before a trip's first setter sees the previous
        trip's from the second trip on (``_Writer.entry``), unless it
        reads them; then the back edge stores them, every trip.

        The maker's parameters are the machine's components the body
        names (bound by ``_Bindings``) and the template's constants; the
        machine and the engine, whose counters it adds to, come as
        arguments: the code names no address, machine or slot, so it
        serves every block of the content anywhere.
        """
        began = perf_counter()
        costing = self._costing
        ops, exits, loops = template.ops, template.exits, template.loops
        count = len(ops)
        # Kept in locals where something can hit: in a loop, or where a
        # second access of the kind (a second memory row) follows.
        loads, stores = map(sum, zip(*(op[1].accesses for op in ops)))
        inline = (loops or loads > 1, loops or stores > 1)
        trip = _Writer(gprs=set())
        if loops:
            # A trip's lines once, for what its writer learns: the GPRs
            # the loop names and the flags a trip leaves deferred — which
            # an op before the first setter sees from the second trip on,
            # unless it reads them: then the back edge stores them.
            for _kind, shape, args, rel, _row in ops:
                shape.emit(trip, *map(repr, args), *["pc0"] * len(rel or ()))
        w = _Writer(self._memory, inline, trip.gprs if loops else None,
                    None if trip.read_fresh else trip.flags)
        rows = sum(op[0] & K_MEM for op in ops)  # memory rows
        units = rows > 1 or loops and rows > 0
        consts: List[object] = []
        lines: List[str] = []
        emit = lines.append

        def literal(value) -> str:
            if isinstance(value, (int, str)):
                return repr(value)
            consts.append(value)
            return f"consts[{len(consts) - 1}]"

        indent = partial(map, "    ".__add__)
        if costing is not None:
            model = costing.model
            tb = model.taken_branch_cost

            def probe(gauge, unit, cycles, issue, below=(), last=None):
                """One gauge of ``_Costing.memory_penalty`` as source: a miss
                counts (on the gauge, with hits, in a one-row body)."""
                hit, miss = ([], f"m_{gauge}") if units \
                    else ([f"{gauge}.hits += 1"], f"{gauge}.misses")
                return getattr(costing, gauge).lookup_source(
                    unit, f"{gauge}_sets", [f"{miss} += 1", f"extra += "
                    f"{cycles!r}", f"bw += {issue!r}", *below], last, hit)

            nested = units and not costing.tlb.page_size % costing.l1.page_size
            walk = probe("tlb", "page", costing.walk, costing.walk_issue,
                         last="u_tlb" if units else None)
            l1_unit, *fill = probe(
                "l1", "line", model.l1_miss_cycles, model.l1_miss_issue,
                probe("l2", "line2", model.l2_miss_cycles,
                      model.l2_miss_issue),
                last="u_l1" if units and not nested else None)

        def charge(kind, row, extra, merge) -> List[str]:
            """``_Costing.charge_row`` for an op of ``kind``, with the
            access's ``extra``/``bw`` and merging its finish if asked."""
            _pc, icost, lat, uses, defs = row
            bw = " + bw" * extra
            block = ["if taken:", f"    t_issue += {icost + tb!r}{bw}",
                     "else:", f"    t_issue += {icost!r}{bw}"] \
                if kind & K_BRANCH else [f"t_issue += {icost!r}{bw}"]
            waits = [f"k{key}" for key in dict.fromkeys(uses)]
            start = "t_issue" if not waits \
                else f"({waits[0]} if {waits[0]} > t_issue else t_issue)"
            if len(waits) > 1:  # the rest against one temporary
                block.append(f"start = {start[1:-1]}")
                for name in waits[1:]:
                    block += [f"if {name} > start:", f"    start = {name}"]
                start = "start"
            names = [f"k{key}" for key in dict.fromkeys(defs)] or ["finish"]
            block.append(" = ".join(names) + f" = {start} + {lat!r}"
                         + " + extra" * extra)
            return block + [f"if {names[0]} > t_done:",
                            f"    t_done = {names[0]}"] * merge

        def flush(ind, board):
            for key, certain in board.items():
                if certain:
                    emit(f"{ind}ready[{key!r}] = k{key}")

        #: op -> (the position of a later op sure to finish no earlier, the
        #: local holding this op's finish until then): the first to wait on
        #: a key this op defines before it is redefined (latencies are never
        #: negative), or, if this op waits on nothing, the next one when its
        #: latency is no smaller (``t_issue`` never falls).  A loop's path
        #: runs on into the next trip, the positions past ``count``.
        cover: Dict[int, Tuple[int, str]] = {}
        after: Dict[object, int] = {}
        span = 2 * count if loops else count
        for at in range(span - 1, -1, -1):
            _pc, _icost, lat, uses, defs = ops[at % count][4]
            key = min(filter(after.__contains__, defs), key=after.get,
                      default=None)
            if at < count and not uses and at + 1 < span \
                    and ops[(at + 1) % count][4][2] >= lat:
                cover[at] = (at + 1, f"k{defs[0]}" if defs else "finish")
            elif at < count and key is not None:
                cover[at] = (after[key], f"k{key}")
            for key in defs:
                after.pop(key, None)
            if lat >= 0:
                after.update(dict.fromkeys(uses, at))
        plain_rows = sum(op[0] == K_MEM for op in ops)  # not generic ones

        def settle(arm, seen, at):
            """What a body leaving with ``at`` ops of the trip charged,
            ``seen`` of them memory rows, owes: the keys it defined, the
            finishes not merged yet (the last trip's too), its accesses."""
            flush(arm, board)
            for retired, (by, name) in cover.items():
                if retired < at <= by or by - count >= at:
                    emit(f"{arm}if {'trips and ' * (by - count >= at)}"
                         f"{name} > t_done:")
                    emit(f"{arm}    t_done = {name}")
            if units:
                emit(f"{arm}acc = {f'trips * {plain_rows} + ' * loops}{seen}")

        head = []  # what runs once, above the first trip
        board: Dict[object, bool] = {}
        defined: Dict[object, bool] = {}  # every key the block defines
        if costing is not None:
            head += ["t_issue = costing.t_issue", "t_done = costing.t_done"]
        if costing is not None and loops:
            for *_recipe, row in ops:
                for key in row[3]:
                    if key not in defined and key not in board:
                        board[key] = False
                        head.append(f"k{key} = ready_get({key!r}, NEG_INF)")
                defined.update(dict.fromkeys(row[4], True))
        ind = "        " if loops else "    " if costing is not None else ""
        seen = 0  # memory rows charged, not generic ones
        for retired, op in enumerate(ops):
            kind, shape, args, rel, row = op
            operands = [f"((pc0 + {d}) & {M64})" for d in rel or ()]
            target = None
            if kind == K_BRANCH and (retired in exits or retired == count - 1
                                     and loops):
                # A side exit stores its pc in its arm; the looping branch
                # not at all (pc is pc0 on entry and nothing in between
                # moves it, so its store waits for the exit).
                target, operands[0] = operands[0], None
            body = shape.emit(w, *map(literal, args), *operands)
            if not kind & K_MEM:
                lines.extend(ind + line for line in body)
            else:
                # Stepping's fault rule, as source — and, around a
                # handler, its rule for whatever else that raises.
                pc = f"pc0 + {row[0]}"
                arm = ind + "    "
                emit(f"{ind}try:")
                lines.extend(arm + line for line in body)
                arms = [("MemoryFault as fault",
                         f"raise MemTrap({pc}, fault) from None")]
                if kind == K_GENERIC:
                    arms.append(("BaseException", "raise"))
                for caught, leave in arms:
                    emit(f"{ind}except {caught}:")
                    # A handler raising may have written regs already.
                    lines.extend(arm + line for line in w.nzcv()
                                 + w.fill() * (kind == K_GENERIC))
                    if costing is not None:
                        settle(arm, seen, retired)
                    emit(f"{arm}machine.instret += {retired}")
                    emit(f"{arm}cpu.pc = {pc}")
                    emit(arm + leave)
            if costing is not None:
                for key in dict.fromkeys(row[3]):
                    if key not in board:
                        board[key] = False
                        emit(f"{ind}k{key} = ready_get({key!r}, NEG_INF)")
                merge = retired not in cover
                if kind == K_GENERIC:  # the method counts; no unit is last
                    block = ["extra, bw = (0.0, 0.0) if addr is None else "
                             "memory_penalty(addr)", *["u_tlb = u_l1 = -1"]
                             * units, *charge(kind, row, True, merge)]
                elif kind == K_MEM and nested:  # lines nest in pages
                    block = [l1_unit, "if line == u_l1:",
                             *indent(charge(kind, row, False, merge)),
                             "else:", "    u_l1 = line",
                             "    extra = bw = 0.0", *indent(
                                 walk + fill + charge(kind, row, True, merge))]
                elif kind == K_MEM:
                    block = ["extra = bw = 0.0", *walk, l1_unit, *fill,
                             *charge(kind, row, True, merge)]
                else:
                    block = charge(kind, row, False, merge)
                lines.extend(ind + line for line in block)
                seen += kind == K_MEM
                board.update(dict.fromkeys(row[4], True))
            if retired in exits:
                arm = ind + "    "
                emit(f"{ind}if taken:")
                lines.extend(arm + line for line in
                             [f"cpu.pc = {target}"] * bool(target) + w.nzcv())
                if costing is not None:
                    settle(arm, seen, retired + 1)
                    if defined:  # a loop's, as the arm around it does
                        emit(f"{arm}if trips:")
                        flush(arm + "    ", defined)
                emit(f"{arm}return {f'trips * {count} + ' * loops}"
                     f"{retired + 1}")

        done = str(count)
        closing = []  # the ``finally`` of the body's ``try``
        if loops:
            done = f"(trips + 1) * {count}"
            head += ["trips = 0", *w.fill()]
            closing += ["engine.loop_trips += trips", *w.spill()]
            if trip.read_fresh:
                lines.extend(ind + line for line in w.nzcv())
                w.flags = None
            lines[:0] = [f"    for trips in range(fuel // {count}):"]
            lines += ["        if not taken:", "            break"]
        if rows and any(w.inline):
            head.append(w.memory.DROP_SOURCE)
        if costing is not None:
            settle("    ", seen, count)
            if units:
                head += ["acc = m_tlb = m_l1 = m_l2 = 0", "u_tlb = u_l1 = -1"]
                closing += ["tlb.hits += acc - m_tlb", "tlb.misses += m_tlb",
                            "l1.hits += acc - m_l1", "l1.misses += m_l1",
                            "l2.hits += m_l1 - m_l2", "l2.misses += m_l2"]
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
                *w.nzcv(), f"return {done} if taken else -{done}"
                if ops[-1][0] & K_BRANCH else f"return -{done}"]
        maker = _function("body", [*self._bindings.objects, "consts"], body,
                          "run(pc0, fuel, machine, engine)")
        stats = _GENERATED.setdefault(self._cost_id, [0, 0.0])
        stats[0] += 1
        stats[1] += (perf_counter() - began) * 1e3
        return maker, consts

    # -- translation --------------------------------------------------------

    def _translate(self, start: int) -> Superblock:
        """The block of the run starting at ``start``: its template,
        looked up by content or derived, at that start.

        The run is read from guest memory under the checks ``fetch``
        makes, every time, and the key holds all of it — its words in
        path order — so a block is only ever a translation of the words
        the guest holds now.  Raises the same trap ``Machine.step`` would
        raise if the *first* instruction is unfetchable or undecodable;
        later problems simply end the run (the next dispatch raises them
        with the exact pc).
        """
        M = self._M
        try:
            buf, first = self._memory.fetch_page(start)
        except MemoryFault as fault:
            raise M.MemTrap(start, fault) from None
        host, handlers = self._host, self._handlers
        known = M.WORD_FACTS
        UNDECODABLE, PLAIN, COND, JUMP, TRAP = (
            M.W_UNDECODABLE, M.W_PLAIN, M.W_COND, M.W_JUMP, M.W_TRAP)
        page = start - first
        view = memoryview(buf)
        segments = []  # the words read: a slice of the page per segment
        at = start
        done = traced = 0  # words in the segments before; branches read past
        while True:
            seg, target = at, None
            for word, in _WORD.iter_unpack(view[at - page:]):
                if at != start and (at in host or traced and done
                                    + (at - seg >> 2) == _COMPILE_MAX_OPS):
                    break
                shape = (known.get(word)
                         or M.word_facts(word, handlers))[0]
                if shape == UNDECODABLE:
                    if at == start:
                        raise M.UnknownInstructionTrap(start, word)
                    break
                if shape == TRAP and at != start:
                    break
                at += 4
                if shape == PLAIN:
                    continue
                if done + (at - seg >> 2) < _COMPILE_MAX_OPS:
                    # Read past a conditional branch, unless it targets
                    # the first word: then it closes the run, which loops.
                    if shape == COND and at - 4 + known[word][5] != start:
                        traced += 1
                        continue
                    if shape == JUMP:
                        target = at - 4 + known[word][5]
                break
            segments.append(view[seg - page:at - page])
            # Follow a b forward on the page, past every word read.  (A
            # backward one ends the run: followed from inside a loop, it
            # makes a run falling through to its own start, never looping.)
            if target is None or not at <= target < page + len(buf):
                break
            traced += 1
            done += at - seg >> 2
            at = target

        text = b"".join(segments)
        key = (text, self._cost_id)
        template = _TEMPLATES.get(key)
        if template is None:
            self.template_misses += 1
            if len(_TEMPLATES) >= _TEMPLATE_CAP:
                _TEMPLATES.clear()
            template = _TEMPLATES[key] = self._derive(text)
        else:
            self.template_hits += 1
        block = self._blocks[start] = Superblock(start, template)
        self._slot_blocks.setdefault(start >> SANDBOX_BITS, set()).add(start)
        self.translations += 1
        self.traced_branches += traced
        if template.code is not None:
            # The content got hot before, somewhere in the process: this
            # block runs its generated body from the first execution.
            self._compile_block(block)
        return block

    def _derive(self, text: bytes) -> BlockTemplate:
        """Translate the run ``text`` in block coordinates: pc 0 is its
        first instruction and each next one follows the last (past a
        ``b`` that is not the last word, at its target), so every address
        a decode or a link computes from pc comes out as a displacement
        from the block start."""
        M = self._M
        handlers = self._handlers
        model = self._model
        last = len(text) - 4
        ops = []
        insts = []
        exits = []
        pc = 0
        for offset in range(0, len(text), 4):
            word = int.from_bytes(text[offset:offset + 4], "little")
            shape, inst, klass, uses, defs, jump = \
                M.word_facts(word, handlers)
            icost = lat = 0.0
            if model is not None:
                icost = model.issue_cost(klass)
                lat = model.result_latency(klass)
            step = 4
            if inst is None:  # the decode reads pc
                inst = decode_word(word, pc)
            else:
                word = None
            if shape == M.W_JUMP and offset < last:
                step = jump
                recipe = (_op(_e_followed), ())
                if model is not None:
                    icost += model.taken_branch_cost
            else:
                if shape == M.W_COND and offset < last:
                    exits.append(len(ops))
                recipe = self._specialize(pc, inst) \
                    or self._generic(pc, inst, word)
            insts.append(inst)
            shape, args, *rel = recipe
            ops.append((shape.kind, shape, args, rel[0] if rel else None,
                        (pc, icost, lat, uses, defs)))
            pc += step
        # A run ending in the verified runtime-call idiom (recognized by
        # the same predicate the rewriter uses): a fact about the block,
        # which lets the dispatch loop hand the landing address to the
        # runtime springboard without trap-based unwinding.
        call_tail = len(insts) >= 2 and is_runtime_call_load(insts[-2:], 0)
        return BlockTemplate(ops, pc, tuple(exits), call_tail)

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
        """The recipe ``(shape, operands[, pc-relative operands])`` of
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
