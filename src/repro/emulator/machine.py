"""Instruction-accurate ARM64 interpreter with dataflow cycle accounting.

The machine fetches words through :class:`PagedMemory` (so execute
permissions and guard pages are enforced exactly), decodes them with the
trusted decoder, and interprets them.  Decoded instructions and their
dataflow metadata are cached per address, so hot loops do not re-decode.

Cycle accounting implements the dataflow model described in
``repro.emulator.costs``: issue bandwidth plus register-dependency chains,
with TLB walk penalties folded into load/store latency.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..arm64 import isa
from ..arm64.decoder import decode_word, decode_word_pc
from ..arm64.instructions import Instruction, access_bytes
from ..arm64.operands import (
    Extended,
    FloatImm,
    Imm,
    Mem,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    ShiftedImm,
    VecReg,
)
from ..arm64.registers import LR, Reg
from ..engine import EngineConfig
from ..errors import ConfigError
from ..hooks import HookRegistry
from ..memory.pages import MemoryFault, PagedMemory
from . import costs
from .cpu import CpuState, MASK32, MASK64
from .superblock import SuperblockEngine
from .tlb import Tlb

__all__ = [
    "Machine",
    "Trap",
    "SvcTrap",
    "BrkTrap",
    "HltTrap",
    "MemTrap",
    "UnknownInstructionTrap",
    "HostCallTrap",
    "OutOfFuel",
]


class Trap(Exception):
    """Base class for execution traps; ``pc`` is the faulting instruction."""

    def __init__(self, pc: int, message: str = ""):
        self.pc = pc
        super().__init__(message or f"{type(self).__name__} at {pc:#x}")


class SvcTrap(Trap):
    """A supervisor call (``svc #imm``) — the host syscall interface."""

    def __init__(self, pc: int, imm: int):
        self.imm = imm
        super().__init__(pc, f"svc #{imm} at {pc:#x}")


class BrkTrap(Trap):
    def __init__(self, pc: int, imm: int):
        self.imm = imm
        super().__init__(pc, f"brk #{imm} at {pc:#x}")


class HltTrap(Trap):
    pass


class MemTrap(Trap):
    """A memory fault escalated to the runtime (guard page, protection)."""

    def __init__(self, pc: int, fault: MemoryFault):
        self.fault = fault
        super().__init__(pc, f"{fault} (pc={pc:#x})")


class UnknownInstructionTrap(Trap):
    def __init__(self, pc: int, word: int):
        self.word = word
        super().__init__(pc, f"undecodable word {word:#010x} at {pc:#x}")


class HostCallTrap(Trap):
    """Control reached a registered host entry point (runtime call, §4.4)."""

    def __init__(self, pc: int, entry: int):
        self.entry = entry
        super().__init__(pc, f"host call to entry {entry:#x}")


class OutOfFuel(Exception):
    """The run() fuel budget was exhausted (used for preemption)."""


def _to_signed(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32_UNPACK = _F32.unpack
_F64_UNPACK = _F64.unpack
_U32_PACK = _U32.pack
_U64_PACK = _U64.pack


def _bits_to_float(bits: int, width: int) -> float:
    if width == 64:
        return _F64_UNPACK(_U64_PACK(bits & MASK64))[0]
    return _F32_UNPACK(_U32_PACK(bits & MASK32))[0]


def _float_to_bits(value: float, width: int) -> int:
    try:
        if width == 64:
            return _U64.unpack(_F64.pack(value))[0]
        return _U32.unpack(_F32.pack(value))[0]
    except (OverflowError, ValueError):
        # Overflow to infinity with the right sign.
        inf = math.inf if value > 0 else -math.inf
        if width == 64:
            return _U64.unpack(_F64.pack(inf))[0]
        return _U32.unpack(_F32.pack(inf))[0]


class _Costing:
    """Dataflow cycle accounting: the state and the one statement of its rules.

    Every costed instruction either engine retires goes through
    :meth:`charge_row` (the scoreboard) and, when it accessed memory,
    :meth:`memory_penalty` (TLB walk and cache misses).  Generated
    block bodies emit the same two rules as source
    (``SuperblockEngine._compile``); nothing else restates them.
    """

    __slots__ = ("model", "t_issue", "t_done", "ready", "tlb", "l1", "l2",
                 "walk", "walk_issue")

    def __init__(self, model: costs.CostModel, tlb: Optional[Tlb],
                 l1: Optional[Tlb] = None, l2: Optional[Tlb] = None,
                 tlb_walk_scale: float = 1.0):
        self.model = model
        self.t_issue = 0.0
        self.t_done = 0.0
        self.ready: Dict[object, float] = {}
        self.tlb = tlb
        self.l1 = l1
        self.l2 = l2
        #: Latency of one page-table walk and the share of it that
        #: occupies the issue pipes.
        self.walk = model.tlb_walk_cycles * tlb_walk_scale
        self.walk_issue = self.walk * model.tlb_walk_issue_fraction

    def memory_penalty(self, address: int) -> Tuple[float, float]:
        """``(extra latency, extra issue)`` of one data access.

        Looks the address up in (and fills) the TLB and the two cache
        levels; a machine with a cost model always has all three.
        """
        extra = 0.0
        bw = 0.0
        if not self.tlb.lookup(address):
            extra += self.walk
            bw += self.walk_issue
        if not self.l1.lookup(address):
            model = self.model
            extra += model.l1_miss_cycles
            bw += model.l1_miss_issue
            if not self.l2.lookup(address):
                extra += model.l2_miss_cycles
                bw += model.l2_miss_issue
        return extra, bw

    def charge(self, klass: str, uses: Tuple, defs: Tuple,
               extra_latency: float = 0.0, fetch_bubble: float = 0.0,
               extra_issue: float = 0.0) -> None:
        """Charge one retired instruction of cost class ``klass``."""
        model = self.model
        self.charge_row(
            model.issue_cost(klass) + fetch_bubble + extra_issue,
            model.result_latency(klass), uses, defs, extra_latency)

    def charge_row(self, issue: float, lat: float, uses: Tuple, defs: Tuple,
                   extra_latency: float = 0.0) -> None:
        """The scoreboard: ``issue`` cycles of issue bandwidth, then a
        result ``lat + extra_latency`` after the last operand is ready."""
        self.t_issue += issue
        start = self.t_issue
        ready = self.ready
        for key in uses:
            t = ready.get(key)
            if t is not None and t > start:
                start = t
        finish = start + lat + extra_latency
        for key in defs:
            ready[key] = finish
        if finish > self.t_done:
            self.t_done = finish

    @property
    def cycles(self) -> float:
        return max(self.t_issue, self.t_done)


#: How a word ends a straight-line run: not at all, by leaving it, or by
#: always raising (such a word is a block of its own).
W_UNDECODABLE, W_PLAIN, W_BRANCH, W_TRAP = range(4)
_BRANCH_BASES = frozenset([
    "b", "bl", "br", "blr", "ret", "cbz", "cbnz", "tbz", "tbnz",
])
_TRAP_BASES = frozenset(["svc", "brk", "hlt"])

#: word -> ``word_facts``, process-wide: nothing in an entry depends on an
#: address or a machine, so no mapping change can invalidate it.  Dropped
#: wholesale at the cap; real images hold a few thousand distinct words.
WORD_FACTS: Dict[int, tuple] = {}
_WORD_FACTS_CAP = 1 << 16


def word_facts(word: int, handlers) -> tuple:
    """``(shape, inst, cost class, uses, defs)``: everything either engine
    derives from an instruction word before executing it.  ``inst`` is
    None when the decoder says its decode reads pc (decode it in place);
    ``handlers`` is any machine's dispatch table (they share their keys).
    """
    facts = WORD_FACTS.get(word)
    if facts is None:
        inst, reads_pc = decode_word_pc(word, 0)
        if inst is None or inst.base not in handlers:
            facts = (W_UNDECODABLE, None, None, (), ())
        else:
            facts = (
                W_BRANCH if inst.base in _BRANCH_BASES else
                W_TRAP if inst.base in _TRAP_BASES else W_PLAIN,
                None if reads_pc else inst, _classify(inst),
                tuple(k for k in map(_reg_key, inst.uses()) if k is not None),
                tuple(k for k in map(_reg_key, inst.defs()) if k is not None),
            )
        if len(WORD_FACTS) >= _WORD_FACTS_CAP:
            WORD_FACTS.clear()
        WORD_FACTS[word] = facts
    return facts


def _reg_key(reg: Reg):
    if reg.is_zero:
        return None
    if reg.is_sp:
        return "sp"
    if reg.is_vector:
        return 32 + reg.index
    return reg.index


class Machine:
    """One emulated hardware thread over a shared address space."""

    def __init__(self, memory: PagedMemory,
                 model: Optional[costs.CostModel] = None,
                 tlb: Optional[Tlb] = None,
                 tlb_walk_scale: float = 1.0,
                 engine=None):
        config = EngineConfig.coerce(engine)
        self.memory = memory
        self.cpu = CpuState()
        self.instret = 0
        self.model = model
        #: The validated :class:`~repro.engine.EngineConfig` selecting and
        #: tuning the execution engine.  Read by the superblock engine at
        #: construction (cache cap).
        self.engine_config = config
        #: Execution engine kind: "superblock" dispatches translated
        #: blocks from :meth:`run`; "stepping" forces the per-instruction
        #: interpreter.  Both produce bit-identical architectural state
        #: and cycle counts (tests/test_superblock.py).
        self.engine = config.kind
        #: Runtime springboard for translated runtime calls, or ``None``.
        #: Set by :class:`repro.runtime.runtime.Runtime`; called by the
        #: superblock dispatch loop with the host entry address after a
        #: block's ``ldr``/``blr`` call pair lands on a registered host entry.
        #: Returns ``(fresh_fuel, force_step)`` to resume translated
        #: execution inline, or raises to end the slice.
        self.springboard = None
        #: When True, :meth:`run` uses the stepping interpreter even if
        #: the superblock engine is enabled.  The runtime sets this from
        #: the scheduled process (fault injection, per-step tooling).
        self.force_stepping = False
        #: Multiplier on TLB walk cost (2.0 models nested paging / KVM).
        self.tlb_walk_scale = tlb_walk_scale
        if model is not None and tlb is None:
            tlb = Tlb(entries=model.tlb_entries, ways=4,
                      page_size=memory.page_size)
        self.tlb = tlb
        # Data-cache hierarchy (same set-associative structure, line
        # granularity).  Memory-bound workloads accumulate their cycles
        # here, hiding guard overhead exactly as on real hardware.
        self.l1 = self.l2 = None
        if model is not None:
            self.l1 = Tlb(entries=model.l1_lines, ways=model.l1_ways,
                          page_size=model.cache_line)
            self.l2 = Tlb(entries=model.l2_lines, ways=model.l2_ways,
                          page_size=model.cache_line)
        self._costing = _Costing(model, tlb, self.l1, self.l2,
                                 tlb_walk_scale) if model else None
        self._decode_cache: Dict[int, Tuple[Instruction, Callable, str,
                                            Tuple, Tuple]] = {}
        self._host_entries: Dict[int, object] = {}
        #: Multi-subscriber hook fired at the top of every :meth:`run`
        #: slice with ``(machine, fuel)``.  Fault injectors use it to
        #: corrupt state or force traps at deterministic points; raising a
        #: :class:`Trap` here is delivered to the runtime like any hardware
        #: trap.  The tracer subscribes alongside without clobbering.
        self.run_hooks = HookRegistry()
        #: Per-retired-instruction probes ``(machine, pc, klass, cycles)``
        #: where ``cycles`` is this instruction's charge against the cost
        #: model (deltas telescope: their sum equals :attr:`cycles`).
        #: A plain list, not a registry — this is the emulator's hottest
        #: path and the empty-list check must stay cheap.
        self._step_probes: List[Callable] = []
        self._exec = _build_dispatch(self)
        self._sb = SuperblockEngine(self)
        #: Bounded-speculation mode (DESIGN.md §16): when the engine
        #: config carries a SpeculationConfig, :meth:`run` drives the
        #: stepping interpreter through a SpeculativeEngine and
        #: :attr:`speculation_log` records the transient footprint.
        #: ``None`` (the default) leaves every execution path untouched.
        self._spec = None
        self.speculation_log = None
        if config.speculation is not None:
            from .speculation import SpeculativeEngine
            self._spec = SpeculativeEngine(self, config.speculation)
            self.speculation_log = self._spec.log
        memory.map_observers.append(self.invalidate_code)

    # -- hooks ---------------------------------------------------------------

    def add_step_probe(self, probe: Callable) -> Callable:
        """Subscribe a per-instruction cycle probe (obs profiler/tracer)."""
        if probe not in self._step_probes:
            self._step_probes.append(probe)
        return probe

    def remove_step_probe(self, probe: Callable) -> None:
        if probe in self._step_probes:
            self._step_probes.remove(probe)

    # -- host integration ----------------------------------------------------

    def register_host_entry(self, address: int, token: object = None) -> None:
        """Branching to ``address`` raises HostCallTrap (runtime-call path)."""
        self._host_entries[address] = token
        # A cached block translated before this entry existed could run
        # straight through it; drop any block covering the address.
        self._sb.invalidate_range(address, 4)

    def host_token(self, address: int):
        return self._host_entries.get(address)

    @property
    def cycles(self) -> float:
        return self._costing.cycles if self._costing else float(self.instret)

    def add_cycles(self, amount: float, kind: str = "host") -> None:
        """Charge a flat cost (used by the runtime for host-side work).

        The charge is reported to step probes under ``kind`` with no pc,
        so profiler attribution stays complete (sum of probe deltas ==
        :attr:`cycles`).
        """
        costing = self._costing
        if costing is None:
            return
        probes = self._step_probes
        before = costing.cycles if probes else 0.0
        costing.t_issue += amount
        if costing.t_issue > costing.t_done:
            costing.t_done = costing.t_issue
        if probes:
            delta = costing.cycles - before
            for probe in probes:
                probe(self, None, kind, delta)

    def engine_stats(self) -> Dict[str, float]:
        """The superblock engine's counters.  Template hits and misses,
        which blocks found a generated body waiting (and so how many
        trips of a loop ran inside one, ``loop_trips``, rather than as
        turns of the dispatch loop), how many bodies this
        cost identity has had generated (``generated_templates``) and the
        host time that took (``compile_ms``) depend on what the process
        ran before: host-side facts, kept out of deterministic snapshots."""
        sb = self._sb
        stats = {name: getattr(sb, name) for name in (
            "translations", "template_hits", "template_misses",
            "invalidations", "loop_trips", "compiled_blocks",
            "cached_blocks")}
        stats["generated_templates"], stats["compile_ms"] = sb.generated
        return stats

    def invalidate_code(self, address: int, size: int) -> None:
        """Drop every decode and translation over the range.

        Also the memory's mapping-change observer.  Sweep-based, so that
        invalidating or unmapping a whole 4GiB slot stays O(cached
        entries), not O(range).
        """
        cache = self._decode_cache
        if cache:
            end = address + size
            for addr in [a for a in cache if address <= a < end]:
                del cache[addr]
        self._sb.invalidate_range(address, size)

    # -- execution -------------------------------------------------------------

    def predecode(self, pc: int) -> tuple:
        """Fetch and decode the instruction at ``pc``.

        Returns ``(inst, handler, cost class, uses, defs)`` — everything
        both engines derive from an instruction word before executing it
        — or raises the trap executing ``pc`` would raise.  All but a
        pc-relative decode comes from :func:`word_facts`, so an image
        seen before, in any slot of any machine, decodes nothing again.
        """
        try:
            word = self.memory.fetch(pc)
        except MemoryFault as fault:
            raise MemTrap(pc, fault) from None
        shape, inst, klass, uses, defs = word_facts(word, self._exec)
        if shape == W_UNDECODABLE:
            raise UnknownInstructionTrap(pc, word)
        if inst is None:
            inst = decode_word(word, pc)
        return inst, self._exec[inst.base], klass, uses, defs

    def step(self) -> None:
        cpu = self.cpu
        pc = cpu.pc
        if pc in self._host_entries:
            raise HostCallTrap(pc, pc)
        cached = self._decode_cache.get(pc)
        if cached is None:
            cached = self._decode_cache[pc] = self.predecode(pc)
        inst, handler, klass, uses, defs = cached
        try:
            taken, mem_addr = handler(inst)
        except MemoryFault as fault:
            raise MemTrap(pc, fault) from None
        self.instret += 1
        costing = self._costing
        probes = self._step_probes
        if probes:
            before = costing.cycles if costing is not None \
                else float(self.instret - 1)
        if costing is not None:
            extra = bw = 0.0
            if mem_addr is not None:
                extra, bw = costing.memory_penalty(mem_addr)
            bubble = self.model.taken_branch_cost if taken else 0.0
            costing.charge(klass, uses, defs, extra, bubble, bw)
        if probes:
            after = costing.cycles if costing is not None \
                else float(self.instret)
            delta = after - before
            for probe in probes:
                probe(self, pc, klass, delta)
        if not taken:
            cpu.pc = pc + 4

    def run(self, fuel: Optional[int] = None) -> None:
        """Run until a trap; raises OutOfFuel when the budget is exhausted."""
        if self.run_hooks:
            self.run_hooks(self, fuel)
        if self._spec is not None:
            # Speculation implies the plain stepping interpreter: the
            # rollback contract cannot hold under per-step probes (they
            # would observe transient charges) or block translation.
            if self._step_probes or self.force_stepping:
                raise ConfigError(
                    "EngineConfig(speculation=...) cannot be combined with "
                    "per-step probes or forced stepping (--probe, trace "
                    "--sample, fault injection)")
            self._spec.run(fuel)
            return
        # Per-instruction observability (step probes, forced stepping)
        # requires the stepping interpreter; the hook check comes first
        # because a run hook may have just registered a probe.
        if (self.engine == "superblock" and not self.force_stepping
                and not self._step_probes):
            self._sb.run(fuel)
            return
        step = self.step
        if fuel is None:
            while True:
                step()
        for _ in range(fuel):
            step()
        raise OutOfFuel()

    # -- operand evaluation ------------------------------------------------------

    def _value(self, op) -> int:
        cpu = self.cpu
        if isinstance(op, Reg):
            return cpu.read(op)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, ShiftedImm):
            return op.value << op.shift
        if isinstance(op, Shifted):
            value = cpu.read(op.reg)
            width = op.reg.bits
            amount = op.amount % width
            if op.kind == "lsl":
                return (value << amount) & ((1 << width) - 1)
            if op.kind == "lsr":
                return value >> amount
            if op.kind == "asr":
                return _to_signed(value, width) >> amount & ((1 << width) - 1)
            if op.kind == "ror":
                mask = (1 << width) - 1
                return ((value >> amount) | (value << (width - amount))) & mask
        if isinstance(op, Extended):
            return self._extended_value(op)
        raise TypeError(f"cannot evaluate operand {op!r}")

    def _extended_value(self, op: Extended) -> int:
        value = self.cpu.read(op.reg)
        kind = op.kind
        size = {"b": 8, "h": 16, "w": 32, "x": 64}[kind[-1]]
        value &= (1 << size) - 1
        if kind.startswith("s"):
            value = _to_signed(value, size) & MASK64
        return (value << (op.amount or 0)) & MASK64

    def _address(self, mem: Mem) -> Tuple[int, Optional[int]]:
        """(access address, post-writeback value or None)."""
        cpu = self.cpu
        base = cpu.read(mem.base)
        if mem.mode == POST_INDEX:
            wb = (base + mem.imm_value) & MASK64
            return base, wb
        if mem.offset is None:
            return base, None
        if isinstance(mem.offset, Imm):
            addr = (base + mem.offset.value) & MASK64
            return addr, (addr if mem.mode == PRE_INDEX else None)
        addr = (base + self._value(mem.offset)) & MASK64
        return addr, None

    # -- flags ----------------------------------------------------------------

    def _set_add_flags(self, a: int, b: int, width: int, carry_in: int = 0):
        mask = (1 << width) - 1
        raw = a + b + carry_in
        result = raw & mask
        n = (result >> (width - 1)) & 1
        z = 1 if result == 0 else 0
        c = 1 if raw > mask else 0
        sa = _to_signed(a, width)
        sb = _to_signed(b, width)
        sres = _to_signed(result, width)
        v = 1 if (sa + sb + carry_in != sres) else 0
        self.cpu.set_nzcv(n, z, c, v)
        return result

    def _set_logic_flags(self, result: int, width: int):
        n = (result >> (width - 1)) & 1
        z = 1 if result == 0 else 0
        self.cpu.set_nzcv(n, z, 0, 0)


def _classify(inst: Instruction) -> str:
    m = inst.mnemonic
    if m == "nop":
        return costs.NOP
    if m in isa.PAIR_MEMORY:
        return costs.LOAD_PAIR if m == "ldp" else costs.STORE_PAIR
    if m in isa.EXCLUSIVE_MEMORY or m in ("ldar", "stlr"):
        return costs.ATOMIC
    if isa.is_load(m):
        return costs.LOAD
    if isa.is_store(m):
        return costs.STORE
    if m in ("br", "blr", "ret"):
        return costs.BRANCH_INDIRECT
    if m.startswith("b.") or m in ("cbz", "cbnz", "tbz", "tbnz"):
        return costs.BRANCH_COND
    if m in ("b", "bl"):
        return costs.BRANCH
    if m in ("sdiv", "udiv"):
        return costs.DIV
    if m in ("madd", "msub", "smull", "umull", "smulh", "umulh"):
        return costs.MUL
    if m == "fdiv" and not any(isinstance(o, VecReg) for o in inst.operands):
        return costs.FP_DIV
    if m in isa.FP or any(isinstance(o, VecReg) for o in inst.operands):
        if any(isinstance(o, VecReg) for o in inst.operands):
            return costs.SIMD
        return costs.FP
    if m in ("mov", "movz", "movn", "movk", "adr", "adrp"):
        return costs.MOVE
    if m in ("svc", "brk", "hlt", "dmb", "dsb", "isb"):
        return costs.SYSTEM
    # The guard: add/sub with a zero/sign-*extending* register operand has
    # 2-cycle latency and half throughput (paper §4).  A plain uxtx/lsl #0
    # extended add (e.g. ``add sp, x21, x22``) behaves like a normal add —
    # that is exactly the saving of the paper's sp guard sequence (§4.2).
    for op in inst.operands:
        if isinstance(op, Extended):
            if op.kind in ("uxtx", "sxtx") and not op.amount:
                return costs.ALU
            return costs.ALU_EXT
    return costs.ALU


# ---------------------------------------------------------------------------
# Instruction handlers
#
# Each handler returns (branch_taken, memory_address_or_None).
# ---------------------------------------------------------------------------

def _build_dispatch(machine: Machine) -> Dict[str, Callable]:
    cpu = machine.cpu
    mem = machine.memory
    value = machine._value

    def not_taken(addr=None):
        return (False, addr)

    # -- data processing ----------------------------------------------------

    def do_addsub(inst: Instruction):
        m = inst.mnemonic
        rd = inst.operands[0]
        width = rd.bits
        mask = (1 << width) - 1
        a = cpu.read(inst.operands[1])
        b = value(inst.operands[2]) & mask
        sub = m.startswith("sub")
        setflags = m.endswith("s")
        if sub:
            if setflags:
                result = machine._set_add_flags(a, (~b) & mask, width, 1)
            else:
                result = (a - b) & mask
        else:
            if setflags:
                result = machine._set_add_flags(a, b, width)
            else:
                result = (a + b) & mask
        cpu.write(rd, result)
        return not_taken()

    def do_logic(inst: Instruction):
        m = inst.mnemonic
        rd = inst.operands[0]
        width = rd.bits
        mask = (1 << width) - 1
        a = cpu.read(inst.operands[1])
        b = value(inst.operands[2]) & mask
        if m in ("bic", "bics", "orn", "eon"):
            b = (~b) & mask
        if m.startswith("and") or m == "bic" or m == "bics":
            result = a & b
        elif m.startswith("orr") or m == "orn":
            result = a | b
        else:  # eor / eon
            result = a ^ b
        if m in ("ands", "bics"):
            machine._set_logic_flags(result, width)
        cpu.write(rd, result)
        return not_taken()

    def do_mov(inst: Instruction):
        rd, src = inst.operands
        cpu.write(rd, value(src))
        return not_taken()

    def do_movz(inst: Instruction):
        rd = inst.operands[0]
        cpu.write(rd, value(inst.operands[1]))
        return not_taken()

    def do_movn(inst: Instruction):
        rd = inst.operands[0]
        cpu.write(rd, ~value(inst.operands[1]))
        return not_taken()

    def do_movk(inst: Instruction):
        rd = inst.operands[0]
        op = inst.operands[1]
        shift = op.shift if isinstance(op, ShiftedImm) else 0
        imm = op.value if isinstance(op, ShiftedImm) else op.value
        old = cpu.read(rd.as_64()) if rd.bits == 64 else cpu.read(rd)
        mask = 0xFFFF << shift
        cpu.write(rd, (old & ~mask) | (imm << shift))
        return not_taken()

    def do_adr(inst: Instruction):
        cpu.write(inst.operands[0], value(inst.operands[1]))
        return not_taken()

    def do_bitfield(inst: Instruction):
        m = inst.mnemonic
        rd, rn, immr_op, imms_op = inst.operands
        width = rd.bits
        mask = (1 << width) - 1
        immr, imms = immr_op.value, imms_op.value
        src = cpu.read(rn)
        if imms >= immr:
            length = imms - immr + 1
            field = (src >> immr) & ((1 << length) - 1)
            shift = 0
        else:
            length = imms + 1
            field = src & ((1 << length) - 1)
            shift = width - immr
        result = (field << shift) & mask
        top = shift + length - 1
        if m == "sbfm" and (field >> (length - 1)) & 1:
            result |= mask & ~((1 << (top + 1)) - 1)
        if m == "bfm":
            keep = mask & ~(((1 << length) - 1) << shift)
            result |= cpu.read(rd) & keep
        cpu.write(rd, result)
        return not_taken()

    def do_shift_reg(inst: Instruction):
        m = inst.mnemonic
        rd, rn, src = inst.operands
        width = rd.bits
        mask = (1 << width) - 1
        a = cpu.read(rn)
        if isinstance(src, Imm):
            amount = src.value % width
        else:
            amount = cpu.read(src) % width
        if m == "lsl":
            result = (a << amount) & mask
        elif m == "lsr":
            result = a >> amount
        elif m == "asr":
            result = (_to_signed(a, width) >> amount) & mask
        else:  # ror
            result = ((a >> amount) | (a << (width - amount))) & mask
        cpu.write(rd, result)
        return not_taken()

    def do_muldiv(inst: Instruction):
        m = inst.mnemonic
        rd = inst.operands[0]
        width = rd.bits
        mask = (1 << width) - 1
        if m in ("madd", "msub"):
            rn, rm, ra = inst.operands[1:]
            prod = cpu.read(rn) * cpu.read(rm)
            acc = cpu.read(ra)
            result = (acc - prod) if m == "msub" else (acc + prod)
            cpu.write(rd, result & mask)
        elif m in ("smull", "umull"):
            rn, rm = inst.operands[1:]
            a, b = cpu.read(rn), cpu.read(rm)
            if m == "smull":
                a, b = _to_signed(a, 32), _to_signed(b, 32)
            cpu.write(rd, (a * b) & MASK64)
        elif m in ("smulh", "umulh"):
            rn, rm = inst.operands[1:]
            a, b = cpu.read(rn), cpu.read(rm)
            if m == "smulh":
                a, b = _to_signed(a, 64), _to_signed(b, 64)
            cpu.write(rd, ((a * b) >> 64) & MASK64)
        elif m in ("sdiv", "udiv"):
            rn, rm = inst.operands[1:]
            a, b = cpu.read(rn), cpu.read(rm)
            if m == "sdiv":
                a, b = _to_signed(a, width), _to_signed(b, width)
            if b == 0:
                result = 0
            else:
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                result = q
            cpu.write(rd, result & mask)
        return not_taken()

    def do_dp1(inst: Instruction):
        m = inst.mnemonic
        rd, rn = inst.operands
        width = rd.bits
        a = cpu.read(rn)
        if m == "clz":
            result = width - a.bit_length()
        elif m == "rbit":
            result = int(format(a, f"0{width}b")[::-1], 2)
        elif m == "rev":
            result = int.from_bytes(
                a.to_bytes(width // 8, "little"), "big"
            )
        elif m == "rev16":
            data = a.to_bytes(width // 8, "little")
            out = bytearray()
            for i in range(0, len(data), 2):
                out.extend(data[i:i + 2][::-1])
            result = int.from_bytes(out, "little")
        elif m == "rev32":
            data = a.to_bytes(8, "little")
            out = bytearray()
            for i in range(0, 8, 4):
                out.extend(data[i:i + 4][::-1])
            result = int.from_bytes(out, "little")
        cpu.write(rd, result)
        return not_taken()

    def do_condsel(inst: Instruction):
        m = inst.mnemonic
        rd, rn, rm, cond = inst.operands
        width = rd.bits
        mask = (1 << width) - 1
        if cpu.condition_holds(cond.name):
            result = cpu.read(rn)
        else:
            b = cpu.read(rm)
            if m == "csinc":
                result = (b + 1) & mask
            elif m == "csinv":
                result = (~b) & mask
            elif m == "csneg":
                result = (-b) & mask
            else:
                result = b
        cpu.write(rd, result)
        return not_taken()

    def do_ccmp(inst: Instruction):
        m = inst.mnemonic
        rn, src, nzcv, cond = inst.operands
        width = rn.bits
        mask = (1 << width) - 1
        if cpu.condition_holds(cond.name):
            a = cpu.read(rn)
            b = value(src) & mask
            if m == "ccmp":
                machine._set_add_flags(a, (~b) & mask, width, 1)
            else:
                machine._set_add_flags(a, b, width)
        else:
            cpu.nzcv = nzcv.value
        return not_taken()

    # -- branches -------------------------------------------------------------

    def do_b(inst: Instruction):
        if inst.mnemonic == "b":
            cpu.pc = value(inst.operands[0]) & MASK64
            return (True, None)
        # b.cond
        cond = inst.mnemonic[2:]
        if cpu.condition_holds(cond):
            cpu.pc = value(inst.operands[0]) & MASK64
            return (True, None)
        return not_taken()

    def do_bl(inst: Instruction):
        cpu.write(LR, cpu.pc + 4)
        cpu.pc = value(inst.operands[0]) & MASK64
        return (True, None)

    def do_br(inst: Instruction):
        cpu.pc = cpu.read(inst.operands[0]) & MASK64
        return (True, None)

    def do_blr(inst: Instruction):
        target = cpu.read(inst.operands[0]) & MASK64
        cpu.write(LR, cpu.pc + 4)
        cpu.pc = target
        return (True, None)

    def do_ret(inst: Instruction):
        reg = inst.operands[0] if inst.operands else LR
        cpu.pc = cpu.read(reg) & MASK64
        return (True, None)

    def do_cb(inst: Instruction):
        rt, target = inst.operands
        is_zero = cpu.read(rt) == 0
        want_zero = inst.mnemonic == "cbz"
        if is_zero == want_zero:
            cpu.pc = value(target) & MASK64
            return (True, None)
        return not_taken()

    def do_tb(inst: Instruction):
        rt, bit, target = inst.operands
        bit_set = (cpu.read(rt.as_64()) >> bit.value) & 1
        want_set = inst.mnemonic == "tbnz"
        if bool(bit_set) == want_set:
            cpu.pc = value(target) & MASK64
            return (True, None)
        return not_taken()

    # -- memory ---------------------------------------------------------------

    _SIGNED_LOADS = {"ldrsb": 8, "ldrsh": 16, "ldrsw": 32}

    def do_load(inst: Instruction):
        m = inst.mnemonic
        rt = inst.operands[0]
        memop = inst.operands[1]
        addr, wb = machine._address(memop)
        size = access_bytes(inst)
        data = mem.read(addr, size)
        raw = int.from_bytes(data, "little")
        if rt.is_vector:
            cpu.write_v(rt, raw)
        else:
            signed_bits = _SIGNED_LOADS_MAP.get(m)
            if signed_bits:
                raw = _to_signed(raw, signed_bits) & (
                    MASK64 if rt.bits == 64 else MASK32
                )
            cpu.write(rt, raw)
        if wb is not None:
            cpu.write(memop.base, wb)
        if m in ("ldxr", "ldaxr"):
            cpu.exclusive_addr = addr
        return (False, addr)

    def do_store(inst: Instruction):
        m = inst.mnemonic
        rt = inst.operands[0]
        memop = inst.operands[1]
        addr, wb = machine._address(memop)
        size = access_bytes(inst)
        if rt.is_vector:
            data = cpu.read_v(rt).to_bytes(size, "little")
        else:
            data = (cpu.read(rt) & ((1 << (size * 8)) - 1)).to_bytes(
                size, "little"
            )
        mem.write(addr, data)
        if wb is not None:
            cpu.write(memop.base, wb)
        return (False, addr)

    def do_pair(inst: Instruction):
        m = inst.mnemonic
        rt, rt2, memop = inst.operands
        addr, wb = machine._address(memop)
        size = access_bytes(inst)
        if m == "ldp":
            for i, reg in enumerate((rt, rt2)):
                raw = int.from_bytes(mem.read(addr + i * size, size), "little")
                if reg.is_vector:
                    cpu.write_v(reg, raw)
                else:
                    cpu.write(reg, raw)
        else:
            for i, reg in enumerate((rt, rt2)):
                if reg.is_vector:
                    raw = cpu.read_v(reg)
                else:
                    raw = cpu.read(reg)
                mem.write(addr + i * size,
                          (raw & ((1 << (size * 8)) - 1)).to_bytes(size, "little"))
        if wb is not None:
            cpu.write(memop.base, wb)
        return (False, addr)

    def do_store_exclusive(inst: Instruction):
        rs, rt, memop = inst.operands
        addr, _ = machine._address(memop)
        size = access_bytes(inst)
        if cpu.exclusive_addr == addr:
            mem.write(addr, (cpu.read(rt) & ((1 << (size * 8)) - 1)).to_bytes(
                size, "little"))
            cpu.write(rs, 0)
        else:
            cpu.write(rs, 1)
        cpu.exclusive_addr = None
        return (False, addr)

    # -- floating point ---------------------------------------------------------

    def fp_read(reg: Reg) -> float:
        return _bits_to_float(cpu.read_v(reg), reg.bits)

    def fp_write(reg: Reg, val: float) -> None:
        cpu.write_v(reg, _float_to_bits(val, reg.bits))

    def do_fp2(inst: Instruction):
        m = inst.mnemonic
        rd, rn, rm = inst.operands
        a, b = fp_read(rn), fp_read(rm)
        if m == "fadd":
            r = a + b
        elif m == "fsub":
            r = a - b
        elif m == "fmul":
            r = a * b
        elif m == "fnmul":
            r = -(a * b)
        elif m == "fdiv":
            if b == 0:
                r = math.nan if a == 0 else math.copysign(
                    math.inf, math.copysign(1, a) * math.copysign(1, b)
                )
            else:
                r = a / b
        elif m == "fmax":
            r = max(a, b)
        else:
            r = min(a, b)
        fp_write(rd, r)
        return not_taken()

    def do_fp3(inst: Instruction):
        m = inst.mnemonic
        rd, rn, rm, ra = inst.operands
        prod = fp_read(rn) * fp_read(rm)
        acc = fp_read(ra)
        fp_write(rd, acc - prod if m == "fmsub" else acc + prod)
        return not_taken()

    def do_fp1(inst: Instruction):
        m = inst.mnemonic
        rd, rn = inst.operands
        a = fp_read(rn)
        if m == "fabs":
            r = abs(a)
        elif m == "fneg":
            r = -a
        elif m == "fsqrt":
            r = math.sqrt(a) if a >= 0 else math.nan
        fp_write(rd, r)
        return not_taken()

    def do_fcvt(inst: Instruction):
        rd, rn = inst.operands
        fp_write(rd, fp_read(rn))
        return not_taken()

    def do_fcmp(inst: Instruction):
        rn = inst.operands[0]
        a = fp_read(rn)
        other = inst.operands[1]
        if isinstance(other, (FloatImm, Imm)):
            b = float(other.value)
        else:
            b = fp_read(other)
        if math.isnan(a) or math.isnan(b):
            cpu.set_nzcv(0, 0, 1, 1)
        elif a == b:
            cpu.set_nzcv(0, 1, 1, 0)
        elif a < b:
            cpu.set_nzcv(1, 0, 0, 0)
        else:
            cpu.set_nzcv(0, 0, 1, 0)
        return not_taken()

    def do_fcsel(inst: Instruction):
        rd, rn, rm, cond = inst.operands
        src = rn if cpu.condition_holds(cond.name) else rm
        cpu.write_v(rd, cpu.read_v(src))
        return not_taken()

    def do_fmov(inst: Instruction):
        rd, src = inst.operands
        if isinstance(src, (FloatImm, Imm)):
            fp_write(rd, float(src.value))
        elif isinstance(rd, Reg) and rd.is_vector and src.is_vector:
            cpu.write_v(rd, cpu.read_v(src))
        elif rd.is_vector:
            cpu.write_v(rd, cpu.read(src))
        else:
            cpu.write(rd, cpu.read_v(src))
        return not_taken()

    def do_cvt_to_fp(inst: Instruction):
        m = inst.mnemonic
        rd, rn = inst.operands
        raw = cpu.read(rn)
        if m == "scvtf":
            raw = _to_signed(raw, rn.bits)
        fp_write(rd, float(raw))
        return not_taken()

    def do_cvt_from_fp(inst: Instruction):
        m = inst.mnemonic
        rd, rn = inst.operands
        a = fp_read(rn)
        width = rd.bits
        if math.isnan(a):
            result = 0
        else:
            truncated = int(a)
            if m == "fcvtzs":
                lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            else:
                lo, hi = 0, (1 << width) - 1
            result = max(lo, min(hi, truncated))
        cpu.write(rd, result & ((1 << width) - 1))
        return not_taken()

    # -- SIMD --------------------------------------------------------------------

    def lanes_of(vreg: VecReg) -> List[int]:
        raw = cpu.vregs[vreg.reg.index]
        bits = vreg.lane_bits
        return [(raw >> (i * bits)) & ((1 << bits) - 1)
                for i in range(vreg.lanes)]

    def write_lanes(vreg: VecReg, lanes: List[int]) -> None:
        bits = vreg.lane_bits
        raw = 0
        for i, lane in enumerate(lanes):
            raw |= (lane & ((1 << bits) - 1)) << (i * bits)
        cpu.vregs[vreg.reg.index] = raw  # Q-form zeroes high half implicitly

    def do_vec3(inst: Instruction):
        m = inst.mnemonic
        rd, rn, rm = inst.operands
        a, b = lanes_of(rn), lanes_of(rm)
        bits = rd.lane_bits
        mask = (1 << bits) - 1
        if m in ("fadd", "fsub", "fmul", "fdiv", "fmax", "fmin"):
            out = []
            for x, y in zip(a, b):
                fx = _bits_to_float(x, bits)
                fy = _bits_to_float(y, bits)
                if m == "fadd":
                    r = fx + fy
                elif m == "fsub":
                    r = fx - fy
                elif m == "fmul":
                    r = fx * fy
                elif m == "fdiv":
                    r = fx / fy if fy else math.nan
                elif m == "fmax":
                    r = max(fx, fy)
                else:
                    r = min(fx, fy)
                out.append(_float_to_bits(r, bits))
        elif m == "add":
            out = [(x + y) & mask for x, y in zip(a, b)]
        elif m == "sub":
            out = [(x - y) & mask for x, y in zip(a, b)]
        elif m == "mul":
            out = [(x * y) & mask for x, y in zip(a, b)]
        elif m == "and":
            out = [x & y for x, y in zip(a, b)]
        elif m == "orr":
            out = [x | y for x, y in zip(a, b)]
        elif m == "eor":
            out = [x ^ y for x, y in zip(a, b)]
        elif m == "bic":
            out = [x & ~y & mask for x, y in zip(a, b)]
        write_lanes(rd, out)
        return not_taken()

    def do_movi(inst: Instruction):
        rd, imm = inst.operands
        write_lanes(rd, [imm.value] * rd.lanes)
        return not_taken()

    def do_dup(inst: Instruction):
        rd, rn = inst.operands
        val = cpu.read(rn) & ((1 << rd.lane_bits) - 1)
        write_lanes(rd, [val] * rd.lanes)
        return not_taken()

    # -- system -----------------------------------------------------------------

    def do_nop(inst: Instruction):
        return not_taken()

    def do_svc(inst: Instruction):
        raise SvcTrap(cpu.pc, inst.operands[0].value if inst.operands else 0)

    def do_brk(inst: Instruction):
        raise BrkTrap(cpu.pc, inst.operands[0].value if inst.operands else 0)

    def do_hlt(inst: Instruction):
        raise HltTrap(cpu.pc)

    def vec_dispatch(scalar, vector):
        def handler(inst: Instruction):
            if isinstance(inst.operands[0], VecReg):
                return vector(inst)
            return scalar(inst)
        return handler

    dispatch = {
        "add": vec_dispatch(do_addsub, do_vec3),
        "adds": do_addsub, "sub": vec_dispatch(do_addsub, do_vec3),
        "subs": do_addsub,
        "and": vec_dispatch(do_logic, do_vec3),
        "orr": vec_dispatch(do_logic, do_vec3),
        "eor": vec_dispatch(do_logic, do_vec3),
        "bic": vec_dispatch(do_logic, do_vec3),
        "ands": do_logic, "orn": do_logic, "eon": do_logic, "bics": do_logic,
        "mov": do_mov, "movz": do_movz, "movn": do_movn, "movk": do_movk,
        "adr": do_adr, "adrp": do_adr,
        "ubfm": do_bitfield, "sbfm": do_bitfield, "bfm": do_bitfield,
        "lsl": do_shift_reg, "lsr": do_shift_reg, "asr": do_shift_reg,
        "ror": do_shift_reg,
        "madd": do_muldiv, "msub": do_muldiv, "smull": do_muldiv,
        "umull": do_muldiv, "smulh": do_muldiv, "umulh": do_muldiv,
        "sdiv": do_muldiv, "udiv": do_muldiv,
        "clz": do_dp1, "rbit": do_dp1, "rev": do_dp1, "rev16": do_dp1,
        "rev32": do_dp1,
        "csel": do_condsel, "csinc": do_condsel, "csinv": do_condsel,
        "csneg": do_condsel,
        "ccmp": do_ccmp, "ccmn": do_ccmp,
        "b": do_b, "bl": do_bl, "br": do_br, "blr": do_blr, "ret": do_ret,
        "cbz": do_cb, "cbnz": do_cb, "tbz": do_tb, "tbnz": do_tb,
        "ldr": do_load, "ldrb": do_load, "ldrh": do_load, "ldrsb": do_load,
        "ldrsh": do_load, "ldrsw": do_load, "ldur": do_load, "ldxr": do_load,
        "ldaxr": do_load, "ldar": do_load,
        "str": do_store, "strb": do_store, "strh": do_store,
        "stur": do_store, "stlr": do_store,
        "ldp": do_pair, "stp": do_pair,
        "stxr": do_store_exclusive, "stlxr": do_store_exclusive,
        "fadd": vec_dispatch(do_fp2, do_vec3),
        "fsub": vec_dispatch(do_fp2, do_vec3),
        "fmul": vec_dispatch(do_fp2, do_vec3),
        "fdiv": vec_dispatch(do_fp2, do_vec3),
        "fmax": vec_dispatch(do_fp2, do_vec3),
        "fmin": vec_dispatch(do_fp2, do_vec3),
        "fnmul": do_fp2,
        "fmadd": do_fp3, "fmsub": do_fp3,
        "fabs": do_fp1, "fneg": do_fp1, "fsqrt": do_fp1,
        "fcvt": do_fcvt, "fcmp": do_fcmp, "fcmpe": do_fcmp,
        "fcsel": do_fcsel, "fmov": do_fmov,
        "scvtf": do_cvt_to_fp, "ucvtf": do_cvt_to_fp,
        "fcvtzs": do_cvt_from_fp, "fcvtzu": do_cvt_from_fp,
        "mul": vec_dispatch(do_muldiv, do_vec3),
        "movi": do_movi, "dup": do_dup,
        "nop": do_nop, "dmb": do_nop, "dsb": do_nop, "isb": do_nop,
        "svc": do_svc, "brk": do_brk, "hlt": do_hlt,
    }
    return dispatch


_SIGNED_LOADS_MAP = {"ldrsb": 8, "ldrsh": 16, "ldrsw": 32}
