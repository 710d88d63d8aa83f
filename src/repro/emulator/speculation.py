"""Bounded-speculation execution mode (DESIGN.md §16).

Wraps the stepping interpreter with a seeded branch predictor — a
pattern-history table (PHT) of 2-bit saturating counters for conditional
branches and a circular return-stack buffer (RSB) for ``ret`` — and, on
every mispredict, executes a *bounded transient window* down the wrong
path before rolling the machine back to its architectural state.

The contract with the rest of the emulator:

* **Architectural transparency.** After every window the CPU state,
  memory, ``instret``, cycle accounting, and the TLB/L1/L2 gauges are
  restored exactly; a speculative run is byte-identical to a
  non-speculative stepping run on everything the runtime can observe
  (enforced by :func:`repro.fuzz.differential.check_speculation`).
* **Fuel counts architectural retirements only.** Transient instructions
  are free, exactly as preemption budgets ignore squashed work on real
  hardware.
* **Predictors learn architecturally.** PHT counters update from
  resolved outcomes; the RSB pushes on ``bl``/``blr`` and pops on
  ``ret``.  Nothing executed inside a window touches predictor state and
  windows never nest — in-window branches resolve directly.
* **Transient side effects are observer-only.**  Every wrong-path memory
  access is recorded in the machine's
  :class:`~repro.obs.speculation.SpeculationLog` (address, size,
  store-ness, gauge residency), the channel the Spectre gallery measures.

What squashes a window early: fences (``dsb``/``isb``), trapping
instructions (``svc``/``brk``/``hlt``), any fault or undecodable fetch,
reaching a registered host entry, or exhausting the configured window.

Not modelled: a BTB (unconditional ``b``/``br``/``blr`` are always
"predicted" correctly) and nested speculation.  RSB underflow wraps onto
seeded stale entries pointing into the never-mapped first page, so an
underflowed prediction squashes on its first transient fetch.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..arm64 import isa
from ..arm64.instructions import Instruction, access_bytes
from ..arm64.operands import Mem
from ..engine import SpeculationConfig
from ..memory.pages import MemoryFault
from ..obs.speculation import SpeculationLog, SpeculationWindow, TransientAccess
from .cpu import MASK64

__all__ = ["PatternHistoryTable", "ReturnStack", "SpeculativeEngine"]

#: Barriers that stop speculation dead (the fencing hardening relies on
#: this: a ``dsb`` on the wrong path squashes before any access issues).
_SPEC_BARRIERS = frozenset({"dsb", "isb"})

#: Trapping instructions are never executed transiently.
_SPEC_TRAPS = frozenset({"svc", "brk", "hlt"})

_COND_BRANCHES = frozenset({"cbz", "cbnz", "tbz", "tbnz"})


class PatternHistoryTable:
    """Direct-mapped table of 2-bit saturating counters, seeded."""

    def __init__(self, entries: int, rng: random.Random):
        self._mask = entries - 1
        self.counters: List[int] = [rng.randrange(4) for _ in range(entries)]

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        """True = predict taken (counter in the upper half)."""
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        c = self.counters[i]
        self.counters[i] = min(3, c + 1) if taken else max(0, c - 1)


class ReturnStack:
    """Circular return-stack buffer.

    Pushes wrap around and overwrite the oldest entry; pops past the
    fill level *underflow* onto whatever is there — stale survivors of
    earlier calls or the seeded initial entries (addresses inside the
    never-mapped first page, chosen so an underflowed prediction
    squashes immediately instead of executing arbitrary bytes).
    """

    def __init__(self, depth: int, rng: random.Random):
        self.depth = depth
        self.entries: List[int] = [
            rng.randrange(0x40, 0x1000) & ~3 for _ in range(depth)]
        self.top = depth - 1

    def push(self, address: int) -> None:
        self.top = (self.top + 1) % self.depth
        self.entries[self.top] = address

    def pop(self) -> int:
        value = self.entries[self.top]
        self.top = (self.top - 1) % self.depth
        return value


class SpeculativeEngine:
    """Drives one :class:`~repro.emulator.machine.Machine` speculatively."""

    def __init__(self, machine, config: SpeculationConfig):
        self.machine = machine
        self.config = config
        self.log = SpeculationLog()
        rng = random.Random(config.seed)
        self.pht = PatternHistoryTable(config.pht_entries, rng)
        self.rsb = ReturnStack(config.rsb_depth, rng)

    # -- architectural loop -------------------------------------------------

    def run(self, fuel: Optional[int] = None) -> None:
        """Mirror of the stepping ``Machine.run`` loop, with prediction."""
        from .machine import OutOfFuel
        step = self._step
        if fuel is None:
            while True:
                step()
        for _ in range(fuel):
            step()
        raise OutOfFuel()

    def _step(self) -> None:
        """One architectural instruction, plus any transient window."""
        machine = self.machine
        cpu = machine.cpu
        pc = cpu.pc
        if pc in machine._host_entries:
            machine.step()  # raises HostCallTrap like the stepping path
            return
        inst = self._peek(pc)
        if inst is None:
            machine.step()  # raises the precise fetch/decode trap
            return
        mnemonic = inst.mnemonic
        if mnemonic.startswith("b.") or mnemonic in _COND_BRANCHES:
            self._step_conditional(inst, pc, mnemonic)
        elif mnemonic == "ret":
            self._step_return(pc)
        elif mnemonic in ("bl", "blr"):
            machine.step()
            self.rsb.push((pc + 4) & MASK64)
        else:
            machine.step()

    def _step_conditional(self, inst: Instruction, pc: int,
                          mnemonic: str) -> None:
        machine = self.machine
        predicted_taken = self.pht.predict(pc)
        self.log.predictions += 1
        # Decoded branch targets are value-bearing (absolute) operands,
        # so the wrong-path address is known before the branch executes.
        if mnemonic.startswith("b."):
            target_op = inst.operands[0]
        elif mnemonic in ("cbz", "cbnz"):
            target_op = inst.operands[1]
        else:  # tbz/tbnz
            target_op = inst.operands[2]
        target = machine._value(target_op) & MASK64
        machine.step()
        actual_taken = machine.cpu.pc != ((pc + 4) & MASK64)
        self.pht.update(pc, actual_taken)
        if actual_taken != predicted_taken:
            wrong = target if predicted_taken else (pc + 4) & MASK64
            self._run_window("cond", pc, wrong)

    def _step_return(self, pc: int) -> None:
        machine = self.machine
        predicted = self.rsb.pop()
        self.log.predictions += 1
        machine.step()
        if machine.cpu.pc != predicted:
            self._run_window("ret", pc, predicted)

    # -- transient window ---------------------------------------------------

    def _peek(self, pc: int) -> Optional[Instruction]:
        """Decode without executing or raising; None = would trap on fetch."""
        from .machine import Trap
        try:
            return self.machine.predecode(pc)[0]
        except Trap:
            return None

    def _run_window(self, kind: str, branch_pc: int, wrong_pc: int) -> None:
        from .machine import Trap
        machine = self.machine
        cpu = machine.cpu
        window = self.log.begin_window(SpeculationWindow(
            kind=kind, branch_pc=branch_pc, wrong_pc=wrong_pc,
            resolved_pc=cpu.pc))

        # Full microarchitectural snapshot of everything a transient
        # instruction can touch through machine.step().
        snapshot = cpu.snapshot()
        exclusive = cpu.exclusive_addr
        instret = machine.instret
        costing = machine._costing
        if costing is not None:
            cost_state = (costing.t_issue, costing.t_done, dict(costing.ready))
        gauges = []
        for gauge in (machine.tlb, machine.l1, machine.l2):
            if gauge is not None:
                gauges.append((gauge, [list(e) for e in gauge._sets],
                               gauge.hits, gauge.misses))
        undo: List = []

        cpu.pc = wrong_pc & MASK64
        reason = "window-exhausted"
        for depth in range(1, self.config.window + 1):
            pc = cpu.pc
            if pc in machine._host_entries:
                reason = "host-entry"
                break
            inst = self._peek(pc)
            if inst is None:
                reason = "fetch-fault"
                break
            mnemonic = inst.mnemonic
            if mnemonic in _SPEC_BARRIERS:
                reason = "fence"
                break
            if mnemonic in _SPEC_TRAPS:
                reason = "trap"
                break
            window.depth = depth
            memop = None
            for op in inst.operands:
                if isinstance(op, Mem):
                    memop = op
                    break
            old = None
            address = None
            is_store = False
            if memop is not None:
                # Record the access *before* executing it: a faulting
                # transient access still touched the translation path.
                address = machine._address(memop)[0]
                size = access_bytes(inst)
                if mnemonic in isa.PAIR_MEMORY:
                    size *= 2
                is_store = isa.is_store(mnemonic)
                window.accesses.append(TransientAccess(
                    pc=pc, address=address, size=size, is_store=is_store,
                    depth=depth,
                    tlb_hit=(machine.tlb.probe(address)
                             if machine.tlb is not None else None),
                    l1_hit=(machine.l1.probe(address)
                            if machine.l1 is not None else None)))
                if is_store:
                    try:
                        old = machine.memory.read(address, size)
                    except MemoryFault:
                        reason = "fault"
                        break
            try:
                machine.step()
            except Trap:
                reason = "fault"
                break
            if is_store and old is not None:
                # Append only after the store succeeded, so rollback
                # never replays a write that was itself squashed.
                undo.append((address, old))

        self.log.end_window(window, reason)

        # -- rollback: reverse order of effects ----------------------------
        for address, old in reversed(undo):
            machine.memory.write(address, old)
        for gauge, sets, hits, misses in gauges:
            gauge._sets[:] = sets
            gauge.hits = hits
            gauge.misses = misses
        if costing is not None:
            costing.t_issue, costing.t_done, costing.ready = (
                cost_state[0], cost_state[1], cost_state[2])
        machine.instret = instret
        cpu.restore(snapshot)
        cpu.exclusive_addr = exclusive
