"""Redundant guard elimination without CFI (paper §4.3).

Programs often perform several loads/stores in a row offset from the same
base register.  Instead of guarding each access, one guard materializes the
base into a reserved *hoisting register* (``x23``/``x24``) and every access
in the run is rewritten to be offset from it:

    str x0, [x1, #8]            add  x24, x21, w1, uxtw
    str x0, [x1, #16]    ==>    str  x0, [x24, #8]
    str x0, [x1, #24]           str  x0, [x24, #16]
                                str  x0, [x24, #24]

Because the hoisting register is reserved (only writable by the guard), a
jump into the middle of the run still lands on accesses through a register
that holds a valid sandbox address — no control-flow integrity is needed,
and the verifier needs no knowledge of this optimization (§4.3).

Planning runs per basic block.  A *segment* is a maximal run of hoistable
accesses to one base register with no intervening redefinition of that
base; segments with at least two accesses get a hoisting register if one of
the two is free over the segment's span (greedy interval assignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arm64 import isa
from ..arm64.instructions import Instruction
from ..arm64.operands import Imm, Mem, OFFSET
from ..arm64.registers import Reg
from .constants import HOIST_REGS, MAX_IMM_DISPLACEMENT, RESERVED_INDICES

__all__ = ["HoistPlan", "plan_hoisting", "is_hoistable"]

_HOISTABLE_MNEMONICS = (
    isa.FULL_ADDRESSING | isa.PAIR_MEMORY | isa.UNSCALED_MEMORY
)


def is_hoistable(inst: Instruction, sandbox_loads: bool = True) -> bool:
    """Can this access be redirected through a hoisting register?"""
    if inst.mnemonic not in _HOISTABLE_MNEMONICS:   # all of them memory
        return False
    if inst.is_load and not sandbox_loads:
        return False  # unguarded loads need no hoisting
    mem = inst.mem
    if mem is None or mem.mode != OFFSET:
        return False
    if mem.offset is not None and not isinstance(mem.offset, Imm):
        return False
    if abs(mem.imm_value) >= MAX_IMM_DISPLACEMENT:
        return False
    base = mem.base
    if base.is_sp or base.is_zero or base.index in RESERVED_INDICES:
        return False
    # Loads that restore x30 take the dedicated link-register path.
    if inst.is_load and any(r.index == 30 for r in inst.transfer_regs):
        return False
    return True


@dataclass
class HoistPlan:
    """The hoisting decisions for one basic block.

    ``guards[i]`` — insert ``add <reg>, x21, w<base>, uxtw`` before
    instruction index ``i``;  ``redirects[i]`` — rewrite the access at
    index ``i`` to use the given hoisting register as its base.
    """

    guards: Dict[int, Tuple[Reg, Reg]] = field(default_factory=dict)
    redirects: Dict[int, Reg] = field(default_factory=dict)

    @property
    def eliminated(self) -> int:
        """Number of guards saved (accesses redirected minus guards added)."""
        return len(self.redirects) - len(self.guards)


@dataclass
class _Segment:
    base: Reg
    positions: List[int]

    @property
    def start(self) -> int:
        return self.positions[0]

    @property
    def end(self) -> int:
        return self.positions[-1]


def _collect_segments(bases: Sequence[Optional[Reg]],
                      writes: Sequence[Sequence[Reg]]) -> List[_Segment]:
    open_segments: Dict[int, _Segment] = {}
    done: List[_Segment] = []
    for i, base in enumerate(bases):
        if base is not None:
            seg = open_segments.get(base.index)
            if seg is None:
                seg = _Segment(base, [])
                open_segments[base.index] = seg
                done.append(seg)
            seg.positions.append(i)
        if not open_segments:
            continue
        # Any redefinition of a base register ends its segment.
        for reg in writes[i]:
            if not reg.is_vector and reg.index in open_segments:
                # A hoistable access never redefines its own base, so this
                # is always a true invalidation.
                del open_segments[reg.index]
    return [seg for seg in done if len(seg.positions) >= 2]


def plan_hoisting(block: List[Instruction],
                  writes: Sequence[Sequence[Reg]],
                  sandbox_loads: bool = True,
                  hoist_registers: int = len(HOIST_REGS)) -> HoistPlan:
    """Plan redundant guard elimination for one basic block, given the
    registers each of its instructions writes (``writes[i]``, as the
    rewriter reads them once per instruction).

    ``hoist_registers`` limits how many of x23/x24 may be used (the
    paper's design reserves two; one suffices for single-base runs but
    cannot hoist interleaved accesses to two bases — §4.3).
    """
    plan = HoistPlan()
    if hoist_registers <= 0:
        return plan
    bases = [inst.mem.base if is_hoistable(inst, sandbox_loads) else None
             for inst in block]
    if not any(bases):
        return plan
    segments = sorted(_collect_segments(bases, writes),
                      key=lambda s: s.start)
    #: For each hoisting register, the last instruction index it is live at.
    busy_until = {reg: -1 for reg in HOIST_REGS[:hoist_registers]}
    for seg in segments:
        assigned: Optional[Reg] = None
        for reg in busy_until:
            if busy_until[reg] < seg.start:
                assigned = reg
                break
        if assigned is None:
            continue  # both hoisting registers busy; leave guards in place
        busy_until[assigned] = seg.end
        plan.guards[seg.start] = (assigned, seg.base)
        for pos in seg.positions:
            plan.redirects[pos] = assigned
    return plan
