"""Leakage observer for the bounded-speculation emulator mode.

The speculative engine (DESIGN.md §16) records every transiently executed
memory access — the microarchitectural footprint an attacker could recover
through a cache side channel — into a :class:`SpeculationLog` attached to
the machine.  The log is *observer state only*: it never feeds back into
cycle accounting or architectural results, so speculative runs stay
byte-identical to non-speculative runs at the architectural level.

Axioms of the observer (what it can and cannot see):

* It sees the *address and size* of every transient load/store the window
  actually issued, in program order, including accesses that faulted (the
  address is computed before the access is attempted).
* It sees the residency of each address in the TLB and L1 gauges at the
  time of the access (non-mutating probes), standing in for the
  prime+probe measurement a real attacker would perform.
* It does **not** model inter-core coherence traffic, prefetchers, or port
  contention; leakage through those channels is out of scope.
* Leakage is judged *differentially*: two runs of the same program that
  differ only in a secret byte leak iff their transient access traces
  differ.  A hardened program may still speculate — it is safe when its
  transient footprint is secret-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "TransientAccess",
    "SpeculationWindow",
    "SpeculationLog",
    "differential_leakage",
]


@dataclass(frozen=True)
class TransientAccess:
    """One memory access issued on a squashed (wrong) path."""

    pc: int
    address: int
    size: int
    is_store: bool
    depth: int                      # instructions into the window (1-based)
    tlb_hit: Optional[bool] = None  # residency at access time, if modelled
    l1_hit: Optional[bool] = None


@dataclass
class SpeculationWindow:
    """One mispredicted branch and the transient work it caused."""

    kind: str                 # "cond" (PHT mispredict) or "ret" (RSB)
    branch_pc: int
    wrong_pc: int             # first transiently fetched pc
    resolved_pc: int          # architectural successor after rollback
    depth: int = 0            # transient instructions actually executed
    squash: str = "resolved"  # why the window ended
    accesses: List[TransientAccess] = field(default_factory=list)


class SpeculationLog:
    """Per-machine record of speculation windows and their accesses."""

    def __init__(self):
        self.windows: List[SpeculationWindow] = []
        self.squashes: dict = {}

    def begin_window(self, window: SpeculationWindow) -> SpeculationWindow:
        self.windows.append(window)
        return window

    def end_window(self, window: SpeculationWindow, reason: str) -> None:
        window.squash = reason
        self.squashes[reason] = self.squashes.get(reason, 0) + 1

    def access_trace(self) -> Tuple[Tuple[int, int, bool], ...]:
        """The transient footprint: (address, size, is_store) in order."""
        return tuple((a.address, a.size, a.is_store)
                     for w in self.windows for a in w.accesses)


def differential_leakage(a: SpeculationLog, b: SpeculationLog) -> int:
    """Number of positions where two runs' transient footprints differ.

    The two logs should come from runs of the *same* program under the
    *same* predictor seed that differ only in a secret value.  Zero means
    the transient footprint is secret-independent (no leakage through
    this observer); nonzero counts the differing trace positions,
    including length mismatches.
    """
    ta, tb = a.access_trace(), b.access_trace()
    diffs = sum(1 for xa, xb in zip(ta, tb) if xa != xb)
    return diffs + abs(len(ta) - len(tb))
