"""A set-associative TLB model.

Used by the cycle accounting to charge page-walk latency on misses; the
KVM baseline (paper §6.4, Figure 5) multiplies the walk cost because nested
page tables double the translation depth.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Tlb"]


class Tlb:
    """LRU set-associative TLB over fixed-size pages."""

    def __init__(self, entries: int = 1024, ways: int = 4,
                 page_size: int = 16 * 1024):
        if entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.sets = entries // ways
        self.ways = ways
        self.page_size = page_size
        self._sets: List[List[int]] = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0
        # Shift/mask addressing when the geometry is a power of two
        # (always true for the built-in models); falls back to div/mod.
        self._shift = (page_size.bit_length() - 1
                       if page_size & (page_size - 1) == 0 else None)
        self._mask = (self.sets - 1
                      if self.sets & (self.sets - 1) == 0 else None)

    def lookup(self, address: int) -> bool:
        """True on hit; on miss the translation is filled (LRU evict)."""
        shift = self._shift
        page = (address >> shift if shift is not None
                else address // self.page_size)
        mask = self._mask
        entries = self._sets[page & mask if mask is not None
                             else page % self.sets]
        if entries:
            # MRU shortcut: re-touching the newest entry is a no-op move.
            if entries[-1] == page:
                self.hits += 1
                return True
            if page in entries:
                entries.remove(page)
                entries.append(page)
                self.hits += 1
                return True
        self.misses += 1
        if len(entries) >= self.ways:
            entries.pop(0)
        entries.append(page)
        return False

    def set_source(self, sets: str) -> List[str]:
        """:meth:`lookup`'s addressing as source lines over ``addr`` and
        ``sets`` (a name for ``_sets``), leaving the page in ``unit`` and
        its set in ``ways``.  ``ways and ways[-1] == unit`` is then the MRU
        shortcut: exactly when ``lookup`` would count a hit, move nothing
        and return True — so inline code may count the hit itself and
        call ``lookup`` only otherwise."""
        unit = (f"addr >> {self._shift}" if self._shift is not None
                else f"addr // {self.page_size}")
        index = (f"unit & {self._mask}" if self._mask is not None
                 else f"unit % {self.sets}")
        return [f"unit = {unit}", f"ways = {sets}[{index}]"]

    def probe(self, address: int) -> bool:
        """Non-mutating residency check (no fill, no LRU movement).

        Used by the speculation leakage observer to ask "would this
        address hit right now?" without perturbing the gauge state that
        the architectural run depends on.
        """
        shift = self._shift
        page = (address >> shift if shift is not None
                else address // self.page_size)
        mask = self._mask
        entries = self._sets[page & mask if mask is not None
                             else page % self.sets]
        return page in entries

    def flush(self) -> None:
        # In place: generated block bodies hold the list of sets.
        for entries in self._sets:
            entries.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
