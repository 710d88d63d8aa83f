"""A set-associative TLB model.

Used by the cycle accounting to charge page-walk latency on misses; the
KVM baseline (paper §6.4, Figure 5) multiplies the walk cost because nested
page tables double the translation depth.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["Tlb"]


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _lru_source(unit: str, index: str, sets: str, cap, miss: List[str],
                hit: List[str] = ()) -> List[str]:
    """The one statement of the LRU rule, as source lines over the local
    ``unit``: :meth:`Tlb.lookup` is these lines compiled and a generated
    block body inlines them (:meth:`Tlb.lookup_source`) around its own
    ``hit`` and ``miss`` lines (none for a hit where it has several
    accesses: its hits are those less its misses).  A set nothing was
    filled into yet is the empty tuple: its list is made at its first
    fill, so a gauge costs what it holds, not its geometry."""
    return [f"ways = {sets}[{index}]",
            # Re-touching the newest entry is a no-op move.
            f"if ways and ways[-1] == {unit}:", *_indent(hit or ["pass"]),
            f"elif {unit} in ways:",
            f"    ways.remove({unit})", f"    ways.append({unit})",
            *_indent(hit),
            "else:",
            "    if not ways:",
            f"        ways = {sets}[{index}] = []",
            f"    elif len(ways) >= {cap}:",
            "        ways.pop(0)",
            f"    ways.append({unit})", *_indent(miss)]


class Tlb:
    """LRU set-associative TLB over fixed-size pages."""

    def __init__(self, entries: int = 1024, ways: int = 4,
                 page_size: int = 16 * 1024):
        if entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.sets = entries // ways
        self.ways = ways
        self.page_size = page_size
        self._sets: List[List[int]] = [()] * self.sets
        self.hits = 0
        self.misses = 0
        # Shift/mask addressing when the geometry is a power of two
        # (always true for the built-in models); falls back to div/mod.
        self._shift = (page_size.bit_length() - 1
                       if page_size & (page_size - 1) == 0 else None)
        self._mask = (self.sets - 1
                      if self.sets & (self.sets - 1) == 0 else None)

    exec("\n".join([  # lookup: the rule over whatever geometry self has
        "def lookup(self, addr):",
        '    """True on hit; on miss the translation is filled (LRU evict)."""',
        "    shift, mask = self._shift, self._mask",
        "    unit = addr >> shift if shift is not None "
        "else addr // self.page_size",
        *_indent(_lru_source(
            "unit", "unit & mask if mask is not None else unit % self.sets",
            "self._sets", "self.ways", ["self.misses += 1", "return False"],
            ["self.hits += 1", "return True"]))]))

    def lookup_source(self, unit: str, sets: str, miss: List[str],
                      last: Optional[str] = None,
                      hit: List[str] = ()) -> List[str]:
        """The line putting ``addr``'s unit in the local ``unit``, then
        :func:`_lru_source` over it and ``sets``, a name for ``_sets``,
        with this geometry folded in.  ``last`` names a local holding the
        unit probed last: the newest way of its set while nobody else
        touches the gauge, so a repeat indexes nothing (nor runs ``hit``)."""
        lines = _lru_source(
            unit, f"{unit} & {self._mask}" if self._mask is not None
            else f"{unit} % {self.sets}", sets, self.ways, miss, hit)
        if last is not None:
            lines = [f"if {unit} != {last}:", f"    {last} = {unit}",
                     *_indent(lines)]
        return [f"{unit} = addr >> {self._shift}" if self._shift is not None
                else f"{unit} = addr // {self.page_size}", *lines]

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

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
