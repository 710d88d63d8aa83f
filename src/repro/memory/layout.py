"""Sandbox address-space layout (paper §3, Figure 1).

Each sandbox occupies one 4GiB-aligned 4GiB region:

    +---------------------+  base (4GiB aligned)
    | runtime-call table  |  one read-only page (§4.4)
    +---------------------+  base + PAGE_SIZE
    | guard region        |  48KiB, unmapped
    +---------------------+  base + PAGE_SIZE + GUARD_SIZE
    | code, data, heap,   |
    | stack ...           |
    +---------------------+  base + 4GiB - GUARD_SIZE
    | guard region        |  48KiB, unmapped
    +---------------------+  base + 4GiB

Additionally no executable code may be placed in the last 128MiB of the
region so that direct branches (±128MiB reach) cannot land in a neighbour's
text segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "SANDBOX_SIZE",
    "SANDBOX_BITS",
    "GUARD_SIZE",
    "PAGE_SIZE",
    "CODE_KEEPOUT",
    "MAX_SANDBOXES_48BIT",
    "MAX_SANDBOXES_49BIT",
    "SandboxLayout",
    "slot_keys",
]

SANDBOX_BITS = 32
SANDBOX_SIZE = 1 << SANDBOX_BITS  # 4GiB
PAGE_SIZE = 16 * 1024  # Apple ARM64 page size

#: Guard size: smallest multiple of 16KiB greater than 2**15 + 2**10
#: (paper §3 footnote): 48KiB.
GUARD_SIZE = 48 * 1024
assert GUARD_SIZE % PAGE_SIZE == 0
assert GUARD_SIZE > 2**15 + 2**10

#: Direct branches reach +-128MiB, so the last 128MiB holds no code.
CODE_KEEPOUT = 128 * 1024 * 1024

#: 48-bit usermode address space -> 2^16 sandboxes (paper §3).
MAX_SANDBOXES_48BIT = 1 << (48 - SANDBOX_BITS)
MAX_SANDBOXES_49BIT = 1 << (49 - SANDBOX_BITS)


@dataclass(frozen=True)
class SandboxLayout:
    """Derived addresses for one sandbox slot."""

    base: int

    def __post_init__(self):
        if self.base % SANDBOX_SIZE:
            raise ValueError(
                f"sandbox base {self.base:#x} not 4GiB aligned"
            )

    @classmethod
    def for_slot(cls, index: int) -> "SandboxLayout":
        return cls(index * SANDBOX_SIZE)

    @property
    def slot(self) -> int:
        return self.base // SANDBOX_SIZE

    @property
    def end(self) -> int:
        return self.base + SANDBOX_SIZE

    @property
    def table_base(self) -> int:
        """Runtime-call table page (read-only, §4.4)."""
        return self.base

    @property
    def high_guard_base(self) -> int:
        return self.end - GUARD_SIZE

    @property
    def usable_base(self) -> int:
        """First address usable for program segments."""
        return self.base + PAGE_SIZE + GUARD_SIZE

    @property
    def usable_end(self) -> int:
        return self.high_guard_base

    @property
    def code_limit(self) -> int:
        """Code must end below this address (128MiB keep-out, §3)."""
        return self.end - CODE_KEEPOUT

    def guarded(self, address: int) -> int:
        """What the add-uxtw guard would produce for this value (§3)."""
        return self.base | (address & (SANDBOX_SIZE - 1))


def slot_keys(table, first: int, last: int) -> Iterable[int]:
    """The keys of ``table`` (slot numbers) in ``[first, last]``, ascending:
    one lookup for one slot, a walk of the keys for a wider query."""
    if first == last:
        return (first,) if first in table else ()
    return sorted(slot for slot in table if first <= slot <= last)
