"""Virtual memory substrate: sparse paged memory and sandbox layout math."""

from .layout import (
    CODE_KEEPOUT,
    GUARD_SIZE,
    MAX_SANDBOXES_48BIT,
    MAX_SANDBOXES_49BIT,
    PAGE_SIZE,
    SANDBOX_BITS,
    SANDBOX_SIZE,
    SandboxLayout,
)
from .pages import (
    MemoryFault,
    PERM_R,
    PERM_RW,
    PERM_RX,
    PERM_W,
    PERM_X,
    PagedMemory,
)

__all__ = [
    "CODE_KEEPOUT",
    "GUARD_SIZE",
    "MAX_SANDBOXES_48BIT",
    "MAX_SANDBOXES_49BIT",
    "PAGE_SIZE",
    "SANDBOX_BITS",
    "SANDBOX_SIZE",
    "SandboxLayout",
    "MemoryFault",
    "PERM_R",
    "PERM_RW",
    "PERM_RX",
    "PERM_W",
    "PERM_X",
    "PagedMemory",
]
