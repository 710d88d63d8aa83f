"""The runtime-call table (paper §4.4).

The first page of every sandbox is a read-only table of runtime entry
point addresses.  A sandboxed program calls the runtime with::

    ldr x30, [x21, #8*CALL]
    blr x30

No trampoline and no reserved register are needed: ``x21`` already points
at the sandbox base, and the verifier permits exactly this pattern.  The
entry addresses point *outside* every sandbox — into the runtime's
dedicated region — and the emulator traps the branch there, exactly as real
LFI transfers control to runtime code.

Since the table page sits before the guard region it is readable by the
neighbouring sandbox, so it must not contain sandbox-specific secrets: the
same entry addresses are used for every sandbox.  Unused entries point to
an unmapped page so a stray call traps.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict

from ..memory.layout import MAX_SANDBOXES_48BIT, PAGE_SIZE, SANDBOX_SIZE

__all__ = ["RuntimeCall", "RUNTIME_REGION_BASE", "HOST_ENTRY_BASE",
           "UNMAPPED_ENTRY", "BATCH_RECORD_SIZE", "BATCH_MAX_RECORDS",
           "entry_address", "call_for_entry", "build_table_page",
           "table_offset"]


class RuntimeCall:
    """Runtime call numbers (table slot indices)."""

    EXIT = 0
    OPEN = 1
    CLOSE = 2
    READ = 3
    WRITE = 4
    LSEEK = 5
    BRK = 6
    MMAP = 7
    MUNMAP = 8
    FORK = 9
    WAIT = 10
    GETPID = 11
    PIPE = 12
    YIELD = 13
    YIELD_TO = 14
    CLOCK = 15
    UNLINK = 16
    BATCH = 17

    ALL = tuple(range(18))
    NAMES = {
        EXIT: "exit", OPEN: "open", CLOSE: "close", READ: "read",
        WRITE: "write", LSEEK: "lseek", BRK: "brk", MMAP: "mmap",
        MUNMAP: "munmap", FORK: "fork", WAIT: "wait", GETPID: "getpid",
        PIPE: "pipe", YIELD: "yield", YIELD_TO: "yield_to", CLOCK: "clock",
        UNLINK: "unlink", BATCH: "batch",
    }


#: Byte size of one BATCH record: eight little-endian u64 words
#: ``[call, a0, a1, a2, a3, a4, a5, result]`` — see
#: :func:`repro.runtime.syscalls.rt_batch` for the exact layout.
BATCH_RECORD_SIZE = 64

#: Maximum records serviceable by one BATCH crossing.
BATCH_MAX_RECORDS = 64


#: The last 4GiB slot of the 48-bit space is dedicated to the runtime
#: (paper §3: "one sandbox region may need to be dedicated to the runtime").
RUNTIME_REGION_BASE = (MAX_SANDBOXES_48BIT - 1) * SANDBOX_SIZE

#: Runtime entry points live at the start of the runtime region.
HOST_ENTRY_BASE = RUNTIME_REGION_BASE

#: Unused table entries point at an unmapped page inside the runtime
#: region, so calling them faults.
UNMAPPED_ENTRY = RUNTIME_REGION_BASE + SANDBOX_SIZE - PAGE_SIZE


def entry_address(call: int) -> int:
    """Host entry-point address for a runtime call number."""
    return HOST_ENTRY_BASE + call * 8


def call_for_entry(address: int) -> int:
    """Inverse of :func:`entry_address`."""
    return (address - HOST_ENTRY_BASE) // 8


def table_offset(call: int) -> int:
    """Byte offset of a call's entry within the sandbox's first page."""
    return call * 8


@functools.lru_cache(maxsize=None)
def build_table_page() -> bytes:
    """The read-only first page: entry addresses, then unmapped fillers.

    The same for every sandbox, so built once per process.
    """
    slots = [entry_address(slot) if slot in RuntimeCall.ALL
             else UNMAPPED_ENTRY for slot in range(PAGE_SIZE // 8)]
    return struct.pack(f"<{len(slots)}Q", *slots)
