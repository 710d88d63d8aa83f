"""Sandbox loader: verify an ELF image and map it into a 4GiB slot (§5.3).

Binaries are linked at *sandbox offsets* (position-independent at region
granularity), so loading is: verify the text, add the slot base to every
segment address, install the read-only runtime-call table page, and carve
out a stack below the high guard region.
"""

from __future__ import annotations

from typing import Optional

from ..core.verifier import Verifier, VerifierPolicy
from ..elf.format import ElfImage, PF_W, PF_X
from ..errors import LoadError as _LoadError
from ..memory.layout import PAGE_SIZE, SandboxLayout
from ..memory.pages import PERM_R, PERM_RW, PERM_RX, PagedMemory
from .process import Process, ProcessState, StdStream
from .table import build_table_page

__all__ = ["load_image", "clone_process", "alias_slot",
           "DEFAULT_STACK_SIZE"]

DEFAULT_STACK_SIZE = 1024 * 1024



def _page_span(addr: int, size: int) -> tuple:
    base = addr & ~(PAGE_SIZE - 1)
    end = (addr + max(size, 1) + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    return base, end - base


def load_image(
    memory: PagedMemory,
    image: ElfImage,
    layout: SandboxLayout,
    pid: int,
    verify: bool = True,
    policy: Optional[VerifierPolicy] = None,
    stack_size: int = DEFAULT_STACK_SIZE,
) -> Process:
    """Map a (verified) ELF image into a sandbox slot and build a Process."""
    if verify:
        result = Verifier(policy).verify_elf(image)
        result.raise_if_failed()

    # Layout constraints (paper §3 / Figure 1).
    usable_lo = layout.usable_base - layout.base
    usable_hi = layout.usable_end - layout.base
    for segment in image.segments:
        if segment.vaddr < usable_lo or segment.vaddr + segment.memsz > usable_hi:
            raise _LoadError(
                f"segment {segment.vaddr:#x}+{segment.memsz:#x} outside the "
                f"usable sandbox region"
            )
        if segment.flags & PF_X:
            end = layout.base + segment.vaddr + segment.memsz
            if end > layout.code_limit:
                raise _LoadError(
                    "executable segment inside the 128MiB keep-out zone"
                )

    # Runtime-call table page: read-only, first page of the sandbox (§4.4).
    # Mapped with its final permissions: ``PagedMemory.load_image`` is the
    # loader's own path and writes whatever they are.
    memory.map_region(layout.table_base, PAGE_SIZE, PERM_R)
    memory.load_image(layout.table_base, build_table_page())

    highest = layout.usable_base
    for segment in image.segments:
        abs_addr = layout.base + segment.vaddr
        base, size = _page_span(abs_addr, segment.memsz)
        if segment.flags & PF_X:
            perm = PERM_RX
        elif segment.flags & PF_W:
            perm = PERM_RW
        else:
            perm = PERM_R
        memory.map_region(base, size, perm)
        if segment.data:
            memory.load_image(abs_addr, bytes(segment.data))
        highest = max(highest, base + size)

    # Stack: top of the usable region, growing down toward the heap.
    stack_top = layout.usable_end
    memory.map_region(stack_top - stack_size, stack_size, PERM_RW)

    heap_start = highest
    registers = {
        "regs": [0] * 31,
        "sp": stack_top,
        "pc": layout.base + image.entry,
        "nzcv": 0,
        "vregs": [0] * 32,
    }
    registers["regs"][21] = layout.base  # the sandbox base register

    proc = Process(
        pid=pid,
        layout=layout,
        registers=registers,
        brk=heap_start,
        heap_start=heap_start,
        state=ProcessState.READY,
        guard_map={
            layout.base + addr: klass
            for addr, klass in image.provenance.items()
        },
    )
    stdin = StdStream(readable=True)
    stdout = StdStream()
    stderr = StdStream()
    proc.fds = {0: stdin, 1: stdout, 2: stderr}
    return proc


def alias_slot(
    memory: PagedMemory,
    src: SandboxLayout,
    dst: SandboxLayout,
) -> None:
    """COW-alias every mapped region of slot ``src`` into slot ``dst``.

    The paper's memfd optimization (§5.3): the destination slot sees the
    same physical pages at the same in-slot offsets, and pages are copied
    only when either side first writes.  This is the shared mechanism
    behind fork, warm spawn, and O(dirty pages) checkpointing.
    """
    lo = src.base
    for base, size, _perms in list(memory.mapped_regions(lo, src.end)):
        memory.share_region(base, dst.base + (base - lo), size)


def clone_process(
    memory: PagedMemory,
    template: Process,
    layout: SandboxLayout,
    pid: int,
) -> Process:
    """Snapshot-restore a *template* process into a fresh slot (warm spawn).

    The template is a loaded-but-never-run sandbox; cloning COW-aliases its
    pages into the new slot and rebuilds the loader's initial register
    state at the new base.  Because binaries are linked at sandbox offsets
    and every pointer is rebased by the guards, the clone is
    indistinguishable from a cold :func:`load_image` of the same ELF —
    minus the verification and page-population cost (the paper's "verify
    once, map many" instantiation path).
    """
    src = template.layout
    alias_slot(memory, src, layout)

    def rebase(value: int) -> int:
        return layout.base + (value - src.base)

    registers = {
        "regs": [0] * 31,
        "sp": rebase(template.registers["sp"]),
        "pc": rebase(template.registers["pc"]),
        "nzcv": 0,
        "vregs": [0] * 32,
    }
    registers["regs"][21] = layout.base

    proc = Process(
        pid=pid,
        layout=layout,
        registers=registers,
        brk=rebase(template.brk),
        heap_start=rebase(template.heap_start),
        state=ProcessState.READY,
        guard_map={rebase(addr): klass
                   for addr, klass in template.guard_map.items()},
    )
    proc.fds = {0: StdStream(readable=True), 1: StdStream(), 2: StdStream()}
    return proc
