"""A slot costs its own slot.

The paper puts up to 64Ki 4 GiB sandboxes in one address space (§3), so
an operation on one sandbox must not cost more because others are live.
The memory's per-slot runs and stored-page sets and the emulator's
per-slot translation indexes make each operation below read its own slot
only; it then executes exactly as many bytecodes beside 1 000 other live
clones, each with written pages, decodes and translated blocks, as beside
50.  A count, not a clock: it repeats exactly.
"""

from repro.checkpoint import CheckpointSession
from repro.memory import PAGE_SIZE
from repro.runtime import Runtime
from repro.runtime.runtime import ResourceQuota
from repro.runtime.syscalls import rt_mmap
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit

from .conftest import bytecodes

# Stores into its bss and loops, so a clone that ran holds a written
# page, decodes and blocks in its slot.
PROGRAM = prologue() + """
    adrp x19, arena
    add x19, x19, :lo12:arena
    mov x3, #40
loop:
    str x3, [x19, #8]
    sub x3, x3, #1
    cbnz x3, loop
    mov x0, #7
""" + rt_exit() + """
.bss
.balign 64
arena:
    .skip 64
"""


def one_of_each(runtime, template) -> dict:
    """Bytecodes of one clone, one reclaim of a clone that ran, one
    ``mmap`` under a page quota and one incremental capture."""
    counts = {}
    ran = runtime.spawn_clone(template)
    assert runtime.run_until_exit(ran) == 7
    counts["reclaim"], _ = bytecodes(runtime.reclaim, ran)
    counts["spawn_clone"], proc = bytecodes(runtime.spawn_clone, template)
    runtime.set_quota(proc, ResourceQuota(max_mapped_pages=256))
    counts["quota_mmap"], base = bytecodes(
        rt_mmap, runtime, proc, [0, 2 * PAGE_SIZE, 0, 0, 0, 0])
    assert proc.layout.base <= base < proc.layout.end
    session = CheckpointSession(runtime, proc)
    session.capture()
    counts["capture"], ckpt = bytecodes(session.capture)
    assert ckpt.dirty_pages == 0
    # The measured clone joins the others: run to exit, still mapped.
    assert runtime.run_until_exit(proc) == 7
    return counts


def test_cost_does_not_grow_with_live_clones():
    runtime = Runtime(model=None)
    template = runtime.load_template(compile_lfi(PROGRAM).elf)
    seen = []
    for others in (50, 1000):
        while len(runtime.processes) < others:
            proc = runtime.spawn_clone(template)
            assert runtime.run_until_exit(proc) == 7
        seen.append(one_of_each(runtime, template))
    assert seen[0] == seen[1]
    assert len({proc.layout.base for proc in runtime.processes.values()}) \
        == len(runtime.processes) > 1000
