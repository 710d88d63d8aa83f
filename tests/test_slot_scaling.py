"""A slot costs its own slot.

The paper puts up to 64Ki 4 GiB sandboxes in one address space (§3), so
an operation on one sandbox must not cost more because others are live.
The memory's per-slot runs and stored-page sets and the emulator's
per-slot translation indexes make each operation below read its own slot
only; it then executes exactly as many bytecodes beside 1 000 other live
clones, each with written pages, decodes and translated blocks, as beside
50.  A count, not a clock: it repeats exactly.

The runs are also the only record of what is mapped, so a region costs
its runs, not its pages: mapping, cloning and reclaiming a 16 MiB bss
execute and allocate what a 16 KiB one does, and an idle clone holds a
few KiB of its own.
"""

import gc
import tracemalloc

from repro.checkpoint import CheckpointSession
from repro.memory import PAGE_SIZE, PERM_RW
from repro.runtime import Runtime
from repro.runtime.runtime import ResourceQuota
from repro.runtime.syscalls import rt_mmap
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit

from .conftest import bytecodes

# Stores into its bss and loops, so a clone that ran holds a written
# page, decodes and blocks in its slot (benchmarks/fill_address_space.py
# clones the same program).
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


def allocated(fn, *args):
    """``(bytes still allocated after fn(*args), result)`` by tracemalloc,
    with the collector off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return after - before, result


def region_costs(bss: int) -> dict:
    """Bytecodes and bytes of one ``map_region`` of ``bss`` bytes, one
    ``spawn_clone`` and one ``reclaim_slot`` of a template whose bss is
    ``bss`` bytes more, each op run twice (once counted, once traced)."""
    runtime = Runtime(model=None)
    template = runtime.load_template(compile_lfi(PROGRAM, bss_size=bss).elf)
    ran = runtime.spawn_clone(template)
    assert runtime.run_until_exit(ran) == 7
    costs = {}
    for name, op, args in (
            ("map_region", runtime.memory.map_region,
             lambda: (runtime.allocate_slot().usable_base, bss, PERM_RW)),
            ("spawn_clone", runtime.spawn_clone, lambda: (template,)),
            ("reclaim_slot", runtime.reclaim_slot,
             lambda: (runtime.spawn_clone(template).layout,))):
        costs[name] = (bytecodes(op, *args())[0], allocated(op, *args())[0])
    assert runtime.memory.pages_in_range(template.layout.base,
                                         template.layout.end) \
        > bss // PAGE_SIZE
    return costs


def test_a_region_costs_its_runs_not_its_pages():
    small, large = region_costs(16 * 1024), region_costs(16 * 1024 * 1024)
    assert small == large


def test_an_idle_clone_holds_a_few_kib():
    runtime = Runtime(model=None)
    template = runtime.load_template(compile_lfi(PROGRAM).elf)
    for _ in range(50):  # the tables' first resizes are behind us
        runtime.spawn_clone(template)

    def clones(count):
        return [runtime.spawn_clone(template) for _ in range(count)]

    held, made = allocated(clones, 1000)
    assert len(made) == 1000
    assert held / 1000 <= 4.5 * 1024
