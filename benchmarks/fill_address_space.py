"""Fill the 48-bit address space: one template cloned into every
allocatable 4 GiB slot, all live and idle, then each run to exit and its
slot reclaimed (the paper's 64Ki sandboxes, §1 and §3).

    python3 benchmarks/fill_address_space.py
    python3 benchmarks/fill_address_space.py --clones 10000

Prints the clones made, the host memory each idle clone holds
(tracemalloc, over the cloning phase), the bytecodes of clone #100 and of
clone #65 000 (or the last, if fewer), the time of each phase and the
process's peak RSS (``resource.getrusage``: ``ru_maxrss``).  Exits
1 unless every clone exits with the template's code, the two clones
executed the same bytecodes, an idle clone held at most 4.5 KiB, and the
whole run took at most 10 minutes.  10 000 clones take 4-8 s and a
peak RSS of ~107 MiB, much of it tracemalloc's, on a 2-vCPU x86 VM; time
and memory grow linearly with the clones.
"""

import argparse
import gc
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT / "src")]

from repro.errors import RuntimeError_  # noqa: E402
from repro.runtime import Runtime  # noqa: E402
from repro.toolchain import compile_lfi  # noqa: E402
from repro.workloads.rtlib import prologue, rt_exit  # noqa: E402

EXIT_CODE = 7
WATCHED = (100, 65_000)
BUDGET_S = 600.0
#: Host memory an idle clone may hold: its slot's permission runs, its
#: process record and streams; pages and the guard map are the template's.
PER_CLONE_KIB = 4.5

# Writes a page of its bss and loops, so each clone that runs leaves a
# copied page, decodes and translated blocks in its slot until reclaimed.
PROGRAM = prologue() + f"""
    adrp x19, arena
    add x19, x19, :lo12:arena
    mov x3, #40
loop:
    str x3, [x19, #8]
    sub x3, x3, #1
    cbnz x3, loop
    mov x0, #{EXIT_CODE}
""" + rt_exit() + """
.bss
.balign 64
arena:
    .skip 64
"""


def spawn_counted(runtime, template):
    """``(bytecodes executed, clone)`` of one ``spawn_clone``, with the
    collector off (its finalizers belong to earlier work)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        elif event == "opcode":
            count += 1
        return trace

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        proc = runtime.spawn_clone(template)
    finally:
        sys.settrace(None)
        gc.enable()
    return count, proc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clones", type=int, default=None,
                        help="stop after this many clones (default: every "
                             "allocatable slot)")
    args = parser.parse_args()
    t0 = time.perf_counter()
    runtime = Runtime(model=None)
    template = runtime.load_template(compile_lfi(PROGRAM).elf)
    limit = args.clones if args.clones is not None else 1 << 16
    watched = {n: None for n in WATCHED}

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    clones = []
    while len(clones) < limit:
        number = len(clones) + 1
        try:
            if number in watched:
                watched[number], proc = spawn_counted(runtime, template)
            else:
                proc = runtime.spawn_clone(template)
        except RuntimeError_:  # out of sandbox slots
            break
        clones.append(proc)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    if watched[WATCHED[1]] is None:
        watched[WATCHED[1]], proc = spawn_counted(runtime, template)
        clones.append(proc)
    t1 = time.perf_counter()
    per_clone = held / len(clones) / 1024
    print(f"{len(clones)} clones, {per_clone:.2f} KiB per idle clone, in "
          f"{t1 - t0:.1f} s", flush=True)

    # In spawn order, which is the run queue's: each clone runs alone.
    codes = set()
    for proc in clones:
        codes.add(runtime.run_until_exit(proc))
        runtime.reclaim(proc)
        runtime.reap(proc)
    t3 = time.perf_counter()
    left = runtime.memory.pages_in_range()
    print(f"ran each clone to exit and reclaimed its slot in {t3 - t1:.1f} "
          f"s: exit codes {codes}; {left} pages left mapped (the "
          f"template's)", flush=True)

    counts = [watched[n] for n in WATCHED]
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mib = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    print(f"spawn_clone bytecodes: clone #{WATCHED[0]} {counts[0]}, "
          f"clone #{WATCHED[1]} (or the last) {counts[1]}; total "
          f"{t3 - t0:.1f} s; peak RSS {peak_mib:.1f} MiB")
    failures = []
    if codes != {EXIT_CODE}:
        failures.append(f"exit codes {codes}, not {{{EXIT_CODE}}}")
    if counts[0] != counts[1]:
        failures.append("a late clone executed more than an early one")
    if per_clone > PER_CLONE_KIB:
        failures.append(f"an idle clone held {per_clone:.2f} KiB > "
                        f"{PER_CLONE_KIB} KiB")
    if t3 - t0 > BUDGET_S:
        failures.append(f"took {t3 - t0:.0f} s > {BUDGET_S:.0f} s")
    for failure in failures:
        print(f"fill_address_space: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
