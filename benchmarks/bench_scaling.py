"""Sandbox-count scaling: the paper's headline scalability claim (§1/§3).

LFI supports ~65,000 sandboxes in a 48-bit address space because slots are
4GiB-aligned and adjacent, page tables are never switched, and the
per-sandbox state is tiny (one table page + the loaded image).  These
benches exercise the mechanism at a scale the emulator can run — hundreds
of live sandboxes in one address space — and check the properties the
limit rests on:

* slot addresses cover the full 48-bit range (the 65,536th slot is
  addressable);
* spawn cost and per-sandbox memory stay flat as the count grows
  (sparse paging);
* round-robin execution across hundreds of sandboxes preserves isolation.
"""

import pytest

from repro.memory import MAX_SANDBOXES_48BIT, SANDBOX_SIZE, SandboxLayout
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit


def tiny_program(value: int) -> str:
    return prologue() + f"    movz x0, #{value & 0xFFFF}\n" + rt_exit()


def test_address_space_math():
    """§3: 64Ki sandboxes in 48 bits, 128Ki with the kernel's half."""
    assert MAX_SANDBOXES_48BIT == 1 << 16
    last = SandboxLayout.for_slot(MAX_SANDBOXES_48BIT - 1)
    assert last.end == 1 << 48
    assert last.base % SANDBOX_SIZE == 0


def test_hundreds_of_sandboxes_run_isolated():
    runtime = Runtime(timeslice=500)
    count = 200
    elf = compile_lfi(tiny_program(0)).elf  # shared image, distinct slots
    procs = []
    for i in range(count):
        proc = runtime.spawn(compile_lfi(tiny_program(i % 251)).elf)
        procs.append(proc)
    runtime.run()
    assert [p.exit_code for p in procs] == [i % 251 for i in range(count)]
    bases = {p.layout.base for p in procs}
    assert len(bases) == count


def test_memory_stays_sparse():
    """Mapping N sandboxes materializes only the pages actually used."""
    runtime = Runtime()
    before = runtime.memory.pages_in_range()
    for i in range(64):
        runtime.spawn(compile_lfi(tiny_program(i)).elf)
    pages_per_sandbox = (runtime.memory.pages_in_range() - before) / 64
    # A 4GiB slot is 262,144 pages; we materialize well under 100.
    assert pages_per_sandbox < 100


def test_spawn_cost_flat():
    """The Nth spawn costs the same as the 1st (no global rescans)."""
    import time

    runtime = Runtime()
    elf_src = tiny_program(1)

    def spawn_batch(n):
        start = time.perf_counter()
        for _ in range(n):
            runtime.spawn(compile_lfi(elf_src).elf)
        return (time.perf_counter() - start) / n

    first = spawn_batch(20)
    runtime2 = Runtime()
    for _ in range(200):
        runtime2.spawn(compile_lfi(elf_src).elf)
    # Now spawn more into the already-populated runtime.
    start_slot = runtime2._next_slot
    import time as _t

    t0 = _t.perf_counter()
    for _ in range(20):
        runtime2.spawn(compile_lfi(elf_src).elf)
    late = (_t.perf_counter() - t0) / 20
    assert runtime2._next_slot == start_slot + 20
    assert late < first * 5  # flat-ish, not superlinear


def test_spawn_throughput_benchmark(benchmark):
    """pytest-benchmark: verified spawn into a fresh slot."""
    runtime = Runtime()
    elf = compile_lfi(tiny_program(3)).elf

    def spawn():
        return runtime.spawn(elf)

    proc = benchmark(spawn)
    assert proc.layout.base % SANDBOX_SIZE == 0


def test_context_switch_benchmark(benchmark):
    """pytest-benchmark: a full save/restore context switch."""
    runtime = Runtime()
    a = runtime.spawn(compile_lfi(tiny_program(1)).elf)
    b = runtime.spawn(compile_lfi(tiny_program(2)).elf)

    cpu = runtime.machine.cpu

    def switch():
        runtime._switch_to(a)
        a.registers = cpu.snapshot()
        runtime._switch_to(b)
        b.registers = cpu.snapshot()

    benchmark(switch)


# ---------------------------------------------------------------------------
# Cluster scale-out CLI (DESIGN.md §11) — `python benchmarks/bench_scaling.py`
#
# CI machines expose a single CPU, so wall-clock cannot demonstrate
# multi-worker speedup honestly.  The gated figure is therefore the
# *virtual-time makespan*: each worker's emulated-cycle total is exact and
# deterministic (model=None ties cycles to instret), and the batch's
# makespan is the largest per-worker total.  Wall clock is recorded
# alongside for reference, never gated.

NOMINAL_HZ = 3.2e9  # nominal clock used to express cycles as seconds


def _cluster_point(workers, jobs, target, distinct):
    import time
    from collections import defaultdict

    from repro.cluster import Cluster
    from repro.elf.format import write_elf
    from repro.workloads.rtlib import busy_program

    programs = [
        write_elf(compile_lfi(busy_program(v % 256, target)).elf)
        for v in range(distinct)
    ]
    t0 = time.perf_counter()
    with Cluster(workers=workers) as cluster:
        for i in range(jobs):
            cluster.submit(programs[i % distinct])
        results = cluster.drain()
        fleet = cluster.fleet_report()
    wall_s = time.perf_counter() - t0
    per_worker = defaultdict(int)
    for r in results:
        per_worker[r.diag["worker"]] += int(r.diag["cycles"])
    makespan = max(per_worker.values())
    return {
        "workers": workers,
        "jobs": jobs,
        "total_cycles": sum(per_worker.values()),
        "makespan_cycles": makespan,
        "virtual_seconds": makespan / NOMINAL_HZ,
        "throughput_jobs_per_vsec": jobs / (makespan / NOMINAL_HZ),
        "wall_seconds": round(wall_s, 4),
        "warm_hits": fleet["warm_hits"],
        "restarts": fleet["restarts"],
    }


def _warm_spawn_point(repeats, target):
    """Cold parse+verify+load vs. warm snapshot-restore, per spawn."""
    import time

    from repro.cluster import WarmPool
    from repro.elf.format import write_elf
    from repro.workloads.rtlib import busy_program

    data = write_elf(compile_lfi(busy_program(1, target)).elf)

    cold_rt = Runtime()
    t0 = time.perf_counter()
    for _ in range(repeats):
        cold_rt.spawn(data)
    cold_us = (time.perf_counter() - t0) / repeats * 1e6

    warm_rt = Runtime()
    pool = WarmPool(warm_rt)
    pool.spawn(data)  # builds the template (the one cold-cost spawn)
    t0 = time.perf_counter()
    for _ in range(repeats):
        pool.spawn(data)
    warm_us = (time.perf_counter() - t0) / repeats * 1e6

    return {
        "repeats": repeats,
        "cold_spawn_us": round(cold_us, 2),
        "warm_spawn_us": round(warm_us, 2),
        "speedup": round(cold_us / warm_us, 2),
    }


def main(argv=None):
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Cluster scale-out benchmark (virtual-time gated)")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts")
    parser.add_argument("--jobs", type=int, default=16)
    parser.add_argument("--target", type=int, default=20_000,
                        help="instructions per job")
    parser.add_argument("--distinct", type=int, default=4,
                        help="distinct images in the batch")
    parser.add_argument("--spawn-repeats", type=int, default=50)
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="min virtual-time speedup at max workers vs 1")
    parser.add_argument("--min-warm-speedup", type=float, default=3.0,
                        help="min warm-vs-cold spawn speedup")
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)

    counts = sorted({int(w) for w in args.workers.split(",")})
    series = [_cluster_point(w, args.jobs, args.target, args.distinct)
              for w in counts]
    warm = _warm_spawn_point(args.spawn_repeats, args.target)

    base = series[0]["makespan_cycles"]
    for point in series:
        point["speedup_vs_1"] = round(base / point["makespan_cycles"], 2)
        print(f"workers={point['workers']:2d}  "
              f"makespan={point['makespan_cycles']:>12,} cycles  "
              f"speedup={point['speedup_vs_1']:.2f}x  "
              f"wall={point['wall_seconds']:.2f}s  "
              f"warm_hits={point['warm_hits']}")
    print(f"spawn: cold={warm['cold_spawn_us']:.0f}us  "
          f"warm={warm['warm_spawn_us']:.0f}us  "
          f"speedup={warm['speedup']:.1f}x")

    report = {
        "bench": "cluster-scaling",
        "nominal_hz": NOMINAL_HZ,
        "series": series,
        "warm_spawn": warm,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    ok = True
    scale = series[-1]["speedup_vs_1"]
    if counts[0] == 1 and len(counts) > 1 and scale < args.min_speedup:
        print(f"FAIL: {counts[-1]}-worker speedup {scale:.2f}x "
              f"< {args.min_speedup}x", file=sys.stderr)
        ok = False
    if warm["speedup"] < args.min_warm_speedup:
        print(f"FAIL: warm-spawn speedup {warm['speedup']:.2f}x "
              f"< {args.min_warm_speedup}x", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
