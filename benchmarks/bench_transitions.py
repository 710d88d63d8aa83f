"""Runtime-transition benchmarks: the springboard and the batch ABI.

The PR-9 companion to ``bench_engines.py``.  Where that bench times whole
workloads end-to-end (compile + verify + spawn + run), this one isolates
the *transition* machinery the superblock engine accelerates:

* **transition latency** — a hot loop making one ``GETPID`` runtime call
  per trip.  Every trip crosses sandbox -> runtime -> sandbox, so the
  wall-clock ratio between the stepping interpreter and the superblock
  engine (the springboard, live leaf calls, compiled blocks) is the
  speedup of the crossing itself.
* **batch amortization** — the same requests submitted one ``rtcall`` at
  a time versus a single ``RuntimeCall.BATCH`` buffer: one crossing for
  N requests.  Both the modeled cycles per request and the crossing
  count are deterministic, so this gate is noise-free.
* **Table-4 geomean** — every Table-4 kernel compiled once (LFI O2) and
  then *executed* under both engines; only ``run_until_exit`` is timed,
  matching the paper's methodology of reporting execution overhead.
  The committed gate is a >= 3.2x geomean (the PR-4 snapshot recorded
  2.58x with compile+spawn folded into the timed region).
* **equivalence** — the superblock fast paths must be invisible: final
  state, stdout, cycle totals, exported trace events, and the
  ``GuardProfiler`` attribution must be bit-identical to stepping.

All times are single-threaded host **CPU seconds** (``time.process_time``
with the cyclic GC paused during the timed region): shared-runner
scheduling bursts make wall-clock ratios swing by 1.5x run-to-run, while
the CPU time of this single-threaded emulator measures the same work
stably.  Architectural results (cycles, instructions) must repeat
bit-identically across repeats, which is asserted on every measurement.

Usable as a script producing ``BENCH_PR9.json`` (the CI ``bench-smoke``
job uploads it), as a pytest module (``-m transitions``), and via
``python -m benchmarks.bench_transitions``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import time

import pytest

from repro import EngineConfig
from repro.core import O2
from repro.emulator import APPLE_M1
from repro.obs import GuardProfiler, Tracer
from repro.perf import lfi_variant
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads import WASM_SUBSET
from repro.workloads.rtlib import batch_block, prologue, rt_exit, rtcall
from repro.workloads.spec import arena_bss_size, build_benchmark

ENGINES = ("stepping", "superblock")

LFI = lfi_variant(O2, "LFI O2")


# -- programs -----------------------------------------------------------------


def call_loop(iterations: int) -> str:
    """One ``GETPID`` runtime call per loop trip; exits 0."""
    lo = iterations & 0xFFFF
    hi = (iterations >> 16) & 0xFFFF
    asm = prologue() + f"\tmovz x20, #{lo}\n"
    if hi:
        asm += f"\tmovk x20, #{hi}, lsl #16\n"
    asm += "loop:\n"
    asm += rtcall(RuntimeCall.GETPID)
    asm += "\tsub x20, x20, #1\n"
    asm += "\tcbnz x20, loop\n"
    asm += "\tmov x0, #0\n"
    return asm + rt_exit()


def individual_calls(count: int) -> str:
    """``count`` runtime calls submitted one crossing at a time."""
    return call_loop(count)


def batched_calls(count: int) -> str:
    """``count`` requests submitted through one ``BATCH`` crossing."""
    asm = prologue()
    asm += "\tadrp x19, arena\n\tadd x19, x19, :lo12:arena\n"
    asm += batch_block([(RuntimeCall.GETPID, [])] * count)
    asm += "\tmov x0, #0\n" + rt_exit()
    asm += ".bss\n.balign 64\narena:\n"
    asm += f"\t.skip {count * 64}\n"
    return asm


# -- measurement --------------------------------------------------------------


def _exec_run(elf, engine: str, repeat: int = 1, expect_exit: int = 0):
    """Best exec-only CPU seconds over ``repeat`` runs, plus counters.

    Compilation, verification, and spawning are engine-independent and
    excluded from the timed region: only ``run_until_exit`` is measured.
    Architectural results must repeat bit-identically.
    """
    best = math.inf
    seen = None
    counters = {}
    for _ in range(repeat):
        runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=engine))
        proc = runtime.spawn(elf, verify=LFI.verify, policy=LFI.policy)
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            code = runtime.run_until_exit(proc)
            best = min(best, time.process_time() - t0)
        finally:
            gc.enable()
        assert code == expect_exit, f"exited {code}, wanted {expect_exit}"
        machine = runtime.machine
        arch = (machine.instret, machine.cycles)
        assert seen is None or seen == arch, "non-deterministic run"
        seen = arch
        stats = machine.engine_stats()
        counters = {
            "instructions": machine.instret,
            "cycles": machine.cycles,
            "calls": runtime.calls,
            "calls_inline": runtime.calls_inline,
            "loop_trips": stats["loop_trips"],
            "compiled_blocks": stats["compiled_blocks"],
        }
    counters["cpu_s"] = round(best, 6)
    return counters


def measure_transition_latency(iterations: int = 20_000, repeat: int = 5):
    """CPU seconds for the runtime-call hot loop under both engines."""
    elf = compile_lfi(call_loop(iterations), options=O2).elf
    rows = {e: _exec_run(elf, e, repeat=repeat) for e in ENGINES}
    for key in ("instructions", "cycles"):
        assert rows["stepping"][key] == rows["superblock"][key], \
            f"engines disagree on {key}"
    # ``calls_inline`` counts crossings: the calls that returned into the
    # live registers, with no save, switch or restore (every GETPID here;
    # stepping, whose calls all trap, has none).
    assert rows["stepping"]["calls_inline"] == 0
    assert rows["superblock"]["calls_inline"] >= 0.99 * iterations, \
        "leaf calls stopped resuming without a switch"
    return {
        "iterations": iterations,
        "stepping_cpu_s": rows["stepping"]["cpu_s"],
        "superblock_cpu_s": rows["superblock"]["cpu_s"],
        "speedup": rows["stepping"]["cpu_s"] / rows["superblock"]["cpu_s"],
        "cycles_per_call": rows["superblock"]["cycles"] / iterations,
        "calls": rows["superblock"]["calls"],
        "calls_inline": rows["superblock"]["calls_inline"],
        "loop_trips": rows["superblock"]["loop_trips"],
        "compiled_blocks": rows["superblock"]["compiled_blocks"],
    }


def measure_batch_amortization(count: int = 64, repeat: int = 3):
    """One crossing for N requests vs N crossings for N requests.

    Cycles and crossing counts are emulated, hence deterministic: this
    section's gate never depends on host wall-clock noise.
    """
    single = compile_lfi(individual_calls(count), options=O2).elf
    batch = compile_lfi(batched_calls(count), options=O2).elf
    rows = {
        "individual": _exec_run(single, "superblock", repeat=repeat),
        "batched": _exec_run(batch, "superblock", repeat=repeat),
    }
    # +1 crossing each for the final EXIT call.
    crossings = {"individual": count + 1, "batched": 2}
    out = {}
    for kind, row in rows.items():
        out[kind] = {
            "cpu_s": row["cpu_s"],
            "cycles_per_request": row["cycles"] / count,
            "instructions_per_request": row["instructions"] / count,
            "crossings": crossings[kind],
        }
    out["cycles_amortization"] = (
        out["individual"]["cycles_per_request"]
        / out["batched"]["cycles_per_request"])
    out["crossing_amortization"] = (count + 1) / 2
    return out


def measure_table4(names=None, target: int = 60_000, repeat: int = 3):
    """Exec-only stepping/superblock ratio for every Table-4 kernel."""
    names = sorted(names or WASM_SUBSET)
    workloads = {}
    for name in names:
        asm = build_benchmark(name, target_instructions=target)
        elf = LFI.compile(asm, arena_bss_size(name))
        rows = {e: _exec_run(elf, e, repeat=repeat) for e in ENGINES}
        for key in ("instructions", "cycles"):
            assert rows["stepping"][key] == rows["superblock"][key], \
                f"{name}: engines disagree on {key}"
        workloads[name] = {
            "stepping_cpu_s": rows["stepping"]["cpu_s"],
            "superblock_cpu_s": rows["superblock"]["cpu_s"],
            "speedup": (rows["stepping"]["cpu_s"]
                        / rows["superblock"]["cpu_s"]),
            "instructions": rows["stepping"]["instructions"],
            "cycles": rows["stepping"]["cycles"],
            "compiled_blocks": rows["superblock"]["compiled_blocks"],
        }
    speedups = [w["speedup"] for w in workloads.values()]
    return {
        "target_instructions": target,
        "workloads": workloads,
        "geomean_speedup": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)),
    }


def check_equivalence(iterations: int = 400):
    """Trace + profiler + state parity between the engines.

    Runs the runtime-call loop four times: once per engine with a
    recording :class:`Tracer` attached, once per engine with a
    :class:`GuardProfiler` attached.  Every observable must match
    bit-for-bit (trace timestamps are emulated cycles).
    """
    elf = compile_lfi(call_loop(iterations), options=O2).elf

    def traced(engine):
        runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=engine))
        tracer = Tracer(record=True).attach(runtime)
        proc = runtime.spawn(elf, verify=LFI.verify, policy=LFI.policy)
        code = runtime.run_until_exit(proc)
        tracer.detach()
        return {
            "exit": code,
            "stdout": runtime.stdout_of(proc),
            "cycles": runtime.machine.cycles,
            "instructions": runtime.machine.instret,
            "regs": runtime.machine.cpu.snapshot(),
            "events": tracer.events,
        }

    def profiled(engine):
        runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=engine))
        profiler = GuardProfiler().attach(runtime)
        proc = runtime.spawn(elf, verify=LFI.verify, policy=LFI.policy)
        runtime.run_until_exit(proc)
        profiler.detach()
        return profiler.breakdown()

    traces = {e: traced(e) for e in ENGINES}
    assert traces["stepping"] == traces["superblock"], \
        "trace/state parity broken"
    breakdowns = {e: profiled(e) for e in ENGINES}
    assert breakdowns["stepping"] == breakdowns["superblock"], \
        "profiler attribution parity broken"
    return {
        "trace_events": len(traces["superblock"]["events"]),
        "trace_identical": True,
        "profiler_buckets": sorted(breakdowns["superblock"]),
        "profiler_identical": True,
    }


def measure_transitions(target: int = 60_000, repeat: int = 3,
                        iterations: int = 20_000):
    report = {
        "model": APPLE_M1.name,
        "transition": measure_transition_latency(iterations=iterations,
                                                 repeat=repeat + 2),
        "batch": measure_batch_amortization(repeat=repeat),
        "table4": measure_table4(target=target, repeat=repeat),
        "equivalence": check_equivalence(),
    }
    return report


# -- pytest entry points ------------------------------------------------------


@pytest.mark.transitions
def test_transition_latency_speedup():
    row = measure_transition_latency(iterations=4_000, repeat=2)
    assert row["speedup"] > 1.5


@pytest.mark.transitions
def test_batch_amortizes_crossings():
    row = measure_batch_amortization(repeat=1)
    assert row["crossing_amortization"] > 30
    assert row["cycles_amortization"] > 1.0


@pytest.mark.transitions
def test_trace_and_profiler_parity():
    result = check_equivalence(iterations=200)
    assert result["trace_identical"] and result["profiler_identical"]


@pytest.mark.transitions
def test_table4_exec_speedup():
    report = measure_table4(target=20_000, repeat=1)
    assert report["geomean_speedup"] > 1.5


# -- script entry point -------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="runtime-transition benchmarks (springboard/batch)")
    parser.add_argument("--target", type=int, default=60_000,
                        help="dynamic instructions per Table-4 run")
    parser.add_argument("--iterations", type=int, default=20_000,
                        help="runtime calls in the latency loop")
    parser.add_argument("--repeat", type=int, default=3,
                        help="wall-clock repeats (best is kept)")
    parser.add_argument("-o", "--out", default="BENCH_PR9.json")
    parser.add_argument("--min-transition-speedup", type=float, default=3.0,
                        help="fail unless the call-loop ratio beats this")
    parser.add_argument("--min-geomean", type=float, default=3.2,
                        help="fail unless the Table-4 geomean beats this")
    args = parser.parse_args(argv)
    report = measure_transitions(target=args.target, repeat=args.repeat,
                                 iterations=args.iterations)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    t = report["transition"]
    print(f"transition latency   {t['stepping_cpu_s']:>8.3f}s -> "
          f"{t['superblock_cpu_s']:>7.3f}s  {t['speedup']:>5.2f}x  "
          f"({t['calls_inline']}/{t['calls']} calls without a switch, "
          f"{t['compiled_blocks']} compiled blocks)")
    b = report["batch"]
    print(f"batch amortization   {b['individual']['cycles_per_request']:>8.1f}"
          f" -> {b['batched']['cycles_per_request']:>7.1f} cycles/req  "
          f"{b['cycles_amortization']:>5.2f}x  "
          f"({b['crossing_amortization']:.1f}x fewer crossings)")
    print(f"{'workload':<16} {'stepping':>9} {'superblock':>10} {'speedup':>8}")
    for name, row in sorted(report["table4"]["workloads"].items()):
        print(f"{name:<16} {row['stepping_cpu_s']:>8.3f}s "
              f"{row['superblock_cpu_s']:>9.3f}s {row['speedup']:>7.2f}x")
    geomean = report["table4"]["geomean_speedup"]
    print(f"{'geomean':<16} {'':>9} {'':>10} {geomean:>7.2f}x")
    eq = report["equivalence"]
    print(f"equivalence          {eq['trace_events']} trace events and "
          f"{len(eq['profiler_buckets'])} profiler buckets bit-identical")

    failed = False
    if t["speedup"] < args.min_transition_speedup:
        print(f"FAILED: transition speedup {t['speedup']:.2f}x "
              f"< {args.min_transition_speedup}x")
        failed = True
    if geomean < args.min_geomean:
        print(f"FAILED: Table-4 geomean {geomean:.2f}x < {args.min_geomean}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
