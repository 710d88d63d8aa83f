"""Layer probes: each layer's public functions timed from outside.

The probe group runs once per traced run, after the traced passes, on
fixed inputs that depend on neither the workload nor the seed - so a
layer's row reads the same whichever workload's traced run produced it,
and a change in one layer moves that layer's row and no other.  A host
timing is the best of a few repeats (this box slows by up to 40% for
seconds at a time; the fastest repeat is the undisturbed one).  Counts
and simulated statistics are deterministic and must repeat exactly.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from typing import Callable, Dict

from repro import EngineConfig
from repro.arm64.assembler import assemble
from repro.arm64.parser import parse_assembly
from repro.checkpoint import Checkpoint, CheckpointSession, restore_job
from repro.cluster import Cluster, ImageCache, WarmPool, execute_job
from repro.core import O2, rewrite_program, verify_elf
from repro.elf import read_elf, write_elf
from repro.emulator import APPLE_M1
from repro.memory import PERM_RW, PagedMemory
from repro.obs import GuardProfiler, MetricsHub, Tracer
from repro.runtime import Runtime
from repro.serve import Gateway, TenantPolicy
from repro.serve.loadgen import build_arrivals, build_images
from repro.toolchain import compile_lfi, compile_native
from repro.workloads import WASM_SUBSET
from repro.workloads.spec import arena_bss_size, build_benchmark

from .spans import SpanRecorder
from .workloads import call_heavy, cluster_drain, exec_steady, \
    serve_overload, toolchain
from .workloads.base import geomean
from .workloads.guest import PROGRAMS, nop_call

__all__ = ["run_probes"]

MIB = 1 << 20
#: Input sizes, full and smoke.  ``calls`` are loop trips of the four call
#: programs (real and ``nop`` body); the rest are dynamic instructions.
SIZES = {
    "full": {"kernel": 30_000, "checkpoint": 60_000, "obs": 60_000,
             "calls": {"getpid": 5_000, "pipe": 500, "yield": 1_500,
                       "batch": 150}},
    "smoke": {"kernel": 5_000, "checkpoint": 20_000, "obs": 10_000,
              "calls": {"getpid": 500, "pipe": 50, "yield": 150,
                        "batch": 15}},
}


def best_of(repeats: int, fn: Callable, *args):
    """(fewest seconds over ``repeats`` calls, the last call's result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def probe_toolchain(out: Dict[str, float], scale: str) -> None:
    source = toolchain.generate_sources(0, 1, toolchain.FRAGMENTS[scale])[0]
    lines = source.count("\n")
    parse_s, _ = best_of(3, parse_assembly, source)
    rewrite_s = assemble_s = float("inf")
    for _ in range(3):
        # The rewriter may edit the program it is given: parse afresh.
        program = parse_assembly(source)
        t0 = time.perf_counter()
        rewritten = rewrite_program(program, O2)
        t1 = time.perf_counter()
        image = assemble(rewritten.program)
        t2 = time.perf_counter()
        rewrite_s = min(rewrite_s, t1 - t0)
        assemble_s = min(assemble_s, t2 - t1)
    instructions = len(image.text.data) // 4
    lfi = compile_lfi(source, options=O2)
    native = compile_native(source)
    accept_s, accepted = best_of(3, verify_elf, lfi.elf)
    reject_s, rejected = best_of(3, verify_elf, native.elf)
    if not accepted.ok or rejected.ok:
        raise RuntimeError("probe program: LFI build must verify, native "
                           "build must not")
    out["arm64.parse_klines_per_s"] = lines / parse_s / 1e3
    out["core.rewrite_kinstr_per_s"] = instructions / rewrite_s / 1e3
    out["arm64.assemble_kinstr_per_s"] = instructions / assemble_s / 1e3
    out["core.rewrite_guards"] = sum(
        rewritten.stats.guard_class_counts().values())
    out["core.text_growth_pct"] = 100.0 * (lfi.text_size - native.text_size) \
        / native.text_size
    out["core.verify_accept_mb_per_s"] = lfi.text_size / accept_s / 1e6
    out["core.verify_reject_mb_per_s"] = native.text_size / reject_s / 1e6


def probe_kernels(out: Dict[str, float], scale: str) -> None:
    """Everything measured on the seven 300-byte Table-4 images."""
    names = sorted(WASM_SUBSET)
    target = SIZES[scale]["kernel"]
    build_s, _ = best_of(2, lambda: [
        build_benchmark(n, target_instructions=target) for n in names])
    out["workloads.build_ms"] = build_s * 1e3
    images = exec_steady.build_images(target)
    lfi = [(key, v, elf) for key, v, elf in images if v.verify]
    n = len(lfi)

    out["core.verify_small_us"] = sum(
        best_of(3, verify_elf, elf, v.policy)[0] for _k, v, elf in lfi) \
        / n * 1e6
    out["elf.write_us"] = sum(
        best_of(3, write_elf, elf)[0] for _k, _v, elf in lfi) / n * 1e6
    blobs = [write_elf(elf) for _k, _v, elf in lfi]
    out["elf.read_us"] = sum(
        best_of(3, read_elf, blob)[0] for blob in blobs) / n * 1e6

    # Start-path stages, per kernel image.  The timeslice is the 2000
    # instructions ``first_2k_instr_ms`` runs, since ``run_bounded`` stops
    # between slices only.
    spawn = template = clone = reclaim = first = 0.0
    for _key, _v, elf in lfi:
        runtime = Runtime(model=None, timeslice=2000)
        s, proc = best_of(2, runtime.spawn, elf, False)
        spawn += s
        t, tmpl = best_of(2, runtime.load_template, elf, False)
        template += t
        c, cloned = best_of(3, runtime.spawn_clone, tmpl)
        clone += c
        t0 = time.perf_counter()
        runtime.run_bounded(cloned, 1999)
        first += time.perf_counter() - t0
        t0 = time.perf_counter()
        runtime.reclaim(proc)
        reclaim += time.perf_counter() - t0
    out["runtime.spawn_cold_ms"] = spawn / n * 1e3
    out["runtime.load_template_ms"] = template / n * 1e3
    out["runtime.spawn_clone_ms"] = clone / n * 1e3
    out["runtime.reclaim_ms"] = reclaim / n * 1e3
    out["emulator.first_2k_instr_ms"] = first / n * 1e3

    machines = {}

    def run_all(model, engine, subset, repeats):
        """Minstr/s over ``subset``: instructions by summed best seconds."""
        seconds = 0.0
        instructions = 0
        for key, v, elf in subset:
            best = float("inf")
            for _ in range(repeats):
                runtime = Runtime(model=model, engine=engine)
                proc = runtime.spawn(elf, verify=False)
                t0 = time.perf_counter()
                code = runtime.run_until_exit(proc)
                best = min(best, time.perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"probe kernel {key} exited {code}")
            seconds += best
            if model is not None and engine is None:
                machines[key] = runtime.machine
            instructions += runtime.machine.instret
        return instructions / seconds / 1e6

    out["emulator.superblock_costed_minstr_per_s"] = run_all(
        APPLE_M1, None, lfi, 2)
    out["emulator.superblock_fast_minstr_per_s"] = run_all(
        None, None, lfi, 2)
    out["emulator.stepping_minstr_per_s"] = run_all(
        APPLE_M1, EngineConfig(kind="stepping"), lfi, 1)
    blocks = [getattr(getattr(machines[k], "_sb", None),
                      "compiled_blocks", None) for k, _v, _e in lfi]
    # -1: the engine exposes no such counter.
    out["emulator.compiled_blocks"] = (
        -1 if None in blocks else sum(blocks))
    out["emulator.sim_cpi"] = geomean(
        machines[k].cycles / machines[k].instret for k, _v, _e in lfi)
    out["emulator.sim_tlb_miss_rate"] = \
        machines["505.mcf/lfi-O2"].tlb.miss_rate


def probe_memory(out: Dict[str, float], scale: str) -> None:
    size = 16 * MIB
    src, dst = 1 << 32, 2 << 32
    map_s = share_s = unmap_s = float("inf")
    for _ in range(3):
        memory = PagedMemory()
        t0 = time.perf_counter()
        memory.map_region(src, size, PERM_RW)
        t1 = time.perf_counter()
        memory.share_region(src, dst, size)
        t2 = time.perf_counter()
        memory.unmap(dst, size)
        t3 = time.perf_counter()
        map_s = min(map_s, t1 - t0)
        share_s = min(share_s, t2 - t1)
        unmap_s = min(unmap_s, t3 - t2)
    out["memory.map_16mib_ms"] = map_s * 1e3
    out["memory.share_16mib_ms"] = share_s * 1e3
    out["memory.unmap_16mib_ms"] = unmap_s * 1e3


def probe_calls(out: Dict[str, float], scale: str) -> None:
    """Host and simulated cost per crossing: the loop minus its nop twin."""
    host_us = {}
    sim_cycles = {}
    for name, count in SIZES[scale]["calls"].items():
        real = call_heavy.compile_program(name, count)
        twin = call_heavy.compile_program(name, count, nop_call)
        real_s, (seen, _rt) = best_of(3, call_heavy.run_program, real)
        twin_s, (base, _rt) = best_of(3, call_heavy.run_program, twin)
        ops = count * PROGRAMS[name][1]
        host_us[name] = (real_s - twin_s) / ops * 1e6
        sim_cycles[name] = (seen[3] - base[3]) / ops
    out["runtime.call_roundtrip_us"] = host_us["getpid"]
    out["runtime.pipe_pass_us"] = host_us["pipe"]
    out["runtime.yield_us"] = host_us["yield"]
    out["runtime.batch_record_us"] = host_us["batch"]
    out["runtime.sim_cycles_per_call"] = sim_cycles["getpid"]
    out["runtime.sim_cycles_per_batch_record"] = sim_cycles["batch"]


def probe_checkpoint(out: Dict[str, float], scale: str) -> None:
    """505.mcf (16 MiB bss) captured half-way, shipped and restored."""
    target = SIZES[scale]["checkpoint"]
    asm = build_benchmark("505.mcf", target_instructions=target)
    elf = compile_lfi(asm, options=O2,
                      bss_size=arena_bss_size("505.mcf")).elf
    runtime = Runtime(model=None, timeslice=5_000)
    proc = runtime.spawn(elf)
    runtime.run_bounded(proc, target // 2)
    session = CheckpointSession(runtime, proc)
    t0 = time.perf_counter()
    full = session.capture()
    full_s = time.perf_counter() - t0
    runtime.run_bounded(proc, 5_000)
    t0 = time.perf_counter()
    incremental = session.capture()
    incr_s = time.perf_counter() - t0
    to_s, blob = best_of(2, full.to_bytes)
    from_s, restored = best_of(2, Checkpoint.from_bytes, blob)
    t0 = time.perf_counter()
    resumed = restore_job(Runtime(model=None, timeslice=5_000), restored)
    restore_s = time.perf_counter() - t0
    if resumed.pid != proc.pid:
        raise RuntimeError("restore_job did not preserve the root pid")
    out["checkpoint.full_capture_ms"] = full_s * 1e3
    out["checkpoint.incr_capture_ms"] = incr_s * 1e3
    out["checkpoint.to_bytes_ms"] = to_s * 1e3
    out["checkpoint.from_bytes_ms"] = from_s * 1e3
    out["checkpoint.restore_ms"] = restore_s * 1e3
    out["checkpoint.blob_mb"] = len(blob) / MIB
    out["checkpoint.full_pages"] = full.total_pages
    out["checkpoint.incr_dirty_pages"] = incremental.dirty_pages


def probe_cluster(out: Dict[str, float], scale: str) -> None:
    program = cluster_drain.short_image(1)
    cache = ImageCache()
    t0 = time.perf_counter()
    cache.get(program)
    out["cluster.image_cache_miss_ms"] = (time.perf_counter() - t0) * 1e3
    out["cluster.image_cache_hit_us"] = \
        best_of(5, cache.get, program)[0] * 1e6

    runtime = Runtime(model=None)
    pool = WarmPool(runtime)
    job = {"job_id": 0, "program": program}
    execute_job(runtime, pool, job)
    job_s, payload = best_of(10, execute_job, runtime, pool, job)
    # The same job taken apart: clone, run, reclaim.  What execute_job
    # costs beyond them is bookkeeping: tracer and hub attach, metrics
    # snapshot, clean-up.
    template = runtime.load_template(read_elf(program), verify=False)
    stages = float("inf")
    for _ in range(10):
        t0 = time.perf_counter()
        proc = runtime.spawn_clone(template)
        runtime.run_until_exit(proc)
        runtime.reap(proc)
        runtime.reclaim(proc)
        stages = min(stages, time.perf_counter() - t0)
    out["cluster.execute_job_ms"] = job_s * 1e3
    out["cluster.job_bookkeeping_ms"] = (job_s - stages) * 1e3
    out["cluster.result_pickle_bytes"] = len(pickle.dumps(payload))

    t0 = time.perf_counter()
    cluster = Cluster(workers=1)
    out["cluster.startup_ms"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    cluster.close()
    out["cluster.close_ms"] = (time.perf_counter() - t0) * 1e3


def probe_serve(out: Dict[str, float], scale: str) -> None:
    """One short gateway life on a fixed seed, timed call by call."""
    policies, loads = serve_overload.overload_fleet(serve_overload.LANES)
    duration = serve_overload.DURATION[scale]
    t0 = time.perf_counter()
    build_arrivals(loads, duration, 0)
    images = build_images(loads)
    out["serve.arrivals_build_ms"] = (time.perf_counter() - t0) * 1e3
    state = {"policies": policies, "loads": loads, "images": images,
             "duration": duration, "seed": 0, "schedules": 1}
    seconds = {}
    for _ in range(2):
        recorder = SpanRecorder()
        result = serve_overload.ServeOverload().run_pass(state, 0, recorder)
        for name, start, end, _parent, _request in recorder.events:
            seconds.setdefault(name, []).append(end - start)
    out["serve.offer_us"] = min(seconds["serve.offer"]) \
        / result.attempted * 1e6
    out["serve.run_ms_per_completed"] = (
        min(seconds["serve.run"]) + min(seconds["serve.drain"])) \
        / result.units[0].ops * 1e3
    for name in ("gold_miss_share", "shed_share", "warm_share",
                 "peak_queued", "virt_goodput_minstr_per_vs"):
        out[f"serve.{name}"] = result.facts[name]

    gateway = Gateway(policies, lanes=serve_overload.LANES)
    tokens = iter(range(1, 100))
    policy = TenantPolicy(priority=0, rate=40.0)
    out["serve.reload_us"] = best_of(
        5, lambda: gateway.reload("gold-a", policy, next(tokens)))[0] * 1e6


def probe_obs(out: Dict[str, float], scale: str) -> None:
    """What attaching the observers costs a job (every job attaches them)."""
    asm = build_benchmark("531.deepsjeng",
                          target_instructions=SIZES[scale]["obs"])
    elf = compile_lfi(asm, options=O2,
                      bss_size=arena_bss_size("531.deepsjeng")).elf

    def run(attach):
        runtime = Runtime(model=None)
        proc = runtime.spawn(elf, verify=False)
        attached = attach(runtime)
        t0 = time.perf_counter()
        runtime.run_until_exit(proc)
        seconds = time.perf_counter() - t0
        for observer in attached:
            observer.detach()
        return seconds

    def tracer_and_hub(runtime):
        tracer = Tracer(record=False).attach(runtime)
        return [MetricsHub().attach(tracer), tracer]

    bare = min(run(lambda runtime: []) for _ in range(5))
    traced = min(run(tracer_and_hub) for _ in range(5))
    profiled = run(lambda runtime: [GuardProfiler().attach(runtime)])
    out["obs.tracer_overhead_pct"] = 100.0 * (traced - bare) / bare
    out["obs.profiler_overhead_pct"] = 100.0 * (profiled - bare) / bare


def probe_import(out: Dict[str, float], scale: str) -> None:
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-c", "import repro"]
    seconds, _ = best_of(2, lambda: subprocess.run(
        command, env=env, check=True, timeout=60))
    out["pkg.import_ms"] = seconds * 1e3


PROBES = (probe_toolchain, probe_kernels, probe_memory, probe_calls,
          probe_checkpoint, probe_cluster, probe_serve, probe_obs,
          probe_import)


def run_probes(spans, smoke: bool = False) -> Dict[str, float]:
    """Every probe metric by name; ``spans`` gets one span per group."""
    out: Dict[str, float] = {}
    for probe in PROBES:
        with spans.span(f"ledger.{probe.__name__}"):
            probe(out, "smoke" if smoke else "full")
    return out
