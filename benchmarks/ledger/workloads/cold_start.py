"""``cold-start``: short jobs through three start paths on one worker runtime.

Each job retires only 4-10 k instructions, so what a start costs is
``memory``, ``runtime.loader``, ``elf``, ``checkpoint`` - and the emulator's
first-time translation of the fresh slot's blocks, which the traced run
puts at over half of a start.  This is where lazy zero pages and a codegen
cache must show.  Cold (ELF bytes -> parse -> verify -> map), warm
(template -> COW clone) and resume (checkpoint blob -> page restore) use
the same pages layer three different ways; a gain for one that costs
another is visible in one table.
"""

from __future__ import annotations

import random

from repro.cluster import WarmPool, execute_job
from repro.cluster.worker import execute_job_steps
from repro.core import O2
from repro.elf import write_elf
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads import WASM_SUBSET
from repro.workloads.spec import arena_bss_size, build_benchmark

from .base import PassResult, Stopwatch, Workload, digest

TARGET_INSTRUCTIONS = 4000
#: The resume path restores the first-boundary checkpoint of each job.
#: ``run_bounded`` pauses between scheduler slices only, so the runtime's
#: timeslice is pinned to the interval, as the gateway pins its lanes';
#: the first pause then lands 2000 instructions in, about half-way.
CHECKPOINT_INTERVAL = 1000
PATHS = ("cold", "warm", "resume")


def job_images() -> dict:
    """kernel name -> ELF bytes of its short LFI-O2 job (2-16 MiB bss)."""
    images = {}
    for name in sorted(WASM_SUBSET):
        asm = build_benchmark(name, target_instructions=TARGET_INSTRUCTIONS)
        elf = compile_lfi(asm, options=O2, bss_size=arena_bss_size(name)).elf
        images[name] = write_elf(elf)
    return images


def first_boundary_blob(runtime, pool, program: bytes) -> bytes:
    """Serialized checkpoint of a job paused at its first boundary."""
    steps = execute_job_steps(runtime, pool, {"job_id": -1,
                                              "program": program},
                              checkpoint_interval=CHECKPOINT_INTERVAL)
    next(steps)
    steps.send(None)
    try:
        steps.send({"stop": True})
    except StopIteration as stop:
        return stop.value["checkpoint"]
    raise RuntimeError("a stopped job must yield its checkpoint")


def outcome(payload: dict) -> list:
    """What a job start must reproduce, whichever path started it."""
    return [payload["exit_code"], payload["diag"]["instructions"],
            digest(payload["stdout"])]


class ColdStart(Workload):
    NAME = "cold-start"
    WHY = ("4 k-instruction jobs with 2-16 MiB bss started cold, from a "
           "warm template and from a checkpoint: mapping, loading, restoring "
           "and first-time translation dominate, steady emulation does not.")
    OP = "one job start completed (execute_job)"
    PASSES = 40

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        runtime = Runtime(model=None, timeslice=CHECKPOINT_INTERVAL)
        pool = WarmPool(runtime)
        images = job_images()
        blobs = {name: first_boundary_blob(runtime, pool, program)
                 for name, program in images.items()}
        order = [(name, path) for name in images for path in PATHS]
        random.Random(seed).shuffle(order)
        state = {"runtime": runtime, "pool": pool, "images": images,
                 "blobs": blobs, "order": order, "next_id": 0,
                 "expected": expected[scale][self.NAME]}
        for name in images:
            for path in PATHS:
                self._start(state, name, path)
        return state

    def _start(self, state, name: str, path: str) -> dict:
        job = {"job_id": state["next_id"]}
        state["next_id"] += 1
        if path == "resume":
            job["resume"] = state["blobs"][name]
        else:
            job["program"] = state["images"][name]
        pool = None if path == "cold" else state["pool"]
        return execute_job(state["runtime"], pool, job)

    def run_pass(self, state, index, spans) -> PassResult:
        units = []
        failed = 0
        for name, path in state["order"]:
            with spans.span("cluster.execute_job", state["next_id"]), \
                    Stopwatch() as watch:
                payload = self._start(state, name, path)
            units.append(watch.unit(f"{path}/{name}", 1))
            if (payload["diag"]["status"] != "ok"
                    or outcome(payload) != state["expected"][name]):
                failed += 1
        return PassResult(units, attempted=len(units), failed=failed)
