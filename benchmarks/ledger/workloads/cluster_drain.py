"""``cluster-drain``: batch jobs through one forked worker and back.

The only workload that crosses a process boundary: pickle, pipe and
supervisor polling per result, and multi-MB checkpoint blobs shipped to
the front-end.  ``execute_job`` is the same function ``cold-start`` calls
in process, so the IPC cost is the difference.

One worker on purpose: parent + 1 worker is this box's ``nproc``.  Three
processes on two shared cores measure the scheduler, not the cluster.
Closed loop, one client: submit everything, then ``drain``.
"""

from __future__ import annotations

import random

from repro.cluster import Cluster, WarmPool, execute_job
from repro.core import O2
from repro.elf import write_elf
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program
from repro.workloads.spec import arena_bss_size, build_benchmark

from .base import PassResult, Stopwatch, Workload, digest

SHORT_INSTRUCTIONS = 5_000
SHORT_IMAGES = 4
#: Long jobs cross one 250 k checkpoint boundary each; the blob (the
#: kernel's whole bss) is shipped over the result pipe.
LONG_KERNELS = ("557.xz", "531.deepsjeng")
LONG_INSTRUCTIONS = 300_000
CHECKPOINT_INTERVAL = 250_000
SHORT_JOBS = {"full": 160, "smoke": 8}


def short_image(value: int) -> bytes:
    return write_elf(compile_lfi(
        busy_program(value, SHORT_INSTRUCTIONS)).elf)


def long_image(kernel: str, instructions: int = LONG_INSTRUCTIONS) -> bytes:
    asm = build_benchmark(kernel, target_instructions=instructions)
    return write_elf(compile_lfi(asm, options=O2,
                                 bss_size=arena_bss_size(kernel)).elf)


def _seconds(fn, *args) -> float:
    with Stopwatch() as watch:
        fn(*args)
    return watch.wall


def outcome(result) -> list:
    return [result.exit_code, int(result.diag["instructions"]),
            digest(result.stdout)]


class ClusterDrain(Workload):
    NAME = "cluster-drain"
    WHY = ("160 short jobs and 2 checkpointing 300 k-instruction jobs per "
           "pass through Cluster(workers=1): the only workload that pays "
           "pickle + pipe + supervisor polling per result.")
    OP = "one job result drained"
    PASSES = 10

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        images = {f"busy-{value}": short_image(value)
                  for value in range(1, SHORT_IMAGES + 1)}
        short = [f"busy-{1 + i % SHORT_IMAGES}"
                 for i in range(SHORT_JOBS[scale])]
        random.Random(seed).shuffle(short)
        half = len(short) // 2
        # Four drains a pass, each short enough (0.2-0.4 s) that some pass
        # sees it undisturbed.
        batches = {"short-a": short[:half], "short-b": short[half:]}
        batches.update((f"long-{kernel}", [kernel])
                       for kernel in LONG_KERNELS)
        images.update((kernel, long_image(kernel)) for kernel in LONG_KERNELS)
        cluster = Cluster(workers=1, checkpoint_interval=CHECKPOINT_INTERVAL)
        state = {"cluster": cluster, "images": images,
                 "batches": batches,
                 "expected": expected[scale][self.NAME],
                 "short_ms": float("inf")}
        for name in images:
            cluster.submit(images[name])
        state["drained"] = len(cluster.drain())
        # The same short job in process: what a drained job costs beyond
        # this is the process boundary.
        runtime = Runtime(model=None)
        pool = WarmPool(runtime)
        job = {"job_id": 0, "program": images["busy-1"]}
        state["inproc_ms"] = min(
            _seconds(execute_job, runtime, pool, job) for _ in range(6)) * 1e3
        return state

    def _drain(self, state, names, spans):
        """Submit ``names``' jobs, drain; (results, stopwatch, failures)."""
        cluster = state["cluster"]
        with Stopwatch() as watch:
            with spans.span("cluster.submit"):
                ids = [cluster.submit(state["images"][n]) for n in names]
            with spans.span("cluster.drain"):
                results = cluster.drain()[state["drained"]:]
        state["drained"] += len(results)
        failed = int([r.job_id for r in results] != ids)
        for name, result in zip(names, results):
            if outcome(result) != state["expected"][name]:
                failed += 1
        return results, watch, failed

    def run_pass(self, state, index, spans) -> PassResult:
        units = []
        failed = 0
        shipped = 0
        for key, names in state["batches"].items():
            results, watch, bad = self._drain(state, names, spans)
            failed += bad
            shipped += sum(int(r.diag["checkpoints"]) for r in results)
            units.append(watch.unit(key, len(results)))
            if key.startswith("short"):
                state["short_ms"] = min(state["short_ms"],
                                        watch.wall * 1e3 / len(results))
        facts = {
            "cluster.checkpoints_shipped": shipped,
            "cluster.ipc_ms_per_job": state["short_ms"] - state["inproc_ms"],
        }
        return PassResult(units, attempted=sum(map(len, state["batches"]
                                                   .values())),
                          failed=failed, facts=facts)

    def close(self, state) -> None:
        state["cluster"].close()
