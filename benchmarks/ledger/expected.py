"""Reference outputs from the stepping interpreter (``expected.json``).

The timed runs use the superblock engine; what they must reproduce -
exit codes, retired instructions, simulated cycles, stdout - is recorded
here once by ``EngineConfig(kind="stepping")``, the independent
per-instruction interpreter, never by the engine under test.  Because the
references include every simulated cycle count, a host-side speed-up that
shifts any simulated statistic fails the run instead of passing as faster.

``regenerate`` computes everything twice and refuses to write a file if
the two disagree: the simulated side must be deterministic.
"""

from __future__ import annotations

import json

from repro import EngineConfig
from repro.cluster import execute_job
from repro.emulator import APPLE_M1
from repro.runtime import Runtime

from .harness import EXPECTED_PATH
from .workloads import call_heavy, cluster_drain, cold_start, exec_steady
from .workloads.guest import PROGRAMS

__all__ = ["generate", "regenerate"]

STEPPING = EngineConfig(kind="stepping")


def _job_outcome(program: bytes) -> list:
    runtime = Runtime(model=None, engine=STEPPING)
    payload = execute_job(runtime, None, {"job_id": 0, "program": program})
    return cold_start.outcome(payload)


def generate(scale: str) -> dict:
    """Every workload's references at ``scale`` (``full`` or ``smoke``)."""
    exec_rows = {}
    for key, variant, elf in exec_steady.build_images(
            exec_steady.TARGET[scale]):
        runtime = Runtime(model=APPLE_M1, engine=STEPPING)
        proc = runtime.spawn(elf, verify=variant.verify,
                             policy=variant.policy)
        exec_rows[key] = exec_steady.observe(
            runtime, proc, runtime.run_until_exit(proc))
    call_rows = {
        name: call_heavy.run_program(
            call_heavy.compile_program(name,
                                       call_heavy.COUNTS[scale][name]),
            engine=STEPPING)[0]
        for name in PROGRAMS
    }
    start_rows = {name: _job_outcome(program)
                  for name, program in cold_start.job_images().items()}
    drain_rows = {f"busy-{value}":
                  _job_outcome(cluster_drain.short_image(value))
                  for value in range(1, cluster_drain.SHORT_IMAGES + 1)}
    drain_rows.update((kernel, _job_outcome(cluster_drain.long_image(kernel)))
                      for kernel in cluster_drain.LONG_KERNELS)
    return {"exec-steady": exec_rows, "call-heavy": call_rows,
            "cold-start": start_rows, "cluster-drain": drain_rows}


def regenerate() -> dict:
    document = {"generator": "EngineConfig(kind='stepping')"}
    for scale in ("full", "smoke"):
        first, second = generate(scale), generate(scale)
        if first != second:
            raise SystemExit(f"the simulated side is not deterministic at "
                             f"{scale} scale: two stepping runs disagree")
        document[scale] = first
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document
