"""A finished sandbox is freed by reference count (DESIGN.md §10, §11).

The objects under a :class:`Runtime` form an ownership tree: nothing
holds its owner strongly (the memory's map observer holds the machine
weakly, the engines and generated bodies are handed the machine per
call, the springboard per slice).  So dropping the last reference to a runtime
frees its machine, engine, memory and guest pages at once, not at the
cyclic collector's next full pass.  Each lifecycle below runs with the
collector off; whatever ``gc.collect()`` then finds is a cycle that
would have kept those pages alive.
"""

from __future__ import annotations

import gc
import runpy
import weakref
from pathlib import Path

import pytest

from repro import EngineConfig
from repro.cluster import Executor, WarmPool, execute_job
from repro.elf import write_elf
from repro.emulator import APPLE_M1
from repro.engine import SpeculationConfig
from repro.perf.microbench import measure_pipe_ns
from repro.runtime import Runtime
from repro.serve import Gateway, demo_loads, demo_policies, run_loadgen
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program

ROOT = Path(__file__).resolve().parents[1]
TIMESLICE = 500


@pytest.fixture(scope="module")
def image():
    return write_elf(compile_lfi(busy_program(3, 4_000)).elf)


@pytest.fixture(scope="module")
def blob(image):
    """A checkpoint of ``image``'s job stopped at its second boundary."""
    executor = Executor(0, timeslice=TIMESLICE, warm_spawn=False)
    executor.begin({"job_id": 0, "program": image},
                   checkpoint_interval=1_000)
    for _ in range(2):
        executor.step({"checkpoint": True})
    yielded, _ = executor.step({"stop": True})
    assert yielded["kind"] == "yield"
    return yielded["checkpoint"]


def cyclic_garbage(life, *args) -> int:
    """What the collector finds after ``life(*args)`` ran with it off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        life(*args)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def watch(runtime: Runtime) -> tuple:
    return weakref.ref(runtime), weakref.ref(runtime.memory)


def freed(refs: tuple) -> bool:
    """Whether the runtime and the memory ``refs`` watch are gone."""
    return all(ref() is None for ref in refs)


class TestARuntimeIsFreedByReferenceCount:
    @pytest.mark.parametrize("model", [APPLE_M1, None],
                             ids=["apple-m1", "no-model"])
    def test_a_finished_runtime(self, image, model):
        def life():
            runtime = Runtime(model=model)
            assert runtime.run_until_exit(runtime.spawn(image)) == 3
            refs = watch(runtime)
            del runtime
            assert freed(refs)
        assert cyclic_garbage(life) == 0

    def test_a_runtime_dropped_mid_run(self, image):
        def life():
            runtime = Runtime(model=APPLE_M1, timeslice=TIMESLICE)
            assert not runtime.run_bounded(runtime.spawn(image), 2_000)
            refs = watch(runtime)
            del runtime
            assert freed(refs)
        assert cyclic_garbage(life) == 0

    def test_a_forked_pipe_pair_run_to_exit(self):
        assert cyclic_garbage(measure_pipe_ns, APPLE_M1, 4) == 0

    def test_a_runtime_under_speculation(self, image):
        def life():
            runtime = Runtime(model=APPLE_M1, engine=EngineConfig(
                speculation=SpeculationConfig()))
            assert runtime.run_until_exit(runtime.spawn(image)) == 3
            assert runtime.machine.speculation_log.windows
            refs = watch(runtime)
            del runtime
            assert freed(refs)
        assert cyclic_garbage(life) == 0


class TestAWorkerJobLeavesNoCycle:
    @pytest.mark.parametrize("path", ["cold", "warm", "resume"])
    def test_a_job_then_reclaim(self, image, blob, path):
        """The job's end (its slots reclaimed), then the pool's template
        slot reclaimed, then the runtime dropped: no cycle at any step.
        The warm job is the pool's second (its first built the
        template); the resume job restores ``blob``."""
        runtime = Runtime(model=None, timeslice=TIMESLICE)
        pool = WarmPool(runtime) if path == "warm" else None
        job = {"job_id": 0, "program": image}
        if path == "warm":
            execute_job(runtime, pool, job)
        if path == "resume":
            job["resume"] = blob

        def job_end():
            payload = execute_job(runtime, pool, job)
            assert payload["kind"] == "result"
            assert payload["exit_code"] == 3
            assert payload["diag"]["warm"] is (path == "warm")
            assert ("resumed_at" in payload["diag"]) == (path == "resume")
            assert runtime.processes == {}

        def reclaim():
            for template in (pool._templates.values() if pool else ()):
                runtime.reclaim(template)
            assert runtime.memory.pages_in_range() == 0

        def drop():
            nonlocal runtime, pool
            refs = watch(runtime)
            runtime = pool = None
            assert freed(refs)

        assert cyclic_garbage(job_end) == 0
        assert cyclic_garbage(reclaim) == 0
        assert cyclic_garbage(drop) == 0


def test_an_executors_whole_life(image):
    """An executor made, a job begun and stepped chunk by chunk to its
    result, the executor dropped."""
    def life():
        executor = Executor(0, timeslice=TIMESLICE)
        executor.begin({"job_id": 0, "program": image},
                       checkpoint_interval=1_000)
        while executor.gen is not None:
            info, _delta = executor.step({"checkpoint": True})
        assert info["kind"] == "result" and info["exit_code"] == 3
        refs = watch(executor.runtime)
        del executor
        assert freed(refs)
    assert cyclic_garbage(life) == 0


class TestOptInObserversLeaveNoCycle:
    """A fault injector and a containment auditor are held by the runtime
    they watch (its hooks, its memory's write observer), so they hold it
    weakly."""

    def test_a_seeded_chaos_run(self):
        path = ROOT / "examples" / "chaos_tenants.py"
        run_chaos = runpy.run_path(str(path))["run_chaos"]

        def life():
            result = run_chaos(seed=1234, faults=60)
            assert result["auditor"].violations == []
            refs = watch(result.pop("runtime"))
            del result
            assert freed(refs)
        assert cyclic_garbage(life) == 0

    def test_a_gateway_life_with_chaos_faults(self):
        def life():
            gateway = Gateway(demo_policies(), lanes=2,
                              checkpoint_interval=2000,
                              chaos_faults={0: 5, 1: 5}, seed=3)
            results = run_loadgen(gateway, demo_loads(), 0.2, seed=3)
            assert any(r.faults for r in results)
            refs = [watch(lane.runtime) for lane in gateway.lanes.values()]
            del gateway
            assert all(freed(ref) for ref in refs)
        assert cyclic_garbage(life) == 0
