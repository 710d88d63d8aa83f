"""Cluster determinism, warm-spawn equivalence, and worker fault tolerance.

The acceptance contract for ``repro.cluster`` (DESIGN.md §12):

* the same batch on 1 worker and on 4 workers is byte-identical —
  stdout, exit codes, fault kinds, and per-sandbox metrics counters;
* a warm (snapshot-restored) spawn is observably identical to a cold
  load+verify spawn of the same ELF;
* killing a worker mid-batch loses no jobs: the supervisor restarts it
  and the batch completes with the same results as a clean run.
"""

import pytest

from repro.cluster import (
    Cluster,
    ClusterError,
    ImageCache,
    WarmPool,
    execute_job,
    normalize_metrics,
)
from repro.cluster.cluster import worker_crashed
from repro.elf.format import write_elf
from repro.errors import VerificationError
from repro.obs import merge_snapshots
from repro.robustness import NEVER, RestartBook, RestartPolicy
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi, compile_native
from repro.workloads.rtlib import busy_program, prologue, rt_exit, rtcall

WRITER = prologue() + """
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #10
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #0
""" + rt_exit() + """
.rodata
msg: .asciz "cluster ok"
"""

FORKER = prologue() + rtcall(RuntimeCall.FORK) + """
    cbnz x0, parent
    mov x0, #5
""" + rt_exit() + """
parent:
    adrp x1, status
    add x1, x1, :lo12:status
    mov x0, x1
""" + rtcall(RuntimeCall.WAIT) + """
    mov x0, #9
""" + rt_exit() + """
.data
.balign 8
status: .quad 0
"""

# The guarded store lands in the (unmapped) high guard region: a clean
# in-slot segv, so fault handling is part of the determinism contract.
FAULTER = prologue() + """
    movn x1, #0
    str x0, [x1]
""" + rt_exit()


@pytest.fixture(scope="module")
def images():
    return {
        "writer": write_elf(compile_lfi(WRITER).elf),
        "forker": write_elf(compile_lfi(FORKER).elf),
        "faulter": write_elf(compile_lfi(FAULTER).elf),
        "busy3": write_elf(compile_lfi(busy_program(3, 4_000)).elf),
        "busy4": write_elf(compile_lfi(busy_program(4, 8_000)).elf),
    }


def batch(images):
    """The mixed submission order every determinism test reuses."""
    return [
        images["writer"], images["busy3"], images["forker"],
        images["busy4"], images["faulter"], images["busy3"],
        images["writer"], images["busy4"],
    ]


def run_batch(images, workers, **kwargs):
    with Cluster(workers=workers, **kwargs) as cluster:
        for program in batch(images):
            cluster.submit(program)
        results = cluster.drain()
        report = cluster.metrics_report()
        fleet = cluster.fleet_report()
    return [r.deterministic_key() for r in results], report, fleet


class TestDeterminism:
    def test_one_vs_four_workers_byte_identical(self, images):
        keys1, report1, _ = run_batch(images, workers=1)
        keys4, report4, fleet4 = run_batch(images, workers=4)
        assert keys1 == keys4
        assert report1 == report4
        assert fleet4["workers"] == 4

    def test_batch_results_are_correct(self, images):
        keys, report, _ = run_batch(images, workers=2)
        by_id = {k[0]: k for k in keys}
        # (job_id, exit_code, stdout, stderr, metrics, faults)
        assert by_id[0][1] == 0 and by_id[0][2] == "cluster ok"
        assert by_id[1][1] == 3
        assert by_id[2][1] == 9  # forker parent
        assert by_id[4][1] == 128 + 11 and by_id[4][5] == ("segv",)
        assert report.startswith("cluster.jobs 8\n")

    def test_fork_metrics_normalized_to_job_root(self, images):
        keys, _, _ = run_batch(images, workers=2)
        forker_metrics = keys[2][4]
        assert "sandbox[0].instructions" in forker_metrics
        assert "sandbox[1].instructions" in forker_metrics  # the child
        assert "sandbox[0].calls.fork 1" in forker_metrics

    def test_warm_and_cold_clusters_agree(self, images):
        warm_keys, warm_report, warm_fleet = run_batch(
            images, workers=2, warm_spawn=True)
        cold_keys, cold_report, cold_fleet = run_batch(
            images, workers=2, warm_spawn=False)
        assert warm_keys == cold_keys
        assert warm_report == cold_report
        assert warm_fleet["warm_hits"] > 0
        assert cold_fleet["warm_hits"] == 0

    def test_virtual_makespan_halves_on_two_workers(self, images):
        """Scale-out measured in virtual time, exact on a one-CPU host:
        the makespan is the largest per-worker emulated-cycle total, and
        equal jobs dispatched to the least-loaded worker split evenly."""
        def makespan(workers):
            with Cluster(workers=workers) as cluster:
                for _ in range(4):
                    cluster.submit(images["busy4"])
                per_worker = {}
                for r in cluster.drain():
                    worker = r.diag["worker"]
                    per_worker[worker] = per_worker.get(worker, 0) \
                        + int(r.diag["cycles"])
            return max(per_worker.values())
        assert makespan(1) == 2 * makespan(2)


class TestFaultTolerance:
    def test_kill_worker_mid_batch_loses_no_jobs(self, images):
        clean_keys, clean_report, _ = run_batch(images, workers=2)
        keys, report, fleet = run_batch(images, workers=2, chaos={0: 2})
        assert keys == clean_keys
        assert report == clean_report
        assert fleet["restarts"] == 1
        kinds = [line.split()[2] for line in fleet["incidents"]]
        assert "worker-crash" in kinds
        assert "worker-restart" in kinds

    def test_restart_exhaustion_raises(self, images):
        with Cluster(workers=1, restart_policy=NEVER,
                     chaos={0: 0}) as cluster:
            cluster.submit(images["writer"])
            with pytest.raises(ClusterError):
                cluster.drain()

    def test_a_crash_before_the_yield_dissolves_the_migration(self, images):
        """The owner dies before it reaches a boundary (the interval is
        longer than the job), so the job never yields: it is routed like
        any owed job, to the lowest-id worker, and no migration counts."""
        clean_keys, _, _ = run_batch(images, workers=1)
        with Cluster(workers=2, chaos={0: 0}) as cluster:
            cluster.submit(images["busy4"])        # routed to worker 0
            cluster.migrate(0, 1)
            result = cluster.drain()[0]
            fleet = cluster.fleet_report()
        assert fleet["restarts"] == 1
        assert fleet["migrations"] == 0
        assert result.diag["worker"] == 0
        assert result.deterministic_key()[1:] == clean_keys[3][1:]

    def test_an_empty_fleet_is_a_cluster_error(self):
        with pytest.raises(ClusterError, match="at least one lane"):
            Cluster(workers=0)
        with Cluster(workers=1) as cluster:
            with pytest.raises(ClusterError, match="at least one lane"):
                cluster.resize(0)

    @pytest.mark.parametrize("interval", [0, -5, 2.5, True])
    def test_a_non_positive_interval_is_a_cluster_error(self, interval):
        with pytest.raises(ClusterError, match="checkpoint_interval"):
            Cluster(workers=1, checkpoint_interval=interval)

    def test_submit_after_close_rejected(self, images):
        cluster = Cluster(workers=1)
        cluster.close()
        with pytest.raises(ClusterError):
            cluster.submit(images["writer"])


class TestWarmSpawn:
    def test_image_cache_verifies_once(self, images):
        cache = ImageCache()
        cache.get(images["writer"])
        cache.get(images["writer"])
        cache.get(images["busy3"])
        assert (cache.misses, cache.hits) == (2, 1)
        assert len(cache) == 2

    def test_image_cache_rejects_unverifiable(self):
        unsafe = write_elf(
            compile_native(prologue() + "    ldr x0, [x1]\n" + rt_exit()).elf)
        with pytest.raises(VerificationError):
            ImageCache().get(unsafe)

    def test_clone_state_matches_cold_spawn(self, images):
        cold = Runtime()
        cold_proc = cold.spawn(images["writer"])
        warm = Runtime()
        warm_proc = WarmPool(warm).spawn(images["writer"])
        for proc in (cold_proc, warm_proc):
            base = proc.layout.base
            regs = proc.registers
            assert regs["regs"][21] == base
        offsets = []
        for proc in (cold_proc, warm_proc):
            base = proc.layout.base
            offsets.append((
                proc.registers["sp"] - base,
                proc.registers["pc"] - base,
                proc.brk - base,
                proc.heap_start - base,
                proc.guard_map,
            ))
        assert offsets[0] == offsets[1]

    def test_warm_clone_runs_identical_to_cold_spawn(self, images):
        cold = Runtime()
        cold_proc = cold.spawn(images["forker"])
        cold_code = cold.run_until_exit(cold_proc)

        warm = Runtime()
        pool = WarmPool(warm)
        warm_proc = pool.spawn(images["forker"])
        assert pool.has_template(images["forker"])
        warm_code = warm.run_until_exit(warm_proc)

        assert (cold_code, cold.stdout_of(cold_proc),
                cold_proc.instructions) == \
            (warm_code, warm.stdout_of(warm_proc), warm_proc.instructions)

    def test_execute_job_leaves_runtime_clean(self, images):
        runtime = Runtime()
        pool = WarmPool(runtime)
        job = {"job_id": 0, "program": images["forker"]}
        first = execute_job(runtime, pool, job)
        assert runtime.processes == {}
        memory = runtime.memory

        def footprint():
            return (memory.pages_in_range(),
                    sum(1 for _ in memory.nonzero_pages()))

        before = footprint()
        for job_id in range(1, 4):
            payload = execute_job(
                runtime, pool,
                {"job_id": job_id, "program": images["forker"]})
            assert payload["exit_code"] == first["exit_code"]
            assert payload["metrics"] == first["metrics"]
            assert payload["diag"]["warm"]
        # Reclaim keeps the footprint flat: only template pages persist.
        assert footprint() == before

    def test_job_instruction_budget_enforced(self, images):
        # Quotas are enforced at slice granularity; a small timeslice
        # makes the busy loop overrun its budget mid-run.
        runtime = Runtime(timeslice=200)
        payload = execute_job(
            runtime, None,
            {"job_id": 0, "program": images["busy4"],
             "max_instructions": 500})
        assert payload["exit_code"] == 128 + 9
        assert "quota" in payload["faults"]


class TestReports:
    def test_normalize_metrics_rebases_pids(self):
        text = ("sandbox[7].instructions 10\n"
                "sandbox[8].calls.exit 1\n"
                "host.cycles 5\n")
        assert normalize_metrics(text, 7) == (
            "sandbox[0].instructions 10\n"
            "sandbox[1].calls.exit 1\n"
            "host.cycles 5\n")

    def test_merge_snapshots_prefixes_in_order(self):
        merged = merge_snapshots([
            ("job[0]", "a 1\nb 2\n"),
            ("job[1]", "a 3\n"),
        ])
        assert merged == "job[0].a 1\njob[0].b 2\njob[1].a 3\n"
        assert merge_snapshots([]) == ""


class TestWorkerRestarts:
    def test_on_failure_restarts_up_to_budget(self):
        book, policy = RestartBook(), RestartPolicy(max_restarts=2)
        assert worker_crashed(book, policy, 0, 100, 17, in_flight=3)
        assert worker_crashed(book, policy, 0, 101, 17, in_flight=1)
        assert not worker_crashed(book, policy, 0, 102, 17, in_flight=1)
        assert book.restarts["worker-0"] == 2
        kinds = [line.split()[2] for line in book.incident_log()]
        assert kinds.count("worker-crash") == 3
        assert kinds.count("worker-restart") == 2
        assert kinds.count("gave-up") == 1

    def test_never_policy_never_restarts(self):
        book = RestartBook()
        assert not worker_crashed(book, NEVER, 1, 200, -9, in_flight=0)
        assert book.total_restarts == 0

    def test_a_budget_of_zero_logs_what_never_logged(self):
        """``max_restarts=0`` logs the crash alone, as ``never`` did."""
        for policy in (NEVER, RestartPolicy(max_restarts=0, backoff_base=3)):
            book = RestartBook()
            assert not worker_crashed(book, policy, 1, 200, -9, in_flight=2)
            assert book.incident_log() == [
                "#0000 r000 worker-crash worker-1     pid=200 pc=0x0 "
                "exitcode=-9 with 2 job(s) in flight"]

    def test_budget_is_per_worker(self):
        book, policy = RestartBook(), RestartPolicy(max_restarts=1)
        assert worker_crashed(book, policy, 0, 1, 17, in_flight=0)
        assert worker_crashed(book, policy, 1, 2, 17, in_flight=0)
        assert book.total_restarts == 2