"""Checkpoint/restore, live migration, and elastic rebalancing (ISSUE 6).

The acceptance contract (DESIGN.md §13):

* a run interrupted at any slice boundary, serialized through
  :class:`~repro.checkpoint.Checkpoint` bytes, and resumed in a *fresh*
  runtime is byte-identical to the uninterrupted run — registers, memory,
  metrics, and the full normalized event trace;
* a restored sandbox carries its exact :class:`ResourceQuota` headroom
  (fd / page / instruction), never a fresh quota;
* incremental checkpoints cost O(dirty pages) via COW aliasing;
* on a worker crash the cluster resumes in-flight jobs from their last
  checkpoint (re-executed instructions bounded by the interval), restarts
  the worker after a bounded-jitter exponential backoff, and the batch
  result stays byte-identical;
* :meth:`Cluster.migrate` and :meth:`Cluster.resize` preserve the same
  byte-identity.
"""

import dataclasses
import hashlib
import os
import pickle
import pickletools
import random

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointSession,
    canonical_registers,
    capture_job,
    memory_digest,
    normalize_events,
    restore_job,
    track_slot_bases,
)
from repro.cluster import (Cluster, Executor, WarmPool, derive_worker_seed,
                           execute_job)
from repro.cluster.cluster import worker_backoff_s, worker_crashed
from repro.cluster.worker import execute_job_steps
from repro.elf.format import write_elf
from repro.errors import CheckpointError
from repro.fuzz.differential import check_checkpoint
from repro.obs import MetricsHub, Tracer, merge_snapshots
from repro.robustness import ON_FAILURE, RestartBook
from repro.runtime import Runtime, RuntimeCall
from repro.runtime.runtime import ResourceQuota
from repro.runtime.vfs import O_RDONLY
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program, prologue, rt_exit, rtcall

FORKER = prologue() + rtcall(RuntimeCall.FORK) + """
    cbnz x0, parent
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #6
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #5
""" + rt_exit() + """
parent:
    adrp x1, status
    add x1, x1, :lo12:status
    mov x0, x1
""" + rtcall(RuntimeCall.WAIT) + """
    mov x3, #200
loop:
    sub x3, x3, #1
    cbnz x3, loop
    mov x0, #1
    adrp x1, msg2
    add x1, x1, :lo12:msg2
    mov x2, #7
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #9
""" + rt_exit() + """
.data
.balign 8
status: .quad 0
.rodata
msg: .asciz "child."
msg2: .asciz "parent."
"""

# Child blocks reading the pipe while the parent spins, so mid-run
# checkpoints catch a BLOCKED process with a pending runtime call.
PIPE_BLOCK = prologue() + """
    adrp x19, fds
    add x19, x19, :lo12:fds
    mov x0, x19
""" + rtcall(RuntimeCall.PIPE) + rtcall(RuntimeCall.FORK) + """
    cbnz x0, parent
    ldr w20, [x19]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x0, x20
    mov x2, #1
""" + rtcall(RuntimeCall.READ) + """
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]
    add x0, x0, #1
""" + rt_exit() + """
parent:
    mov x3, #300
spin:
    sub x3, x3, #1
    cbnz x3, spin
    ldr w20, [x19, #4]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #65
    strb w2, [x1]
    mov x0, x20
    mov x2, #1
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #0
""" + rtcall(RuntimeCall.WAIT) + """
    mov x0, #0
""" + rt_exit() + """
.data
.balign 8
fds: .skip 8
buf: .skip 8
"""

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


@pytest.fixture(scope="module")
def forker_elf():
    return compile_lfi(FORKER).elf


def observed(timeslice=50):
    """A fresh fully-observed runtime: (runtime, tracer, hub, bases)."""
    runtime = Runtime(model=None, timeslice=timeslice)
    tracer = Tracer(record=True)
    tracer.attach(runtime)
    hub = MetricsHub().attach(tracer, runtime)
    bases = track_slot_bases(runtime, tracer)
    return runtime, tracer, hub, bases


def take(runtime, proc, hub=None):
    return capture_job(runtime, proc, hub,
                       consumed_instructions=runtime.machine.instret,
                       consumed_cycles=runtime.machine.cycles)


class TestRoundTrip:
    def test_split_run_byte_identical(self, forker_elf):
        """The tentpole contract, asserted piece by piece."""
        rt1, tr1, hub1, b1 = observed()
        p1 = rt1.spawn(forker_elf)
        assert rt1.run_bounded(p1, 10_000_000)
        ref_events = normalize_events(tr1.events, b1, pid_base=p1.pid)
        ref_metrics = hub1.state_dict(pid_base=p1.pid)

        rt2, tr2, hub2, b2 = observed()
        p2 = rt2.spawn(forker_elf)
        assert not rt2.run_bounded(p2, 120)
        ckpt = Checkpoint.from_bytes(take(rt2, p2, hub2).to_bytes())
        phase1 = normalize_events(tr2.events, b2, pid_base=p2.pid)

        rt3, tr3, hub3, b3 = observed()
        p3 = restore_job(rt3, ckpt, hub3)
        assert rt3.run_bounded(p3, 10_000_000)

        assert rt3.stdout_of(p3) == rt1.stdout_of(p1) == "child.parent."
        assert p3.exit_code == p1.exit_code == 9
        assert p3.instructions == p1.instructions
        assert canonical_registers(p3.registers, p3.layout) \
            == canonical_registers(p1.registers, p1.layout)
        assert memory_digest(rt3.memory, p3.layout) \
            == memory_digest(rt1.memory, p1.layout)
        assert hub3.state_dict(pid_base=p3.pid) == ref_metrics
        phase2 = normalize_events(
            tr3.events, b3, ts_base=-ckpt.consumed_cycles,
            pid_base=p3.pid, instret_base=-ckpt.consumed_instructions)
        assert phase1 + phase2 == ref_events

    def test_oracle_clean_on_fork_and_pipes(self):
        for source in (FORKER, PIPE_BLOCK):
            findings = check_checkpoint(compile_lfi(source).elf)
            assert findings == [], [f.line() for f in findings]

    def test_oracle_clean_with_stdin(self):
        reader = prologue() + """
            mov x0, #0
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x2, #4
        """ + rtcall(RuntimeCall.READ) + """
            mov x0, #1
            mov x2, #4
        """ + rtcall(RuntimeCall.WRITE) + """
            mov x0, #0
        """ + rt_exit() + """
        .data
        buf: .skip 8
        """
        findings = check_checkpoint(compile_lfi(reader).elf, points=(8, 30),
                                    stdin=b"ping")
        assert findings == [], [f.line() for f in findings]

    def test_serialization_deterministic(self, forker_elf):
        """Two identical captures from two fresh runs: identical bytes."""
        blobs = []
        for _ in range(2):
            runtime = Runtime(model=None, timeslice=50)
            proc = runtime.spawn(forker_elf)
            assert not runtime.run_bounded(proc, 120)
            blobs.append(take(runtime, proc).to_bytes())
        assert blobs[0] == blobs[1]

    def test_digest_survives_byte_roundtrip(self, forker_elf):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        assert not runtime.run_bounded(proc, 120)
        ckpt = take(runtime, proc)
        again = Checkpoint.from_bytes(ckpt.to_bytes())
        assert again.digest() == ckpt.digest()
        assert again.to_bytes() == ckpt.to_bytes()

    def test_version_mismatch_rejected(self, forker_elf):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        assert not runtime.run_bounded(proc, 120)
        bad = dataclasses.replace(take(runtime, proc), version=99)
        with pytest.raises(CheckpointError):
            Checkpoint.from_bytes(bad.to_bytes())

    def test_restore_preserves_absolute_pids(self):
        """The guest has observed its pids; restore must reuse them."""
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(compile_lfi(PIPE_BLOCK).elf)
        # Parent is mid-spin, child is blocked on the pipe read: two
        # live processes, one of them with a pending runtime call.
        assert not runtime.run_bounded(proc, 200)
        ckpt = take(runtime, proc)
        assert len(ckpt.procs) == 2

        target = Runtime(model=None, timeslice=50)
        target._next_pid = 7  # a busy worker's pid high-water mark
        restored = restore_job(target, ckpt)
        assert restored.pid == proc.pid
        assert target._next_pid >= 7  # high-water mark never rolls back
        assert sorted(p - restored.pid for p in target.processes) == [0, 1]

    def test_pid_collision_rejected(self, forker_elf):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        assert not runtime.run_bounded(proc, 120)
        ckpt = take(runtime, proc)
        target = Runtime(model=None, timeslice=50)
        target.spawn(forker_elf)  # occupies the checkpoint's root pid
        with pytest.raises(CheckpointError):
            restore_job(target, ckpt)

    def test_unlinked_file_handle_carried_by_value(self):
        """An open fd whose path was unlinked survives by content."""
        runtime = Runtime(model=None, timeslice=5)
        proc = runtime.spawn(compile_lfi(WRITER).elf)
        runtime.vfs.write_file("/scratch", b"hello")
        handle = runtime.vfs.open("/scratch", O_RDONLY)
        proc.fds[3] = handle
        assert handle.read(2) == b"he"
        runtime.vfs.unlink("/scratch")
        assert not runtime.run_bounded(proc, 4)

        restored = restore_job(Runtime(model=None, timeslice=5),
                               take(runtime, proc))
        assert restored.fds[3].read(3) == b"llo"  # offset and data intact


class TestMalformedBlobs:
    """A blob comes from a file or a worker's pipe: anything that is
    not a checkpoint raises CheckpointError, and decoding runs no
    code."""

    @pytest.fixture(scope="class")
    def blob(self, forker_elf):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        assert not runtime.run_bounded(proc, 120)
        return take(runtime, proc).to_bytes()

    @pytest.mark.parametrize("data", [
        b"", b"garbage", pickle.dumps(None), pickle.dumps({}),
        pickle.dumps({"version": CHECKPOINT_VERSION}),
    ], ids=["empty", "garbage", "none", "empty-dict", "version-only"])
    def test_not_a_checkpoint(self, data):
        with pytest.raises(CheckpointError, match="malformed"):
            Checkpoint.from_bytes(data)

    def test_fields_that_do_not_match_the_image(self, blob):
        raw = pickle.loads(blob)
        raw["procs"][0]["no_such_field"] = 1
        with pytest.raises(CheckpointError, match="no_such_field"):
            Checkpoint.from_bytes(pickle.dumps(raw, protocol=4))

    def test_3000_truncated_or_flipped_copies(self, blob):
        # Flips land on an opcode or its first argument bytes, where
        # they change the structure rather than a page's contents.
        starts = [pos for _op, _arg, pos in pickletools.genops(blob)]
        rng = random.Random(34)
        outcomes = []
        for i in range(3000):
            if i % 3 == 0:
                data = blob[:rng.randrange(len(blob))]
            else:
                data = bytearray(blob)
                at = min(rng.choice(starts) + rng.randrange(5),
                         len(blob) - 1)
                data[at] ^= 1 << rng.randrange(8)
            try:
                Checkpoint.from_bytes(bytes(data))
                outcomes.append("decoded")
            except CheckpointError:
                outcomes.append("refused")
        assert outcomes.count("refused") > 1000

    def test_a_blob_naming_a_callable_runs_nothing(self, tmp_path):
        marker = tmp_path / "ran"

        class Call:
            def __reduce__(self):
                return os.system, (f"touch {marker}",)

        blob = pickle.dumps({"version": CHECKPOINT_VERSION,
                             "procs": [Call()]})
        assert b"system" in blob
        with pytest.raises(CheckpointError, match="system"):
            Checkpoint.from_bytes(blob)
        assert not marker.exists()


class TestQuotaCarryover:
    def test_restored_quota_exact_headroom(self, forker_elf):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        quota = ResourceQuota(max_mapped_pages=64, max_fds=6,
                              max_instructions=5_000)
        runtime.set_quota(proc, quota)
        assert not runtime.run_bounded(proc, 120)

        target = Runtime(model=None, timeslice=50)
        restored = restore_job(target, take(runtime, proc))
        carried = target.quotas[restored.pid]
        assert carried == quota  # the limits, not a fresh default
        # ... and the *consumption* against them travelled too: identical
        # instruction count means identical remaining headroom.
        assert restored.instructions == proc.instructions
        assert len(restored.fds) == len(proc.fds)

    def test_quota_trips_at_same_point_after_restore(self):
        """A limit crossed *after* the checkpoint fires identically."""
        elf = compile_lfi(busy_program(3, 6_000)).elf

        reference = Runtime(model=None, timeslice=50)
        ref = reference.spawn(elf)
        reference.set_quota(ref, ResourceQuota(max_instructions=2_000))
        assert reference.run_bounded(ref, 1_000_000)

        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(elf)
        runtime.set_quota(proc, ResourceQuota(max_instructions=2_000))
        assert not runtime.run_bounded(proc, 700)  # before the limit

        target = Runtime(model=None, timeslice=50)
        restored = restore_job(target, take(runtime, proc))
        assert target.run_bounded(restored, 1_000_000)
        assert restored.exit_code == ref.exit_code == 128 + 9
        assert restored.instructions == ref.instructions
        assert [f.kind for f in target.faults] == ["quota"]

    def test_quota_is_per_pid_across_clones(self, forker_elf):
        """Only the quota-holding pid carries one through a checkpoint."""
        runtime = Runtime(model=None, timeslice=50)
        pool = WarmPool(runtime)
        data = write_elf(forker_elf)
        first = pool.spawn(data)
        second = pool.spawn(data)  # spawn_clone sibling, no quota
        runtime.set_quota(first, ResourceQuota(max_instructions=9_999))
        assert not runtime.run_bounded(first, 120)
        ckpt = take(runtime, first)

        target = Runtime(model=None, timeslice=50)
        restored = restore_job(target, ckpt)
        assert target.quotas[restored.pid].max_instructions == 9_999
        assert set(target.quotas) == {restored.pid}
        assert second.pid not in target.processes


STORE_SPIN = prologue() + """
    adrp x19, arr
    add x19, x19, :lo12:arr
    movz x1, #2000
loop:
    str x1, [x19]
    sub x1, x1, #1
    cbnz x1, loop
    mov x0, #0
""" + rt_exit() + """
.data
.balign 8
arr: .skip 64
"""


class TestIncrementalSession:
    def test_dirty_page_tracking(self):
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(compile_lfi(STORE_SPIN).elf)
        session = CheckpointSession(runtime, proc)
        assert not runtime.run_bounded(proc, 120)
        first = session.capture(
            consumed_instructions=runtime.machine.instret,
            consumed_cycles=runtime.machine.cycles)
        assert first.dirty_pages == first.total_pages  # cold capture
        assert first.stats["seq"] == 1

        assert not runtime.run_bounded(proc, 120)
        second = session.capture(
            consumed_instructions=runtime.machine.instret,
            consumed_cycles=runtime.machine.cycles)
        assert second.stats["seq"] == 2
        # A few slices touch a few pages; code/rodata stayed clean.
        assert 0 < second.dirty_pages < second.total_pages
        # Clean pages are shared by identity, not recopied.
        shared = sum(1 for key in first.pages
                     if second.pages.get(key) is first.pages[key])
        assert shared == second.total_pages - second.dirty_pages

    def test_incremental_capture_matches_cold_capture(self, forker_elf):
        """Cached clean pages must reproduce exactly what a from-scratch
        capture of the same state sees."""
        runtime = Runtime(model=None, timeslice=50)
        proc = runtime.spawn(forker_elf)
        session = CheckpointSession(runtime, proc)
        assert not runtime.run_bounded(proc, 120)
        session.capture(consumed_instructions=runtime.machine.instret,
                        consumed_cycles=runtime.machine.cycles)
        assert not runtime.run_bounded(proc, 120)
        incremental = session.capture(
            consumed_instructions=runtime.machine.instret,
            consumed_cycles=runtime.machine.cycles)
        cold = take(runtime, proc)
        assert incremental.digest() == cold.digest()


def drive_as_worker(job, interval, timeslice, back):
    """Run ``job`` on a fresh :class:`Executor` as a cluster worker
    does: ask for every boundary's checkpoint, and stop at the first
    boundary where ``back(sunk)`` holds.  Returns (sunk, final payload)."""
    executor = Executor(0, timeslice=timeslice, warm_spawn=False)
    executor.begin(job, checkpoint_interval=interval)
    sunk, cmd = [], {"checkpoint": True}
    while executor.gen is not None:
        payload, _ = executor.step(cmd)
        if executor.gen is not None:
            if back(sunk):
                cmd = {"stop": True}
            else:
                sunk.append(payload["checkpoint"])
    return sunk, payload


class TestCaptureOnRequest:
    """``execute_job_steps`` captures a boundary only when its driver
    asks: a worker asks at every boundary (for the front end, or for a
    stop's yield), and a driver that never asks, like the gateway's
    lanes, gets no checkpoint at all."""

    INTERVAL, TIMESLICE, STOP_AT = 500, 100, 4
    #: sha256 of the sink blobs and of the yield blob; the same bytes as
    #: a generator that captured every boundary whether asked or not.
    PINNED = [
        "b87084548c74a322490fafbbe9b2e9c7f4f59025ab2f36a2ab4e47fb05295c15",
        "46357f3bd9abe67d8c8dff1ed2455d5dd03f7955a847b25497b8cf35258e1daa",
        "ba623f999409318c37a6abfff086c258c7c0935003b0cbb5717dc5ae8e63dcad",
        "8406298a7ab73aec39b2f666b22238ed3b90f50350413b2ea056c23825ac1bfa",
    ]

    def job(self):
        return {"job_id": 0,
                "program": write_elf(compile_lfi(STORE_SPIN).elf)}

    def test_sink_and_yield_blobs_pinned(self):
        sunk, yielded = drive_as_worker(
            self.job(), self.INTERVAL, self.TIMESLICE,
            lambda sunk: len(sunk) == self.STOP_AT - 1)
        assert yielded["kind"] == "yield"
        blobs = [ckpt.to_bytes() for ckpt in sunk] + [yielded["checkpoint"]]
        assert [hashlib.sha256(blob).hexdigest()
                for blob in blobs] == self.PINNED

    def test_stop_without_capture_is_a_cold_capture(self):
        runtime = Runtime(model=None, timeslice=self.TIMESLICE)
        steps = execute_job_steps(runtime, None, self.job(),
                                  checkpoint_interval=self.INTERVAL)
        next(steps)
        for _ in range(self.STOP_AT):
            info = steps.send({})
            assert info["kind"] == "chunk" and info["checkpoint"] is None
        # The job's metrics hub is the generator's own; everything else
        # a capture walks must be what a cold capture_job sees here.
        cold = capture_job(runtime, runtime.processes[info["pid"]],
                           consumed_instructions=info["executed"],
                           consumed_cycles=float(info["executed"]))
        with pytest.raises(StopIteration) as stop:
            steps.send({"stop": True})
        yielded = Checkpoint.from_bytes(stop.value.value["checkpoint"])
        assert yielded.metrics is not None
        assert dataclasses.replace(yielded, metrics=None).to_bytes() \
            == cold.to_bytes()
        blob = stop.value.value["checkpoint"]
        assert hashlib.sha256(blob).hexdigest() == self.PINNED[-1]


class TestBackoffAndOpsMetrics:
    def test_backoff_deterministic_per_seed(self):
        def timeline(seed):
            book, rng = RestartBook(), random.Random(seed)
            out = []
            for _ in range(4):
                worker_crashed(book, ON_FAILURE, 0, 100, 1, 0)
                out.append(worker_backoff_s(book, ON_FAILURE, 0, rng))
            return out

        assert timeline(3) == timeline(3)
        assert timeline(3) != timeline(4)

    def test_backoff_exponential_bounded_jitter(self):
        book, rng = RestartBook(), random.Random(0)
        base = ON_FAILURE.backoff_base
        factor = ON_FAILURE.backoff_factor
        for _ in range(8):
            worker_crashed(book, ON_FAILURE, 0, 100, 1, 0)
            exponent = max(0, book.restarts["worker-0"] - 1)
            expected = min(2.0, 0.05 * base * factor ** exponent)
            delay = worker_backoff_s(book, ON_FAILURE, 0, rng)
            assert expected <= delay <= expected * 1.25
        assert worker_backoff_s(book, ON_FAILURE, 0, rng) <= 2.0 * 1.25  # cap

    def test_host_metrics_merge(self):
        hub = MetricsHub()
        hub.host_counter("worker.restarts").inc(2)
        hub.host_histogram("job.restore_latency_s",
                           (0.01, 0.1)).observe(0.05)
        merged = merge_snapshots([("ops", hub.snapshot())])
        assert "ops.host.worker.restarts 2" in merged
        assert "ops.host.job.restore_latency_s.le_0.1 1" in merged
        assert "ops.host.job.restore_latency_s.count 1" in merged


LONG_BATCH_KW = dict(checkpoint_interval=50_000, timeslice=10_000)


@pytest.fixture(scope="module")
def long_batch():
    long_elf = write_elf(compile_lfi(busy_program(7, 400_000)).elf)
    short_elf = write_elf(compile_lfi(busy_program(3, 4_000)).elf)
    return [long_elf, short_elf, long_elf, short_elf, long_elf]


def run_long_batch(batch, workers, hook=None, **kwargs):
    with Cluster(workers=workers, **LONG_BATCH_KW, **kwargs) as cluster:
        for program in batch:
            cluster.submit(program)
        if hook is not None:
            hook(cluster)
        results = cluster.drain()
        return ([r.deterministic_key() for r in results],
                cluster.metrics_report(), cluster.fleet_report())


@pytest.fixture(scope="module")
def long_reference(long_batch):
    keys, report, _ = run_long_batch(long_batch, workers=1)
    return keys, report


class TestClusterRecovery:
    def test_reexecuted_instructions_bounded_by_interval(self):
        """Crash recovery redoes at most one checkpoint interval."""
        interval, timeslice = 400, 100
        elf = write_elf(compile_lfi(busy_program(4, 3_000)).elf)
        job = {"job_id": 0, "program": elf, "stdin": b"",
               "max_instructions": None}

        reference = execute_job(Runtime(model=None, timeslice=timeslice),
                                None, dict(job))

        # "Crash" at the third checkpoint boundary: the front-end only
        # ever saw the first two checkpoints.
        sunk, yielded = drive_as_worker(dict(job), interval, timeslice,
                                        lambda sunk: len(sunk) >= 2)
        assert yielded["kind"] == "yield"
        crash_point = Checkpoint.from_bytes(
            yielded["checkpoint"]).consumed_instructions
        last_seen = Checkpoint.from_bytes(
            sunk[-1].to_bytes()).consumed_instructions

        resumed = execute_job(
            Runtime(model=None, timeslice=timeslice), None,
            {**job, "resume": sunk[-1].to_bytes()},
            checkpoint_interval=interval)
        # Work redone = progress lost between the last delivered
        # checkpoint and the crash: strictly bounded by the interval
        # (plus the slice the pause rounded up to).
        assert 0 < crash_point - last_seen <= interval + timeslice
        assert resumed["diag"]["resumed_at"] == last_seen
        for key in ("exit_code", "stdout", "stderr", "metrics", "faults"):
            assert resumed[key] == reference[key]
        assert resumed["diag"]["instructions"] \
            == reference["diag"]["instructions"]

    def test_worker_kill_recovery_byte_identical(self, long_batch,
                                                 long_reference):
        """chaos kills worker 0 mid-first-job; the batch still matches."""
        keys, report, fleet = run_long_batch(long_batch, workers=2,
                                             chaos={0: 0})
        assert (keys, report) == long_reference
        assert fleet["restarts"] == 1
        assert fleet["restores"] >= 1  # resumed from a checkpoint,
        #                                not re-run from scratch

    def test_migrate_byte_identical(self, long_batch, long_reference):
        def hook(cluster):
            cluster.migrate(0, 1)

        keys, report, fleet = run_long_batch(long_batch, workers=2,
                                             hook=hook)
        assert (keys, report) == long_reference
        assert fleet["migrations"] == 1
        assert fleet["restores"] >= 1

    def test_resize_byte_identical(self, long_batch, long_reference):
        def hook(cluster):
            cluster.resize(4)
            cluster.resize(1)

        keys, report, fleet = run_long_batch(long_batch, workers=2,
                                             hook=hook)
        assert (keys, report) == long_reference
        assert fleet["workers"] == 1

    def test_crash_resumes_from_checkpoint(self, long_batch):
        """A crashed job resumes from its last checkpoint on the
        restarted worker and ends exactly as an uncrashed run does."""
        def run(**kwargs):
            with Cluster(workers=1, **LONG_BATCH_KW, **kwargs) as cluster:
                cluster.submit(long_batch[0])
                return cluster.drain()[0], cluster.fleet_report()

        clean, _ = run()
        result, fleet = run(chaos={0: 0})
        assert fleet["restarts"] == 1
        assert result.deterministic_key() == clean.deterministic_key()
        # Resumed mid-run, not re-run from scratch; the instructions
        # count the whole program once.
        assert 0 < result.diag["resumed_at"] < clean.diag["instructions"]
        assert result.diag["instructions"] == clean.diag["instructions"]

    def test_crash_incident_counts_the_job_in_flight(self, long_batch):
        with Cluster(workers=1, chaos={0: 0}, **LONG_BATCH_KW) as cluster:
            cluster.submit(long_batch[0])
            cluster.drain()
            crashes = [line for line in cluster.fleet_report()["incidents"]
                       if "worker-crash" in line]
        assert len(crashes) == 1
        assert "with 1 job(s) in flight" in crashes[0]

    def test_migrate_lands_on_target_worker(self, long_batch):
        with Cluster(workers=2, **LONG_BATCH_KW) as cluster:
            cluster.submit(long_batch[0])          # routed to worker 0
            cluster.migrate(0, 1)
            result = cluster.drain()[0]
            fleet = cluster.fleet_report()
        assert fleet["migrations"] == 1
        assert result.diag["worker"] == 1
        assert result.diag["resumed_at"] > 0       # moved mid-run

    def test_resize_retires_busy_worker(self, long_batch):
        """Shrinking drains the highest-id worker: the jobs routed to it
        finish on the survivor, and it leaves the fleet."""
        long_elf = long_batch[0]
        with Cluster(workers=2, **LONG_BATCH_KW) as cluster:
            for _ in range(4):                     # 1 and 3 go to worker 1
                cluster.submit(long_elf)
            cluster.resize(1)
            results = cluster.drain()
            fleet = cluster.fleet_report()
        assert fleet["workers"] == 1
        assert list(fleet["completed_per_worker"]) == [0]
        assert results[3].diag["worker"] == 0
        assert len({r.deterministic_key()[1:] for r in results}) == 1

    def test_chaos_faults_seeded_replay(self):
        """Seeded sandbox-level fault injection replays byte-identically."""
        elf = write_elf(compile_lfi(busy_program(2, 30_000)).elf)

        def run():
            with Cluster(workers=1, seed=3, chaos_faults={0: 2},
                         timeslice=5_000) as cluster:
                for _ in range(3):
                    cluster.submit(elf)
                return [r.deterministic_key() for r in cluster.drain()]

        first, second = run(), run()
        assert first == second
        # This seed's plan corrupts exactly the second job: its guarded
        # pointer loses the base and traps, while its siblings run clean.
        assert [r[1] for r in first] == [2, 139, 2]
        assert [r[5] for r in first] == [(), ("segv",), ()]

    def test_ops_report_counters(self, long_batch):
        with Cluster(workers=2, chaos={0: 0}, **LONG_BATCH_KW) as cluster:
            for program in long_batch:
                cluster.submit(program)
            cluster.drain()
            ops = cluster.ops.snapshot().splitlines()
        assert "host.worker.restarts 1" in ops
        assert "host.job.restores 1" in ops
        assert "host.job.restore_latency_s.count 1" in ops
        assert cluster.ops.host_counter("job.checkpoints").value > 0

    def test_derive_worker_seed_decorrelated(self):
        seeds = {derive_worker_seed(0, w, g)
                 for w in range(4) for g in range(3)}
        assert len(seeds) == 12
        assert derive_worker_seed(1, 2, 3) == derive_worker_seed(1, 2, 3)
