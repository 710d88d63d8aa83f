"""The executor: one Runtime that runs jobs one at a time.

An :class:`Executor` owns a private :class:`~repro.runtime.Runtime`
(superblock engine, no cost model) plus a
:class:`~repro.cluster.snapshot.WarmPool`, and executes the jobs it is
handed one at a time.  A cluster worker process (:func:`worker_main`)
runs one, and so does each lane of the serving gateway, in process.
Determinism contract (DESIGN.md §12): with ``model=None`` the machine's
cycle counter is the instruction counter, there are no TLB/cache side
channels, and each job runs in a fresh slot with fresh per-job
observers — so a job's deterministic result fields depend only on the
job, never on the worker, the slot, or what ran before it.

Execution is *chunked* on checkpoint-interval boundaries (DESIGN.md §13):
:func:`execute_job_steps` runs to the next multiple of the interval in
job-consumed-instruction space and pauses; its driver (a worker process
or a gateway lane, through :meth:`Executor.step`) may capture an
incremental checkpoint, poll the control channel, or apply a policy
before it continues.  Because the boundaries are aligned in consumed
instructions — not in this particular run's progress — a job restored
from a checkpoint hits the *same* subsequent boundaries as the
uninterrupted run, which keeps crash recovery and migration
byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import queue as _queue
import random
import time
from typing import Optional

from ..checkpoint import Checkpoint, CheckpointSession, restore_job
from ..engine import EngineConfig
from ..errors import Deadlock, RuntimeError_
from ..memory.layout import SandboxLayout
from ..obs.metrics import MetricsHub
from ..obs.tracer import Tracer
from ..robustness.faultinject import FaultInjector
from ..runtime.process import ProcessState
from ..runtime.runtime import ResourceQuota, Runtime
from .jobs import normalize_metrics
from .snapshot import WarmPool

__all__ = ["Executor", "execute_job", "execute_job_steps", "worker_main",
           "derive_worker_seed", "DEFAULT_JOB_BUDGET", "CHAOS_EXIT"]

#: Hard per-job safety net so a runaway job cannot hang the worker.
DEFAULT_JOB_BUDGET = 20_000_000

#: Exit status a chaos-crashed worker dies with (fault injection).
CHAOS_EXIT = 17


def derive_worker_seed(cluster_seed: int, worker_id: int,
                       generation: int) -> int:
    """Deterministic per-worker-generation seed from the cluster seed.

    Hash-derived so neighbouring worker ids do not get correlated PRNG
    streams, and a restarted worker (next generation) draws a fresh but
    replayable stream.
    """
    digest = hashlib.sha256(
        f"{cluster_seed}:{worker_id}:{generation}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def execute_job_steps(runtime: Runtime, pool: Optional[WarmPool],
                      job: dict, budget: int = DEFAULT_JOB_BUDGET,
                      checkpoint_interval: Optional[int] = None,
                      record_trace: bool = False):
    """Generator core of one job execution; the driver owns the pacing.

    One driver steps it: :meth:`Executor.begin` / :meth:`Executor.step`,
    in a cluster worker (capturing each boundary, stopping a job the front
    end wants back) and in each gateway lane (interleaving lanes in
    virtual time and hot-applying per-tenant policy between chunks).
    :func:`execute_job` runs it to the end in process.  Protocol:

    1. the first ``next()`` yields ``{"kind": "begin", "pid",
       "slot_base", "executed"}`` before any guest instruction runs
       (``executed`` is the consumed count carried by a resume
       checkpoint, 0 for a fresh spawn);
    2. each ``send(cmd)`` runs to the next checkpoint-interval boundary
       and yields ``{"kind": "chunk", "executed", "pid", "slot_base",
       "checkpoint"}``.  ``cmd`` (a dict, or None) applies *before* the
       chunk: ``{"quota": {...}}`` replaces the root process's
       :class:`ResourceQuota` without touching the guest (policy
       hot-reload; an empty dict clears it), ``{"checkpoint": True}``
       asks for the chunk's boundary to be captured (else ``checkpoint``
       is None), ``{"stop": True}`` stops at the current boundary;
    3. the generator returns (``StopIteration.value``) the final payload
       dict — ``kind == "result"`` normally, ``kind == "yield"``
       (carrying the boundary checkpoint) after a stop.

    ``job["resume"]`` holds serialized :class:`Checkpoint` bytes when the
    front-end is re-dispatching a previously checkpointed job: the worker
    restores it — original pids, COW pages, counters — and continues from
    the captured boundary instead of starting over.  ``job["quota"]``
    carries :class:`ResourceQuota` kwargs applied at spawn (the per-tenant
    budget of the serving gateway).

    Boundaries are aligned in *job-consumed* instructions, so a resumed
    run pauses at the same points as an uninterrupted one regardless of
    where it picked up (the byte-identity contract, DESIGN.md §13).

    The runtime is left clean for the next job however the job ends:
    every process the job created is terminated and reaped, and every
    slot the job allocated (including those of already-reaped fork
    children) is unmapped with its translations swept.  Template slots
    owned by the pool persist — they are the point of warm spawn.
    """
    slot_start = runtime._next_slot
    pid_start = runtime._next_pid
    hub = MetricsHub()
    consumed = 0
    consumed_cycles = 0.0
    restored_faults: list = []
    restore_s = None
    warm_hit = False
    resume = job.get("resume")
    if resume is not None:
        ckpt = Checkpoint.from_bytes(resume)
        wall0 = time.perf_counter()
        proc = restore_job(runtime, ckpt, hub)
        restore_s = time.perf_counter() - wall0
        # The restored job reuses its original absolute pids, which may
        # lie below this worker's high-water mark.
        pid_start = min(pid_start, ckpt.root_pid)
        consumed = ckpt.consumed_instructions
        consumed_cycles = ckpt.consumed_cycles
        restored_faults = list(ckpt.fault_kinds)
    else:
        program = job["program"]
        if pool is not None:
            warm_hit = pool.has_template(program)
            proc = pool.spawn(program)
        else:
            proc = runtime.spawn(program)
        if job.get("stdin"):
            proc.fds[0].buffer.extend(job["stdin"])
        if job.get("quota"):
            runtime.set_quota(proc, ResourceQuota(**job["quota"]))
        elif job.get("max_instructions") is not None:
            runtime.set_quota(
                proc,
                ResourceQuota(max_instructions=job["max_instructions"]))

    # Attach observers only now: template builds (warm spawn) and restore
    # plumbing must not register phantom sandboxes in the job's metrics.
    tracer = Tracer(record=record_trace)
    tracer.attach(runtime)
    hub.attach(tracer)  # no runtime: no step probe, no stepping
    #                     fallback, superblocks stay
    session = (CheckpointSession(runtime, proc, hub)
               if checkpoint_interval else None)
    fault_cursor = len(runtime.faults)
    machine = runtime.machine
    instret0 = machine.instret
    cycles0 = machine.cycles
    status = "ok"
    yielded = None

    def totals() -> dict:
        """What the job has consumed so far, as a checkpoint records it."""
        return dict(
            consumed_instructions=consumed + (machine.instret - instret0),
            consumed_cycles=consumed_cycles + (machine.cycles - cycles0),
            fault_kinds=restored_faults + [
                f.kind for f in runtime.faults[fault_cursor:]])

    cmd = (yield {"kind": "begin", "pid": proc.pid,
                  "slot_base": proc.layout.base,
                  "executed": consumed}) or {}
    try:
        while True:
            if "quota" in cmd:
                quota = cmd["quota"]
                runtime.set_quota(
                    proc, ResourceQuota(**quota) if quota else None)
            executed = consumed + (machine.instret - instret0)
            if checkpoint_interval:
                boundary = ((executed // checkpoint_interval) + 1) \
                    * checkpoint_interval
                chunk_end = min(boundary, budget)
            else:
                chunk_end = budget
            done = runtime.run_bounded(proc, chunk_end - executed)
            executed = consumed + (machine.instret - instret0)
            if done:
                break
            if executed > budget:
                raise RuntimeError_("job instruction budget exceeded")
            if session is not None:
                ckpt = (session.capture(**totals())
                        if cmd.get("checkpoint") else None)
                cmd = (yield {"kind": "chunk", "executed": executed,
                              "pid": proc.pid,
                              "slot_base": proc.layout.base,
                              "checkpoint": ckpt}) or {}
                if cmd.get("stop"):
                    yielded = ckpt or session.capture(**totals())
                    break
    except Deadlock:
        status = "deadlock"
        _kill_live(runtime, 128 + 6)
    except RuntimeError_:
        status = "budget"
        _kill_live(runtime, 128 + 9)
    finally:
        hub.detach()
        tracer.detach()

    if yielded is not None:
        payload = {"kind": "yield", "job_id": job["job_id"],
                   "checkpoint": yielded.to_bytes()}
        _cleanup(runtime, pool, slot_start, pid_start)
        return payload

    spent = totals()
    payload = {
        "kind": "result",
        "job_id": job["job_id"],
        "exit_code": proc.exit_code or 0,
        "stdout": runtime.stdout_of(proc),
        "stderr": proc.fds[2].text() if 2 in proc.fds else "",
        "metrics": normalize_metrics(hub.snapshot(), proc.pid),
        "faults": spent["fault_kinds"],
        "diag": {
            "warm": warm_hit,
            "status": status,
            "instructions": spent["consumed_instructions"],
            "cycles": spent["consumed_cycles"],
            "checkpoints": session.seq if session is not None else 0,
        },
    }
    if record_trace:
        payload["trace"] = list(tracer.events)
    if restore_s is not None:
        payload["diag"]["restore_s"] = restore_s
        payload["diag"]["resumed_at"] = consumed
    _cleanup(runtime, pool, slot_start, pid_start)
    return payload


def execute_job(runtime: Runtime, pool: Optional[WarmPool],
                job: dict, budget: int = DEFAULT_JOB_BUDGET,
                checkpoint_interval: Optional[int] = None) -> dict:
    """Run one job to completion in process; returns its result payload.
    Its chunk boundaries capture nothing."""
    steps = execute_job_steps(runtime, pool, job, budget=budget,
                              checkpoint_interval=checkpoint_interval)
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value


def _kill_live(runtime: Runtime, code: int) -> None:
    for pid in sorted(runtime.processes):
        p = runtime.processes[pid]
        if p.state != ProcessState.ZOMBIE:
            runtime.terminate(p, code)


def _cleanup(runtime: Runtime, pool: Optional[WarmPool],
             slot_start: int, pid_start: int) -> None:
    """Tear down everything the finished job left behind, deterministically.

    Slots are swept by allocation watermark, not by surviving processes —
    a fork child reaped by ``wait`` is gone from the process table but its
    slot is still mapped.  Pool-owned template slots are exempt.
    """
    _kill_live(runtime, 128 + 9)
    for pid in sorted(runtime.processes):
        runtime.reap(runtime.processes[pid])
    keep = pool.template_slots() if pool is not None else set()
    for slot in range(slot_start, runtime._next_slot):
        layout = SandboxLayout.for_slot(slot)
        if layout.base in keep:
            continue
        runtime.reclaim_slot(layout)
    # Not a pid range: a resumed job's pids lie far below the high-water mark.
    for table in (runtime._mmap_cursors, runtime.quotas,
                  runtime._pending_call):
        for pid in [pid for pid in table if pid >= pid_start]:
            del table[pid]


class Executor:
    """A private runtime, its warm pool and the job it is running.

    The one construction of what runs jobs: a cluster worker process
    builds one per generation and the gateway one per lane.
    ``chaos_faults`` maps executor ids to a count of seeded guest-level
    fault injections (:class:`FaultInjector`) armed against whatever this
    executor runs; the seed is :func:`derive_worker_seed` of ``seed``.
    :meth:`begin` and :meth:`step` drive :func:`execute_job_steps` one
    chunk at a time, for both.
    """

    def __init__(self, worker_id: int, generation: int = 0, *,
                 engine: Optional[EngineConfig] = None,
                 timeslice: int = 50_000, warm_spawn: bool = True,
                 chaos_faults: Optional[dict] = None, seed: int = 0):
        self.worker_id = worker_id
        self.runtime = Runtime(model=None, engine=engine,
                               timeslice=timeslice)
        self.pool = WarmPool(self.runtime) if warm_spawn else None
        self.seed = derive_worker_seed(seed, worker_id, generation)
        count = (chaos_faults or {}).get(worker_id)
        if count:
            # The injector's hooks live as long as the runtime.
            injector = FaultInjector(self.runtime, seed=self.seed)
            injector.arm(injector.plan(count))
        self.gen = None               # active execute_job_steps generator
        self._executed = 0            # executed count at the last boundary

    def begin(self, job: dict, budget: int = DEFAULT_JOB_BUDGET,
              checkpoint_interval: Optional[int] = None) -> dict:
        """Start ``job``; returns the ``begin`` info (pid, slot, executed)."""
        assert self.gen is None, "executor already busy"
        self.gen = execute_job_steps(
            self.runtime, self.pool, job, budget=budget,
            checkpoint_interval=checkpoint_interval)
        info = next(self.gen)
        self._executed = info["executed"]
        return info

    def step(self, cmd: Optional[dict]):
        """Run one chunk; returns ``(info, delta)``.

        ``delta`` is the instructions the chunk consumed.  When the job
        ends, ``info`` is its ``result`` payload (or, after a stop, its
        ``yield``) and :attr:`gen` is None.
        """
        try:
            info = self.gen.send(cmd)
            executed = info["executed"]
        except StopIteration as stop:
            info = stop.value
            executed = (int(info["diag"]["instructions"])
                        if info["kind"] == "result" else self._executed)
            self.gen = None
        delta = executed - self._executed
        self._executed = executed
        return info, delta


def worker_main(worker_id: int, generation: int, config: dict,
                job_queue, result_conn, ctrl_queue) -> None:
    """Worker process entry point: pull jobs until the shutdown sentinel.

    ``result_conn`` is this worker's *private* pipe to the front-end.
    Results are sent synchronously from the worker's main thread — there
    is no feeder thread and no lock shared with any other process, so a
    crash (even an ``os._exit`` mid-job) can never wedge another worker's
    reporting, and the front-end sees a clean EOF once the sole writer is
    gone (``Cluster._launch`` says why no queue is shared).

    The worker drives one :class:`Executor` through :meth:`Executor.begin`
    / :meth:`Executor.step`, as a gateway lane does, asking for every
    boundary's checkpoint and sending it to the front end.  The
    executor's seed also drives ``config["chaos"]``: it maps this worker
    id to N, and on its first generation the worker dies with
    ``os._exit`` during its (N+1)th job — at a seeded scheduling slice,
    or (for jobs too short to get there) after execution but *before*
    reporting the result.

    ``ctrl_queue``, read at each job start and boundary, carries
    ``{"op": "yield", "job_id": n}`` (give one job back at its next
    boundary: migration) and ``{"op": "yield_all"}`` (draining: the
    current job yields, every queued job bounces back unexecuted).
    """
    executor = Executor(worker_id, generation, engine=config["engine"],
                        timeslice=config["timeslice"],
                        warm_spawn=config["warm_spawn"],
                        chaos_faults=config["chaos_faults"],
                        seed=config["seed"])
    rng = random.Random(executor.seed)
    crash_after = config["chaos"].get(worker_id) if generation == 0 else None
    yields: set = set()
    draining = False

    def wanted(job_id: int) -> bool:
        """Whether the front end wants ``job_id`` back, once every
        control message so far is read."""
        nonlocal draining
        while True:
            try:
                msg = ctrl_queue.get_nowait()
            except _queue.Empty:
                return draining or job_id in yields
            if msg["op"] == "yield_all":
                draining = True
            else:
                yields.add(msg["job_id"])

    taken = 0
    while True:
        job = job_queue.get()
        if job is None:
            return
        job_id = job["job_id"]
        wanted(job_id)
        if draining:
            result_conn.send({"kind": "bounce", "job_id": job_id})
            continue
        taken += 1
        fatal = crash_after is not None and taken > crash_after
        if fatal:
            # Seeded mid-job crash: blow up at the top of a scheduling
            # slice somewhere inside this job's execution.
            fuse = [rng.randint(3, 40)]

            def blow(machine, fuel, _fuse=fuse):
                _fuse[0] -= 1
                if _fuse[0] <= 0:
                    os._exit(CHAOS_EXIT)

            executor.runtime.machine.run_hooks.add(blow)

        executor.begin(job, budget=config["budget"],
                       checkpoint_interval=config["checkpoint_interval"])
        payload, _ = executor.step({"checkpoint": True})
        while executor.gen is not None:
            if wanted(job_id):
                payload, _ = executor.step({"stop": True})
                continue
            result_conn.send({"kind": "checkpoint", "job_id": job_id,
                              "checkpoint": payload["checkpoint"].to_bytes()})
            payload, _ = executor.step({"checkpoint": True})
        if fatal:
            # The job was too short to reach the slice fuse: die in the
            # same window the pre-chunking chaos used — after execution,
            # before the result reaches the front-end.
            os._exit(CHAOS_EXIT)
        if payload["kind"] == "yield":
            yields.discard(job_id)
        else:
            # Diagnostic only — placement is intentionally outside the
            # deterministic result key (it varies with worker count).
            payload["diag"]["worker"] = worker_id
        result_conn.send(payload)
