"""Cluster worker: one OS process, one Runtime, jobs run sequentially.

Each worker owns a private :class:`~repro.runtime.Runtime` (superblock
engine, no cost model) plus a :class:`~repro.cluster.snapshot.WarmPool`,
and executes the jobs it is handed one at a time.  Determinism contract
(DESIGN.md §12): with ``model=None`` the machine's cycle counter is the
instruction counter, there are no TLB/cache side channels, and each job
runs in a fresh slot with fresh per-job observers — so a job's
deterministic result fields depend only on the job, never on the worker,
the slot, or what ran before it.

Execution is *chunked* on checkpoint-interval boundaries (DESIGN.md §13):
``execute_job`` runs to the next multiple of the interval in
job-consumed-instruction space, captures an incremental checkpoint, polls
the control channel, and continues.  Because the boundaries are aligned
in consumed instructions — not in this particular run's progress — a job
restored from a checkpoint hits the *same* subsequent boundaries as the
uninterrupted run, which keeps crash recovery and migration
byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import queue as _queue
import random
import time
from typing import Callable, Optional

from ..checkpoint import Checkpoint, CheckpointSession, restore_job
from ..errors import Deadlock, RuntimeError_
from ..memory.layout import SandboxLayout
from ..obs.metrics import MetricsHub
from ..obs.tracer import Tracer
from ..robustness.faultinject import FaultInjector
from ..runtime.process import ProcessState
from ..runtime.runtime import ResourceQuota, Runtime
from .jobs import normalize_metrics
from .snapshot import WarmPool

__all__ = ["execute_job", "execute_job_steps", "worker_main",
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

    Both consumers of a job execution drive this generator: the cluster
    worker (through :func:`execute_job`) and the serving gateway's lanes,
    which interleave many lanes in virtual time and hot-apply per-tenant
    policy between chunks.  Protocol:

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
                checkpoint_interval: Optional[int] = None,
                checkpoint_sink: Optional[Callable] = None,
                control_poll: Optional[Callable] = None) -> dict:
    """Run one job (to completion or a yield); returns the payload dict.

    The cluster worker's driver around :func:`execute_job_steps`: at each
    checkpoint boundary it consults ``control_poll(job_id)`` — a True
    return means the front-end wants this job back (migration/drain), so
    the job stops and the payload is a ``{"kind": "yield"}`` carrying the
    boundary checkpoint — and otherwise asks for the boundary's
    checkpoint and hands it to ``checkpoint_sink``, if there is one.
    """
    steps = execute_job_steps(runtime, pool, job, budget=budget,
                              checkpoint_interval=checkpoint_interval)
    ask = {"checkpoint": checkpoint_sink is not None}
    cmd = None
    try:
        while True:
            info = steps.send(cmd)
            cmd = ask
            if info["kind"] == "begin":
                continue
            if control_poll is not None and control_poll(job["job_id"]):
                cmd = {"stop": True}
            elif checkpoint_sink is not None:
                checkpoint_sink(info["checkpoint"])
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


def worker_main(worker_id: int, generation: int, config: dict,
                job_queue, result_conn, ctrl_queue=None) -> None:
    """Worker process entry point: pull jobs until the shutdown sentinel.

    ``result_conn`` is this worker's *private* pipe to the front-end.
    Results are sent synchronously from the worker's main thread — there
    is no feeder thread and no lock shared with any other process, so a
    crash (even an ``os._exit`` mid-job) can never wedge another worker's
    reporting, and the front-end sees a clean EOF once the sole writer is
    gone.  (A shared ``multiprocessing.Queue`` here deadlocked the whole
    cluster whenever a chaos kill landed while the dying worker's feeder
    thread held the shared write lock.)

    Fault injection, all seeded from ``config["seed"]`` via
    :func:`derive_worker_seed` so chaos runs replay exactly:

    * ``config["chaos"]`` maps this worker id to N: on its first
      generation the worker dies with ``os._exit`` during its (N+1)th job
      — at a seeded scheduling slice, or (for jobs too short to get
      there) right after execution but *before* reporting the result.
      Either way the crash window is one the front-end must survive;
    * ``config["chaos_faults"]`` maps this worker id to a count of
      sandbox-level fault injections (:class:`FaultInjector`) armed
      against whatever this worker runs.

    ``ctrl_queue`` carries yield requests from the front-end: ``{"op":
    "yield", "job_id": n}`` asks for one job back at its next checkpoint
    boundary (migration); ``{"op": "yield_all"}`` puts the worker into
    draining mode — the current job yields and every queued job bounces
    back unexecuted (elastic scale-down).
    """
    runtime = Runtime(model=None,
                      engine=config.get("engine"),
                      timeslice=config.get("timeslice", 50_000))
    pool = WarmPool(runtime) if config.get("warm_spawn", True) else None
    budget = config.get("budget", DEFAULT_JOB_BUDGET)
    interval = config.get("checkpoint_interval")
    seed = derive_worker_seed(config.get("seed", 0), worker_id, generation)
    rng = random.Random(seed)
    chaos_faults = (config.get("chaos_faults") or {}).get(worker_id)
    if chaos_faults:
        injector = FaultInjector(runtime, seed=seed)
        injector.arm(injector.plan(chaos_faults))
    crash_after = None
    if generation == 0:
        crash_after = (config.get("chaos") or {}).get(worker_id)

    state = {"draining": False, "yields": set()}

    def drain_ctrl() -> None:
        if ctrl_queue is None:
            return
        while True:
            try:
                msg = ctrl_queue.get_nowait()
            except _queue.Empty:
                return
            if msg.get("op") == "yield":
                state["yields"].add(msg["job_id"])
            elif msg.get("op") == "yield_all":
                state["draining"] = True

    def control_poll(job_id: int) -> bool:
        drain_ctrl()
        return state["draining"] or job_id in state["yields"]

    taken = 0
    while True:
        job = job_queue.get()
        if job is None:
            return
        drain_ctrl()
        if state["draining"]:
            result_conn.send({"kind": "bounce", "job_id": job["job_id"]})
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

            runtime.machine.run_hooks.add(blow)

        def sink(ckpt, _job_id=job["job_id"]):
            result_conn.send({"kind": "checkpoint", "job_id": _job_id,
                              "checkpoint": ckpt.to_bytes(),
                              "seq": ckpt.stats.get("seq", 0)})

        payload = execute_job(
            runtime, pool, job, budget=budget,
            checkpoint_interval=interval,
            checkpoint_sink=sink,
            control_poll=control_poll if ctrl_queue is not None else None,
        )
        if fatal:
            # The job was too short to reach the slice fuse: die in the
            # same window the pre-chunking chaos used — after execution,
            # before the result reaches the front-end.
            os._exit(CHAOS_EXIT)
        if payload.get("kind") == "yield":
            state["yields"].discard(job["job_id"])
        else:
            # Diagnostic only — placement is intentionally outside the
            # deterministic result key (it varies with worker count).
            payload["diag"]["worker"] = worker_id
        result_conn.send(payload)
