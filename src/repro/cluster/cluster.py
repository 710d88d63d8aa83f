"""The forked transport: the dispatcher over worker processes (DESIGN.md §12).

The :class:`Cluster` partitions a job batch across N OS worker processes
(`multiprocessing` fork context), each running a private superblock
runtime.  Three rules make it safe and deterministic:

* **routing** — every live worker that is not draining has room, so the
  :class:`~repro.cluster.jobs.Dispatcher` sends a job to the worker with
  the fewest outstanding jobs (ties to the lowest worker id).  Routing
  affects only placement diagnostics, never results;
* **determinism** — ``drain`` orders results by submission id, and every
  result's deterministic fields (exit code, stdout/stderr, fault kinds,
  pid-normalized metrics) are placement-independent, so 1-worker and
  N-worker runs of the same batch are byte-identical;
* **fault tolerance** — the front-end retains every job payload *and its
  latest checkpoint* until the result arrives.  A dead worker is entered
  in a :class:`~repro.robustness.RestartBook`, the sandbox supervisor's
  restart rule; while its :class:`~repro.robustness.RestartPolicy`
  grants restarts it is relaunched after a bounded-jitter exponential
  backoff.  The jobs it owed go back on the dispatcher's queue, as do
  bounced and yielded jobs, and resume from their last checkpoint, so at
  most one checkpoint interval of work is redone.  Duplicate results (a
  worker that died *after* reporting) are deduplicated by job id —
  executions are deterministic, so duplicates are identical.

On top of checkpoint retention sit live migration (:meth:`migrate` asks
a worker to yield a running job at its next checkpoint boundary; the
yielded job's route is the target) and elastic rebalancing
(:meth:`resize` grows the pool, or drains victims by yield-and-bounce).
Both preserve the byte-identity contract (DESIGN.md §13).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as _mpconn
import random
import time
from typing import Dict, List, Optional, Set, Tuple

from ..engine import EngineConfig, engine_config
from ..errors import ClusterError
from ..obs.metrics import merge_snapshots
from ..robustness.supervisor import ON_FAILURE, RestartBook, RestartPolicy
from .jobs import Dispatcher, Job, JobResult
from .worker import DEFAULT_JOB_BUDGET, worker_main

__all__ = ["Cluster", "DEFAULT_CHECKPOINT_INTERVAL", "worker_crashed",
           "worker_backoff_s"]

#: Instructions between periodic job checkpoints.  Also the bound on work
#: redone after a worker crash.  Deliberately larger than typical smoke
#: jobs: short jobs never pause, so chunking is free for them.
DEFAULT_CHECKPOINT_INTERVAL = 250_000

#: Restore latency histogram bounds, in wall-clock seconds.
RESTORE_LATENCY_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.25, 1.0)

#: Longest wait for a worker result before the drain loop rechecks
#: worker liveness and due restarts, in wall-clock seconds.
_POLL_SECONDS = 0.05

#: Wall-clock seconds per unit of a restart policy's backoff, its hard
#: cap, and the largest jitter stretch.
BACKOFF_UNIT_S = 0.05
MAX_BACKOFF_S = 2.0
JITTER = 0.25


def worker_crashed(book: RestartBook, policy: RestartPolicy, worker_id: int,
                   pid: int, exitcode, in_flight: int) -> bool:
    """Enter a worker's death in ``book``; True when it is to restart.
    (A worker incident's round is the worker's restart count.)"""
    name = f"worker-{worker_id}"
    done = book.restarts.get(name, 0)
    book.log(done, "worker-crash", name, pid,
             f"exitcode={exitcode} with {in_flight} job(s) in flight")
    if not book.grant(policy, done, name, pid):
        return False
    book.log(done + 1, "worker-restart", name, pid, f"restart #{done + 1}")
    return True


def worker_backoff_s(book: RestartBook, policy: RestartPolicy,
                     worker_id: int, rng: random.Random) -> float:
    """Seconds to wait before relaunching ``worker_id``: the policy's
    backoff for its latest restart in :data:`BACKOFF_UNIT_S` units, capped
    at :data:`MAX_BACKOFF_S`, stretched by a seeded jitter in ``[0,
    JITTER]`` so a correlated crash of many workers does not relaunch
    them in one stampede, and a chaos run's restart timeline replays."""
    units = policy.backoff(book.restarts.get(f"worker-{worker_id}", 0))
    delay = min(MAX_BACKOFF_S, BACKOFF_UNIT_S * units)
    return delay * (1.0 + rng.random() * JITTER)


class _WorkerHandle:
    """Front-end bookkeeping for one worker process (one per shard)."""

    __slots__ = ("worker_id", "generation", "process", "job_queue",
                 "ctrl_queue", "outstanding", "completed", "dead",
                 "draining")

    def __init__(self, worker_id: int, generation: int, process, job_queue,
                 ctrl_queue):
        self.worker_id = worker_id
        self.generation = generation
        self.process = process
        self.job_queue = job_queue
        self.ctrl_queue = ctrl_queue
        self.outstanding: Set[int] = set()
        self.completed = 0
        #: Exited and not yet replaced (or never to be); has no room.
        self.dead = False
        #: Being drained for scale-down; has no room.
        self.draining = False


class Cluster(Dispatcher):
    """Batching front-end over N sharded runtime workers."""

    error = ClusterError

    def __init__(self, workers: int = 2, *,
                 engine: Optional[EngineConfig] = None,
                 timeslice: int = 50_000,
                 warm_spawn: bool = True,
                 budget: int = DEFAULT_JOB_BUDGET,
                 restart_policy: RestartPolicy = ON_FAILURE,
                 chaos: Optional[Dict[int, int]] = None,
                 chaos_faults: Optional[Dict[int, int]] = None,
                 checkpoint_interval: Optional[int]
                 = DEFAULT_CHECKPOINT_INTERVAL,
                 seed: int = 0):
        super().__init__(workers, checkpoint_interval)
        # Checked here, before any fork: a bad engine in the workers would
        # crash each one at startup and restart it into the same crash.
        self._config = {
            "engine": engine_config(engine),
            "timeslice": timeslice,
            "warm_spawn": warm_spawn,
            "budget": budget,
            "chaos": dict(chaos) if chaos else {},
            "chaos_faults": dict(chaos_faults) if chaos_faults else {},
            "checkpoint_interval": checkpoint_interval,
            "seed": seed,
        }
        self._ctx = multiprocessing.get_context("fork")
        #: Read end of every worker's result pipe (``_launch``), live or
        #: not, polled until EOF: what a worker sent before exiting counts.
        self._pipes: List = []
        self.restart_policy = restart_policy
        self.book = RestartBook()
        self._rng = random.Random(seed)
        self._jobs: Dict[int, Job] = {}
        #: job id -> latest checkpoint bytes (cleared when the result lands).
        self._checkpoints: Dict[int, bytes] = {}
        #: Deferred relaunches: (due time, the dead worker's handle).
        self._pending_restarts: List[Tuple[float, _WorkerHandle]] = []
        self._next_job_id = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = [
            self._launch(worker_id, generation=0)
            for worker_id in range(workers)
        ]

    # -- lifecycle -----------------------------------------------------------

    def _launch(self, worker_id: int, generation: int) -> _WorkerHandle:
        job_queue = self._ctx.Queue()
        ctrl_queue = self._ctx.Queue()
        # One private result pipe per worker.  A shared results queue is a
        # single point of failure: a worker dying mid-put (chaos kill, OOM)
        # leaves the shared write lock held or a partial frame in the
        # shared pipe, wedging every other worker's reporting forever.
        # With a single writer per pipe and the parent's write end closed
        # right after fork, a worker crash is always observable as EOF.
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, generation, self._config, job_queue,
                  send_conn, ctrl_queue),
            daemon=True,
            name=f"repro-cluster-w{worker_id}g{generation}",
        )
        process.start()
        send_conn.close()
        self._pipes.append(recv_conn)
        return _WorkerHandle(worker_id, generation, process, job_queue,
                             ctrl_queue)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle.process.is_alive():
                try:
                    handle.job_queue.put(None)
                except (OSError, ValueError):
                    pass
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        for conn in self._pipes:
            conn.close()
        self._pipes.clear()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, program: bytes, stdin: bytes = b"",
               max_instructions: Optional[int] = None) -> int:
        """Queue one job; returns its submission id."""
        if self._closed:
            raise ClusterError("cluster is closed")
        job = Job(self._next_job_id, bytes(program), bytes(stdin),
                  max_instructions)
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._requeue([job.job_id])
        return job.job_id

    def _routable(self) -> List[_WorkerHandle]:
        """The workers with room: live and not draining."""
        return [h for h in self._workers
                if not h.dead and not h.draining]

    def _live(self, worker_id: int) -> Optional[_WorkerHandle]:
        return next((h for h in self._routable()
                     if h.worker_id == worker_id), None)

    def _room(self) -> Dict[int, int]:
        room = {h.worker_id: len(h.outstanding) for h in self._routable()}
        if not room and not self._pending_restarts:
            raise ClusterError("no live workers left to dispatch to")
        return room

    def _start(self, worker_id: int, job: Job, t: float) -> None:
        handle = self._live(worker_id)
        handle.outstanding.add(job.job_id)
        handle.job_queue.put(
            job.payload(resume=self._checkpoints.get(job.job_id)))

    def _requeue(self, job_ids, yielded: bool = False) -> None:
        """Queue jobs - new, bounced, yielded, or owed by a retired
        worker - and dispatch whatever has room.  Only a yielded job
        keeps its route: a migration happens at a yield or not at all."""
        for job_id in job_ids:
            if job_id not in self.results:
                job = self._jobs[job_id]
                if not yielded:
                    job.route = None
                self._enqueue(job)
        self._dispatch()

    # -- live migration / elastic resize -------------------------------------

    def migrate(self, job_id: int, worker_id: int) -> None:
        """Move a running job to ``worker_id`` at its next checkpoint.

        Asynchronous: the current owner is asked to yield the job — it
        stops at the next checkpoint-interval boundary and hands back a
        fresh checkpoint, and the job goes back on the queue with the
        target as its route.  A job that finishes before reaching a
        boundary simply completes where it is, and one whose owner
        crashes or bounces it first is routed like any other job (the
        migration dissolves).  The result is byte-identical either way
        (DESIGN.md §13).
        """
        if job_id in self.results or job_id not in self._jobs:
            raise ClusterError(f"job {job_id} is not in flight")
        if self._live(worker_id) is None:
            raise ClusterError(f"worker-{worker_id} is not accepting jobs")
        owner = next((h for h in self._workers
                      if job_id in h.outstanding and not h.dead), None)
        if owner is None:
            raise ClusterError(f"job {job_id} is not assigned to any worker")
        if owner.worker_id == worker_id:
            return
        self._jobs[job_id].route = worker_id
        owner.ctrl_queue.put({"op": "yield", "job_id": job_id})

    def resize(self, workers: int) -> None:
        """Scale the worker pool to ``workers`` (elastic rebalancing).

        Growing launches fresh workers (new ids above the highest ever
        used).  Shrinking drains the highest-id workers: each yields its
        running job at the next checkpoint boundary, bounces its queued
        jobs back unexecuted, and exits; all of it goes back on the queue
        for the survivors, resuming from checkpoints.  Results stay
        byte-identical across any resize schedule.
        """
        self._check_lanes(workers)
        if self._closed:
            raise ClusterError("cluster is closed")
        active = self._routable()
        if workers > len(active):
            next_id = 1 + max(h.worker_id for h in self._workers)
            for offset in range(workers - len(active)):
                self._workers.append(self._launch(next_id + offset,
                                                  generation=0))
            self._dispatch()
        elif workers < len(active):
            victims = sorted(active, key=lambda h: -h.worker_id)
            for handle in victims[:len(active) - workers]:
                handle.draining = True
                handle.ctrl_queue.put({"op": "yield_all"})
                handle.job_queue.put(None)

    # -- collection ----------------------------------------------------------

    def drain(self) -> List[JobResult]:
        """Block until every submitted job has a result; ordered by id.

        Survives worker crashes: dead workers are restarted per the
        restart policy (after its backoff) and their in-flight jobs
        re-dispatched, resuming from their last checkpoint.  Handles the
        checkpoint/yield/bounce traffic that crash recovery, migration,
        and resize generate.  Raises :class:`ClusterError` once a crashed
        worker's restart budget is exhausted with jobs still assigned.
        """
        while len(self.results) < len(self._jobs):
            self._check_workers()
            self._launch_due_restarts()
            for payload in self._poll_results():
                self._absorb(payload)
        return [self.results[job_id] for job_id in sorted(self.results)]

    def _poll_results(self) -> List[dict]:
        """Collect every payload ready on any worker's result pipe.

        A dead worker's pipe stays in the poll set until EOF, so anything
        it reported just before crashing is recovered before its jobs are
        re-dispatched from checkpoints.
        """
        if not self._pipes:
            time.sleep(_POLL_SECONDS)
            return []
        payloads = []
        for conn in _mpconn.wait(list(self._pipes), timeout=_POLL_SECONDS):
            try:
                payloads.append(conn.recv())
            except (EOFError, OSError):
                self._pipes.remove(conn)
                conn.close()
        return payloads

    def _absorb(self, payload: dict) -> None:
        kind = payload.get("kind", "result")
        job_id = payload["job_id"]
        if job_id in self.results:
            return  # duplicate after a crash re-dispatch
        if kind in ("checkpoint", "yield"):
            self._checkpoints[job_id] = payload["checkpoint"]
            self.ops.host_counter("job.checkpoints").inc()
        if kind == "yield":
            self.ops.host_counter("job.yields").inc()
        if kind in ("yield", "bounce"):
            self._forget_assignment(job_id)
            self._requeue([job_id], yielded=kind == "yield")
        if kind != "result":
            return
        self._forget_assignment(job_id, completed=True)
        self._checkpoints.pop(job_id, None)
        result = JobResult.from_payload(payload)
        restore_s = result.diag.get("restore_s")
        if restore_s is not None:
            self.ops.host_counter("job.restores").inc()
            self.ops.host_histogram(
                "job.restore_latency_s",
                RESTORE_LATENCY_BUCKETS).observe(restore_s)
        self.results[job_id] = result

    def _forget_assignment(self, job_id: int,
                           completed: bool = False) -> None:
        for handle in self._workers:
            if job_id in handle.outstanding:
                handle.outstanding.discard(job_id)
                if completed:
                    handle.completed += 1

    def _check_workers(self) -> None:
        """Retire drained workers that exited; enter crashed ones in the
        restart book, to relaunch after their backoff."""
        for handle in list(self._workers):
            if handle.dead or handle.process.is_alive():
                continue
            if handle.draining:
                self._retire(handle)
                continue
            handle.dead = True
            process = handle.process
            if worker_crashed(self.book, self.restart_policy,
                              handle.worker_id, process.pid or 0,
                              process.exitcode, len(handle.outstanding)):
                due = time.monotonic() + worker_backoff_s(
                    self.book, self.restart_policy, handle.worker_id,
                    self._rng)
                self._pending_restarts.append((due, handle))
            elif handle.outstanding:
                raise ClusterError(
                    f"worker-{handle.worker_id} died "
                    f"(exitcode={process.exitcode}) with "
                    f"{len(handle.outstanding)} job(s) in flight and no "
                    f"restarts left")

    def _launch_due_restarts(self) -> None:
        now = time.monotonic()
        for due, handle in [e for e in self._pending_restarts if e[0] <= now]:
            self._pending_restarts.remove((due, handle))
            replacement = self._launch(handle.worker_id,
                                       handle.generation + 1)
            replacement.completed = handle.completed
            self._workers.insert(self._workers.index(handle), replacement)
            self.ops.host_counter("worker.restarts").inc()
            self._retire(handle)

    def _retire(self, handle: _WorkerHandle) -> None:
        """Take an exited worker out of the pool.

        Every job it still owed goes back on the queue, resuming from its
        latest retained checkpoint — so at most one checkpoint interval is
        repeated — and the queue is dispatched, onto the replacement too
        when this worker had one.  (Its pipe is polled on until EOF.)
        """
        self._workers.remove(handle)
        owed = sorted(handle.outstanding)
        handle.outstanding.clear()
        self._requeue(owed)

    # -- reporting -----------------------------------------------------------

    def metrics_report(self) -> str:
        """One merged, deterministic metrics report for the whole batch.

        Byte-identical for the same batch regardless of worker count,
        crashes, migrations, or resizes: per-job snapshots are already
        placement-independent, and they are merged in submission order
        under ``job[<id>]`` prefixes.
        """
        parts = [(f"job[{job_id}]", self.results[job_id].metrics)
                 for job_id in sorted(self.results)]
        return f"cluster.jobs {len(parts)}\n" + merge_snapshots(parts)

    def fleet_report(self) -> dict:
        """Placement and health diagnostics (worker-count dependent)."""
        warm_hits = sum(1 for r in self.results.values()
                        if r.diag.get("warm"))
        return {
            "workers": len(self._workers),
            "jobs": len(self.results),
            "completed_per_worker": {
                handle.worker_id: handle.completed
                for handle in self._workers
            },
            "warm_hits": warm_hits,
            "warm_misses": len(self.results) - warm_hits,
            "restarts": self.book.total_restarts,
            "checkpoints": self.ops.host_counter("job.checkpoints").value,
            "migrations": self.ops.host_counter("job.migrations").value,
            "restores": self.ops.host_counter("job.restores").value,
            "incidents": self.book.incident_log(),
        }
