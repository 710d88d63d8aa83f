"""Jobs, results, and the one dispatcher over two transports (DESIGN.md §12).

A job is a sandbox execution request: ELF bytes, stdin and an
instruction budget, and at the serving gateway a tenant, priority class
and deadline.  A result's deterministic fields
(:meth:`JobResult.deterministic_key`: exit code, output, fault kinds,
pid-normalized metrics, and the gateway's status, reason and virtual
latency) depend only on the job and its schedule; its ``diag`` holds
what depends on placement (worker or lane id, pid, slot, warm hit,
cycles) and is outside the determinism contract.  A :class:`Dispatcher`
decides what runs next and where, for the in-process
:class:`~repro.serve.Gateway` and the forked
:class:`~repro.cluster.Cluster` alike.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import MetricsHub

__all__ = ["Dispatcher", "Job", "JobResult", "normalize_metrics"]

_SANDBOX_KEY = re.compile(r"^sandbox\[(\d+)\]")


@dataclass
class Job:
    """One sandbox execution request and where it stands in the queue."""

    job_id: int
    program: bytes
    stdin: bytes = b""
    max_instructions: Optional[int] = None
    #: :class:`~repro.runtime.runtime.ResourceQuota` kwargs for the spawn.
    quota: Optional[dict] = None
    tenant: str = ""
    priority: int = 0           # lower runs first
    arrival_s: float = 0.0
    deadline_s: Optional[float] = None
    #: The lane to start on when it has room (a migration target).
    route: Optional[int] = None
    #: Set when a gateway lane starts the job.
    pid: int = -1
    slot: int = -1
    policy_version: int = -1

    def payload(self, resume: Optional[bytes] = None) -> dict:
        """The job dict an :class:`~repro.cluster.Executor` consumes.

        ``resume`` carries serialized checkpoint bytes when the job is
        being re-dispatched mid-execution (crash recovery, migration):
        the executor restores that state instead of spawning afresh.
        """
        out = {"job_id": self.job_id, "program": self.program,
               "stdin": self.stdin, "max_instructions": self.max_instructions}
        if self.quota:
            out["quota"] = self.quota
        if resume is not None:
            out["resume"] = resume
        return out


@dataclass
class JobResult:
    """The outcome of one job, run or shed; see the module docstring."""

    job_id: int
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    metrics: str = ""
    faults: Tuple[str, ...] = ()
    diag: Dict[str, object] = field(default_factory=dict)
    tenant: str = ""
    status: str = "ok"          # "ok" | "rejected"
    reason: str = ""            # rejection reason, "" when ok
    finish_s: float = 0.0
    latency_s: float = 0.0
    #: ``diag["instructions"]`` and ``diag["warm"]``; 0 and False when shed.
    instructions: int = 0
    warm: bool = False

    def deterministic_key(self) -> tuple:
        """Everything that must match however the job was placed."""
        return (self.job_id, self.exit_code, self.stdout, self.stderr,
                self.metrics, self.faults, self.tenant, self.status,
                self.reason, round(self.latency_s, 9), self.instructions)

    @classmethod
    def from_payload(cls, payload: dict, **fields) -> "JobResult":
        """The result of an executor's ``result`` payload, plus ``fields``;
        the result takes over the payload's ``diag``."""
        diag = payload["diag"]
        return cls(payload["job_id"], payload["exit_code"], payload["stdout"],
                   payload["stderr"], payload["metrics"],
                   tuple(payload["faults"]), diag, **fields,
                   instructions=int(diag["instructions"]), warm=diag["warm"])


class Dispatcher:
    """What runs next and where; a transport says where there is room.

    Queued jobs wait in priority classes, FIFO within a class.
    :meth:`_dispatch` starts the next one (:meth:`_pick`, which sheds a
    waiter past its deadline) while some lane has room, on its ``route``
    if that lane has room, else on ``min(lanes with room, key=(jobs
    outstanding, lane id))``.  A transport defines ``_room()`` (lane id
    -> jobs outstanding there, for every lane with room) and ``_start(lane,
    job, t)``; ``error`` is its typed error.
    """

    error = ReproError
    #: Whether ``checkpoint_interval=None`` (each job runs unchunked) is
    #: accepted.
    unchunked = True

    def __init__(self, lanes: int, checkpoint_interval: Optional[int]):
        self._check_lanes(lanes)
        interval = checkpoint_interval
        if not (interval is None and self.unchunked) and (
                isinstance(interval, bool) or not isinstance(interval, int)
                or interval < 1):
            allowed = "None or an integer" if self.unchunked else "an integer"
            raise self.error(f"checkpoint_interval must be {allowed} >= 1, "
                             f"got {interval!r}")
        self.ops = MetricsHub()
        #: job id -> its result, in the order the results landed.
        self.results: Dict[int, JobResult] = {}
        self.peak_queued = 0                     # bounded-queue evidence
        self._queued = 0                         # jobs in all the queues
        self._queues: Dict[int, deque] = {}      # priority -> waiting FIFO
        self._queued_per_tenant: Dict[str, int] = {}

    def _check_lanes(self, lanes: int) -> None:
        if lanes < 1:
            raise self.error(f"need at least one lane, got {lanes}")

    def queued_depth(self) -> int:
        return self._queued

    def _enqueue(self, job: Job) -> None:
        self._queues.setdefault(job.priority, deque()).append(job)
        self._queued_per_tenant[job.tenant] = \
            self._queued_per_tenant.get(job.tenant, 0) + 1
        self._queued += 1
        self.peak_queued = max(self.peak_queued, self._queued)

    def _dispatch(self, t: float = 0.0) -> None:
        while self._queued:
            room = self._room()
            if not room:
                return
            job = self._pick(t)
            if job is None:
                return
            if job.route in room:
                lane = job.route
                self.ops.host_counter("job.migrations").inc()
            else:
                lane = min(zip(room.values(), room))[1]
            job.route = None
            self._start(lane, job, t)

    def _pick(self, t: float) -> Optional[Job]:
        """Next dispatchable job: highest priority class first, FIFO
        within it, shedding waiters whose deadline has passed."""
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            while queue:
                job = queue.popleft()
                self._queued -= 1
                self._queued_per_tenant[job.tenant] -= 1
                if (job.deadline_s is not None
                        and t - job.arrival_s > job.deadline_s):
                    self._reject(job, "deadline", t)
                    continue
                return job
        return None

    def _reject(self, job: Job, reason: str, t: float) -> None:
        self.results[job.job_id] = JobResult(
            job.job_id, tenant=job.tenant, status="rejected", reason=reason,
            finish_s=t, latency_s=t - job.arrival_s)


def normalize_metrics(text: str, root_pid: int) -> str:
    """Rebase ``sandbox[pid]`` metric keys to be relative to the job root.

    Worker-local pids are allocation-order artifacts; the job's root
    sandbox becomes ``sandbox[0]`` and its forked descendants keep their
    (contiguous) offsets, so per-job snapshots compare byte-for-byte
    across worker placements.
    """
    lines = []
    for line in text.splitlines():
        match = _SANDBOX_KEY.match(line)
        if match is not None:
            pid = int(match.group(1))
            line = f"sandbox[{pid - root_pid}]" + line[match.end():]
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else text
