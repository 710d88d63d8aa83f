"""The in-process transport: admission control in virtual time.

:class:`Gateway` is the cluster's :class:`~repro.cluster.jobs.Dispatcher`
(queues, pick, route) over executor lanes in its own process, where a
lane has room only while it is idle, plus admission.  It is a
deterministic discrete-event simulation: one virtual second is
:data:`CLOCK_HZ` emulated instructions (lanes run ``model=None``
runtimes, so cycles == instructions), every event — arrival, chunk
boundary, finish, reload — carries a virtual timestamp, and the whole
schedule replays byte-identically under a fixed seed.  The state machine
per request (DESIGN.md §12):

    offered ──► rejected(unknown-tenant | throttled | queue-full)
       │
       ▼
    queued ──► rejected(deadline)                 [shed at dispatch]
       │
       ▼
    running ──► finished(ok | deadlock | budget | quota-tripped)

Admission is **bounded by construction**: a tenant's token bucket caps
its admission rate, ``queue_limit`` caps its waiting depth, and
everything beyond is shed with a typed reason — the gateway never
queues unboundedly.  Policy hot-reload goes through the monotonic
token protocol of :class:`~repro.serve.policy.PolicyStore`; the new
`ResourceQuota` is applied to running guests at their next chunk
boundary without restarting them (same pid, same slot — the benchmark
proves it).  Each lane is a cluster :class:`~repro.cluster.worker.Executor`
run in the gateway's own process, so it cannot crash apart from it:
crashes, restarts, migration and resizing are the
:class:`~repro.cluster.Cluster`'s, whose workers are processes.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..cluster.jobs import Dispatcher, Job, JobResult
from ..cluster.worker import DEFAULT_JOB_BUDGET, Executor
from ..engine import EngineConfig, engine_config
from ..errors import Overloaded, ServeError, StalePolicy
from .policy import PolicyStore, TenantPolicy

__all__ = ["Gateway", "CLOCK_HZ", "LATENCY_BUCKETS_S"]

#: Virtual clock: emulated instructions per virtual second.
CLOCK_HZ = 1_000_000.0

#: Request-latency histogram bounds, in virtual seconds.
LATENCY_BUCKETS_S = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 1.0)


class Gateway(Dispatcher):
    """Always-on admission front-end over in-process executor lanes."""

    error = ServeError
    #: A lane meets the gateway (and takes a reloaded policy) only at a
    #: chunk boundary, so every job is chunked.
    unchunked = False

    def __init__(self, policies: Dict[str, TenantPolicy], *,
                 lanes: int = 2,
                 checkpoint_interval: int = 2000,
                 budget: int = DEFAULT_JOB_BUDGET,
                 engine: Optional[EngineConfig] = None,
                 chaos_faults: Optional[Dict[int, int]] = None,
                 seed: int = 0):
        super().__init__(lanes, checkpoint_interval)
        # The chunk size: a running guest meets the gateway (and takes a
        # reloaded policy) every ``checkpoint_interval`` instructions.
        self.interval = checkpoint_interval
        self.budget = budget
        # run_bounded pauses only between scheduler slices, so the lane
        # timeslice is the chunk interval: every boundary (a hot-reload
        # application point) falls on a slice end.
        self.timeslice = checkpoint_interval
        self.engine_config = engine_config(engine)
        self.store = PolicyStore()
        for tenant in sorted(policies):
            self.store.add(tenant, policies[tenant])
        self.now = 0.0
        self.log: List[str] = []
        #: lane id -> its executor; the request each busy lane serves;
        #: and the idle lanes, each with 0 jobs outstanding (``_room``).
        self.lanes: Dict[int, Executor] = {
            lane_id: Executor(lane_id, engine=self.engine_config,
                              timeslice=self.timeslice,
                              chaos_faults=chaos_faults, seed=seed)
            for lane_id in range(lanes)}
        self._serving: Dict[int, Job] = {}
        self._idle: Dict[int, int] = dict.fromkeys(self.lanes, 0)
        self._next_request = 0
        self._events: list = []     # (time, seq, handler, args)
        self._seq = 0
        self._buckets: Dict[str, list] = {}      # tenant -> [tokens, last_t]

    # -- public API ----------------------------------------------------------

    def offer(self, tenant: str, program: bytes, *, stdin: bytes = b"",
              at: Optional[float] = None) -> int:
        """Offer one request; returns its id.

        With ``at`` set, the arrival is scheduled at that virtual time
        and any rejection lands in the results as a shed record.  With
        ``at=None`` the request is admitted *now*, synchronously, and a
        shed raises the typed :class:`Overloaded` instead.
        """
        job = Job(self._next_request, program, bytes(stdin), tenant=tenant,
                  arrival_s=self.now if at is None else float(at))
        self._next_request += 1
        if at is None:
            self._on_arrival(job, self.now)
            done = self.results.get(job.job_id)
            if done is not None and done.status == "rejected":
                raise Overloaded(done.reason, tenant, job.job_id)
            return job.job_id
        self._push(job.arrival_s, self._on_arrival, job)
        return job.job_id

    def reload(self, tenant: str, policy: TenantPolicy, token: int,
               at: Optional[float] = None) -> None:
        """Hot-reload ``tenant``'s policy under monotonic ``token``.

        Immediate reloads raise :class:`StalePolicy` on a stale token;
        scheduled ones record the refusal deterministically (log line +
        ``serve.reloads_stale`` counter) since there is no caller left
        to raise to.  Running guests pick the new quota up at their next
        chunk boundary — no restart, same pid and slot.
        """
        if at is None:
            self._do_reload(tenant, policy, token, self.now, raise_stale=True)
        else:
            self._push(float(at), self._do_reload, tenant, policy, token)

    def run(self, until: float):
        """Advance virtual time to ``until``, processing due events."""
        self._run(until)
        self.now = max(self.now, until)
        return self

    def drain(self) -> List[JobResult]:
        """Run until every queued and running request reaches a terminal
        state; returns all results in completion order."""
        self._run(float("inf"))
        return list(self.results.values())

    def report(self) -> str:
        """Deterministic ops snapshot (MetricsHub text format)."""
        self.ops.host_gauge("serve.lanes").set(len(self.lanes))
        self.ops.host_gauge("serve.queued").set(self.queued_depth())
        return self.ops.snapshot()

    # -- event plumbing ------------------------------------------------------

    def _push(self, t: float, handler, *args) -> None:
        """Schedule ``handler(*args, t)`` at virtual time ``t``."""
        if t < self.now:
            raise ServeError(f"cannot schedule an event in the past "
                             f"(at={t:.6f} < now={self.now:.6f})")
        heapq.heappush(self._events, (t, self._seq, handler, args))
        self._seq += 1

    def _run(self, until: float) -> None:
        while self._events and self._events[0][0] <= until:
            t, _seq, handler, args = heapq.heappop(self._events)
            self.now = max(self.now, t)
            handler(*args, self.now)

    def _log(self, t: float, verb: str, **kv) -> None:
        parts = [f"t={t:.6f}", verb]
        parts += [f"{k}={v}" for k, v in kv.items()]
        self.log.append(" ".join(parts))

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if labels:
            inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            name = f"{name}[{inner}]"
        self.ops.host_counter(name).inc(amount)

    # -- admission -----------------------------------------------------------

    def _on_arrival(self, job: Job, t: float) -> None:
        self._count("serve.offered", tenant=job.tenant)
        policy = self.store.get(job.tenant)
        if policy is None:
            self._reject(job, "unknown-tenant", t)
            return
        bucket = self._buckets.get(job.tenant)
        if bucket is None:
            bucket = self._buckets[job.tenant] = [policy.burst, t]
        else:
            bucket[0] = min(policy.burst,
                            bucket[0] + (t - bucket[1]) * policy.rate)
            bucket[1] = t
        if bucket[0] < 1.0:
            self._reject(job, "throttled", t)
            return
        queued = self._queued_per_tenant.get(job.tenant, 0)
        if queued >= policy.queue_limit:
            self._reject(job, "queue-full", t)
            return
        bucket[0] -= 1.0
        job.priority = policy.priority
        job.deadline_s = policy.deadline_s
        self._enqueue(job)
        self._count("serve.admitted", tenant=job.tenant)
        self._log(t, "admit", tenant=job.tenant, req=job.job_id,
                  prio=job.priority)
        self._dispatch(t)

    def _reject(self, job: Job, reason: str, t: float) -> None:
        self._count("serve.rejected", tenant=job.tenant, reason=reason)
        self._log(t, "reject", tenant=job.tenant, req=job.job_id,
                  reason=reason)
        super()._reject(job, reason, t)

    # -- lanes ---------------------------------------------------------------

    def _room(self) -> Dict[int, int]:
        return self._idle

    def _start(self, lane_id: int, job: Job, t: float) -> None:
        lane = self.lanes[lane_id]
        policy = self.store.get(job.tenant)
        job.quota = dict(policy.quota) if policy.quota else None
        begin = lane.begin(job.payload(), budget=self.budget,
                           checkpoint_interval=self.interval)
        job.pid, job.slot = begin["pid"], begin["slot_base"]
        self._serving[lane_id] = job
        del self._idle[lane_id]
        job.policy_version = self.store.version(job.tenant)
        self._log(t, "start", tenant=job.tenant, req=job.job_id,
                  lane=lane_id, pid=job.pid, slot=hex(job.slot),
                  attempt=1)
        self._advance(lane, t, None)

    def _advance(self, lane: Executor, t: float,
                 cmd: Optional[dict]) -> None:
        info, delta = lane.step(cmd)
        if info["kind"] == "chunk":
            self._push(t + delta / CLOCK_HZ, self._on_boundary, lane)
        else:
            self._push(t + delta / CLOCK_HZ, self._on_finish, lane, info)

    def _on_boundary(self, lane: Executor, t: float) -> None:
        job = self._serving[lane.worker_id]
        version = self.store.version(job.tenant)
        cmd: dict = {}
        if version != job.policy_version:
            policy = self.store.get(job.tenant)
            job.policy_version = version
            cmd = {"quota": dict(policy.quota) if policy.quota else None}
            self._count("serve.policy_applied", tenant=job.tenant)
            self._log(t, "apply-policy", tenant=job.tenant,
                      req=job.job_id, lane=lane.worker_id, pid=job.pid,
                      slot=hex(job.slot), version=version)
        self._advance(lane, t, cmd)

    def _on_finish(self, lane: Executor, payload: dict, t: float) -> None:
        job = self._serving.pop(lane.worker_id)
        self._idle[lane.worker_id] = 0
        latency = t - job.arrival_s
        result = JobResult.from_payload(payload, tenant=job.tenant,
                                        finish_s=t, latency_s=latency)
        diag = result.diag
        diag.update(worker=lane.worker_id, pid=job.pid, slot=job.slot)
        self._count("serve.completed", tenant=job.tenant)
        self._count("serve.completed_instructions",
                    amount=result.instructions, tenant=job.tenant)
        if result.warm:
            self._count("serve.warm_hits")
        self.ops.host_histogram(
            f"serve.latency_s[tenant={job.tenant}]",
            bounds=LATENCY_BUCKETS_S).observe(latency)
        self._log(t, "finish", tenant=job.tenant, req=job.job_id,
                  lane=lane.worker_id, exit=result.exit_code,
                  latency=f"{latency:.6f}", status=diag["status"])
        self.results[job.job_id] = result
        self._dispatch(t)

    # -- control plane -------------------------------------------------------

    def _do_reload(self, tenant: str, policy: TenantPolicy, token: int,
                   t: float, raise_stale: bool = False) -> None:
        try:
            version = self.store.reload(tenant, policy, token)
        except StalePolicy:
            self._count("serve.reloads_stale", tenant=tenant)
            self._log(t, "reload-stale", tenant=tenant, token=token,
                      version=self.store.version(tenant))
            if raise_stale:
                raise
            return
        self._count("serve.reloads", tenant=tenant)
        self._log(t, "reload", tenant=tenant, version=version,
                  prio=policy.priority)
