"""The serving gateway: admission control + routing in virtual time.

:class:`Gateway` turns the batch cluster into an always-on service.  It
is a deterministic discrete-event simulation: one virtual second is
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
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.worker import DEFAULT_JOB_BUDGET, Executor
from ..engine import EngineConfig, engine_config
from ..errors import Overloaded, ServeError, StalePolicy
from ..obs.metrics import MetricsHub
from .policy import PolicyStore, TenantPolicy

__all__ = ["Gateway", "ServeResult", "CLOCK_HZ", "LATENCY_BUCKETS_S"]

#: Virtual clock: emulated instructions per virtual second.
CLOCK_HZ = 1_000_000.0

#: Request-latency histogram bounds, in virtual seconds.
LATENCY_BUCKETS_S = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 1.0)


@dataclass
class _Request:
    request_id: int
    tenant: str
    program: bytes
    stdin: bytes
    arrival_s: float
    priority: int = 0
    deadline_s: Optional[float] = None
    record_trace: bool = False
    pid: int = -1
    slot: int = -1
    policy_version_applied: int = -1


@dataclass
class ServeResult:
    """Terminal record of one request (completed or shed)."""

    request_id: int
    tenant: str
    status: str                 # "ok" | "rejected"
    reason: str = ""            # rejection reason, "" when ok
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    faults: Tuple[str, ...] = ()
    arrival_s: float = 0.0
    finish_s: float = 0.0
    latency_s: float = 0.0
    lane: int = -1
    pid: int = -1
    slot: int = -1
    instructions: int = 0
    attempts: int = 0           # 1 once started: a lane never restarts
    warm: bool = False
    run_status: str = ""        # worker diag status: ok/deadlock/budget
    trace: Optional[list] = None

    def deterministic_key(self) -> tuple:
        return (self.request_id, self.tenant, self.status, self.reason,
                self.exit_code, self.stdout, self.stderr,
                tuple(self.faults), round(self.latency_s, 9),
                self.pid, self.slot, self.instructions, self.attempts)


class Gateway:
    """Always-on admission + routing front-end over in-process executors."""

    def __init__(self, policies: Dict[str, TenantPolicy], *,
                 lanes: int = 2,
                 checkpoint_interval: int = 2000,
                 budget: int = DEFAULT_JOB_BUDGET,
                 engine: Optional[EngineConfig] = None,
                 chaos_faults: Optional[Dict[int, int]] = None,
                 seed: int = 0):
        if lanes < 1:
            raise ServeError(f"need at least one lane, got {lanes}")
        # The chunk size: a running guest meets the gateway (and takes a
        # reloaded policy) every ``checkpoint_interval`` instructions.
        self.interval = checkpoint_interval
        self.budget = budget
        # run_bounded pauses only between scheduler slices, so the lane
        # timeslice is the chunk interval: every boundary (a hot-reload
        # application point) falls on a slice end.
        self.timeslice = max(1, checkpoint_interval)
        self.engine_config = engine_config(engine)
        self.store = PolicyStore()
        for tenant in sorted(policies):
            self.store.add(tenant, policies[tenant])
        self.now = 0.0
        self.hub = MetricsHub()
        self.log: List[str] = []
        self.results: List[ServeResult] = []
        self.results_by_id: Dict[int, ServeResult] = {}
        #: lane id -> its executor; and the request each busy lane serves.
        self.lanes: Dict[int, Executor] = {
            lane_id: Executor(lane_id, engine=self.engine_config,
                              timeslice=self.timeslice,
                              chaos_faults=chaos_faults, seed=seed)
            for lane_id in range(lanes)}
        self._serving: Dict[int, _Request] = {}
        self._next_request = 0
        self._events: list = []     # (time, seq, kind, data)
        self._seq = 0
        self._queues: Dict[int, deque] = {}      # priority -> waiting FIFO
        self._queued_per_tenant: Dict[str, int] = {}
        self._buckets: Dict[str, list] = {}      # tenant -> [tokens, last_t]
        self.peak_queued = 0                     # bounded-queue evidence

    # -- public API ----------------------------------------------------------

    def offer(self, tenant: str, program: bytes, *, stdin: bytes = b"",
              at: Optional[float] = None,
              record_trace: bool = False) -> int:
        """Offer one request; returns its id.

        With ``at`` set, the arrival is scheduled at that virtual time
        and any rejection lands in the results as a shed record.  With
        ``at=None`` the request is admitted *now*, synchronously, and a
        shed raises the typed :class:`Overloaded` instead.
        """
        req = _Request(self._next_request, tenant, program, bytes(stdin),
                       self.now if at is None else float(at),
                       record_trace=record_trace)
        self._next_request += 1
        if at is None:
            self._on_arrival(req, self.now)
            done = self.results_by_id.get(req.request_id)
            if done is not None and done.status == "rejected":
                raise Overloaded(done.reason, tenant, req.request_id)
            return req.request_id
        if at < self.now:
            raise ServeError(
                f"cannot schedule an arrival in the past "
                f"(at={at:.6f} < now={self.now:.6f})")
        self._push(req.arrival_s, "arrival", {"request": req})
        return req.request_id

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
            return
        if at < self.now:
            raise ServeError(
                f"cannot schedule a reload in the past "
                f"(at={at:.6f} < now={self.now:.6f})")
        self._push(float(at), "reload",
                   {"tenant": tenant, "policy": policy, "token": token})

    def run(self, until: float):
        """Advance virtual time to ``until``, processing due events."""
        while self._events and self._events[0][0] <= until:
            t, _seq, kind, data = heapq.heappop(self._events)
            self.now = max(self.now, t)
            self._handle(kind, data, self.now)
        self.now = max(self.now, until)
        return self

    def drain(self) -> List[ServeResult]:
        """Run until every queued and running request reaches a terminal
        state; returns all results in completion order."""
        while self._events:
            t, _seq, kind, data = heapq.heappop(self._events)
            self.now = max(self.now, t)
            self._handle(kind, data, self.now)
        return self.results

    def queued_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def report(self) -> str:
        """Deterministic ops snapshot (MetricsHub text format)."""
        self.hub.host_gauge("serve.lanes").set(len(self.lanes))
        self.hub.host_gauge("serve.queued").set(self.queued_depth())
        return self.hub.snapshot()

    # -- event plumbing ------------------------------------------------------

    def _push(self, t: float, kind: str, data: dict) -> None:
        heapq.heappush(self._events, (t, self._seq, kind, data))
        self._seq += 1

    def _handle(self, kind: str, data: dict, t: float) -> None:
        if kind == "arrival":
            self._on_arrival(data["request"], t)
        elif kind == "boundary":
            self._on_boundary(data["lane"], t)
        elif kind == "finish":
            self._on_finish(data["lane"], data["payload"], t)
        elif kind == "reload":
            self._do_reload(data["tenant"], data["policy"], data["token"],
                            t, raise_stale=False)

    def _log(self, t: float, verb: str, **kv) -> None:
        parts = [f"t={t:.6f}", verb]
        parts += [f"{k}={v}" for k, v in kv.items()]
        self.log.append(" ".join(parts))

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if labels:
            inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            name = f"{name}[{inner}]"
        self.hub.host_counter(name).inc(amount)

    # -- admission -----------------------------------------------------------

    def _on_arrival(self, req: _Request, t: float) -> None:
        self._count("serve.offered", tenant=req.tenant)
        policy = self.store.get(req.tenant)
        if policy is None:
            self._reject(req, "unknown-tenant", t)
            return
        bucket = self._buckets.get(req.tenant)
        if bucket is None:
            bucket = self._buckets[req.tenant] = [policy.burst, t]
        else:
            bucket[0] = min(policy.burst,
                            bucket[0] + (t - bucket[1]) * policy.rate)
            bucket[1] = t
        if bucket[0] < 1.0:
            self._reject(req, "throttled", t)
            return
        queued = self._queued_per_tenant.get(req.tenant, 0)
        if queued >= policy.queue_limit:
            self._reject(req, "queue-full", t)
            return
        bucket[0] -= 1.0
        req.priority = policy.priority
        req.deadline_s = policy.deadline_s
        self._enqueue(req)
        self._count("serve.admitted", tenant=req.tenant)
        self._log(t, "admit", tenant=req.tenant, req=req.request_id,
                  prio=req.priority)
        self._dispatch(t)

    def _enqueue(self, req: _Request) -> None:
        queue = self._queues.get(req.priority)
        if queue is None:
            queue = self._queues[req.priority] = deque()
        queue.append(req)
        self._queued_per_tenant[req.tenant] = \
            self._queued_per_tenant.get(req.tenant, 0) + 1
        self.peak_queued = max(self.peak_queued, self.queued_depth())

    def _reject(self, req: _Request, reason: str, t: float) -> None:
        self._count("serve.rejected", tenant=req.tenant, reason=reason)
        self._log(t, "reject", tenant=req.tenant, req=req.request_id,
                  reason=reason)
        self._finish_result(ServeResult(
            request_id=req.request_id, tenant=req.tenant,
            status="rejected", reason=reason, arrival_s=req.arrival_s,
            finish_s=t, latency_s=t - req.arrival_s))

    def _finish_result(self, result: ServeResult) -> None:
        self.results.append(result)
        self.results_by_id[result.request_id] = result

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, t: float) -> None:
        for lane_id in sorted(self.lanes):
            if lane_id not in self._serving:
                req = self._pick(t)
                if req is None:
                    return
                self._start(self.lanes[lane_id], req, t)

    def _pick(self, t: float) -> Optional[_Request]:
        """Next dispatchable request: highest priority class first, FIFO
        within it, shedding waiters whose deadline has passed."""
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            while queue:
                req = queue.popleft()
                self._queued_per_tenant[req.tenant] -= 1
                if (req.deadline_s is not None
                        and t - req.arrival_s > req.deadline_s):
                    self._reject(req, "deadline", t)
                    continue
                return req
        return None

    def _start(self, lane: Executor, req: _Request, t: float) -> None:
        policy = self.store.get(req.tenant)
        job = {"job_id": req.request_id, "program": req.program}
        if req.stdin:
            job["stdin"] = req.stdin
        if policy.quota:
            job["quota"] = dict(policy.quota)
        begin = lane.begin(job, budget=self.budget,
                           checkpoint_interval=self.interval,
                           record_trace=req.record_trace)
        req.pid = begin["pid"]
        req.slot = begin["slot_base"]
        self._serving[lane.worker_id] = req
        req.policy_version_applied = self.store.version(req.tenant)
        self._log(t, "start", tenant=req.tenant, req=req.request_id,
                  lane=lane.worker_id, pid=req.pid, slot=hex(req.slot),
                  attempt=1)
        self._advance(lane, t, None)

    # -- execution ----------------------------------------------------------

    def _advance(self, lane: Executor, t: float,
                 cmd: Optional[dict]) -> None:
        info, delta = lane.step(cmd)
        if info["kind"] == "chunk":
            self._push(t + delta / CLOCK_HZ, "boundary", {"lane": lane})
        else:
            self._push(t + delta / CLOCK_HZ, "finish",
                       {"lane": lane, "payload": info})

    def _on_boundary(self, lane: Executor, t: float) -> None:
        req = self._serving[lane.worker_id]
        version = self.store.version(req.tenant)
        cmd: dict = {}
        if version != req.policy_version_applied:
            policy = self.store.get(req.tenant)
            req.policy_version_applied = version
            cmd = {"quota": dict(policy.quota) if policy.quota else None}
            self._count("serve.policy_applied", tenant=req.tenant)
            self._log(t, "apply-policy", tenant=req.tenant,
                      req=req.request_id, lane=lane.worker_id, pid=req.pid,
                      slot=hex(req.slot), version=version)
        self._advance(lane, t, cmd)

    def _on_finish(self, lane: Executor, payload: dict, t: float) -> None:
        req = self._serving.pop(lane.worker_id)
        diag = payload["diag"]
        latency = t - req.arrival_s
        result = ServeResult(
            request_id=req.request_id, tenant=req.tenant, status="ok",
            exit_code=payload["exit_code"], stdout=payload["stdout"],
            stderr=payload["stderr"], faults=tuple(payload["faults"]),
            arrival_s=req.arrival_s, finish_s=t, latency_s=latency,
            lane=lane.worker_id, pid=req.pid, slot=req.slot,
            instructions=int(diag["instructions"]), attempts=1,
            warm=diag["warm"], run_status=diag["status"],
            trace=payload.get("trace"))
        self._count("serve.completed", tenant=req.tenant)
        self._count("serve.completed_instructions",
                    amount=result.instructions, tenant=req.tenant)
        if result.warm:
            self._count("serve.warm_hits")
        self.hub.host_histogram(
            f"serve.latency_s[tenant={req.tenant}]",
            bounds=LATENCY_BUCKETS_S).observe(latency)
        self._log(t, "finish", tenant=req.tenant, req=req.request_id,
                  lane=lane.worker_id, exit=result.exit_code,
                  latency=f"{latency:.6f}", status=result.run_status)
        self._finish_result(result)
        self._dispatch(t)

    # -- control plane -------------------------------------------------------

    def _do_reload(self, tenant: str, policy: TenantPolicy, token: int,
                   t: float, raise_stale: bool) -> None:
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
