"""The serving gateway: admission control + routing in virtual time.

:class:`Gateway` turns the batch cluster into an always-on service.  It
is a deterministic discrete-event simulation: one virtual second is
:data:`CLOCK_HZ` emulated instructions (lanes run ``model=None``
runtimes, so cycles == instructions), every event — arrival, chunk
boundary, finish, reload, crash, restart, resize — carries a virtual
timestamp, and the whole schedule replays byte-identically under a
fixed seed.  The state machine per request (DESIGN.md §12):

    offered ──► rejected(unknown-tenant | throttled | queue-full)
       │
       ▼
    queued ──► rejected(deadline)                 [shed at dispatch]
       │
       ▼
    running ◄──► queued (yield: crash / drain / migrate, resumes
       │                 from its checkpoint, keeps original pids)
       ▼
    finished(ok | deadlock | budget | quota-tripped)

Admission is **bounded by construction**: a tenant's token bucket caps
its admission rate, ``queue_limit`` caps its waiting depth, and
everything beyond is shed with a typed reason — the gateway never
queues unboundedly.  Policy hot-reload goes through the monotonic
token protocol of :class:`~repro.serve.policy.PolicyStore`; the new
`ResourceQuota` is applied to running guests at their next chunk
boundary without restarting them (same pid, same slot — the benchmark
proves it).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.worker import DEFAULT_JOB_BUDGET, derive_worker_seed
from ..engine import EngineConfig, engine_config
from ..errors import Overloaded, ServeError, StalePolicy
from ..obs.metrics import MetricsHub
from ..robustness.faultinject import FaultInjector
from ..robustness.supervisor import WorkerSupervisor
from .lane import Lane
from .policy import PolicyStore, TenantPolicy

__all__ = ["Gateway", "ServeResult", "Autoscale", "CLOCK_HZ",
           "LATENCY_BUCKETS_S"]

#: Virtual clock: emulated instructions per virtual second.
CLOCK_HZ = 1_000_000.0

#: Request-latency histogram bounds, in virtual seconds.
LATENCY_BUCKETS_S = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 1.0)


@dataclass(frozen=True)
class Autoscale:
    """Load-driven lane elasticity (both directions, deterministic).

    A lane is added when the total queued depth exceeds ``queue_high``
    (up to ``max_lanes``); an idle lane is retired when the queue is
    empty at a finish (down to ``min_lanes``).
    """

    min_lanes: int = 1
    max_lanes: int = 4
    queue_high: int = 6


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
    attempts: int = 0
    started: bool = False
    start_s: float = -1.0
    checkpoint: object = None      # latest Checkpoint (live object)
    resume: Optional[bytes] = None  # serialized checkpoint for re-dispatch
    pid: int = -1
    slot: int = -1
    policy_version_applied: int = -1
    migrate_to: Optional[int] = None


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
    attempts: int = 0
    warm: bool = False
    run_status: str = ""        # worker diag status: ok/deadlock/budget
    trace: Optional[list] = None

    def deterministic_key(self) -> tuple:
        return (self.request_id, self.tenant, self.status, self.reason,
                self.exit_code, self.stdout, self.stderr,
                tuple(self.faults), round(self.latency_s, 9),
                self.pid, self.slot, self.instructions, self.attempts)


class Gateway:
    """Always-on admission + routing front-end over in-process lanes."""

    def __init__(self, policies: Dict[str, TenantPolicy], *,
                 lanes: int = 2,
                 checkpoint_interval: int = 2000,
                 budget: int = DEFAULT_JOB_BUDGET,
                 engine: Optional[EngineConfig] = None,
                 autoscale: Optional[Autoscale] = None,
                 chaos: Optional[Dict[int, int]] = None,
                 chaos_faults: Optional[Dict[int, int]] = None,
                 seed: int = 0):
        if lanes < 1:
            raise ServeError(f"need at least one lane, got {lanes}")
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
        self.autoscale = autoscale
        self.chaos = dict(chaos or {})
        self.chaos_faults = dict(chaos_faults or {})
        self.seed = seed
        self.now = 0.0
        self.hub = MetricsHub()
        self.supervisor = WorkerSupervisor(seed=seed)
        self.log: List[str] = []
        self.results: List[ServeResult] = []
        self.results_by_id: Dict[int, ServeResult] = {}
        self.lanes: Dict[int, Lane] = {}
        self._next_lane = 0
        self._next_request = 0
        self._events: list = []     # (time, seq, kind, data)
        self._seq = 0
        self._queues: Dict[int, deque] = {}      # priority -> waiting FIFO
        self._queued_per_tenant: Dict[str, int] = {}
        self._buckets: Dict[str, list] = {}      # tenant -> [tokens, last_t]
        self.peak_queued = 0                     # bounded-queue evidence
        self._injectors: List[FaultInjector] = []  # keep hooks alive
        for _ in range(lanes):
            self._add_lane()

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

    def resize(self, lanes: int, at: Optional[float] = None) -> None:
        """Grow or drain the lane fleet to ``lanes`` (elasticity)."""
        if lanes < 1:
            raise ServeError(f"need at least one lane, got {lanes}")
        if at is None:
            self._do_resize(lanes, self.now)
            return
        self._push(float(at), "resize", {"n": lanes})

    def migrate(self, request_id: int, to_lane: Optional[int] = None,
                at: Optional[float] = None) -> None:
        """Yield a running request at its next boundary and re-dispatch.

        ``to_lane`` pins the destination; None means any idle lane (the
        request resumes from its checkpoint, keeping its original pids).
        """
        self._push(self.now if at is None else float(at), "migrate",
                   {"request_id": request_id, "to_lane": to_lane})

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
            self._on_boundary(data["lane"], data["generation"], t)
        elif kind == "finish":
            self._on_finish(data["lane"], data["generation"],
                            data["payload"], t)
        elif kind == "reload":
            self._do_reload(data["tenant"], data["policy"], data["token"],
                            t, raise_stale=False)
        elif kind == "restart":
            self._on_restart(data["lane"], data["generation"], t)
        elif kind == "resize":
            self._do_resize(data["n"], t)
        elif kind == "migrate":
            self._on_migrate(data["request_id"], data["to_lane"], t)

    def _log(self, t: float, verb: str, **kv) -> None:
        parts = [f"t={t:.6f}", verb]
        parts += [f"{k}={v}" for k, v in kv.items()]
        self.log.append(" ".join(parts))

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if labels:
            inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            name = f"{name}[{inner}]"
        self.hub.host_counter(name).inc(amount)

    # -- lanes ---------------------------------------------------------------

    def _add_lane(self) -> Lane:
        lane_id = self._next_lane
        self._next_lane += 1
        lane = self._make_lane(lane_id, generation=0)
        if lane_id in self.chaos:
            lane.crash_after = self.chaos[lane_id]
        return lane

    def _make_lane(self, lane_id: int, generation: int) -> Lane:
        lane = Lane(lane_id, generation, timeslice=self.timeslice,
                    engine=self.engine_config)
        self.lanes[lane_id] = lane
        count = self.chaos_faults.get(lane_id)
        if count:
            injector = FaultInjector(
                lane.runtime,
                seed=derive_worker_seed(self.seed, lane_id, generation))
            injector.arm(injector.plan(count))
            self._injectors.append(injector)
        return lane

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
        self._enqueue(req, front=False)
        self._count("serve.admitted", tenant=req.tenant)
        self._log(t, "admit", tenant=req.tenant, req=req.request_id,
                  prio=req.priority)
        self._dispatch(t)

    def _enqueue(self, req: _Request, front: bool) -> None:
        queue = self._queues.get(req.priority)
        if queue is None:
            queue = self._queues[req.priority] = deque()
        if front:
            queue.appendleft(req)
        else:
            queue.append(req)
        self._queued_per_tenant[req.tenant] = \
            self._queued_per_tenant.get(req.tenant, 0) + 1
        self.peak_queued = max(self.peak_queued, self.queued_depth())

    def _dequeue(self, req: _Request) -> None:
        self._queued_per_tenant[req.tenant] -= 1

    def _reject(self, req: _Request, reason: str, t: float) -> None:
        self._count("serve.rejected", tenant=req.tenant, reason=reason)
        self._log(t, "reject", tenant=req.tenant, req=req.request_id,
                  reason=reason)
        self._finish_result(ServeResult(
            request_id=req.request_id, tenant=req.tenant,
            status="rejected", reason=reason, arrival_s=req.arrival_s,
            finish_s=t, latency_s=t - req.arrival_s,
            attempts=req.attempts))

    def _finish_result(self, result: ServeResult) -> None:
        self.results.append(result)
        self.results_by_id[result.request_id] = result

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, t: float) -> None:
        progress = True
        while progress:
            progress = False
            for lane_id in sorted(self.lanes):
                lane = self.lanes[lane_id]
                if not lane.idle:
                    continue
                req = self._pick(lane, t)
                if req is not None:
                    self._start(lane, req, t)
                    progress = True
        self._maybe_scale_up(t)

    def _pick(self, lane: Lane, t: float) -> Optional[_Request]:
        """Next dispatchable request for ``lane``: highest priority class
        first, FIFO within it, shedding expired never-started waiters."""
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            skipped = []
            picked = None
            while queue:
                req = queue.popleft()
                if (not req.started and req.deadline_s is not None
                        and t - req.arrival_s > req.deadline_s):
                    self._dequeue(req)
                    self._reject(req, "deadline", t)
                    continue
                if (req.migrate_to is not None and req.migrate_to >= 0
                        and req.migrate_to != lane.lane_id):
                    skipped.append(req)  # pinned to another lane
                    continue
                picked = req
                break
            for req in reversed(skipped):
                queue.appendleft(req)
            if picked is not None:
                self._dequeue(picked)
                return picked
        return None

    def _start(self, lane: Lane, req: _Request, t: float) -> None:
        policy = self.store.get(req.tenant)
        req.attempts += 1
        if req.migrate_to is not None:
            req.migrate_to = None
            self._count("serve.migrations", tenant=req.tenant)
        job = {"job_id": req.request_id, "program": req.program}
        if req.stdin:
            job["stdin"] = req.stdin
        if req.resume is not None:
            job["resume"] = req.resume
        elif policy.quota:
            job["quota"] = dict(policy.quota)
        begin = lane.begin(job, budget=self.budget,
                           checkpoint_interval=self.interval,
                           record_trace=req.record_trace)
        req.pid = begin["pid"]
        req.slot = begin["slot_base"]
        if not req.started:
            req.started = True
            req.start_s = t
        lane.request = req
        req.policy_version_applied = self.store.version(req.tenant)
        self._log(t, "start", tenant=req.tenant, req=req.request_id,
                  lane=lane.lane_id, pid=req.pid, slot=hex(req.slot),
                  attempt=req.attempts)
        # The first chunk always (re)applies the tenant's *current*
        # quota: a resumed job must not keep the budget its checkpoint
        # carried if a reload happened while it was parked.
        quota = dict(policy.quota) if policy.quota else None
        self._advance(lane, t, {"quota": quota})

    # -- execution ----------------------------------------------------------

    def _advance(self, lane: Lane, t: float, cmd: Optional[dict]) -> None:
        req = lane.request
        info, delta = lane.step(cmd)
        dt = delta / CLOCK_HZ
        kind = info["kind"]
        if kind == "chunk":
            req.checkpoint = info["checkpoint"]
            self._push(t + dt, "boundary",
                       {"lane": lane.lane_id, "generation": lane.generation})
        elif kind == "result":
            self._push(t + dt, "finish",
                       {"lane": lane.lane_id, "generation": lane.generation,
                        "payload": info})
        else:  # yield payload: stopped at the boundary we are already at
            self._on_yield(lane, req, info, t)

    def _on_boundary(self, lane_id: int, generation: int, t: float) -> None:
        lane = self.lanes.get(lane_id)
        if lane is None or lane.generation != generation:
            return  # event from a lane generation that has since crashed
        req = lane.request
        if (lane.crash_after is not None
                and lane.started >= lane.crash_after):
            self._crash(lane, t)
            return
        if lane.draining or req.migrate_to is not None:
            self._advance(lane, t, {"stop": True})
            return
        version = self.store.version(req.tenant)
        cmd: dict = {}
        if version != req.policy_version_applied:
            policy = self.store.get(req.tenant)
            req.policy_version_applied = version
            cmd = {"quota": dict(policy.quota) if policy.quota else None}
            self._count("serve.policy_applied", tenant=req.tenant)
            self._log(t, "apply-policy", tenant=req.tenant,
                      req=req.request_id, lane=lane.lane_id, pid=req.pid,
                      slot=hex(req.slot), version=version)
        self._advance(lane, t, cmd)

    def _on_yield(self, lane: Lane, req: _Request, payload: dict,
                  t: float) -> None:
        self._count("serve.yields", tenant=req.tenant)
        self._log(t, "yield", tenant=req.tenant, req=req.request_id,
                  lane=lane.lane_id, executed=lane.exec_base)
        req.resume = payload["checkpoint"]
        lane.request = None
        if lane.draining:
            del self.lanes[lane.lane_id]
            self._log(t, "retire", lane=lane.lane_id)
        self._enqueue(req, front=True)
        self._dispatch(t)

    def _crash(self, lane: Lane, t: float) -> None:
        req = lane.request
        lane.crash_after = None
        lane.abandon()
        del self.lanes[lane.lane_id]
        self._count("serve.crashes")
        self._log(t, "crash", lane=lane.lane_id,
                  req=req.request_id if req else -1)
        restart = self.supervisor.worker_crashed(
            lane.lane_id, pid=0, exitcode=17, in_flight=int(req is not None))
        if req is not None:
            # Resume from the last captured boundary; first attempt may
            # crash before any checkpoint exists — rerun from scratch.
            req.resume = (req.checkpoint.to_bytes()
                          if req.checkpoint is not None else None)
            self._enqueue(req, front=True)
        if restart:
            backoff = self.supervisor.next_backoff(lane.lane_id)
            self._push(t + backoff, "restart",
                       {"lane": lane.lane_id,
                        "generation": lane.generation + 1})
        self._dispatch(t)

    def _on_restart(self, lane_id: int, generation: int, t: float) -> None:
        self._make_lane(lane_id, generation)
        self._count("serve.restarts")
        self._log(t, "restart", lane=lane_id, generation=generation)
        self._dispatch(t)

    def _on_finish(self, lane_id: int, generation: int, payload: dict,
                   t: float) -> None:
        lane = self.lanes.get(lane_id)
        if lane is None or lane.generation != generation:
            return
        req = lane.request
        lane.request = None
        diag = payload["diag"]
        latency = t - req.arrival_s
        result = ServeResult(
            request_id=req.request_id, tenant=req.tenant, status="ok",
            exit_code=payload["exit_code"], stdout=payload["stdout"],
            stderr=payload["stderr"], faults=tuple(payload["faults"]),
            arrival_s=req.arrival_s, finish_s=t, latency_s=latency,
            lane=lane.lane_id, pid=req.pid, slot=req.slot,
            instructions=int(diag["instructions"]), attempts=req.attempts,
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
                  lane=lane.lane_id, exit=result.exit_code,
                  latency=f"{latency:.6f}", status=result.run_status)
        self._finish_result(result)
        if lane.draining:
            del self.lanes[lane.lane_id]
            self._log(t, "retire", lane=lane.lane_id)
        self._maybe_scale_down(t)
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

    def _do_resize(self, n: int, t: float) -> None:
        live = sorted(self.lanes)
        if n > len(live):
            grow = n - len(live)
            for _ in range(grow):
                lane = self._add_lane()
                self._log(t, "scale", direction="up", lane=lane.lane_id,
                          lanes=len(self.lanes))
            self._count("serve.scale_ups", amount=grow)
            self._dispatch(t)
            return
        for lane_id in reversed(live[n:]):
            lane = self.lanes[lane_id]
            if lane.idle:
                del self.lanes[lane_id]
                self._log(t, "retire", lane=lane_id)
            else:
                lane.draining = True
                self._log(t, "scale", direction="drain", lane=lane_id)
            self._count("serve.scale_downs")

    def _on_migrate(self, request_id: int, to_lane: Optional[int],
                    t: float) -> None:
        for lane in self.lanes.values():
            if lane.request is not None \
                    and lane.request.request_id == request_id:
                lane.request.migrate_to = \
                    to_lane if to_lane is not None else -2
                self._log(t, "migrate-request", req=request_id,
                          to=to_lane if to_lane is not None else "any")
                return
        self._log(t, "migrate-miss", req=request_id)

    def _maybe_scale_up(self, t: float) -> None:
        scale = self.autoscale
        if scale is None:
            return
        if (self.queued_depth() > scale.queue_high
                and len(self.lanes) < scale.max_lanes):
            lane = self._add_lane()
            self._count("serve.scale_ups")
            self._log(t, "scale", direction="up", lane=lane.lane_id,
                      lanes=len(self.lanes))
            self._dispatch(t)

    def _maybe_scale_down(self, t: float) -> None:
        scale = self.autoscale
        if scale is None:
            return
        if self.queued_depth() or len(self.lanes) <= scale.min_lanes:
            return
        idle = [i for i in sorted(self.lanes, reverse=True)
                if self.lanes[i].idle]
        if idle:
            del self.lanes[idle[0]]
            self._count("serve.scale_downs")
            self._log(t, "scale", direction="down", lane=idle[0],
                      lanes=len(self.lanes))
