"""Sandbox supervision: restart policies, quotas, and a watchdog (§5.3).

The bare :class:`~repro.runtime.Runtime` records a ``ProcessFault`` and
kills the offending sandbox, but a ``Deadlock`` or host-level error still
tears down the whole run loop, and nothing ever restarts a dead tenant.
The :class:`Supervisor` closes that gap:

* sandboxes are *submitted* under a :class:`RestartPolicy` (``never``, or
  ``on-failure`` with exponential backoff and a max-restart cap) and an
  optional :class:`~repro.runtime.ResourceQuota`;
* the supervisor drives the runtime in *rounds*; a ``Deadlock`` no longer
  crashes the host — the blocked sandboxes are terminated individually and
  recorded, and everything else keeps running;
* a watchdog demotes sandboxes that fault repeatedly (no further
  restarts) and kills sandboxes that exceed their quotas;
* every event becomes a structured :class:`Incident`, and the incident
  log is fully deterministic for a deterministic workload.

Dead sandboxes' slots are unmapped (``reclaim``), so a long supervision
run does not leak host memory — a production-scale necessity the seed
runtime ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..elf.format import ElfImage, read_elf
from ..obs.events import SupervisorEvent
from ..runtime.process import Process, ProcessState
from ..errors import Deadlock, RuntimeError_
from ..runtime.runtime import ResourceQuota, Runtime

__all__ = ["RestartPolicy", "NEVER", "ON_FAILURE", "Incident", "Supervisor",
           "WorkerSupervisor"]


@dataclass(frozen=True)
class RestartPolicy:
    """When and how a dead sandbox is restarted.

    ``on-failure`` restarts a *faulted* sandbox (never a clean exit) after
    an exponential backoff measured in supervision rounds:
    ``backoff_base * backoff_factor ** restarts_so_far``.
    """

    mode: str = "never"  # "never" | "on-failure"
    max_restarts: int = 3
    backoff_base: int = 1
    backoff_factor: int = 2

    def __post_init__(self):
        if self.mode not in ("never", "on-failure"):
            raise ValueError(f"unknown restart mode {self.mode!r}")


NEVER = RestartPolicy()
ON_FAILURE = RestartPolicy(mode="on-failure")


@dataclass
class Incident:
    """One structured entry in the supervision log."""

    seq: int
    round: int
    kind: str  # segv|sigill|badcall|quota|deadlock|restart|demote|kill|...
    name: str
    pid: int
    detail: str
    pc: int = 0

    def line(self) -> str:
        return (f"#{self.seq:04d} r{self.round:03d} {self.kind:<9} "
                f"{self.name:<12} pid={self.pid} pc={self.pc:#x} "
                f"{self.detail}")


class _Managed:
    """Book-keeping for one supervised sandbox across restarts."""

    __slots__ = ("name", "elf", "policy", "quota", "proc", "restarts",
                 "fault_count", "demoted", "done", "due_round", "generation")

    def __init__(self, name: str, elf: ElfImage,
                 policy: RestartPolicy, quota: Optional[ResourceQuota]):
        self.name = name
        self.elf = elf
        self.policy = policy
        self.quota = quota
        self.proc: Optional[Process] = None
        self.restarts = 0
        self.fault_count = 0
        self.demoted = False
        self.done = False
        self.due_round: Optional[int] = None
        self.generation = 0


class Supervisor:
    """Runs sandboxes under restart policies, quotas, and a watchdog."""

    def __init__(self, runtime: Runtime, watchdog_fault_limit: int = 5,
                 auditor=None):
        self.runtime = runtime
        #: Total faults (across restarts) after which a sandbox is demoted.
        self.watchdog_fault_limit = watchdog_fault_limit
        self.auditor = auditor
        self.incidents: List[Incident] = []
        self._managed: Dict[str, _Managed] = {}
        self._by_pid: Dict[int, _Managed] = {}
        self._round = 0
        self._seq = 0
        self._fault_cursor = 0
        #: pids terminated by the deadlock breaker this round.
        self._deadlocked: Dict[int, str] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, name: str, image, policy: RestartPolicy = NEVER,
               quota: Optional[ResourceQuota] = None,
               verify: bool = True) -> Process:
        """Spawn ``image`` as a supervised sandbox called ``name``."""
        existing = self._managed.get(name)
        if existing is not None and not existing.done:
            raise ValueError(f"sandbox {name!r} is still supervised")
        if isinstance(image, (bytes, bytearray)):
            image = read_elf(bytes(image))
        sb = _Managed(name, image, policy, quota)
        self._managed[name] = sb
        return self._spawn(sb, verify=verify)

    def revive(self, name: str) -> Process:
        """Start a new generation of a finished sandbox (chaos harnesses)."""
        sb = self._managed[name]
        if not sb.done:
            raise ValueError(f"sandbox {name!r} is still running")
        sb.generation += 1
        sb.restarts = 0
        sb.fault_count = 0
        sb.demoted = False
        sb.done = False
        # The image was verified at submit time and is immutable host-side.
        return self._spawn(sb, verify=False)

    def _spawn(self, sb: _Managed, verify: bool) -> Process:
        proc = self.runtime.spawn(sb.elf, verify=verify)
        if sb.quota is not None:
            self.runtime.set_quota(proc, sb.quota)
        sb.proc = proc
        self._by_pid[proc.pid] = sb
        return proc

    # -- incident log --------------------------------------------------------

    def _incident(self, kind: str, name: str, pid: int, detail: str,
                  pc: int = 0) -> Incident:
        incident = Incident(self._seq, self._round, kind, name, pid,
                            detail, pc)
        self._seq += 1
        self.incidents.append(incident)
        self.runtime._emit(SupervisorEvent(
            ts=self.runtime.machine.cycles, pid=pid, kind=kind, name=name,
            detail=detail,
        ))
        return incident

    def incident_log(self) -> List[str]:
        return [i.line() for i in self.incidents]

    def status(self) -> Dict[str, dict]:
        return {
            name: {
                "pid": sb.proc.pid if sb.proc else None,
                "exit_code": sb.proc.exit_code if sb.proc else None,
                "restarts": sb.restarts,
                "faults": sb.fault_count,
                "demoted": sb.demoted,
                "done": sb.done,
                "generation": sb.generation,
            }
            for name, sb in self._managed.items()
        }

    # -- supervision loop ----------------------------------------------------

    def run(self, max_rounds: int = 10_000) -> None:
        """Drive the runtime until every supervised sandbox is finished.

        Unlike ``Runtime.run``, this never raises on sandbox misbehaviour:
        deadlocks, faults, and quota violations become per-sandbox
        incidents and the host loop survives.
        """
        for _ in range(max_rounds):
            self._launch_due()
            if all(sb.done for sb in self._managed.values()):
                return
            try:
                self.runtime.run()
            except Deadlock:
                self._break_deadlock()
            except RuntimeError_ as exc:
                self._incident("host", "-", 0, f"host loop error: {exc}")
                self._collect()
                return
            self._collect()
            self._round += 1
        self._incident("host", "-", 0,
                       f"supervision budget of {max_rounds} rounds exhausted")

    def _launch_due(self) -> None:
        for sb in self._managed.values():
            if sb.due_round is not None and sb.due_round <= self._round:
                sb.due_round = None
                sb.restarts += 1
                proc = self._spawn(sb, verify=False)
                self._incident(
                    "restart", sb.name, proc.pid,
                    f"restart #{sb.restarts} (gen {sb.generation}) "
                    f"after backoff",
                )

    def _break_deadlock(self) -> None:
        """Convert an all-blocked host crash into per-sandbox failures."""
        blocked = [p for p in self.runtime.processes.values()
                   if p.state == ProcessState.BLOCKED]
        for proc in blocked:
            if proc.state != ProcessState.BLOCKED:
                continue  # woken by a sibling's termination above
            sb = self._by_pid.get(proc.pid)
            name = sb.name if sb is not None else f"pid{proc.pid}"
            self._incident("deadlock", name, proc.pid,
                           f"blocked forever on {proc.block_reason!r}; "
                           f"terminated by supervisor",
                           pc=proc.registers.get("pc", 0))
            self._deadlocked[proc.pid] = name
            self.runtime.terminate(proc, 128 + 6)

    def _collect(self) -> None:
        """Record new faults and apply restart/watchdog decisions."""
        faulted: Dict[int, str] = {}
        new = self.runtime.faults[self._fault_cursor:]
        self._fault_cursor = len(self.runtime.faults)
        for fault in new:
            sb = self._by_pid.get(fault.pid)
            name = sb.name if sb is not None else f"pid{fault.pid}"
            self._incident(fault.kind, name, fault.pid, fault.detail,
                           pc=fault.pc)
            faulted[fault.pid] = fault.kind
            if self.auditor is not None:
                self.auditor.audit_after_fault(fault.pid)
        faulted.update({pid: "deadlock" for pid in self._deadlocked})
        self._deadlocked.clear()

        for sb in self._managed.values():
            proc = sb.proc
            if proc is None or sb.done or sb.due_round is not None:
                continue
            if proc.state != ProcessState.ZOMBIE:
                continue
            kind = faulted.get(proc.pid)
            self.runtime.reclaim(proc)
            if kind is None:
                sb.done = True  # clean exit
                continue
            sb.fault_count += 1
            if kind == "quota":
                self._incident("kill", sb.name, proc.pid,
                               "quota exceeded; watchdog kill, no restart")
                sb.done = True
            elif (sb.policy.mode == "on-failure"
                  and sb.fault_count >= self.watchdog_fault_limit
                  and not sb.demoted):
                sb.demoted = True
                sb.done = True
                self._incident(
                    "demote", sb.name, proc.pid,
                    f"{sb.fault_count} faults >= watchdog limit "
                    f"{self.watchdog_fault_limit}; no further restarts")
            elif (sb.policy.mode == "on-failure"
                  and sb.restarts < sb.policy.max_restarts):
                delay = (sb.policy.backoff_base
                         * sb.policy.backoff_factor ** sb.restarts)
                sb.due_round = self._round + delay
            else:
                if sb.policy.mode == "on-failure":
                    self._incident(
                        "gave-up", sb.name, proc.pid,
                        f"max restarts ({sb.policy.max_restarts}) reached")
                sb.done = True


class WorkerSupervisor:
    """Restart decisions for cluster worker *OS processes* (DESIGN.md §12).

    The sandbox :class:`Supervisor` restarts misbehaving sandboxes inside
    one runtime; this class applies the same :class:`RestartPolicy` /
    :class:`Incident` vocabulary one level up, to the worker processes of
    a :class:`repro.cluster.Cluster`.  It only *decides* — the cluster
    front-end owns process lifecycle and job re-dispatch — so the policy
    logic stays testable without multiprocessing.
    """

    #: Wall-clock seconds per unit of the policy's (round-denominated)
    #: exponential backoff, its hard cap, and the largest jitter stretch.
    BACKOFF_UNIT_S = 0.05
    MAX_BACKOFF_S = 2.0
    JITTER = 0.25

    def __init__(self, policy: RestartPolicy = ON_FAILURE, *, seed: int = 0):
        self.policy = policy
        self._rng = random.Random(seed)
        self.incidents: List[Incident] = []
        self._restarts: Dict[int, int] = {}
        self._seq = 0

    def restarts(self, worker_id: int) -> int:
        return self._restarts.get(worker_id, 0)

    def next_backoff(self, worker_id: int) -> float:
        """Seconds to wait before relaunching ``worker_id``.

        Exponential in the worker's restart count (the policy's base and
        factor, scaled by :attr:`BACKOFF_UNIT_S`), capped at
        :attr:`MAX_BACKOFF_S`, then stretched by a bounded jitter in
        ``[0, JITTER]`` so a correlated crash of many workers does
        not produce a synchronized relaunch stampede.  Seeded, so a chaos
        run's restart timeline replays.
        """
        exponent = max(0, self.restarts(worker_id) - 1)
        delay = min(
            self.MAX_BACKOFF_S,
            self.BACKOFF_UNIT_S * self.policy.backoff_base
            * self.policy.backoff_factor ** exponent,
        )
        return delay * (1.0 + self._rng.random() * self.JITTER)

    @property
    def total_restarts(self) -> int:
        return sum(self._restarts.values())

    def _incident(self, kind: str, worker_id: int, pid: int,
                  detail: str) -> Incident:
        incident = Incident(self._seq, self.restarts(worker_id), kind,
                            f"worker-{worker_id}", pid, detail)
        self._seq += 1
        self.incidents.append(incident)
        return incident

    def worker_crashed(self, worker_id: int, pid: int, exitcode,
                       in_flight: int) -> bool:
        """Record a crash; True when the worker should be restarted."""
        self._incident("worker-crash", worker_id, pid,
                       f"exitcode={exitcode} with {in_flight} job(s) "
                       f"in flight")
        if self.policy.mode != "on-failure":
            return False
        if self.restarts(worker_id) >= self.policy.max_restarts:
            self._incident(
                "gave-up", worker_id, pid,
                f"max restarts ({self.policy.max_restarts}) reached")
            return False
        self._restarts[worker_id] = self.restarts(worker_id) + 1
        self._incident("worker-restart", worker_id, pid,
                       f"restart #{self.restarts(worker_id)}")
        return True

    def incident_log(self) -> List[str]:
        return [i.line() for i in self.incidents]
