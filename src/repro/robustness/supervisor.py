"""Restart policies, the restart book, and the sandbox supervisor (§5.3).

The bare :class:`~repro.runtime.Runtime` records a ``ProcessFault`` and
kills the offending sandbox, but a ``Deadlock`` or host-level error still
tears down the whole run loop, and nothing ever restarts a dead tenant.
The :class:`Supervisor` closes that gap:

* sandboxes are *submitted* under a :class:`RestartPolicy` (a budget of
  restarts, each after an exponential backoff; ``NEVER`` is a budget of
  0) and an optional :class:`~repro.runtime.ResourceQuota`;
* the supervisor drives the runtime in *rounds*; a ``Deadlock`` no longer
  crashes the host — the blocked sandboxes are terminated individually and
  recorded, and everything else keeps running;
* a sandbox that exceeds its quota is killed and not restarted;
* every event becomes a structured :class:`Incident`, and the incident
  log is fully deterministic for a deterministic workload;
* the restart decision is a :class:`RestartBook`'s (a supervisor is the
  book of its runtime), the one rule the :class:`~repro.cluster.Cluster`
  applies to its workers too (backoff in seconds there, in rounds here).

Dead sandboxes' slots are unmapped (``reclaim``), so a long supervision
run does not leak host memory — a production-scale necessity the seed
runtime ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..elf.format import ElfImage, read_elf
from ..obs.events import SupervisorEvent
from ..runtime.process import Process, ProcessState
from ..errors import Deadlock, RuntimeError_
from ..runtime.runtime import ResourceQuota, Runtime

__all__ = ["RestartPolicy", "NEVER", "ON_FAILURE", "Incident", "RestartBook",
           "Supervisor"]


@dataclass(frozen=True)
class RestartPolicy:
    """How often, and after what backoff, a failed sandbox or worker restarts.

    A faulted sandbox (never a clean exit) or a crashed worker is restarted
    up to ``max_restarts`` times, restart ``n`` (1-based) after
    ``backoff_base * backoff_factor ** (n - 1)`` units of backoff.
    """

    max_restarts: int = 3
    backoff_base: int = 1
    backoff_factor: int = 2

    def backoff(self, restarts: int) -> int:
        """Backoff units before restart number ``restarts``."""
        return self.backoff_base * self.backoff_factor ** max(0, restarts - 1)


NEVER = RestartPolicy(max_restarts=0)
ON_FAILURE = RestartPolicy()


@dataclass
class Incident:
    """One structured entry in the supervision log."""

    seq: int
    round: int
    kind: str  # segv|sigill|badcall|quota|deadlock|restart|kill|gave-up|...
    name: str
    pid: int
    detail: str
    pc: int = 0

    def line(self) -> str:
        return (f"#{self.seq:04d} r{self.round:03d} {self.kind:<9} "
                f"{self.name:<12} pid={self.pid} pc={self.pc:#x} "
                f"{self.detail}")


class RestartBook:
    """Restart counts per name, the policy's decision, and the incident log."""

    def __init__(self):
        self.incidents: List[Incident] = []
        self.restarts: Dict[str, int] = {}

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())

    def log(self, round_no: int, kind: str, name: str, pid: int, detail: str,
            pc: int = 0) -> Incident:
        incident = Incident(len(self.incidents), round_no, kind, name, pid,
                            detail, pc)
        self.incidents.append(incident)
        return incident

    def grant(self, policy: RestartPolicy, round_no: int, name: str,
              pid: int) -> bool:
        """Whether ``name`` restarts once more under ``policy``.

        A grant is counted at once; a refusal logs ``gave-up`` unless the
        budget was 0 (a policy that never restarts gives nothing up).
        """
        done = self.restarts.get(name, 0)
        if done < policy.max_restarts:
            self.restarts[name] = done + 1
            return True
        if policy.max_restarts:
            self.log(round_no, "gave-up", name, pid,
                     f"max restarts ({policy.max_restarts}) reached")
        return False

    def incident_log(self) -> List[str]:
        return [i.line() for i in self.incidents]


class _Managed:
    """Book-keeping for one supervised sandbox across restarts."""

    __slots__ = ("name", "elf", "policy", "quota", "proc", "done",
                 "due_round", "generation")

    def __init__(self, name: str, elf: ElfImage,
                 policy: RestartPolicy, quota: Optional[ResourceQuota]):
        self.name = name
        self.elf = elf
        self.policy = policy
        self.quota = quota
        self.proc: Optional[Process] = None
        self.done = False
        self.due_round: Optional[int] = None
        self.generation = 0


class Supervisor(RestartBook):
    """Runs sandboxes under restart policies and quotas: the restart book
    of one runtime, whose incidents are its events too."""

    def __init__(self, runtime: Runtime, auditor=None):
        super().__init__()
        self.runtime = runtime
        self.auditor = auditor
        self._managed: Dict[str, _Managed] = {}
        self._by_pid: Dict[int, _Managed] = {}
        self._round = 0
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
        self.restarts.pop(name, None)
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

    def log(self, round_no: int, kind: str, name: str, pid: int, detail: str,
            pc: int = 0) -> Incident:
        """Log an incident and emit it as a :class:`SupervisorEvent`."""
        incident = super().log(round_no, kind, name, pid, detail, pc)
        self.runtime._emit(SupervisorEvent(
            ts=self.runtime.machine.cycles, pid=pid, kind=kind, name=name,
            detail=detail,
        ))
        return incident

    def _incident(self, kind: str, name: str, pid: int, detail: str,
                  pc: int = 0) -> Incident:
        return self.log(self._round, kind, name, pid, detail, pc)

    def status(self) -> Dict[str, dict]:
        return {
            name: {
                "pid": sb.proc.pid if sb.proc else None,
                "exit_code": sb.proc.exit_code if sb.proc else None,
                "restarts": self.restarts.get(name, 0),
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
                proc = self._spawn(sb, verify=False)
                self._incident(
                    "restart", sb.name, proc.pid,
                    f"restart #{self.restarts[sb.name]} "
                    f"(gen {sb.generation}) after backoff",
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
        """Record new faults and apply the restart decisions."""
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
            if kind == "quota":
                self._incident("kill", sb.name, proc.pid,
                               "quota exceeded; watchdog kill, no restart")
                sb.done = True
            elif self.grant(sb.policy, self._round, sb.name, proc.pid):
                sb.due_round = self._round + sb.policy.backoff(
                    self.restarts[sb.name])
            else:
                sb.done = True
