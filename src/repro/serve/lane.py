"""Execution lanes: the gateway's in-process stand-in for workers.

A :class:`Lane` owns a private superblock :class:`Runtime` (``model=None``
so cycles == instructions — the gateway's virtual clock) plus a
:class:`WarmPool`, exactly like one cluster worker, and drives jobs
through :func:`repro.cluster.worker.execute_job_steps` one
checkpoint-interval chunk at a time.  Running lanes *in process* instead
of behind OS pipes is what makes the serving schedule a deterministic
discrete-event simulation: the gateway interleaves chunk boundaries from
many lanes in virtual time, applies policy between chunks, and the whole
run replays byte-identically under a seed (DESIGN.md §14).

A lane crash (chaos drill) is modeled the way a worker crash is: the
generator is abandoned mid-job and the entire runtime discarded — no
cleanup runs, just like ``os._exit`` in a worker — and the supervisor
spawns a successor lane with the next generation number.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.snapshot import WarmPool
from ..cluster.worker import DEFAULT_JOB_BUDGET, execute_job_steps
from ..engine import EngineConfig
from ..runtime.runtime import Runtime

__all__ = ["Lane"]


class Lane:
    """One serving lane: a private runtime + warm pool + active job."""

    def __init__(self, lane_id: int, generation: int = 0,
                 timeslice: int = 50_000,
                 engine: Optional[EngineConfig] = None):
        self.lane_id = lane_id
        self.generation = generation
        self.runtime = Runtime(model=None, engine=engine,
                               timeslice=timeslice)
        self.pool = WarmPool(self.runtime)
        self.gen = None               # active execute_job_steps generator
        self.request = None           # active ServeRequest
        self.exec_base = 0            # executed count at last boundary
        self.draining = False         # retire once the active job yields
        self.started = 0              # jobs started (chaos fuse input)
        self.crash_after: Optional[int] = None  # crash at the n-th start's
        #                                         first boundary (chaos)

    @property
    def idle(self) -> bool:
        return (self.gen is None and self.request is None
                and not self.draining)

    def begin(self, job: dict, budget: int = DEFAULT_JOB_BUDGET,
              checkpoint_interval: Optional[int] = None,
              record_trace: bool = False) -> dict:
        """Start ``job``; returns the ``begin`` info (pid, slot, executed)."""
        assert self.gen is None, "lane already busy"
        self.gen = execute_job_steps(
            self.runtime, self.pool, job, budget=budget,
            checkpoint_interval=checkpoint_interval,
            record_trace=record_trace)
        self.started += 1
        info = next(self.gen)
        self.exec_base = info["executed"]
        return info

    def step(self, cmd: Optional[dict]):
        """Run one chunk; returns ``(info, delta)`` or ``(payload, delta)``.

        ``delta`` is the virtual instructions the chunk consumed.  When
        the generator finishes, the final payload (``kind`` ``result`` or
        ``yield``) is returned and the lane goes idle.
        """
        try:
            info = self.gen.send(cmd)
        except StopIteration as stop:
            payload = stop.value
            self.gen = None
            if payload["kind"] == "yield":
                return payload, 0  # stop consumed no further instructions
            delta = int(payload["diag"]["instructions"]) - self.exec_base
            return payload, delta
        delta = info["executed"] - self.exec_base
        self.exec_base = info["executed"]
        return info, delta

    def abandon(self) -> None:
        """Model a lane crash: drop the job and runtime without cleanup."""
        if self.gen is not None:
            self.gen.close()
            self.gen = None
        self.request = None
        self.runtime = None
        self.pool = None
