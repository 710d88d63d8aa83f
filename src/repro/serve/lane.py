"""Execution lanes: the gateway's in-process stand-in for workers.

A :class:`Lane` owns a private superblock :class:`Runtime` (``model=None``
so cycles == instructions — the gateway's virtual clock) plus a
:class:`WarmPool`, exactly like one cluster worker, and drives jobs
through :func:`repro.cluster.worker.execute_job_steps` one
checkpoint-interval chunk at a time.  Running lanes *in process* instead
of behind OS pipes is what makes the serving schedule a deterministic
discrete-event simulation: the gateway interleaves chunk boundaries from
many lanes in virtual time, applies policy between chunks, and the whole
run replays byte-identically under a seed (DESIGN.md §12).  For the same
reason a lane has no crash of its own: it fails only with the gateway.
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

    def __init__(self, lane_id: int, timeslice: int = 50_000,
                 engine: Optional[EngineConfig] = None):
        self.lane_id = lane_id
        self.runtime = Runtime(model=None, engine=engine,
                               timeslice=timeslice)
        self.pool = WarmPool(self.runtime)
        self.gen = None               # active execute_job_steps generator
        self.request = None           # active ServeRequest
        self.exec_base = 0            # executed count at last boundary

    @property
    def idle(self) -> bool:
        return self.gen is None and self.request is None

    def begin(self, job: dict, budget: int = DEFAULT_JOB_BUDGET,
              checkpoint_interval: Optional[int] = None,
              record_trace: bool = False) -> dict:
        """Start ``job``; returns the ``begin`` info (pid, slot, executed)."""
        assert self.gen is None, "lane already busy"
        self.gen = execute_job_steps(
            self.runtime, self.pool, job, budget=budget,
            checkpoint_interval=checkpoint_interval,
            record_trace=record_trace)
        info = next(self.gen)
        self.exec_base = info["executed"]
        return info

    def step(self, cmd: Optional[dict]):
        """Run one chunk; returns ``(info, delta)``.

        ``delta`` is the virtual instructions the chunk consumed.  When
        the generator finishes, ``info`` is its ``result`` payload and the
        lane's generator is done.
        """
        try:
            info = self.gen.send(cmd)
            executed = info["executed"]
        except StopIteration as stop:
            info = stop.value
            executed = int(info["diag"]["instructions"])
            self.gen = None
        delta = executed - self.exec_base
        self.exec_base = executed
        return info, delta
