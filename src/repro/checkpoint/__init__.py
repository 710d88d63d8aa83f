"""Checkpoint/restore for running jobs (DESIGN.md §13).

Deterministic full-process snapshots: capture a job mid-execution at a
scheduling-slice boundary, serialize it position-independently, and
restore it — in the same runtime, another worker, or another machine —
such that continued execution is byte-identical to the uninterrupted
run.  The cluster layers crash recovery, live migration, and elastic
rebalancing on top of this one primitive.
"""

from .capture import (
    CheckpointSession,
    canonical_registers,
    capture_job,
    job_processes,
    memory_digest,
    normalize_events,
    rebase_registers,
    restore_job,
    track_slot_bases,
)
from .state import CHECKPOINT_VERSION, Checkpoint, FdImage, PipeImage, ProcImage

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointSession",
    "FdImage",
    "PipeImage",
    "ProcImage",
    "canonical_registers",
    "capture_job",
    "job_processes",
    "memory_digest",
    "normalize_events",
    "rebase_registers",
    "restore_job",
    "track_slot_bases",
]
