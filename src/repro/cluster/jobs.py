"""Job and result types for the sharded cluster runtime (DESIGN.md §12).

A job is a sandbox execution request — ELF bytes plus stdin and an
instruction budget.  A result separates two kinds of fields:

* **deterministic** — exit code, stdout/stderr, fault kinds, and the
  pid-normalized metrics snapshot.  These depend only on the job itself,
  never on which worker (or slot) ran it, so the same batch on 1 worker
  and on 4 workers produces byte-identical results;
* **diagnostics** (``diag``) — worker id, generation, warm-hit flag,
  cycle counts.  These describe *how* the job was placed and are excluded
  from the determinism contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["Job", "JobResult", "normalize_metrics"]

_SANDBOX_KEY = re.compile(r"^sandbox\[(\d+)\]")


@dataclass(frozen=True)
class Job:
    """One sandbox execution request, picklable across the worker boundary."""

    job_id: int
    program: bytes
    stdin: bytes = b""
    max_instructions: Optional[int] = None

    def payload(self, resume: Optional[bytes] = None) -> dict:
        """The wire dict a worker consumes.

        ``resume`` carries serialized checkpoint bytes when the job is
        being re-dispatched mid-execution (crash recovery, migration):
        the worker restores that state instead of spawning afresh.
        """
        out = {
            "job_id": self.job_id,
            "program": self.program,
            "stdin": self.stdin,
            "max_instructions": self.max_instructions,
        }
        if resume is not None:
            out["resume"] = resume
        return out


@dataclass
class JobResult:
    """The outcome of one job; see the module docstring for the split."""

    job_id: int
    exit_code: int
    stdout: str
    stderr: str
    metrics: str
    faults: Tuple[str, ...] = ()
    diag: Dict[str, object] = field(default_factory=dict)

    def deterministic_key(self) -> tuple:
        """Everything that must match between 1-worker and N-worker runs."""
        return (self.job_id, self.exit_code, self.stdout, self.stderr,
                self.metrics, self.faults)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobResult":
        return cls(
            job_id=payload["job_id"],
            exit_code=payload["exit_code"],
            stdout=payload["stdout"],
            stderr=payload["stderr"],
            metrics=payload["metrics"],
            faults=tuple(payload["faults"]),
            diag=dict(payload.get("diag", {})),
        )


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
