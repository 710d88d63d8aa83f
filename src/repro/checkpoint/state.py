"""Checkpoint format: the serializable image of a running job (§12).

A :class:`Checkpoint` is a complete, position-independent snapshot of one
job — the root sandbox plus every live fork descendant.  Everything that
could differ between slots or workers is stored *relative*:

* pids as offsets from the job root (gaps from reaped children kept, so a
  restored runtime reproduces the original pid arithmetic);
* slot contents as per-process ``(offset, size, perms)`` regions plus a
  page map keyed ``(slot_ordinal, page_offset)``;
* registers in canonical form: any value inside the process's
  guard-extended slot window becomes a ``("ptr", offset)`` tag, rebased
  onto whatever slot the restore lands in (fork only rebases the ABI
  registers, but a checkpoint can land mid-guard-sequence with absolute
  pointers in scratch registers — every register gets the treatment);
* fd descriptions in an object table (fork shares descriptions between
  tables, and the sharing itself is part of the semantics), pipes once
  with their buffered bytes and end states.

Two checkpoints of the same logical state taken in different runtimes are
byte-identical (:meth:`Checkpoint.digest` agrees) — that is the property
the differential oracle leans on.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError

__all__ = ["Checkpoint", "ProcImage", "FdImage", "PipeImage",
           "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

#: What decoding a blob that is not a checkpoint can raise.
_DECODE_ERRORS = (pickle.UnpicklingError, EOFError, ValueError, TypeError,
                  LookupError, AttributeError, OverflowError, MemoryError)


@dataclass
class FdImage:
    """One open-file description (shared across fd tables after fork)."""

    kind: str  # "std" | "file" | "pipe"
    # std stream
    readable: bool = False
    buffer: bytes = b""
    read_pos: int = 0
    # vfs file
    path: str = ""
    offset: int = 0
    accmode: int = 0
    append: bool = False
    #: False when the handle's file was unlinked while open (the data
    #: then lives only in the description); ``data`` holds the bytes.
    linked: bool = True
    data: Optional[bytes] = None
    # pipe end
    pipe_id: int = -1
    reading: bool = False
    refs: int = 0


@dataclass
class PipeImage:
    """One pipe: buffered bytes plus which directions are still open."""

    buffer: bytes
    read_open: bool
    write_open: bool


@dataclass
class ProcImage:
    """One process of the job, everything slot- and pid-relative."""

    pid_off: int
    slot_ord: int
    parent_off: Optional[int]
    state: str
    exit_code: Optional[int]
    registers: dict  # canonical form: in-slot values as ("ptr", offset)
    brk_off: int
    heap_off: int
    fds: Dict[int, int]  # fd -> object-table id
    children: List[int]  # pid offsets (reaped children included)
    block_reason: Optional[str]
    block_pipe: Optional[int]
    pending_call: Optional[int]
    instructions: int
    guard_map: Dict[int, str]  # pc offset -> guard class
    step_mode: bool
    mmap_cursor_off: Optional[int]
    quota: Optional[Tuple]  # (max_mapped_pages, max_fds, max_instructions)
    regions: List[Tuple[int, int, int]]  # (offset, size, perms)


@dataclass
class Checkpoint:
    """A complete deterministic snapshot of one job's execution state."""

    version: int
    #: Absolute pid of the job root.  Restore *preserves* absolute pids
    #: (the destination's process table is empty between jobs and the pid
    #: counter only jumps forward) because the guest has already observed
    #: them — fork return values and ``getpid`` results live on in
    #: registers and memory, and renumbering would diverge from the
    #: uninterrupted run.
    root_pid: int
    procs: List[ProcImage]
    objects: Dict[int, FdImage]
    pipes: Dict[int, PipeImage]
    #: (slot_ordinal, page_offset) -> page bytes.  An incremental capture
    #: reuses the previous checkpoint's bytes objects for clean pages, so
    #: building this map costs O(dirty pages).
    pages: Dict[Tuple[int, int], bytes]
    page_size: int
    sched: dict  # Scheduler.capture_order, pids as offsets
    vfs: dict
    metrics: Optional[dict]
    #: Instructions/cycles the job had consumed when captured; resume
    #: re-anchors its counters so totals match the uninterrupted run.
    consumed_instructions: int = 0
    consumed_cycles: float = 0.0
    fault_kinds: List[str] = field(default_factory=list)
    #: Capture diagnostics (dirty/total page counts, sequence number).
    #: Excluded from the digest: two captures of the same state taken
    #: with different histories legitimately differ here.
    stats: Dict[str, int] = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def _canonical(self) -> dict:
        return {
            "version": self.version,
            "root_pid": self.root_pid,
            "procs": [vars(img) for img in self.procs],
            "objects": {oid: vars(obj)
                        for oid, obj in sorted(self.objects.items())},
            "pipes": {pid: vars(img)
                      for pid, img in sorted(self.pipes.items())},
            "pages": {key: self.pages[key] for key in sorted(self.pages)},
            "page_size": self.page_size,
            "sched": self.sched,
            "vfs": self.vfs,
            "metrics": self.metrics,
            "consumed_instructions": self.consumed_instructions,
            "consumed_cycles": self.consumed_cycles,
            "fault_kinds": list(self.fault_kinds),
        }

    def to_bytes(self) -> bytes:
        """Stable wire format (canonical key order, protocol pinned).

        Strings are interned first: the pickler memoizes by object
        identity, so equal-but-distinct strings (e.g. a dict key that
        went through a previous serialization round trip) would change
        the memo layout and break byte-stability of equal checkpoints.
        """
        return pickle.dumps(_intern(self._canonical()), protocol=4)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """The checkpoint in ``data``, else :class:`CheckpointError`; a
        blob that names a class or callable is refused, never run."""
        try:
            raw = _PlainUnpickler(io.BytesIO(data)).load()
            if raw["version"] != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {raw['version']}")
            return cls(
                version=raw["version"],
                root_pid=raw["root_pid"],
                procs=[ProcImage(**img) for img in raw["procs"]],
                objects={oid: FdImage(**obj)
                         for oid, obj in raw["objects"].items()},
                pipes={pid: PipeImage(**img)
                       for pid, img in raw["pipes"].items()},
                pages=dict(raw["pages"]),
                page_size=raw["page_size"],
                sched=raw["sched"],
                vfs=raw["vfs"],
                metrics=raw["metrics"],
                consumed_instructions=raw["consumed_instructions"],
                consumed_cycles=raw["consumed_cycles"],
                fault_kinds=list(raw["fault_kinds"]),
            )
        except _DECODE_ERRORS as exc:
            raise CheckpointError(f"malformed checkpoint: "
                                  f"{type(exc).__name__}: {exc}") from None

    def digest(self) -> str:
        """Content hash of the canonical form (position-independent)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @property
    def dirty_pages(self) -> int:
        return self.stats.get("dirty_pages", len(self.pages))

    @property
    def total_pages(self) -> int:
        return self.stats.get("total_pages", len(self.pages))


class _PlainUnpickler(pickle.Unpickler):
    """Decodes plain values only: every global a blob names is refused."""

    def find_class(self, module, name):
        raise CheckpointError(f"checkpoint names {module}.{name}")


def _intern(obj):
    """Recursively intern strings so pickling is identity-deterministic."""
    if isinstance(obj, str):
        return sys.intern(obj)
    if isinstance(obj, dict):
        return {_intern(key): _intern(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_intern(item) for item in obj]
    if isinstance(obj, tuple):
        return tuple(_intern(item) for item in obj)
    return obj
