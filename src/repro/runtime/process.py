"""Per-sandbox process state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..memory.layout import SANDBOX_SIZE, SandboxLayout
from .vfs import FileHandle, Pipe, PipeEnd

__all__ = ["Process", "ProcessState"]


class ProcessState:
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"  # waiting on a pipe or a child
    ZOMBIE = "zombie"


FdObject = Union[FileHandle, PipeEnd, "StdStream"]


class StdStream:
    """stdout/stderr sink or stdin source owned by the runtime."""

    def __init__(self, readable: bool = False):
        self.buffer = bytearray()
        self.readable = readable
        self._read_pos = 0

    def write(self, data: bytes) -> int:
        self.buffer.extend(data)
        return len(data)

    def read(self, count: int) -> bytes:
        data = bytes(self.buffer[self._read_pos:self._read_pos + count])
        self._read_pos += len(data)
        return data

    def text(self) -> str:
        return self.buffer.decode("utf-8", "replace")

    def state(self) -> dict:
        """Serializable snapshot (checkpoint support)."""
        return {"buffer": bytes(self.buffer), "readable": self.readable,
                "read_pos": self._read_pos}

    @classmethod
    def from_state(cls, state: dict) -> "StdStream":
        stream = cls(readable=state["readable"])
        stream.buffer.extend(state["buffer"])
        stream._read_pos = state["read_pos"]
        return stream


@dataclass
class Process:
    """One sandbox: its slot, saved registers, and kernel-side state."""

    pid: int
    layout: SandboxLayout
    registers: dict  # CpuState.snapshot()
    parent: Optional[int] = None
    state: str = ProcessState.READY
    exit_code: Optional[int] = None
    brk: int = 0  # current program break (absolute address)
    heap_start: int = 0
    fds: Dict[int, FdObject] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)
    #: Why the process is blocked: ``"call"`` (a runtime call that returned
    #: ``BLOCK`` and is retried, ``Runtime._pending_call``) or ``None``.
    block_reason: Optional[str] = None
    #: The pipe a call-blocked process is waiting on, if any.  Lets
    #: ``wake_pipe_waiters`` retry only the processes actually blocked on
    #: that pipe instead of thundering-herd retrying everything.
    block_pipe: Optional[Pipe] = None
    #: Total instructions retired while this process was scheduled.
    instructions: int = 0
    #: Guard provenance: pc offset in the slot -> guard class
    #: (``memory``/``branch``/``sp``/``x30``/``hoist``).  The image's own
    #: PT_NOTE dict, shared read-only by the template, its clones, forks
    #: and restored checkpoints; the obs profiler uses it to attribute
    #: cycle charges to application vs guard code.
    guard_map: Dict[int, str] = field(default_factory=dict)
    #: Force the per-instruction stepping engine for this process.  Set
    #: when a per-instruction probe is registered (HookRegistry contract:
    #: probes observe every retired instruction) or for debugging; the
    #: child inherits it on fork.
    step_mode: bool = False

    @property
    def base(self) -> int:
        return self.layout.base

    def next_fd(self) -> int:
        fd = 0
        while fd in self.fds:
            fd += 1
        return fd

    def pointer(self, value: int) -> int:
        """Resolve a sandbox pointer argument to an absolute address.

        The guard discipline means sandbox pointers are meaningful only in
        their low 32 bits (§5.3: "pointers can be constructed as 32-bit
        offsets"); the runtime rebases them exactly like a guard would
        (``SandboxLayout.guarded``, spelled out here: every READ and WRITE
        comes through, and a second frame per argument shows).
        """
        return self.layout.base | (value & (SANDBOX_SIZE - 1))
