"""Capture and restore running jobs (checkpoint/restore, DESIGN.md §13).

:func:`capture_job` walks a job — the root sandbox plus every live fork
descendant — and produces a position-independent :class:`Checkpoint`;
:func:`restore_job` rebuilds the job in any runtime, in fresh slots, with
the original absolute pids.  The contract both lean on:

* captures happen only **between scheduling slices** (``Runtime.run_bounded``
  pauses there), so no process is mid-slice and the saved registers are
  the complete CPU state;
* under the deterministic cost model (``model=None``) a restored job's
  continued execution is byte-identical — registers, memory, metrics,
  trace — to the uninterrupted run.  The differential oracle in
  :mod:`repro.fuzz` checks exactly this.

:class:`CheckpointSession` adds the incremental part: it marks captured
pages copy-on-write, so the next capture detects clean pages by storage
identity and reuses their bytes — O(dirty pages) per checkpoint, the same
memfd trick that makes fork and warm spawn cheap.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError, VfsError as _VfsError
from ..memory.layout import GUARD_SIZE, SANDBOX_SIZE, SandboxLayout
from ..memory.pages import PagedMemory
from ..obs.events import (
    ContextSwitch,
    FaultEvent,
    InstSample,
    ProcessEvent,
    RuntimeCallSpan,
)
from ..runtime.process import Process, ProcessState, StdStream
from ..runtime.runtime import ResourceQuota, Runtime
from ..runtime.vfs import FileHandle, Pipe, PipeEnd, _File
from .state import CHECKPOINT_VERSION, Checkpoint, FdImage, PipeImage, ProcImage

__all__ = [
    "capture_job",
    "restore_job",
    "CheckpointSession",
    "job_processes",
    "canonical_registers",
    "rebase_registers",
    "memory_digest",
    "normalize_events",
    "track_slot_bases",
]


# -- register canonicalization ---------------------------------------------

def _window(layout: SandboxLayout) -> Tuple[int, int]:
    """The guard-extended address window a register may legally point at."""
    return layout.base - GUARD_SIZE, layout.end + GUARD_SIZE


def canonical_registers(registers: dict, layout: SandboxLayout) -> dict:
    """Encode saved registers position-independently.

    Any value inside the guard-extended slot window becomes a
    ``("ptr", offset)`` tag.  Fork only rebases the ABI-designated address
    registers, but a checkpoint can land mid-guard-sequence with an
    absolute pointer in *any* scratch register, so every register gets the
    treatment.  Values outside the window (immediates, 32-bit offsets,
    other sandboxes' data smuggled through pipes as plain ints) pass
    through bit-for-bit.
    """
    lo, hi = _window(layout)

    def encode(value: int):
        if lo <= value < hi:
            return ("ptr", value - layout.base)
        return value

    return {
        "regs": [encode(v) for v in registers["regs"]],
        "sp": encode(registers["sp"]),
        "pc": encode(registers["pc"]),
        "nzcv": registers["nzcv"],
        "vregs": list(registers["vregs"]),
    }


def rebase_registers(canonical: dict, layout: SandboxLayout) -> dict:
    """Invert :func:`canonical_registers` onto a (possibly new) slot."""

    def decode(value):
        if isinstance(value, tuple):
            return layout.base + value[1]
        return value

    return {
        "regs": [decode(v) for v in canonical["regs"]],
        "sp": decode(canonical["sp"]),
        "pc": decode(canonical["pc"]),
        "nzcv": canonical["nzcv"],
        "vregs": list(canonical["vregs"]),
    }


# -- job membership --------------------------------------------------------

def job_processes(runtime: Runtime, root: Process) -> List[Process]:
    """The root plus every live transitive descendant, pid-sorted.

    Reaped children are skipped (they survive only as pid entries in their
    parent's ``children`` list, which the capture keeps so ``wait``
    semantics replay exactly).
    """
    seen: Dict[int, Process] = {}
    stack = [root]
    while stack:
        proc = stack.pop()
        if proc.pid in seen:
            continue
        seen[proc.pid] = proc
        for child_pid in proc.children:
            child = runtime.processes.get(child_pid)
            if child is not None:
                stack.append(child)
    return [seen[pid] for pid in sorted(seen)]


# -- capture ---------------------------------------------------------------

def capture_job(
    runtime: Runtime,
    root: Process,
    hub=None,
    *,
    consumed_instructions: int = 0,
    consumed_cycles: float = 0.0,
    fault_kinds=(),
    _page_cache: Optional[Tuple[dict, dict]] = None,
) -> Checkpoint:
    """Snapshot ``root``'s job into a :class:`Checkpoint`.

    Must be called between scheduling slices (no process ``RUNNING``).
    ``hub`` is the job's :class:`~repro.obs.metrics.MetricsHub`, captured
    so a restored job's metrics report matches the uninterrupted run.
    ``_page_cache`` is :class:`CheckpointSession`'s incremental state.
    """
    procs = job_processes(runtime, root)
    for proc in procs:
        if proc.state == ProcessState.RUNNING:
            raise CheckpointError(
                f"pid {proc.pid} is mid-slice; capture only at slice "
                f"boundaries (use run_bounded)"
            )

    memory = runtime.memory
    ps = memory.page_size
    ordinal = {proc.pid: i for i, proc in enumerate(procs)}

    # Object tables: open-file descriptions are shared across fd tables
    # after fork, and that sharing is semantic (a shared FileHandle has
    # one cursor).  Deduplicate by identity; ids are assigned in
    # pid-then-fd order so two captures of the same state agree.
    objects: Dict[int, FdImage] = {}
    object_ids: Dict[int, int] = {}
    pipes: Dict[int, PipeImage] = {}
    pipe_ids: Dict[int, int] = {}

    def pipe_id(pipe: Pipe) -> int:
        pid = pipe_ids.get(id(pipe))
        if pid is None:
            pid = pipe_ids[id(pipe)] = len(pipe_ids)
            pipes[pid] = PipeImage(
                buffer=bytes(pipe.buffer),
                read_open=pipe.read_open,
                write_open=pipe.write_open,
            )
        return pid

    def object_id(obj) -> int:
        oid = object_ids.get(id(obj))
        if oid is not None:
            return oid
        oid = object_ids[id(obj)] = len(object_ids)
        if isinstance(obj, StdStream):
            state = obj.state()
            objects[oid] = FdImage(kind="std", readable=state["readable"],
                                   buffer=state["buffer"],
                                   read_pos=state["read_pos"])
        elif isinstance(obj, PipeEnd):
            objects[oid] = FdImage(kind="pipe", pipe_id=pipe_id(obj.pipe),
                                   reading=obj.reading, refs=obj.refs)
        elif isinstance(obj, FileHandle):
            linked = True
            try:
                linked = runtime.vfs._walk(obj.path) is obj._node
            except _VfsError:
                linked = False
            objects[oid] = FdImage(
                kind="file", path=obj.path, offset=obj.offset,
                accmode=obj.accmode, append=obj.append, linked=linked,
                data=None if linked else bytes(obj._node.data),
            )
        else:
            raise CheckpointError(f"unknown fd object {type(obj).__name__}")
        return oid

    pages: Dict[Tuple[int, int], bytes] = {}
    dirty = 0
    refs = cached = None
    if _page_cache is not None:
        refs, cached = _page_cache

    images: List[ProcImage] = []
    for proc in procs:
        base, end = proc.layout.base, proc.layout.end
        slot_ord = ordinal[proc.pid]

        regions = [(rbase - base, rsize, rperms) for rbase, rsize, rperms
                   in memory.mapped_regions(base, end)]
        # Only pages with non-zero content are stored; restore maps the
        # regions and leaves the rest demand-zero.  A session marks what
        # it captures COW: a guest write then copies the storage out, so
        # the next capture's identity check sees a different bytearray
        # exactly for dirtied pages.
        for addr, buf in memory.nonzero_pages(base, end,
                                              cow=refs is not None):
            key = (slot_ord, (addr - base) // ps)
            if refs is not None and refs.get(key) is buf:
                data = cached[key]
            else:
                data = bytes(buf)
                dirty += 1
            if refs is not None:
                refs[key] = buf
                cached[key] = data
            pages[key] = data

        block_pipe = (pipe_id(proc.block_pipe)
                      if proc.block_pipe is not None else None)
        cursor = runtime._mmap_cursors.get(proc.pid)
        quota = runtime.quotas.get(proc.pid)
        images.append(ProcImage(
            pid_off=proc.pid - root.pid,
            slot_ord=slot_ord,
            parent_off=(proc.parent - root.pid
                        if proc.parent is not None else None),
            state=proc.state,
            exit_code=proc.exit_code,
            registers=canonical_registers(proc.registers, proc.layout),
            brk_off=proc.brk - base,
            heap_off=proc.heap_start - base,
            fds={fd: object_id(obj)
                 for fd, obj in sorted(proc.fds.items())},
            children=[pid - root.pid for pid in proc.children],
            block_reason=proc.block_reason,
            block_pipe=block_pipe,
            pending_call=runtime._pending_call.get(proc.pid),
            instructions=proc.instructions,
            guard_map=proc.guard_map,
            step_mode=proc.step_mode,
            mmap_cursor_off=(cursor - base if cursor is not None else None),
            quota=((quota.max_mapped_pages, quota.max_fds,
                    quota.max_instructions) if quota is not None else None),
            regions=regions,
        ))

    if refs is not None:
        for key in [k for k in refs if k not in pages]:
            del refs[key]
            cached.pop(key, None)

    pids = {proc.pid for proc in procs}
    sched = runtime.scheduler.capture_order(pids)
    sched = {
        "active": [pid - root.pid for pid in sched["active"]],
        "expired": [pid - root.pid for pid in sched["expired"]],
        "picked": {pid - root.pid: delta
                   for pid, delta in sched["picked"].items()},
    }

    return Checkpoint(
        version=CHECKPOINT_VERSION,
        root_pid=root.pid,
        procs=images,
        objects=objects,
        pipes=pipes,
        pages=pages,
        page_size=ps,
        sched=sched,
        vfs=runtime.vfs.state_dict(),
        metrics=(hub.state_dict(pid_base=root.pid)
                 if hub is not None else None),
        consumed_instructions=consumed_instructions,
        consumed_cycles=consumed_cycles,
        fault_kinds=list(fault_kinds),
        stats={"dirty_pages": dirty if _page_cache is not None else len(pages),
               "total_pages": len(pages)},
    )


# -- restore ---------------------------------------------------------------

def restore_job(runtime: Runtime, ckpt: Checkpoint, hub=None) -> Process:
    """Rebuild a checkpointed job in ``runtime``; returns the root process.

    Slots are freshly allocated (slot numbers never need to match — all
    addresses in the image are offsets), but **absolute pids are
    preserved**: the guest has already observed them via ``fork`` return
    values and ``getpid``, in registers and memory the restore carries
    over verbatim.  The destination's pid counter jumps past the job's
    range; a pid collision (something live already holds one of the
    job's pids) is an error.
    """
    if ckpt.page_size != runtime.memory.page_size:
        raise CheckpointError(
            f"page size mismatch: checkpoint {ckpt.page_size}, "
            f"runtime {runtime.memory.page_size}"
        )
    root_pid = ckpt.root_pid
    targets = [root_pid + img.pid_off for img in ckpt.procs]
    for pid in targets:
        if pid in runtime.processes:
            raise CheckpointError(f"pid {pid} already exists in this runtime")
    runtime._next_pid = max(runtime._next_pid, max(targets) + 1)

    runtime.vfs.load_state(ckpt.vfs)

    pipe_map: Dict[int, Pipe] = {}
    for pid, image in ckpt.pipes.items():
        pipe = Pipe()
        pipe.buffer.extend(image.buffer)
        pipe.read_open = image.read_open
        pipe.write_open = image.write_open
        pipe_map[pid] = pipe

    object_map: Dict[int, object] = {}
    for oid, image in ckpt.objects.items():
        if image.kind == "std":
            object_map[oid] = StdStream.from_state(
                {"buffer": image.buffer, "readable": image.readable,
                 "read_pos": image.read_pos})
        elif image.kind == "pipe":
            end = PipeEnd(pipe_map[image.pipe_id], reading=image.reading)
            end.refs = image.refs
            object_map[oid] = end
        elif image.kind == "file":
            if image.linked:
                node = runtime.vfs._walk(image.path)
            else:
                node = _File(bytearray(image.data or b""))
            handle = FileHandle(node, image.accmode, append=image.append,
                                path=image.path)
            handle.offset = image.offset
            object_map[oid] = handle
        else:
            raise CheckpointError(f"unknown fd image kind {image.kind!r}")

    memory = runtime.memory
    ps = ckpt.page_size
    restored: Dict[int, Process] = {}  # pid offset -> Process
    for img in ckpt.procs:
        layout = runtime.allocate_slot()
        base = layout.base
        for off, size, perms in img.regions:
            memory.map_region(base + off, size, perms)
        for (slot_ord, page_off), data in ckpt.pages.items():
            if slot_ord == img.slot_ord:
                memory.load_image(base + page_off * ps, data)

        pid = root_pid + img.pid_off
        proc = Process(
            pid=pid,
            layout=layout,
            registers=rebase_registers(img.registers, layout),
            parent=(root_pid + img.parent_off
                    if img.parent_off is not None else None),
            state=img.state,
            exit_code=img.exit_code,
            brk=base + img.brk_off,
            heap_start=base + img.heap_off,
            children=[root_pid + off for off in img.children],
            block_reason=img.block_reason,
            block_pipe=(pipe_map[img.block_pipe]
                        if img.block_pipe is not None else None),
            instructions=img.instructions,
            guard_map=img.guard_map,
            step_mode=img.step_mode,
        )
        proc.fds = {fd: object_map[oid] for fd, oid in img.fds.items()}
        runtime.processes[pid] = proc
        if img.pending_call is not None:
            runtime._pending_call[pid] = img.pending_call
        if img.mmap_cursor_off is not None:
            runtime._mmap_cursors[pid] = base + img.mmap_cursor_off
        if img.quota is not None:
            runtime.quotas[pid] = ResourceQuota(*img.quota)
        restored[img.pid_off] = proc

    runtime.scheduler.restore_order(ckpt.sched, restored)
    if hub is not None and ckpt.metrics is not None:
        hub.load_state(ckpt.metrics, pid_base=root_pid)
    return restored[0]


# -- incremental sessions --------------------------------------------------

class CheckpointSession:
    """Periodic checkpointing of one job, O(dirty pages) per capture.

    The session remembers, per page, the storage object and bytes of the
    last capture.  :func:`capture_job` marks captured pages copy-on-write,
    so a guest write replaces the storage object — the next capture
    detects clean pages by identity (``refs[key] is buf``) and reuses the
    previous bytes without touching the page contents.
    """

    def __init__(self, runtime: Runtime, root: Process, hub=None):
        self.runtime = runtime
        self.root = root
        self.hub = hub
        self.seq = 0
        self._page_refs: dict = {}
        self._page_bytes: dict = {}

    def capture(self, *, consumed_instructions: int = 0,
                consumed_cycles: float = 0.0,
                fault_kinds=()) -> Checkpoint:
        ckpt = capture_job(
            self.runtime, self.root, self.hub,
            consumed_instructions=consumed_instructions,
            consumed_cycles=consumed_cycles,
            fault_kinds=fault_kinds,
            _page_cache=(self._page_refs, self._page_bytes),
        )
        self.seq += 1
        ckpt.stats["seq"] = self.seq
        return ckpt


# -- differential-oracle helpers -------------------------------------------

def memory_digest(memory: PagedMemory, layout: SandboxLayout) -> str:
    """Position-independent content hash of one sandbox slot.

    Guests legitimately spill absolute pointers (the x21 base, guard
    results) to their stacks, so raw bytes differ between slots holding
    the same logical state.  Each aligned 64-bit word that points into the
    slot's own guard-extended window is therefore hashed as an offset tag;
    everything else is hashed verbatim.  Two slots with the same logical
    contents digest identically wherever they live.
    """
    sha = hashlib.sha256()
    lo, hi = layout.base, layout.end
    wlo, whi = _window(layout)
    for rbase, rsize, perms in memory.mapped_regions(lo, hi):
        sha.update(struct.pack("<cQQQ", b"R", rbase - lo, rsize, perms))
    for addr, buf in memory.nonzero_pages(lo, hi):
        sha.update(struct.pack("<cQ", b"D", addr - lo))
        words = struct.unpack(f"<{len(buf) // 8}Q", buf)
        done = 0  # bytes hashed so far: verbatim up to a tagged word
        for at in [8 * i for i, w in enumerate(words) if wlo <= w < whi]:
            sha.update(buf[done:at])
            sha.update(b"P" + struct.pack("<q", words[at // 8] - lo))
            done = at + 8
        sha.update(buf[done:])
    return sha.hexdigest()


def track_slot_bases(runtime: Runtime, tracer, bases: Optional[dict] = None,
                     ) -> dict:
    """Record each traced pid's slot base as events arrive.

    Needed by :func:`normalize_events`: by the time a trace is compared
    the processes may be reaped, so the pid→base mapping is collected
    live (the runtime registers a process before emitting its first
    event).
    """
    if bases is None:
        bases = {}

    def on_event(event) -> None:
        if event.pid not in bases:
            proc = runtime.processes.get(event.pid)
            if proc is not None:
                bases[event.pid] = proc.layout.base
    tracer.subscribe(on_event)
    return bases


def normalize_events(events, bases: dict, ts_base: float = 0.0,
                     pid_base: int = 0, instret_base: int = 0) -> list:
    """Project a trace onto slot/pid/time-independent tuples.

    Timestamps are rebased by ``ts_base`` (a resumed run's clock starts
    where the checkpoint left off, an uninterrupted run's at the job
    start), pids by ``pid_base``, pcs and in-window call results by the
    emitting process's slot base.  Two runs of the same job — whether
    straight through or checkpoint/restored across runtimes — normalize
    to equal lists.
    """
    out = []
    for event in events:
        pid = event.pid - pid_base
        ts = event.ts - ts_base
        base = bases.get(event.pid)
        if isinstance(event, ContextSwitch):
            out.append(("cs", ts, pid, event.dur, event.instructions,
                        event.reason))
        elif isinstance(event, RuntimeCallSpan):
            result = event.result
            if (result is not None and base is not None
                    and base - GUARD_SIZE <= result
                    < base + SANDBOX_SIZE + GUARD_SIZE):
                result = ("ptr", result - base)
            out.append(("call", ts, pid, event.call, event.dur, result,
                        event.blocked, event.injected))
        elif isinstance(event, FaultEvent):
            out.append(("fault", ts, pid, event.kind,
                        event.pc - (base or 0)))
        elif isinstance(event, ProcessEvent):
            parent = (event.parent - pid_base
                      if event.parent is not None else None)
            out.append(("proc", ts, pid, event.kind, event.detail, parent,
                        event.exit_code))
        elif isinstance(event, InstSample):
            out.append(("inst", pid, event.pc - (base or 0), event.klass,
                        event.guard, event.instret - instret_base))
        else:
            out.append((type(event).__name__, ts, pid))
    return out
