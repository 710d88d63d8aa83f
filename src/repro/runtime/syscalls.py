"""Runtime call handlers: a small Unix-like OS inside one process (§5.3).

Each handler is ``handler(runtime, proc, args)``, ``args`` being ``x0``-``x5``
as any sequence of six words: the live ``cpu.regs`` from the springboard, the
saved ``proc.registers["regs"]`` from the general path or a retry,
``words[1:7]`` of a batch record.  It returns an integer result (negative
errno on failure) or a control sentinel: ``BLOCK`` (the caller must sleep
and retry), ``SWITCH`` (the handler already completed the call and
rearranged the run queue) or ``EXITED``.  The ``BATCHABLE`` handlers and
``BATCH`` only *read* ``args`` and never touch the caller's registers, which
lets the springboard run them before deciding whether to save those.

A guest pointer is checked before anything it would receive is consumed: a
buffer, path or status word the caller cannot read or write is ``-EFAULT``
with no stream advanced, no fd allocated, no child reaped and nothing
partially written — never a ``MemoryFault`` out of the host loop.

File-access calls end up in the VFS ("often end up making a system call to
Linux" in the paper); process-management calls (fork/wait/yield/pipe) are
handled *internally*, with no host involvement — the source of LFI's
syscall speedup.
"""

from __future__ import annotations

import errno
import struct
from typing import Callable, Dict

from ..memory.layout import PAGE_SIZE
from ..memory.pages import MemoryFault, PERM_RW, PERM_W
from .process import Process, ProcessState, StdStream
from .table import BATCH_MAX_RECORDS, BATCH_RECORD_SIZE, RuntimeCall
from ..errors import VfsError
from .vfs import FileHandle, PipeEnd, Pipe

__all__ = ["BLOCK", "SWITCH", "EXITED", "HANDLERS", "BATCHABLE"]

BLOCK = object()
SWITCH = object()
EXITED = object()

_MASK64 = (1 << 64) - 1


_RECORD = struct.Struct("<8Q")  # [call, a0, a1, a2, a3, a4, a5, result]


def _signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value


def _path(runtime, proc: Process, ptr: int):
    """The NUL-terminated path at guest pointer ``ptr``, or None where
    the caller's memory does not hold one."""
    try:
        return runtime.memory.read_cstring(proc.pointer(ptr)).decode()
    except (MemoryFault, UnicodeDecodeError):
        return None


def rt_exit(runtime, proc: Process, args):
    runtime.terminate(proc, args[0] & 0xFF)
    return EXITED


def rt_open(runtime, proc: Process, args):
    if not runtime.fd_slots_free(proc, 1):
        return -errno.EMFILE
    path = _path(runtime, proc, args[0])
    if path is None:
        return -errno.EFAULT
    try:
        handle = runtime.vfs.open(path, args[1])
    except VfsError as exc:
        return -exc.err
    fd = proc.next_fd()
    proc.fds[fd] = handle
    return fd


def rt_close(runtime, proc: Process, args):
    obj = proc.fds.pop(args[0], None)
    if obj is None:
        return -errno.EBADF
    if isinstance(obj, PipeEnd):
        obj.close()
        runtime.wake_pipe_waiters(obj.pipe)
    return 0


def rt_read(runtime, proc: Process, args):
    fd, buf, count = args[0], args[1], args[2]
    obj = proc.fds.get(fd)
    if obj is None:
        return -errno.EBADF
    count = min(count, 1 << 20)
    dest = proc.pointer(buf)
    if count and not runtime.memory.permits(dest, count, PERM_W):
        return -errno.EFAULT
    try:
        data = obj.read(count)
    except VfsError as exc:
        return -exc.err
    if data is None:  # only a pipe's end: empty, and a writer is left
        proc.block_pipe = obj.pipe
        return BLOCK
    if data:
        runtime.memory.write(dest, data)
    return len(data)


def rt_write(runtime, proc: Process, args):
    fd, buf, count = args[0], args[1], args[2]
    obj = proc.fds.get(fd)
    if obj is None:
        return -errno.EBADF
    count = min(count, 1 << 20)
    try:
        data = runtime.memory.read(proc.pointer(buf), count) if count else b""
        written = obj.write(data)
    except MemoryFault:
        return -errno.EFAULT
    except VfsError as exc:
        return -exc.err
    if isinstance(obj, PipeEnd):
        if written is None:  # full
            proc.block_pipe = obj.pipe
            return BLOCK
        runtime.wake_pipe_waiters(obj.pipe)
    return written


def rt_lseek(runtime, proc: Process, args):
    obj = proc.fds.get(args[0])
    if not isinstance(obj, FileHandle):
        return -errno.ESPIPE if obj is not None else -errno.EBADF
    try:
        return obj.seek(_signed(args[1]), args[2])
    except VfsError as exc:
        return -exc.err


def rt_brk(runtime, proc: Process, args):
    addr = args[0]
    if addr == 0:
        return proc.brk & _MASK64
    new = proc.pointer(addr)
    limit = proc.layout.usable_end - runtime.stack_size - PAGE_SIZE
    if new < proc.heap_start or new > limit:
        return -errno.ENOMEM
    old_top = (proc.brk + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    new_top = (new + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    if new_top > old_top:
        if not runtime.pages_quota_allows(
                proc, (new_top - old_top) // PAGE_SIZE):
            return -errno.ENOMEM
        runtime.memory.map_region(old_top, new_top - old_top, PERM_RW)
    proc.brk = new
    return new & _MASK64


def rt_mmap(runtime, proc: Process, args):
    length = args[1]  # addr, prot, flags, fd and offset are ignored
    if length == 0:
        return -errno.EINVAL
    length = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    if not runtime.pages_quota_allows(proc, length // PAGE_SIZE):
        return -errno.ENOMEM
    base = runtime.mmap_allocate(proc, length)
    if base is None:
        return -errno.ENOMEM
    runtime.memory.map_region(base, length, PERM_RW)
    return base & _MASK64


def rt_munmap(runtime, proc: Process, args):
    addr = proc.pointer(args[0])
    length = (args[1] + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    if addr % PAGE_SIZE:
        return -errno.EINVAL
    lo = proc.layout.usable_base
    hi = proc.layout.usable_end
    if addr < lo or addr + length > hi:
        return -errno.EINVAL
    runtime.memory.unmap(addr, length)
    return 0


def rt_fork(runtime, proc: Process, args):
    child = runtime.fork(proc)
    if child is None:
        return -errno.EAGAIN
    return child.pid


def rt_wait(runtime, proc: Process, args):
    status_ptr = args[0] and proc.pointer(args[0])
    if status_ptr and not runtime.memory.permits(status_ptr, 4, PERM_W):
        return -errno.EFAULT
    child = next((child for child in map(runtime.processes.get, proc.children)
                  if child.state == ProcessState.ZOMBIE), None)
    if child is None:
        return BLOCK if proc.children else -errno.ECHILD
    proc.children.remove(child.pid)
    runtime.reap(child)
    if status_ptr:
        runtime.memory.write_u32(status_ptr, child.exit_code or 0)
    return child.pid


def rt_getpid(runtime, proc: Process, args):
    return proc.pid


def rt_pipe(runtime, proc: Process, args):
    if not runtime.fd_slots_free(proc, 2):
        return -errno.EMFILE
    fds_ptr = proc.pointer(args[0])
    if not runtime.memory.permits(fds_ptr, 8, PERM_W):
        return -errno.EFAULT
    pipe = Pipe()
    r = proc.next_fd()
    proc.fds[r] = pipe.read_end()
    w = proc.next_fd()
    proc.fds[w] = pipe.write_end()
    runtime.memory.write_u32(fds_ptr, r)
    runtime.memory.write_u32(fds_ptr + 4, w)
    return 0


def rt_yield(runtime, proc: Process, args):
    runtime.complete_call(proc, 0)
    runtime.scheduler.requeue(proc)
    return SWITCH


def rt_yield_to(runtime, proc: Process, args):
    """Direct cross-sandbox invocation: the microkernel-style IPC fast path
    (§5.3).  Only callee-saved registers survive; the target runs next."""
    target = runtime.processes.get(args[0])
    if target is None or target.state == ProcessState.ZOMBIE:
        return -errno.ESRCH
    runtime.complete_call(proc, 0)
    runtime.scheduler.requeue(proc)
    if target.state == ProcessState.READY:
        runtime.scheduler.add_front(target)
    return SWITCH


def rt_clock(runtime, proc: Process, args):
    """Nanoseconds of virtual time (cycle model at the machine frequency)."""
    return int(runtime.virtual_ns()) & _MASK64


#: Calls serviceable inside one BATCH crossing.  Excluded are the calls
#: that terminate, fork, or reschedule the caller (EXIT/FORK/WAIT/YIELD/
#: YIELD_TO) and BATCH itself — those need the full dispatch path.
BATCHABLE = frozenset({
    RuntimeCall.OPEN, RuntimeCall.CLOSE, RuntimeCall.READ,
    RuntimeCall.WRITE, RuntimeCall.LSEEK, RuntimeCall.BRK,
    RuntimeCall.MMAP, RuntimeCall.MUNMAP, RuntimeCall.GETPID,
    RuntimeCall.PIPE, RuntimeCall.CLOCK, RuntimeCall.UNLINK,
})


#: Batchable calls that can write guest memory or change its mappings:
#: what follows such a record in the arena is read again.
_BATCH_REREAD = frozenset({RuntimeCall.READ, RuntimeCall.PIPE, RuntimeCall.BRK,
                           RuntimeCall.MMAP, RuntimeCall.MUNMAP})


def rt_batch(runtime, proc: Process, args):
    """Vectored runtime calls: many crossings for one transition (§15).

    ``x0`` points at an array of ``x1`` 64-byte records, each eight
    little-endian u64 words ``[call, a0, a1, a2, a3, a4, a5, result]``.
    Every record is serviced in order through the ordinary handlers and
    its result word written back; the whole batch costs one transition
    (one ``CALL_OVERHEAD_CYCLES`` charge in :meth:`Runtime._service_call`).

    The arena is decoded from one ``read`` of all the records left — taken
    again after a ``_BATCH_REREAD`` record, so each record sees what those
    before it did to memory, and one record at a time when the rest is not
    readable as a whole, so the batch returns ``-EFAULT`` at the hole —
    as it does at a record whose result word cannot be written.

    A record whose call would block returns ``-EAGAIN`` in its result
    word instead of sleeping — batches never block.  Non-batchable or
    unknown call numbers yield ``-ENOSYS`` per record.  The return value
    is the number of records serviced, or a negative errno if the batch
    itself is malformed.
    """
    count = args[1]
    if count > BATCH_MAX_RECORDS:
        return -errno.EINVAL
    memory = runtime.memory
    rec = proc.pointer(args[0])
    end = rec + count * BATCH_RECORD_SIZE
    while rec < end:
        try:
            raw = memory.read(rec, end - rec)
        except MemoryFault:
            try:
                raw = memory.read(rec, BATCH_RECORD_SIZE)
            except MemoryFault:
                return -errno.EFAULT
        for words in _RECORD.iter_unpack(raw):
            call = words[0]
            if call not in BATCHABLE:
                result = -errno.ENOSYS
            else:
                proc.block_pipe = None
                result = HANDLERS[call](runtime, proc, words[1:7])
                if result is BLOCK:
                    proc.block_pipe = None
                    result = -errno.EAGAIN
            try:
                memory.store(rec + 56, 8, result & _MASK64)
            except MemoryFault:
                return -errno.EFAULT
            rec += BATCH_RECORD_SIZE
            if call in _BATCH_REREAD:
                break
    return count


def rt_unlink(runtime, proc: Process, args):
    path = _path(runtime, proc, args[0])
    if path is None:
        return -errno.EFAULT
    try:
        runtime.vfs.unlink(path)
    except VfsError as exc:
        return -exc.err
    return 0


HANDLERS: Dict[int, Callable] = {
    RuntimeCall.EXIT: rt_exit,
    RuntimeCall.OPEN: rt_open,
    RuntimeCall.CLOSE: rt_close,
    RuntimeCall.READ: rt_read,
    RuntimeCall.WRITE: rt_write,
    RuntimeCall.LSEEK: rt_lseek,
    RuntimeCall.BRK: rt_brk,
    RuntimeCall.MMAP: rt_mmap,
    RuntimeCall.MUNMAP: rt_munmap,
    RuntimeCall.FORK: rt_fork,
    RuntimeCall.WAIT: rt_wait,
    RuntimeCall.GETPID: rt_getpid,
    RuntimeCall.PIPE: rt_pipe,
    RuntimeCall.YIELD: rt_yield,
    RuntimeCall.YIELD_TO: rt_yield_to,
    RuntimeCall.CLOCK: rt_clock,
    RuntimeCall.UNLINK: rt_unlink,
    RuntimeCall.BATCH: rt_batch,
}
