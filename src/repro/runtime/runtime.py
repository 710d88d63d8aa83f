"""The LFI runtime: one host process managing many sandboxes (paper §5.3).

Responsibilities:

* allocate 4GiB slots and load verified ELF executables into them;
* install the runtime-call table and service runtime calls;
* schedule sandboxes preemptively (instruction-fuel timeslices standing in
  for ``setitimer`` alarms);
* implement single-address-space ``fork`` by copying the sandbox image to
  a new slot — possible because all pointers are rebased by the guards;
* provide the ~50-cycle direct-invoke ``yield`` used for IPC.

Context switches save/restore only register state — no page-table or
protection changes are ever needed once sandboxes are mapped, which is the
source of LFI's context-switch advantage (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.verifier import VerifierPolicy
from ..elf.format import read_elf
from ..emulator.costs import CostModel
from ..engine import EngineConfig
from ..errors import Deadlock as _Deadlock
from ..errors import RuntimeError_ as _RuntimeError
from ..hooks import HookRegistry
from ..emulator.machine import (
    BrkTrap,
    HltTrap,
    HostCallTrap,
    Machine,
    MemTrap,
    OutOfFuel,
    SvcTrap,
    UnknownInstructionTrap,
)
from ..memory.layout import MAX_SANDBOXES_48BIT, PAGE_SIZE, SandboxLayout
from ..memory.pages import PagedMemory
from ..obs.events import (
    ContextSwitch,
    FaultEvent,
    ProcessEvent,
    RuntimeCallSpan,
)
from .loader import DEFAULT_STACK_SIZE, alias_slot, clone_process, load_image
from .process import Process, ProcessState, StdStream
from .scheduler import Scheduler
from .syscalls import BATCHABLE, BLOCK, EXITED, HANDLERS, SWITCH
from .table import HOST_ENTRY_BASE, RuntimeCall, call_for_entry, \
    entry_address
from .vfs import Pipe, PipeEnd, Vfs

__all__ = ["Runtime", "ProcessFault", "ResourceQuota"]

_MASK64 = (1 << 64) - 1

#: Host-side cycles charged per runtime call beyond the emulated
#: instructions (argument checks, save/restore of the runtime's state).
#: Calibrated so a null runtime call costs ~22ns at 3.2GHz (Table 5).
CALL_OVERHEAD_CYCLES = 58.0

#: The optimized direct-invoke yield saves/restores only callee-saved
#: registers: roughly 50 cycles end to end (§5.3).
YIELD_CYCLES = 44.0

#: call -> (handler, cycles charged for the transition).
_YIELDS = (RuntimeCall.YIELD, RuntimeCall.YIELD_TO)
_CALLS = {call: (handler,
                 YIELD_CYCLES if call in _YIELDS else CALL_OVERHEAD_CYCLES)
          for call, handler in HANDLERS.items()}
_BADCALL = (None, CALL_OVERHEAD_CYCLES)

#: Leaf calls cannot terminate, fork or reschedule the caller and only
#: read their arguments: they may run on, and return into, live registers.
_LEAF_CALLS = BATCHABLE | {RuntimeCall.BATCH}


class _SliceExit(Exception):
    """Control-flow signal from the springboard to :meth:`Runtime._run_one`.

    Raised after the springboard has fully closed the current slice
    (state saved, trace emitted, call serviced, instructions accounted)
    and translated execution must *not* resume inline — the scheduler
    loop takes over exactly as if the slice had ended by trap.
    """


@dataclass
class ProcessFault:
    """Recorded when a sandbox is killed by a trap."""

    pid: int
    kind: str
    detail: str
    pc: int


@dataclass(frozen=True)
class ResourceQuota:
    """Per-sandbox resource limits enforced by the runtime (§5.3).

    ``None`` for any field means unlimited.  Mapped pages are counted in
    the sandbox's 4GiB slot at the :class:`PagedMemory` boundary; fd slots
    at the :class:`Vfs` boundary; instructions cumulatively per process.
    """

    max_mapped_pages: Optional[int] = None
    max_fds: Optional[int] = None
    max_instructions: Optional[int] = None


class Runtime:
    """One runtime instance owning an address space and its sandboxes."""

    def __init__(self, model: Optional[CostModel] = None,
                 timeslice: int = 50_000,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 first_slot: int = 1,
                 tlb_walk_scale: float = 1.0,
                 engine: Optional[EngineConfig] = None):
        self.memory = PagedMemory()
        self.machine = Machine(self.memory, model=model,
                               tlb_walk_scale=tlb_walk_scale,
                               engine=engine)
        self.model = model
        self.vfs = Vfs()
        self.scheduler = Scheduler(timeslice=timeslice)
        self.stack_size = stack_size
        self.processes: Dict[int, Process] = {}
        self.faults: List[ProcessFault] = []
        self._next_pid = 1
        self._next_slot = first_slot
        self._current: Optional[Process] = None
        self._mmap_cursors: Dict[int, int] = {}
        #: Per-pid pending blocked runtime call number.
        self._pending_call: Dict[int, int] = {}
        #: Per-pid resource quotas (set by a supervisor; inherited on fork).
        self.quotas: Dict[int, ResourceQuota] = {}
        #: Multi-subscriber hook consulted before every runtime-call
        #: dispatch with ``(proc, call)``.  The first subscriber returning
        #: an ``int`` short-circuits the handler with that result — the
        #: fault injector uses this for transient EINTR/ENOMEM-style
        #: errors; the tracer subscribes alongside and returns ``None``.
        self.call_hooks = HookRegistry(first_result=True)
        #: The attached obs event bus, or ``None``.  Set by
        #: :meth:`repro.obs.Tracer.attach`; every emission is guarded by a
        #: ``None`` check so untraced runs pay one attribute load.
        self.tracer = None
        #: True while the machine is executing sandbox code (as opposed to
        #: host-side runtime work); used by the containment auditor to
        #: attribute memory writes.
        self._in_guest = False
        #: Slice anchors for the scheduling slice currently being run by
        #: :meth:`_run_one` (instance state, not locals, so the
        #: springboard can close one slice and open the next inline).
        self._run_start = 0
        self._slice_before = 0
        self._slice_start_cycles = 0.0
        #: Runtime calls serviced, and those that returned into the live
        #: registers (no save, switch or restore).
        self.calls = 0
        self.calls_inline = 0
        for call in RuntimeCall.ALL:
            self.machine.register_host_entry(entry_address(call), call)

    def _emit(self, event) -> None:
        if self.tracer is not None:
            self.tracer.emit(event)

    # -- spawning ---------------------------------------------------------------

    def allocate_slot(self) -> SandboxLayout:
        if self._next_slot >= MAX_SANDBOXES_48BIT - 1:
            raise _RuntimeError("out of sandbox slots")
        layout = SandboxLayout.for_slot(self._next_slot)
        self._next_slot += 1
        return layout

    def spawn(self, image, verify: bool = True,
              policy: Optional[VerifierPolicy] = None) -> Process:
        """Load an ELF image (or raw bytes) into a fresh sandbox.

        ``verify=False`` runs *native* (trusted) code under the runtime —
        the paper's baseline methodology (§6.1): native code still benefits
        from accelerated runtime calls.
        """
        return self._admit(self._load(image, verify, policy),
                           "native" if not verify else "")

    def load_template(self, image, verify: bool = True,
                      policy: Optional[VerifierPolicy] = None) -> Process:
        """Load an image into a slot as a *template*: mapped, never run.

        The returned process is not scheduled and never appears in
        :attr:`processes`; it exists only as a pristine snapshot for
        :meth:`spawn_clone` to restore from (warm spawn).  Verification is
        paid here, once, regardless of how many clones follow.
        """
        proc = self._load(image, verify, policy)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=proc.pid,
                                kind="spawn", detail="template"))
        return proc

    def spawn_clone(self, template: Process) -> Process:
        """Warm-spawn: snapshot-restore ``template`` into a fresh sandbox.

        Equivalent to :meth:`spawn` of the template's image — same initial
        registers (at the new base), same memory contents (COW-aliased,
        copied lazily on first write) — but skips ELF parsing, verification,
        and page population entirely.
        """
        layout = self.allocate_slot()
        return self._admit(clone_process(self.memory, template, layout,
                                         self._take_pid()), "warm")

    def _take_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _load(self, image, verify: bool,
              policy: Optional[VerifierPolicy]) -> Process:
        """Parse (if bytes), verify and map ``image`` into a fresh slot."""
        if isinstance(image, (bytes, bytearray)):
            image = read_elf(bytes(image))
        layout = self.allocate_slot()
        return load_image(self.memory, image, layout, self._take_pid(),
                          verify=verify, policy=policy,
                          stack_size=self.stack_size)

    def _admit(self, proc: Process, detail: str) -> Process:
        """Schedule a new root process and announce its spawn."""
        self.processes[proc.pid] = proc
        self.scheduler.add(proc)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=proc.pid,
                                kind="spawn", detail=detail))
        return proc

    # -- resource quotas -----------------------------------------------------------

    def set_quota(self, proc: Process, quota: Optional[ResourceQuota]) -> None:
        """Attach (or clear) a resource quota for ``proc``."""
        if quota is None:
            self.quotas.pop(proc.pid, None)
        else:
            self.quotas[proc.pid] = quota

    def fd_slots_free(self, proc: Process, count: int = 1) -> bool:
        """Whether ``proc`` may allocate ``count`` more fd-table slots."""
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_fds is None:
            return True
        return len(proc.fds) + count <= quota.max_fds

    def pages_quota_allows(self, proc: Process, new_pages: int) -> bool:
        """Whether mapping ``new_pages`` more pages stays within quota."""
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_mapped_pages is None:
            return True
        used = self.memory.pages_in_range(proc.layout.base, proc.layout.end)
        return used + new_pages <= quota.max_mapped_pages

    # -- state switching -----------------------------------------------------------

    def _switch_to(self, proc: Process) -> None:
        self._current = proc
        self.machine.cpu.restore(proc.registers)
        # A per-instruction probe forces the stepping fallback
        # (observability contract, DESIGN.md §10).
        self.machine.force_stepping = proc.step_mode

    def complete_call(self, proc: Process, result: int) -> None:
        """Write a runtime call's result and return point into ``proc``."""
        regs = proc.registers
        regs["regs"][0] = result & _MASK64
        regs["pc"] = regs["regs"][30]

    # -- process management -------------------------------------------------------

    def terminate(self, proc: Process, code: int) -> None:
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=proc.pid,
                                kind="exit", exit_code=code))
        proc.block_pipe = None
        self._pending_call.pop(proc.pid, None)
        # Close pipe ends (waking peers) but keep std streams readable so
        # the host can collect output after exit.
        for fd, obj in list(proc.fds.items()):
            if isinstance(obj, PipeEnd):
                obj.close()
                self.wake_pipe_waiters(obj.pipe)
                del proc.fds[fd]
        parent = self.processes.get(proc.parent)
        if parent is not None and parent.state == ProcessState.BLOCKED \
                and parent.block_reason == "call":
            self._retry_blocked(parent)

    def reap(self, child: Process) -> None:
        self.processes.pop(child.pid, None)
        self.scheduler.forget(child)

    def reclaim(self, proc: Process) -> None:
        """Unmap a dead sandbox's slot so long runs stay bounded.

        Executable pages are swept out of the translation caches; the
        slot's mmap cursor and quota records are dropped too.  The slot
        number itself is not recycled (monotonic allocation keeps fork and
        clone layouts deterministic).
        """
        self.reclaim_slot(proc.layout)
        self._mmap_cursors.pop(proc.pid, None)
        self.quotas.pop(proc.pid, None)

    def reclaim_slot(self, layout: SandboxLayout) -> None:
        """Unmap everything in ``layout``'s slot (see :meth:`reclaim`); the
        unmap's map observer sweeps the slot's translations."""
        self.memory.unmap(layout.base, layout.end - layout.base)

    def fork(self, parent: Process,
             cow: bool = True) -> Optional[Process]:
        """Single-address-space fork (§5.3): place the image in a new slot.

        All sandbox pointers are 32-bit offsets under the guard discipline,
        so only pc/sp/x30/x21 need rebasing; everything else transfers
        bit-for-bit and the guards re-add the new base on every access.

        With ``cow=True`` (default) the child's pages alias the parent's
        and are copied lazily on first write — the paper's memfd
        optimization.  ``cow=False`` copies eagerly.
        """
        layout = self.allocate_slot()
        pid = self._take_pid()

        if cow:
            alias_slot(self.memory, parent.layout, layout)
        else:
            memory = self.memory
            lo, hi = parent.layout.base, parent.layout.end
            shift = layout.base - lo
            for base, size, perms in list(memory.mapped_regions(lo, hi)):
                memory.map_region(base + shift, size, perms)
            for addr, buf in memory.nonzero_pages(lo, hi):
                memory.load_image(addr + shift, bytes(buf))

        rebase = layout.guarded
        regs = {
            "regs": list(parent.registers["regs"]),
            "sp": rebase(parent.registers["sp"]),
            "pc": rebase(parent.registers["regs"][30]),
            "nzcv": parent.registers["nzcv"],
            "vregs": list(parent.registers["vregs"]),
        }
        regs["regs"][0] = 0  # fork() returns 0 in the child
        regs["regs"][21] = layout.base
        # Reserved address registers and x30 must hold the child's addresses.
        for idx in (18, 23, 24, 30):
            regs["regs"][idx] = rebase(regs["regs"][idx])

        child = Process(
            pid=pid, layout=layout, registers=regs, parent=parent.pid,
            brk=rebase(parent.brk), heap_start=rebase(parent.heap_start),
            state=ProcessState.READY,
            guard_map=parent.guard_map,
            step_mode=parent.step_mode,
        )
        child.fds = dict(parent.fds)  # shared descriptions, like Unix
        for obj in child.fds.values():
            if isinstance(obj, PipeEnd):
                obj.retain()  # the child's table is a second referent
        if parent.pid in self.quotas:
            self.quotas[pid] = self.quotas[parent.pid]
        self.processes[pid] = child
        parent.children.append(pid)
        self.scheduler.add(child)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=pid,
                                kind="fork", parent=parent.pid,
                                detail="cow" if cow else "eager"))
        return child

    def mmap_allocate(self, proc: Process, length: int) -> Optional[int]:
        """Bump allocator below the stack for anonymous mappings."""
        cursor = self._mmap_cursors.get(
            proc.pid, proc.layout.usable_end - self.stack_size
        )
        base = cursor - length
        if base < proc.brk + PAGE_SIZE:
            return None
        self._mmap_cursors[proc.pid] = base
        return base

    # -- blocking -----------------------------------------------------------------

    def wake_pipe_waiters(self, pipe: Pipe) -> None:
        """Retry the processes blocked on ``pipe``: selected first, each
        checked again at its turn (a retry can reap)."""
        for proc in [p for p in self.processes.values()
                     if p.block_pipe is pipe]:
            if proc.state == ProcessState.BLOCKED \
                    and proc.block_reason == "call":
                self._retry_blocked(proc)

    def _retry_blocked(self, proc: Process) -> None:
        call = self._pending_call.get(proc.pid)
        if call is None:
            return
        proc.block_pipe = None  # the handler re-records it if still blocked
        result = HANDLERS[call](self, proc, proc.registers["regs"])
        if result is BLOCK:
            return
        self._pending_call.pop(proc.pid, None)
        proc.block_reason = None
        if result is SWITCH or result is EXITED:
            return
        self.complete_call(proc, result)
        self.scheduler.add(proc)

    # -- dispatch -----------------------------------------------------------------

    def _service_call(self, proc: Process, call: int,
                      live: bool = False) -> bool:
        """Service one runtime call of the running ``proc``: the one
        statement of it, for a trap (stepping) and a springboard alike.

        Save the registers, emit the slice span, charge the transition,
        consult the call hooks, run the handler, apply its outcome, emit
        the call span, account the slice, check the quota; return False —
        the scheduler decides what runs next.  ``live`` (a leaf call, no
        hook or quota to consult) runs the handler on ``cpu.regs`` *before*
        saving: if it returns an integer and :meth:`Scheduler.repick` finds
        nothing queued (the call woke nobody) the result goes into the
        live ``x0``, ``pc`` to ``x30``, and the answer is True — ``proc``
        still RUNNING, the scheduler as a save, ``add_front``, ``pick``
        and restore would have left it.  Otherwise the registers are saved
        then (a leaf handler only reads its arguments: the same snapshot)
        and the call ends the general way.  DESIGN.md §11.
        """
        machine = self.machine
        cpu = machine.cpu
        tracer = self.tracer
        handler, cycles = _CALLS.get(call, _BADCALL)
        if not live:
            proc.registers = cpu.snapshot()
        executed = machine.instret - self._slice_before
        entry_cycles = 0.0  # feeds span emission only
        if tracer is not None:
            self._emit_slice(proc, executed, "call")
            entry_cycles = machine.cycles
        machine.add_cycles(cycles, kind="call")
        self.calls += 1
        inline = False
        if handler is None:
            self._fault(proc, "badcall", f"unknown runtime call {call}")
        else:
            result = None if live or not self.call_hooks.subscribed \
                else self.call_hooks(proc, call)
            injected = result is not None
            if not injected:
                proc.block_pipe = None
                try:
                    result = handler(self, proc, cpu.regs if live
                                     else proc.registers["regs"])
                    inline = live and result is not BLOCK \
                        and self.scheduler.repick(proc)
                finally:
                    if live and not inline:  # the late save, however it ended
                        proc.registers = cpu.snapshot()
            if inline:
                cpu.regs[0] = result & _MASK64
                cpu.pc = cpu.regs[30]
                self.calls_inline += 1
            elif result is BLOCK:
                proc.state = ProcessState.BLOCKED
                proc.block_reason = "call"
                self._pending_call[proc.pid] = call
            elif result is not SWITCH and result is not EXITED:
                self.complete_call(proc, result)
                self.scheduler.add_front(proc)
            if tracer is not None:
                tracer.emit(RuntimeCallSpan(
                    ts=entry_cycles, pid=proc.pid,
                    call=RuntimeCall.NAMES.get(call, f"call{call}"),
                    dur=machine.cycles - entry_cycles,
                    result=result if isinstance(result, int) else None,
                    blocked=result is BLOCK, injected=injected))
        proc.instructions += executed
        if not inline:
            if proc.state == ProcessState.RUNNING:
                proc.state = ProcessState.READY
            if self.quotas:
                self._check_instruction_quota(proc)
        return inline

    def _fault(self, proc: Process, kind: str, detail: str,
               status: int = 128 + 11) -> None:
        pc = proc.registers.get("pc", 0)
        self.faults.append(ProcessFault(proc.pid, kind, detail, pc))
        self._emit(FaultEvent(ts=self.machine.cycles, pid=proc.pid,
                              kind=kind, detail=detail, pc=pc))
        self.terminate(proc, status)  # SIGSEGV-style status by default

    # -- main loop -----------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> None:
        """Run until every process has exited (or faulted)."""
        start = self.machine.instret
        while True:
            proc = self.scheduler.pick()
            if proc is None:
                blocked = self._retry_all_blocked()
                if not blocked:
                    return
                if self.scheduler.empty:
                    raise _Deadlock(
                        f"{blocked} process(es) blocked forever")
                continue
            self._run_one(proc)
            if max_instructions is not None \
                    and self.machine.instret - start > max_instructions:
                raise _RuntimeError("global instruction budget exceeded")

    def run_until_exit(self, proc: Process,
                       max_instructions: Optional[int] = None) -> int:
        """Run until ``proc`` exits; returns its exit code."""
        start = self.machine.instret
        while proc.state != ProcessState.ZOMBIE:
            self._step_target()
            if max_instructions is not None \
                    and self.machine.instret - start > max_instructions:
                raise _RuntimeError("instruction budget exceeded")
        return proc.exit_code or 0

    def run_bounded(self, proc: Process, max_instructions: int) -> bool:
        """Run toward ``proc``'s exit for at most ~``max_instructions``.

        Returns True once ``proc`` has exited, False when the budget ran
        out first (checked between scheduling slices, so the pause always
        lands on a slice boundary — the precondition for checkpointing
        without perturbing the slice pattern).  Unlike
        :meth:`run_until_exit` the budget is a pause, not an error, so
        callers can interleave work (checkpoints, control messages) and
        resume by calling again.
        """
        start = self.machine.instret
        while proc.state != ProcessState.ZOMBIE:
            self._step_target()
            if self.machine.instret - start > max_instructions:
                return False
        return True

    def _step_target(self) -> None:
        """One scheduling step: pick and run a slice, or retry the blocked."""
        runnable = self.scheduler.pick()
        if runnable is None:
            self._retry_all_blocked()
            if self.scheduler.empty:
                raise _Deadlock("target process cannot make progress")
            return
        self._run_one(runnable)

    def _retry_all_blocked(self) -> int:
        blocked = [p for p in self.processes.values()
                   if p.state == ProcessState.BLOCKED]
        for p in blocked:
            self._retry_blocked(p)
        return len(blocked)

    def _run_one(self, proc: Process) -> None:
        machine = self.machine
        self._switch_to(proc)
        self._run_start = machine.instret
        self._slice_before = machine.instret
        self._slice_start_cycles = machine.cycles
        try:
            self._in_guest = True
            try:
                machine.run(self.scheduler.timeslice, self._springboard)
            finally:
                self._in_guest = False
        except _SliceExit:
            # The springboard fully closed the final slice before raising.
            return
        except OutOfFuel:
            # A springboard may have switched processes mid-call; every
            # trap belongs to whoever is current *now*, not to the proc
            # this call started with.
            proc = self._current
            proc.registers = machine.cpu.snapshot()
            self.scheduler.requeue(proc)  # timer preemption
            self._close_slice(proc, "preempt")
        except HostCallTrap as trap:
            self._service_call(self._current, call_for_entry(trap.entry))
        except (MemTrap, UnknownInstructionTrap, SvcTrap, BrkTrap,
                HltTrap) as trap:
            proc = self._current
            proc.registers = machine.cpu.snapshot()
            self._fault(proc, "segv" if isinstance(trap, MemTrap)
                        else "sigill", str(trap))
            self._close_slice(proc, "fault")

    def _close_slice(self, proc: Process, reason: str) -> None:
        """Account the just-ended slice and retire the RUNNING state."""
        executed = self.machine.instret - self._slice_before
        proc.instructions += executed
        if proc.state == ProcessState.RUNNING:
            proc.state = ProcessState.READY
        self._emit_slice(proc, executed, reason)
        self._check_instruction_quota(proc)

    def _springboard(self, entry: int):
        """Service a translated runtime call without unwinding the engine.

        Called by the superblock dispatch loop when a block ending in the
        ``ldr x30, [x21, #n]; blr x30`` pair lands on a registered host
        entry.  :meth:`_service_call` services it, as for a
        ``HostCallTrap``; decided here is whether translated execution
        resumes *inline*.  A leaf call with the slice budget unspent and
        no call hook, run hook or quota is offered the live registers and,
        finished there, resumes with nothing to switch.  Any other resumes
        only when the budget is unspent (one :meth:`_run_one` is ~2
        timeslices at most, so ``run_bounded`` pauses stay on slice
        boundaries) and the pure :meth:`Scheduler.peek` sees a runnable
        process (declined, the outer loop's ``pick()`` sequence and any
        checkpoint at the pause are stepping's): by that loop's one
        ``pick()``, a context switch and a ``run_hooks`` refire, like a
        fresh slice.  Returns ``(fresh_fuel, force_step)`` — finish the
        slice stepping: a hook registered a probe, or the new process is
        in step mode — or raises :class:`_SliceExit` to end the slice.
        """
        machine = self.machine
        scheduler = self.scheduler
        timeslice = scheduler.timeslice
        call = (entry - HOST_ENTRY_BASE) // 8
        self._in_guest = False
        unspent = machine.instret - self._run_start < timeslice
        live = unspent and call in _LEAF_CALLS and not (
            self.quotas or self.call_hooks.subscribed
            or machine.run_hooks.subscribed)
        inline = self._service_call(self._current, call, live)
        if not inline:
            if not unspent or scheduler.peek() is None:
                raise _SliceExit()
            self._switch_to(scheduler.pick())
        self._slice_before = machine.instret
        self._slice_start_cycles = machine.cycles
        self._in_guest = True
        if inline:  # no hook to refire, nothing that could ask for stepping
            return timeslice, False
        if machine.run_hooks.subscribed:
            machine.run_hooks(machine, timeslice)
        force_step = bool(machine.force_stepping or machine._step_probes)
        return timeslice, force_step

    def _emit_slice(self, proc: Process, instructions: int,
                    reason: str) -> None:
        if self.tracer is None:
            return
        if proc.state == ProcessState.BLOCKED:
            reason = "block"
        start = self._slice_start_cycles
        self.tracer.emit(ContextSwitch(ts=start, pid=proc.pid,
                                       dur=self.machine.cycles - start,
                                       instructions=instructions,
                                       reason=reason))

    def _check_instruction_quota(self, proc: Process) -> None:
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_instructions is None \
                or proc.state == ProcessState.ZOMBIE:
            return
        if proc.instructions > quota.max_instructions:
            self._fault(
                proc, "quota",
                f"instruction budget exceeded "
                f"({proc.instructions} > {quota.max_instructions})",
                status=128 + 9,  # SIGKILL-style status
            )

    # -- observability ----------------------------------------------------------

    def stdout_of(self, proc: Process) -> str:
        obj = proc.fds.get(1)
        return obj.text() if isinstance(obj, StdStream) else ""

    def virtual_ns(self) -> float:
        if self.model is None:
            return float(self.machine.instret)
        return self.machine.cycles * self.model.ns_per_cycle()

    @property
    def cycles(self) -> float:
        return self.machine.cycles
