"""Epoch-fair preemptive scheduler (paper §5.3).

The real runtime uses ``setitimer`` alarm signals for preemption; the
emulator equivalent is an instruction *fuel* slice — when a sandbox
exhausts its slice the machine raises ``OutOfFuel`` and the scheduler picks
the next runnable process.

The run queue is a two-queue round-robin (an *active* queue for processes
that have not had their turn this scheduling round, and an *expired* queue
for processes that have).  This hardens the seed's plain FIFO against a
starvation hole: a call-heavy sandbox used to be re-inserted at the front
after every runtime call and could be picked an unbounded number of times
between two picks of its neighbour.  Under the epoch discipline:

* every ready process is picked at most once per round, so no ready
  process waits more than ``len(queue)`` picks for its turn;
* :meth:`add_front` (the direct-invoke yield fast path) still runs the
  target *next* when its turn for the round is unspent — the ~50-cycle
  IPC path is unchanged — but a process that already ran this round goes
  to the back of the next round instead of cutting the line again.

``tests/test_scheduler.py`` checks both properties under randomized
interleavings (hypothesis, ``slow``-marked).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set

from .process import Process, ProcessState

__all__ = ["Scheduler"]


class Scheduler:
    """Two-queue epoch round-robin with requeue-on-preempt semantics."""

    def __init__(self, timeslice: int = 50_000):
        #: Instructions per scheduling quantum (the "timer interval").
        self.timeslice = timeslice
        self._active: Deque[Process] = deque()
        self._expired: Deque[Process] = deque()
        #: Monotonic round counter, bumped when the active queue drains.
        self._epoch = 0
        #: pid -> epoch of the most recent pick (the "turn spent" record).
        self._picked: Dict[int, int] = {}
        #: pids currently enqueued (each process appears at most once).
        self._queued: Set[int] = set()

    # -- enqueueing -----------------------------------------------------------

    def add(self, proc: Process) -> None:
        proc.state = ProcessState.READY
        if proc.pid in self._queued:
            return
        self._queued.add(proc.pid)
        if self._picked.get(proc.pid) == self._epoch:  # turn spent
            self._expired.append(proc)
        else:
            self._active.append(proc)

    def add_front(self, proc: Process) -> None:
        """Schedule next (used by the direct-invoke yield fast path).

        Honored immediately when ``proc`` has not yet run this round;
        otherwise the process has spent its turn and joins the back of the
        next round — front-of-queue privilege is bounded to once per round
        so it can never starve the other ready processes.
        """
        proc.state = ProcessState.READY
        if self._picked.get(proc.pid) == self._epoch:  # turn spent
            if proc.pid not in self._queued:
                self._queued.add(proc.pid)
                self._expired.append(proc)
            return
        if proc.pid in self._queued:
            self._dequeue(proc)
        self._queued.add(proc.pid)
        self._active.appendleft(proc)

    requeue = add  # a preempted or yielding process rejoins like a new one

    def _dequeue(self, proc: Process) -> None:
        queue = self._active if proc in self._active else self._expired
        queue.remove(proc)

    # -- picking --------------------------------------------------------------

    def peek(self) -> Optional[Process]:
        """The process :meth:`pick` would return, with no state change: the
        springboard asks before resuming inline, and a run it declines
        must checkpoint byte-identically to the stepping engine's."""
        for queue in (self._active, self._expired):
            for proc in queue:
                if proc.state == ProcessState.READY:
                    return proc
        return None

    def pick(self) -> Optional[Process]:
        """Next runnable process, skipping stale entries."""
        while True:
            if not self._active:
                if not self._expired:
                    return None
                self._active, self._expired = self._expired, self._active
                self._epoch += 1
            proc = self._active.popleft()
            self._queued.discard(proc.pid)
            if proc.state == ProcessState.READY:
                proc.state = ProcessState.RUNNING
                self._picked[proc.pid] = self._epoch
                return proc

    def repick(self, proc: Process) -> bool:
        """The net effect of ``add_front(proc); pick()`` on a running
        ``proc`` when nothing is queued — not even a stale entry, which a
        ``pick`` would pop: its turn record, in a new round if this one's
        was spent.  Declines (False, nothing touched) otherwise."""
        if self._active or self._expired:
            return False
        if self._picked.get(proc.pid) == self._epoch:
            self._epoch += 1
        self._picked[proc.pid] = self._epoch
        proc.state = ProcessState.RUNNING
        return True

    def forget(self, proc: Process) -> None:
        """Drop a reaped process's bookkeeping (long-lived runtimes)."""
        self._picked.pop(proc.pid, None)

    # -- checkpoint support ---------------------------------------------------

    def capture_order(self, pids) -> dict:
        """Queue membership, order, and epoch position for ``pids``.

        Epochs are recorded relative to the current round (``0`` = turn
        spent this round), so the state is meaningful in a scheduler whose
        absolute epoch counter differs — restore re-anchors against the
        destination's round.  Turn records are read per pid in ``pids``,
        in pid order, so those of other jobs' processes add nothing.
        """
        return {
            "active": [p.pid for p in self._active if p.pid in pids],
            "expired": [p.pid for p in self._expired if p.pid in pids],
            "picked": {pid: self._epoch - self._picked[pid]
                       for pid in sorted(pids) if pid in self._picked},
        }

    def restore_order(self, state: dict, procs: Dict[int, Process]) -> None:
        """Re-enqueue ``procs`` (old pid -> Process) exactly as captured.

        Appends preserve the captured relative order; a worker scheduler
        holds only the one job's processes, so the restored queues are
        byte-equivalent to the uninterrupted run's.
        """
        for old_pid in state["active"]:
            proc = procs[old_pid]
            self._queued.add(proc.pid)
            self._active.append(proc)
        for old_pid in state["expired"]:
            proc = procs[old_pid]
            self._queued.add(proc.pid)
            self._expired.append(proc)
        for old_pid, delta in state["picked"].items():
            self._picked[procs[old_pid].pid] = self._epoch - delta

    def __len__(self) -> int:
        return sum(p.state == ProcessState.READY
                   for queue in (self._active, self._expired) for p in queue)

    @property
    def empty(self) -> bool:
        return self.peek() is None
