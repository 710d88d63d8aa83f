"""Unit tests for the scheduler, process state, and runtime-call table."""

import copy
import random
import struct

import pytest

from repro.memory import PAGE_SIZE, SandboxLayout
from repro.runtime import (
    Process,
    ProcessState,
    RuntimeCall,
    Scheduler,
    StdStream,
    build_table_page,
    entry_address,
    table_offset,
)
from repro.runtime.table import (
    HOST_ENTRY_BASE,
    RUNTIME_REGION_BASE,
    UNMAPPED_ENTRY,
    call_for_entry,
)


def make_proc(pid):
    return Process(
        pid=pid,
        layout=SandboxLayout.for_slot(pid),
        registers={"regs": [0] * 31, "sp": 0, "pc": 0, "nzcv": 0,
                   "vregs": [0] * 32},
    )


def turn_spent(sched, proc):
    """Whether ``proc`` has already been picked this round."""
    return sched._picked.get(proc.pid) == sched._epoch


class TestScheduler:
    def test_fifo_order(self):
        sched = Scheduler()
        a, b, c = make_proc(1), make_proc(2), make_proc(3)
        for p in (a, b, c):
            sched.add(p)
        assert sched.pick() is a
        assert sched.pick() is b
        assert sched.pick() is c
        assert sched.pick() is None

    def test_requeue_goes_to_back(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        first = sched.pick()
        sched.requeue(first)
        assert sched.pick() is b
        assert sched.pick() is a

    def test_add_front(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add_front(b)
        assert sched.pick() is b

    def test_zombies_skipped(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        a.state = ProcessState.ZOMBIE
        assert sched.pick() is b

    def test_blocked_skipped(self):
        sched = Scheduler()
        a = make_proc(1)
        sched.add(a)
        a.state = ProcessState.BLOCKED
        assert sched.pick() is None
        assert sched.empty

    def test_pick_marks_running(self):
        sched = Scheduler()
        a = make_proc(1)
        sched.add(a)
        assert a.state == ProcessState.READY
        sched.pick()
        assert a.state == ProcessState.RUNNING

    def test_len_counts_ready_only(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        b.state = ProcessState.BLOCKED
        assert len(sched) == 1


class TestEpochFairness:
    """The two-queue round discipline (no starvation via add_front)."""

    def test_spent_turn_add_front_waits_for_next_round(self):
        """A process that already ran this round cannot cut the line: its
        add_front (the post-call re-add) lands behind the processes that
        have not had their turn yet."""
        sched = Scheduler()
        a, b, c = make_proc(1), make_proc(2), make_proc(3)
        for p in (a, b, c):
            sched.add(p)
        assert sched.pick() is a
        sched.add_front(a)  # a's turn is spent: no line-cutting
        assert sched.pick() is b
        assert sched.pick() is c
        assert sched.pick() is a  # next round

    def test_unspent_turn_add_front_runs_next(self):
        """The direct-invoke boost: a target that has not run this round
        jumps to the very front (yield_to IPC fast path)."""
        sched = Scheduler()
        a, b, c = make_proc(1), make_proc(2), make_proc(3)
        for p in (a, b, c):
            sched.add(p)
        assert sched.pick() is a
        sched.requeue(a)
        sched.add_front(c)  # c's turn is unspent: runs next
        assert sched.pick() is c

    def test_call_heavy_process_cannot_starve_neighbour(self):
        """The seed's FIFO allowed: pick a, add_front(a), pick a, ... with
        b never scheduled.  The epoch scheduler bounds a to one pick per
        round."""
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        picks = []
        for _ in range(6):
            p = sched.pick()
            picks.append(p.pid)
            sched.add_front(p)  # runtime's post-call fast-path re-add
        assert picks == [1, 2, 1, 2, 1, 2]

    def test_ping_pong_yield_to_alternates(self):
        """yield_to: requeue(self) + add_front(target) alternates fairly."""
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        order = []
        current = sched.pick()
        for _ in range(6):
            order.append(current.pid)
            target = b if current is a else a
            sched.requeue(current)
            sched.add_front(target)
            current = sched.pick()
        assert order == [1, 2, 1, 2, 1, 2]

    def test_duplicate_add_keeps_single_entry(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        sched.add(a)  # no duplicate entry
        assert sched.pick() is a
        assert sched.pick() is b
        assert sched.pick() is None

    def test_turn_spent_and_epoch_introspection(self):
        sched = Scheduler()
        a, b = make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        assert not turn_spent(sched, a)
        assert sched.pick() is a
        assert turn_spent(sched, a)
        epoch = sched._epoch
        sched.requeue(a)
        assert sched.pick() is b
        assert sched.pick() is a  # round rolled over
        assert sched._epoch == epoch + 1

    def test_forget_clears_bookkeeping(self):
        sched = Scheduler()
        a = make_proc(1)
        sched.add(a)
        sched.pick()
        sched.forget(a)
        assert not turn_spent(sched, a)


def scheduler_state(sched, procs):
    return ([p.pid for p in sched._active], [p.pid for p in sched._expired],
            set(sched._queued), sched._epoch, dict(sched._picked),
            [p.state for p in procs])


def repick_case(choose):
    """One random scheduler state, then ``repick`` against its definition.

    ``choose(n)`` draws an int in ``[0, n)``.  A few ``add``/``add_front``/
    ``pick`` steps, with picked processes sometimes left queued-but-stale
    (blocked or killed while waiting) and turn records sometimes
    forgotten, leave a running ``proc`` off the queues; a deep copy then
    does ``add_front(proc); pick()``, the definition.  Returns whether
    ``repick`` accepted.
    """
    procs = [make_proc(pid + 1) for pid in range(1 + choose(4))]
    sched = Scheduler()
    running = None
    for _ in range(choose(12)):
        op = choose(6)
        proc = procs[choose(len(procs))]
        if op == 0 and proc is not running:
            sched.add(proc)
        elif op == 1 and proc is not running:
            sched.add_front(proc)
        elif op == 2 and proc.pid in sched._queued:
            proc.state = (ProcessState.BLOCKED, ProcessState.ZOMBIE)[choose(2)]
        elif op == 3:
            sched.forget(proc)
        else:
            if running is not None and choose(2):
                sched.add(running)  # preempted; otherwise it blocked
            running = sched.pick()
    if running is None:
        running = procs[0]
        if running.pid in sched._queued:
            return None  # nothing is running and nothing could be
        running.state = ProcessState.RUNNING
    twin_sched, twin_procs = copy.deepcopy((sched, procs))
    twin = twin_procs[running.pid - 1]
    twin_sched.add_front(twin)
    picked = twin_sched.pick()
    before = scheduler_state(sched, procs)
    if not sched.repick(running):
        assert scheduler_state(sched, procs) == before
        return False
    assert picked is twin
    assert scheduler_state(sched, procs) \
        == scheduler_state(twin_sched, twin_procs)
    return True


class TestRepick:
    """``Scheduler.repick`` is ``add_front(proc); pick()`` or nothing."""

    def test_spent_turn_opens_a_round(self):
        sched, a = Scheduler(), make_proc(1)
        sched.add(a)
        assert sched.pick() is a
        assert sched.repick(a)
        assert (sched._epoch, sched._picked, a.state) \
            == (1, {1: 1}, ProcessState.RUNNING)

    def test_unspent_turn_stays_in_the_round(self):
        sched, a = Scheduler(), make_proc(1)
        a.state = ProcessState.RUNNING  # as restored: no turn record
        assert sched.repick(a)
        assert (sched._epoch, sched._picked) == (0, {1: 0})

    def test_declines_when_anything_is_queued_even_stale(self):
        sched, a, b = Scheduler(), make_proc(1), make_proc(2)
        sched.add(a)
        sched.add(b)
        assert sched.pick() is a
        b.state = ProcessState.ZOMBIE  # stale: a pick would pop it
        before = scheduler_state(sched, [a, b])
        assert not sched.repick(a)
        assert scheduler_state(sched, [a, b]) == before

    def test_random_states(self):
        rng = random.Random(21)
        outcomes = [repick_case(rng.randrange) for _ in range(2_000)]
        # Both answers, often enough to mean something.
        assert outcomes.count(True) > 200 and outcomes.count(False) > 200

    @pytest.mark.slow
    def test_random_states_hypothesis(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.data())
        @settings(max_examples=500, deadline=None)
        def run(data):
            repick_case(lambda n: data.draw(st.integers(0, n - 1)))

        run()


@pytest.mark.slow
class TestFairnessProperty:
    """Randomized fairness properties (hypothesis, excluded from tier-1).

    Under random interleavings of ``add``/``add_front``/``requeue``/
    ``pick`` (as the runtime issues them):

    * **no starvation** — from the moment a process enters the queue,
      every *other* process is picked at most once before it (at most
      twice when a direct-invoke boost intervenes); a process whose round
      turn is unspent waits at most ``len(queue)`` picks;
    * **boost** — an ``add_front`` process with its round turn unspent is
      picked next.
    """

    def _strategies(self):
        from hypothesis import strategies as st

        return st

    def _run_trace(self, data):
        from hypothesis import strategies as st

        n = data.draw(st.integers(2, 6), label="procs")
        procs = [make_proc(i + 1) for i in range(n)]
        sched = Scheduler()
        queued = set()
        parked = list(procs)  # alive, not queued, not just-picked
        last = None  # most recently picked (the runtime's "current")

        # Per-waiting-proc trackers, reset when the proc is picked.
        waits = {}  # proc -> {"others": {pid: count}, "boosted": bool,
        #            "picks": int, "len_at_enqueue": int, "unspent": bool}

        def start_wait(proc):
            waits[proc.pid] = {
                "others": {},
                "boosted": False,
                "picks": 0,
                "len_at_enqueue": len(sched),
                "unspent": not turn_spent(sched, proc),
            }

        def do_pick(expect=None):
            picked = sched.pick()
            if picked is None:
                return None
            if expect is not None:
                assert picked is expect, (
                    f"boosted unspent proc {expect.pid} must run next, "
                    f"got {picked.pid}"
                )
            queued.discard(picked.pid)
            wait = waits.pop(picked.pid)
            cap = 2 if wait["boosted"] else 1
            for pid, count in wait["others"].items():
                assert count <= cap, (
                    f"proc {pid} picked {count}x while {picked.pid} "
                    f"waited (boosted={wait['boosted']})"
                )
            if wait["unspent"] and not wait["boosted"]:
                assert wait["picks"] <= max(wait["len_at_enqueue"], 1), (
                    f"proc {picked.pid} starved for {wait['picks']} picks "
                    f"with len(queue)={wait['len_at_enqueue']} at enqueue"
                )
            for other in waits.values():
                other["picks"] += 1
                other["others"][picked.pid] = \
                    other["others"].get(picked.pid, 0) + 1
            return picked

        steps = data.draw(st.integers(10, 120), label="steps")
        for _ in range(steps):
            choices = ["pick"]
            if parked:
                choices.append("add")
                choices.append("add_front_parked")
            if last is not None and last.pid not in queued:
                choices.append("requeue_last")
                choices.append("add_front_last")
            if queued:
                choices.append("boost_queued")
            op = data.draw(st.sampled_from(sorted(choices)), label="op")

            if op == "add":
                proc = parked.pop(data.draw(
                    st.integers(0, len(parked) - 1), label="which"))
                sched.add(proc)
                queued.add(proc.pid)
                start_wait(proc)
            elif op == "requeue_last":
                sched.requeue(last)
                queued.add(last.pid)
                start_wait(last)
                last = None
            elif op in ("add_front_last", "add_front_parked",
                        "boost_queued"):
                if op == "add_front_last":
                    proc = last
                    last = None
                elif op == "add_front_parked":
                    proc = parked.pop(data.draw(
                        st.integers(0, len(parked) - 1), label="which"))
                else:
                    pid = data.draw(st.sampled_from(sorted(queued)),
                                    label="which")
                    proc = procs[pid - 1]
                unspent = not turn_spent(sched, proc)
                sched.add_front(proc)
                queued.add(proc.pid)
                if proc.pid not in waits:
                    start_wait(proc)
                if unspent:
                    # Boost honored: every other waiter saw a line-cut.
                    for pid, other in waits.items():
                        if pid != proc.pid:
                            other["boosted"] = True
                    picked = do_pick(expect=proc)
                    if picked is not None:
                        last = picked
            else:  # pick
                picked = do_pick()
                if picked is not None:
                    last = picked

        # Drain: every still-queued process must be reachable within
        # one pick per remaining ready process (no starvation at rest).
        remaining = len(sched)
        for _ in range(remaining):
            if do_pick() is None:
                break
        assert sched.pick() is None

    def test_fairness_under_random_interleavings(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.data())
        @settings(max_examples=300, deadline=None)
        def run(data):
            self._run_trace(data)

        run()


class TestProcess:
    def test_next_fd_fills_gaps(self):
        proc = make_proc(1)
        proc.fds = {0: StdStream(True), 1: StdStream(), 3: StdStream()}
        assert proc.next_fd() == 2

    def test_pointer_rebases_like_a_guard(self):
        proc = make_proc(5)
        stale = (9 << 32) | 0x1234
        assert proc.pointer(stale) == proc.layout.base + 0x1234

    def test_std_stream(self):
        stream = StdStream()
        stream.write(b"hello ")
        stream.write(b"world")
        assert stream.text() == "hello world"
        stdin = StdStream(readable=True)
        stdin.buffer.extend(b"input")
        assert stdin.read(3) == b"inp"
        assert stdin.read(10) == b"ut"


class TestRuntimeCallTable:
    def test_entry_addresses_outside_all_sandboxes(self):
        """Entries point into the dedicated runtime region (§3, §4.4)."""
        for call in RuntimeCall.ALL:
            addr = entry_address(call)
            assert addr >= RUNTIME_REGION_BASE

    def test_roundtrip(self):
        for call in RuntimeCall.ALL:
            assert call_for_entry(entry_address(call)) == call

    def test_table_page_layout(self):
        page = build_table_page()
        assert len(page) == PAGE_SIZE
        for call in RuntimeCall.ALL:
            slot = struct.unpack_from("<Q", page, table_offset(call))[0]
            assert slot == entry_address(call)

    def test_unused_entries_point_to_unmapped_page(self):
        """§4.4: unused entries trap when called."""
        page = build_table_page()
        last = struct.unpack_from("<Q", page, PAGE_SIZE - 8)[0]
        assert last == UNMAPPED_ENTRY

    def test_table_has_no_sandbox_specific_secrets(self):
        """§4.4: the table is readable by the neighbouring sandbox, so it
        must be identical for every sandbox (and it is: one shared page
        image)."""
        assert build_table_page() == build_table_page()

    def test_call_names_complete(self):
        assert set(RuntimeCall.NAMES) == set(RuntimeCall.ALL)
