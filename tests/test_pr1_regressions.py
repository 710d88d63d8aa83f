"""Regression tests for PR 1 edge cases (ISSUE 2 satellite).

Two seams that PR 1 introduced and nothing yet pinned down:

* ``ResourceQuota`` inheritance across ``fork`` — the child must share
  the parent's quota *object* (one budget for the tree, like rlimits
  under ``fork``), survive the parent's quota being cleared, and be
  enforced against the child's own fd table;
* ``PipeEnd`` reference counting — an end referenced by several fd
  tables (``fork`` copies the table) must close its pipe direction only
  when the last referent drops, stay safe under double-close, and close
  automatically when a process exits.
"""

from __future__ import annotations

import errno

from repro.runtime import ResourceQuota, Runtime, RuntimeCall
from repro.runtime.process import ProcessState
from repro.runtime.syscalls import rt_close, rt_pipe
from repro.runtime.vfs import Pipe
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall

EXIT0 = prologue() + "    mov x0, #0\n" + rt_exit()


def _spawned_runtime():
    runtime = Runtime()
    proc = runtime.spawn(compile_lfi(EXIT0).elf, verify=True)
    return runtime, proc


class TestQuotaInheritance:
    def test_fork_shares_the_quota_object(self):
        runtime, parent = _spawned_runtime()
        quota = ResourceQuota(max_instructions=1000, max_fds=8)
        runtime.set_quota(parent, quota)
        child = runtime.fork(parent)
        assert runtime.quotas[child.pid] is quota

    def test_fork_without_quota_leaves_child_unlimited(self):
        runtime, parent = _spawned_runtime()
        child = runtime.fork(parent)
        assert child.pid not in runtime.quotas
        assert runtime.fd_slots_free(child, 1000)

    def test_clearing_parent_quota_keeps_the_child_quota(self):
        runtime, parent = _spawned_runtime()
        quota = ResourceQuota(max_fds=4)
        runtime.set_quota(parent, quota)
        child = runtime.fork(parent)
        runtime.set_quota(parent, None)
        assert parent.pid not in runtime.quotas
        assert runtime.quotas[child.pid] is quota

    def test_grandchild_inherits_through_a_fork_chain(self):
        runtime, parent = _spawned_runtime()
        quota = ResourceQuota(max_mapped_pages=64)
        runtime.set_quota(parent, quota)
        child = runtime.fork(parent)
        grandchild = runtime.fork(child)
        assert runtime.quotas[grandchild.pid] is quota

    def test_fd_quota_enforced_against_child_table(self):
        runtime, parent = _spawned_runtime()
        runtime.set_quota(parent, ResourceQuota(max_fds=4))
        child = runtime.fork(parent)
        # The child starts with the three std streams: one more slot left.
        assert len(child.fds) == 3
        assert runtime.fd_slots_free(child, 1)
        assert not runtime.fd_slots_free(child, 2)
        args = [child.layout.base + 0x2000_0000, 0, 0, 0, 0, 0]
        assert rt_pipe(runtime, child, args) == -errno.EMFILE

    def test_instruction_quota_is_per_process_not_shared_count(self):
        # The quota object is shared, but each process's own instruction
        # counter is compared against it.
        runtime, parent = _spawned_runtime()
        quota = ResourceQuota(max_instructions=500)
        runtime.set_quota(parent, quota)
        child = runtime.fork(parent)
        parent.instructions = 499
        child.instructions = 0
        runtime._check_instruction_quota(parent)
        runtime._check_instruction_quota(child)
        assert parent.state != ProcessState.ZOMBIE
        assert child.state != ProcessState.ZOMBIE
        parent.instructions = 501
        runtime._check_instruction_quota(parent)
        assert parent.state == ProcessState.ZOMBIE
        assert child.state != ProcessState.ZOMBIE


class TestPipeEndRefcounting:
    def test_fork_retains_each_shared_end(self):
        runtime, parent = _spawned_runtime()
        pipe = Pipe()
        r, w = pipe.read_end(), pipe.write_end()
        parent.fds[3], parent.fds[4] = r, w
        child = runtime.fork(parent)
        assert r.refs == 2 and w.refs == 2
        assert child.fds[3] is r and child.fds[4] is w

    def test_fork_then_exit_drops_only_one_reference(self):
        runtime, parent = _spawned_runtime()
        pipe = Pipe()
        r, w = pipe.read_end(), pipe.write_end()
        parent.fds[3], parent.fds[4] = r, w
        child = runtime.fork(parent)
        runtime.terminate(child, 0)
        # The child's references dropped; the parent keeps the pipe alive.
        assert r.refs == 1 and w.refs == 1
        assert pipe.read_open and pipe.write_open
        runtime.terminate(parent, 0)
        assert r.refs == 0 and w.refs == 0
        assert not pipe.read_open and not pipe.write_open

    def test_double_close_does_not_underflow(self):
        pipe = Pipe()
        end = pipe.write_end()
        end.close()
        assert end.refs == 0 and not pipe.write_open
        end.close()  # stray second close floors at zero
        end.close()
        assert end.refs == 0
        assert not pipe.write_open

    def test_rt_close_twice_returns_ebadf(self):
        runtime, proc = _spawned_runtime()
        pipe = Pipe()
        end = pipe.write_end()
        proc.fds[5] = end
        args = [5, 0, 0, 0, 0, 0]
        assert rt_close(runtime, proc, args) == 0
        assert end.refs == 0 and not pipe.write_open
        assert rt_close(runtime, proc, args) == -errno.EBADF
        assert end.refs == 0

    def test_close_in_one_table_keeps_the_other_alive(self):
        runtime, parent = _spawned_runtime()
        pipe = Pipe()
        w = pipe.write_end()
        parent.fds[4] = w
        child = runtime.fork(parent)
        assert rt_close(runtime, child, [4, 0, 0, 0, 0, 0]) == 0
        assert w.refs == 1 and pipe.write_open
        assert 4 in parent.fds and 4 not in child.fds


class TestForkPipeEndToEnd:
    """Guest-driven: pipe, fork, child writes and exits, parent reads to
    EOF — exercising retain-on-fork and close-on-exit from sandbox code."""

    SOURCE = prologue() + """
    adrp x19, fds
    add x19, x19, :lo12:fds
    mov x0, x19
""" + rtcall(RuntimeCall.PIPE) + """
    tbnz x0, #63, bad
""" + rtcall(RuntimeCall.FORK) + """
    tbnz x0, #63, bad
    cbz x0, child
    ldr w0, [x19, #4]
""" + rtcall(RuntimeCall.CLOSE) + """
    mov x0, #0
""" + rtcall(RuntimeCall.WAIT) + """
    ldr w0, [x19]
    add x1, x19, #16
    mov x2, #8
""" + rtcall(RuntimeCall.READ) + """
    mov x20, x0
    ldr w0, [x19]
    add x1, x19, #16
    mov x2, #8
""" + rtcall(RuntimeCall.READ) + """
    cbnz x0, bad
    mov x0, x20
""" + rt_exit() + """
child:
    ldr w0, [x19, #4]
    mov x1, x19
    mov x2, #3
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #7
""" + rt_exit() + """
bad:
    mov x0, #99
""" + rt_exit() + """
.data
.balign 8
fds:
    .skip 32
"""

    def test_parent_reads_then_hits_eof(self):
        runtime = Runtime()
        proc = runtime.spawn(compile_lfi(self.SOURCE).elf, verify=True)
        code = runtime.run_until_exit(proc, max_instructions=200_000)
        # 3 bytes read, then EOF once the child (the last writer) exited.
        assert code == 3
        assert runtime.faults == []
