"""Runtime-call surface tests: every call, including the error paths."""

import pytest

from repro.runtime import Runtime, RuntimeCall, StdStream
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall


def run(src, setup=None):
    runtime = Runtime()
    if setup:
        setup(runtime)
    proc = runtime.spawn(compile_lfi(src).elf)
    code = runtime.run_until_exit(proc)
    return runtime, proc, code


class TestFileCalls:
    def test_open_missing_file_enoent(self):
        src = prologue() + """
            adrp x0, path
            add x0, x0, :lo12:path
            mov x1, #0
        """ + rtcall(RuntimeCall.OPEN) + """
            neg x0, x0
        """ + rt_exit() + """
        .rodata
        path: .asciz "/missing"
        """
        _, _, code = run(src)
        assert code == 2  # ENOENT

    def test_lseek(self):
        def setup(runtime):
            runtime.vfs.write_file("/f", b"0123456789")

        src = prologue() + """
            adrp x0, path
            add x0, x0, :lo12:path
            mov x1, #0
        """ + rtcall(RuntimeCall.OPEN) + """
            mov x19, x0
            mov x1, #4
            mov x2, #0               // SEEK_SET
        """ + rtcall(RuntimeCall.LSEEK) + """
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x2, #1
            mov x0, x19
        """ + rtcall(RuntimeCall.READ) + """
            adrp x1, buf
            add x1, x1, :lo12:buf
            ldrb w0, [x1]
        """ + rt_exit() + """
        .rodata
        path: .asciz "/f"
        .data
        buf: .skip 8
        """
        _, _, code = run(src, setup)
        assert code == ord("4")

    def test_lseek_on_pipe_espipe(self):
        src = prologue() + """
            adrp x19, fds
            add x19, x19, :lo12:fds
            mov x0, x19
        """ + rtcall(RuntimeCall.PIPE) + """
            ldr w0, [x19]
            mov x1, #0
            mov x2, #0
        """ + rtcall(RuntimeCall.LSEEK) + """
            neg x0, x0
        """ + rt_exit() + """
        .data
        fds: .skip 8
        """
        _, _, code = run(src)
        assert code == 29  # ESPIPE

    def test_read_bad_fd(self):
        src = prologue() + """
            mov x0, #77
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x2, #1
        """ + rtcall(RuntimeCall.READ) + """
            neg x0, x0
        """ + rt_exit() + """
        .data
        buf: .skip 8
        """
        _, _, code = run(src)
        assert code == 9  # EBADF

    def test_close_then_use_fails(self):
        src = prologue() + """
            mov x0, #1
        """ + rtcall(RuntimeCall.CLOSE) + """
            mov x0, #1
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x2, #1
        """ + rtcall(RuntimeCall.WRITE) + """
            neg x0, x0
        """ + rt_exit() + """
        .data
        buf: .skip 8
        """
        _, _, code = run(src)
        assert code == 9  # EBADF

    def test_unlink(self):
        def setup(runtime):
            runtime.vfs.write_file("/goner", b"x")

        src = prologue() + """
            adrp x0, path
            add x0, x0, :lo12:path
        """ + rtcall(RuntimeCall.UNLINK) + rt_exit() + """
        .rodata
        path: .asciz "/goner"
        """
        runtime, _, code = run(src, setup)
        assert code == 0
        assert "goner" not in runtime.vfs.state_dict()["tree"]

    def test_stdin_read(self):
        src = prologue() + """
            mov x0, #0
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x2, #4
        """ + rtcall(RuntimeCall.READ) + """
            adrp x1, buf
            add x1, x1, :lo12:buf
            ldrb w0, [x1]
        """ + rt_exit() + """
        .data
        buf: .skip 8
        """
        runtime = Runtime()
        proc = runtime.spawn(compile_lfi(src).elf)
        stdin = proc.fds[0]
        assert isinstance(stdin, StdStream)
        stdin.buffer.extend(b"Zed!")
        assert runtime.run_until_exit(proc) == ord("Z")


class TestProcessCalls:
    def test_wait_with_no_children_echild(self):
        src = prologue() + """
            mov x0, #0
        """ + rtcall(RuntimeCall.WAIT) + """
            neg x0, x0
        """ + rt_exit()
        _, _, code = run(src)
        assert code == 10  # ECHILD

    def test_yield_to_missing_pid_esrch(self):
        src = prologue() + """
            mov x0, #99
        """ + rtcall(RuntimeCall.YIELD_TO) + """
            neg x0, x0
        """ + rt_exit()
        _, _, code = run(src)
        assert code == 3  # ESRCH

    def test_clock_monotonic(self):
        src = prologue() + rtcall(RuntimeCall.CLOCK) + """
            mov x19, x0
            mov x1, #0
            movz x2, #200
        spin:
            add x1, x1, #1
            cmp x1, x2
            b.ne spin
        """ + rtcall(RuntimeCall.CLOCK) + """
            sub x0, x0, x19
            cmp x0, #0
            cset x0, gt
        """ + rt_exit()
        from repro.emulator import APPLE_M1

        runtime = Runtime(model=APPLE_M1)
        proc = runtime.spawn(compile_lfi(src).elf)
        assert runtime.run_until_exit(proc) == 1

    def test_brk_shrink_rejected_below_heap_start(self):
        src = prologue() + """
            mov x0, #0
        """ + rtcall(RuntimeCall.BRK) + """
            sub x0, x0, #8192        // below heap start
        """ + rtcall(RuntimeCall.BRK) + """
            neg x0, x0
        """ + rt_exit()
        _, _, code = run(src)
        assert code == 12  # ENOMEM

    def test_munmap_outside_sandbox_einval(self):
        src = prologue() + """
            mov x0, #0               // table page: not unmappable
            movz x1, #0x4000
        """ + rtcall(RuntimeCall.MUNMAP) + """
            neg x0, x0
        """ + rt_exit()
        _, _, code = run(src)
        assert code == 22  # EINVAL

    def test_unknown_table_slot_faults(self):
        """A call through a table slot with no handler kills the process."""
        from repro.memory import PAGE_SIZE

        src = prologue() + f"""
            ldr x30, [x21, #{8 * 200}]
            blr x30
        """ + rt_exit()
        runtime = Runtime()
        proc = runtime.spawn(compile_lfi(src).elf)
        runtime.run()
        assert runtime.faults and runtime.faults[0].pid == proc.pid
