"""Context-switch microbenchmarks (paper Table 5).

Three measurements, all *executed* in the LFI runtime on the cycle model:

* **syscall** — a null runtime call (``getpid``) in a loop.  LFI needs no
  hardware mode switch: the call is ``ldr x30, [x21, #n]; blr x30`` plus
  the runtime's register save/restore.
* **pipe** — two sandboxes pass one byte back and forth through a pair of
  pipes; dominated by isolation-domain switches.
* **yield** — the direct cross-sandbox invocation (microkernel-style IPC):
  only callee-saved registers are switched (§5.3, ~50 cycles).

The Linux and gVisor columns come from
:mod:`repro.perf.models` cost models (we cannot run either here);
the LFI columns are measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..emulator.costs import CostModel
from ..runtime.runtime import Runtime
from ..runtime.table import RuntimeCall, table_offset
from ..toolchain import compile_lfi
from ..workloads.rtlib import prologue, rt_exit, rtcall
from .models import GVISOR_MODEL, LINUX_MODEL

__all__ = ["MicrobenchResult", "measure_syscall_ns", "measure_pipe_ns",
           "measure_yield_ns", "run_table5"]


@dataclass
class MicrobenchResult:
    """ns/operation for every system of Table 5."""

    benchmark: str
    lfi_ns: float
    linux_ns: float
    gvisor_ns: float


def _loop(body: str, count: int, counter: str = "x27") -> str:
    return f"""
    movz {counter}, #{count}
.Lsys_loop:
{body}
    subs {counter}, {counter}, #1
    b.ne .Lsys_loop
"""


def measure_syscall_ns(model: CostModel, count: int = 200) -> float:
    """Cycles per null runtime call, in ns at the model's frequency."""
    src = prologue() + _loop(rtcall(RuntimeCall.GETPID), count) + """
    mov x0, #0
""" + rt_exit()
    runtime = Runtime(model=model)
    proc = runtime.spawn(compile_lfi(src).elf)
    # Baseline: the same loop without the runtime call.
    base_src = prologue() + _loop("    nop", count) + """
    mov x0, #0
""" + rt_exit()
    baseline = Runtime(model=model)
    base_proc = baseline.spawn(compile_lfi(base_src).elf)

    runtime.run_until_exit(proc)
    baseline.run_until_exit(base_proc)
    cycles = (runtime.cycles - baseline.cycles) / count
    return cycles * model.ns_per_cycle()


def measure_pipe_ns(model: CostModel, count: int = 60) -> float:
    """ns per one-byte pipe pass between two isolation domains."""
    src = prologue() + f"""
    adrp x19, fds
    add x19, x19, :lo12:fds
    mov x0, x19
""" + rtcall(RuntimeCall.PIPE) + f"""
    add x0, x19, #8
""" + rtcall(RuntimeCall.PIPE) + rtcall(RuntimeCall.FORK) + f"""
    cbnz x0, .Lparent
    // child: read pipe1, write pipe2, {count} times
    movz x27, #{count}
.Lchild_loop:
    ldr w20, [x19]               // pipe1 read end
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    mov x0, x20
""" + rtcall(RuntimeCall.READ) + """
    ldr w20, [x19, #12]          // pipe2 write end
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    mov x0, x20
""" + rtcall(RuntimeCall.WRITE) + """
    subs x27, x27, #1
    b.ne .Lchild_loop
    mov x0, #0
""" + rt_exit() + f"""
.Lparent:
    movz x27, #{count}
.Lparent_loop:
    ldr w20, [x19, #4]           // pipe1 write end
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    mov x0, x20
""" + rtcall(RuntimeCall.WRITE) + """
    ldr w20, [x19, #8]           // pipe2 read end
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    mov x0, x20
""" + rtcall(RuntimeCall.READ) + """
    subs x27, x27, #1
    b.ne .Lparent_loop
    mov x0, #0
""" + rtcall(RuntimeCall.WAIT) + """
    mov x0, #0
""" + rt_exit() + """
.data
.balign 8
fds: .skip 16
buf: .skip 8
"""
    runtime = Runtime(model=model)
    proc = runtime.spawn(compile_lfi(src).elf)
    runtime.run()
    if runtime.faults:
        raise RuntimeError(f"pipe microbenchmark faulted: {runtime.faults}")
    # 2*count one-way passes; subtract nothing (the loop is part of the
    # real cost on the real system too).
    cycles = runtime.cycles / (2 * count)
    return cycles * model.ns_per_cycle()


def measure_yield_ns(model: CostModel, count: int = 200) -> float:
    """ns per direct cross-sandbox yield (the IPC fast path)."""
    # Two processes yield_to each other; pids are 1 and 2 by spawn order.
    def src(other_pid: int) -> str:
        return prologue() + f"""
    movz x27, #{count}
.Lyield_loop:
    mov x0, #{other_pid}
""" + rtcall(RuntimeCall.YIELD_TO) + """
    subs x27, x27, #1
    b.ne .Lyield_loop
    mov x0, #0
""" + rt_exit()

    runtime = Runtime(model=model)
    a = runtime.spawn(compile_lfi(src(2)).elf)
    b = runtime.spawn(compile_lfi(src(1)).elf)
    runtime.run()
    if runtime.faults:
        raise RuntimeError(f"yield microbenchmark faulted: {runtime.faults}")
    total_yields = 2 * count
    cycles = runtime.cycles / total_yields
    return cycles * model.ns_per_cycle()


def run_table5(model: CostModel) -> Dict[str, MicrobenchResult]:
    """All three rows of Table 5 for one machine model."""
    freq = model.freq_ghz
    syscall = MicrobenchResult(
        "syscall",
        lfi_ns=measure_syscall_ns(model),
        linux_ns=LINUX_MODEL.syscall_ns(freq),
        gvisor_ns=GVISOR_MODEL.syscall_ns(freq),
    )
    pipe = MicrobenchResult(
        "pipe",
        lfi_ns=measure_pipe_ns(model),
        linux_ns=LINUX_MODEL.pipe_ns(freq),
        gvisor_ns=GVISOR_MODEL.pipe_ns(freq),
    )
    yield_row = MicrobenchResult(
        "yield",
        lfi_ns=measure_yield_ns(model),
        linux_ns=float("nan"),  # no hardware equivalent (paper: "-")
        gvisor_ns=float("nan"),
    )
    return {"syscall": syscall, "pipe": pipe, "yield": yield_row}
