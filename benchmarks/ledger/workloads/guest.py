"""Guest programs of the ``call-heavy`` workload and of the runtime probes.

Four loops, each spending its time crossing into the runtime rather than
in straight-line code: a ``GETPID`` loop (the ``bench_transitions``
``call_loop`` shape), a forked pipe ping-pong (the ``perf.microbench``
pipe program), a ``YIELD_TO`` ping-pong between two sandboxes, and
64-record ``RuntimeCall.BATCH`` submissions.

Every builder takes ``call``: :func:`rtcall` for the real program, or
:func:`nop_call` for the same loop with a ``nop`` body of equal length,
whose host time the runtime probes subtract to leave the cost of the
crossing alone.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.runtime import RuntimeCall
from repro.workloads.rtlib import batch_block, mov_imm, prologue, rt_exit, \
    rtcall

__all__ = ["PROGRAMS", "nop_call", "rtcall", "BATCH_RECORDS"]

BATCH_RECORDS = 64


def nop_call(call: int, save_reg: str = "x9") -> str:
    """As many ``nop``s as :func:`rtcall` has instructions."""
    return "\tnop\n" * 4


def _loop(label: str, counter: str, count: int, body: str) -> str:
    return (mov_imm(counter, count) + f"{label}:\n" + body
            + f"\tsubs {counter}, {counter}, #1\n\tb.ne {label}\n")


def getpid_loop(count: int, call: Callable = rtcall) -> List[str]:
    """One ``GETPID`` crossing per trip."""
    return [prologue() + _loop("loop", "x20", count, call(RuntimeCall.GETPID))
            + "\tmov x0, #0\n" + rt_exit()]


def _pipe_side(label: str, count: int, first: tuple, second: tuple,
               call: Callable) -> str:
    """``count`` trips of: op on fd at ``first`` offset, then ``second``."""
    body = ""
    for offset, op in (first, second):
        body += (f"\tldr w20, [x19, #{offset}]\n"
                 "\tadrp x1, buf\n\tadd x1, x1, :lo12:buf\n"
                 "\tmov x2, #1\n\tmov x0, x20\n" + call(op))
    return _loop(label, "x27", count, body)


def pipe_pingpong(count: int, call: Callable = rtcall) -> List[str]:
    """Parent and forked child pass one byte back and forth ``count`` times.

    ``fds`` holds pipe1 (read, write) then pipe2 (read, write).  With the
    ``nop`` body nothing forks: one process runs both loops in turn, so
    the instruction count matches the two-process original.
    """
    child = _pipe_side(".Lchild_loop", count, (0, RuntimeCall.READ),
                       (12, RuntimeCall.WRITE), call)
    parent = _pipe_side(".Lparent_loop", count, (4, RuntimeCall.WRITE),
                        (8, RuntimeCall.READ), call)
    asm = prologue() + ("\tadrp x19, fds\n\tadd x19, x19, :lo12:fds\n"
                        "\tmov x0, x19\n") + call(RuntimeCall.PIPE) \
        + "\tadd x0, x19, #8\n" + call(RuntimeCall.PIPE)
    if call is rtcall:
        asm += (rtcall(RuntimeCall.FORK) + "\tcbnz x0, .Lparent\n" + child
                + "\tmov x0, #0\n" + rt_exit() + ".Lparent:\n" + parent
                + "\tmov x0, #0\n" + rtcall(RuntimeCall.WAIT))
    else:
        asm += call(RuntimeCall.FORK) + child + parent + call(RuntimeCall.WAIT)
    asm += ("\tmov x0, #0\n" + rt_exit()
            + ".data\n.balign 8\nfds: .skip 16\nbuf: .skip 8\n")
    return [asm]


def yield_pingpong(count: int, call: Callable = rtcall) -> List[str]:
    """Two sandboxes ``YIELD_TO`` each other; pids are 1 and 2 by spawn order."""
    def side(other_pid: int) -> str:
        body = f"\tmov x0, #{other_pid}\n" + call(RuntimeCall.YIELD_TO)
        return (prologue() + _loop(".Lyield_loop", "x27", count, body)
                + "\tmov x0, #0\n" + rt_exit())
    return [side(2), side(1)]


def batch_loop(count: int, call: Callable = rtcall) -> List[str]:
    """``count`` submissions of one 64-record ``GETPID`` batch.

    The records are filled once (:func:`batch_block` also makes the first
    submission); the result words the runtime writes back do not need
    refilling, so every later trip is the crossing alone.
    """
    asm = prologue() + "\tadrp x19, arena\n\tadd x19, x19, :lo12:arena\n"
    asm += batch_block([(RuntimeCall.GETPID, [])] * BATCH_RECORDS)
    if count > 1:
        body = ("\tmov x0, x19\n" + mov_imm("x1", BATCH_RECORDS)
                + call(RuntimeCall.BATCH))
        asm += _loop("loop", "x20", count - 1, body)
    asm += "\tmov x0, #0\n" + rt_exit()
    asm += f".bss\n.balign 64\narena:\n\t.skip {BATCH_RECORDS * 64}\n"
    return [asm]


#: name -> (builder, runtime calls serviced per unit of ``count``).
PROGRAMS: Dict[str, tuple] = {
    "getpid": (getpid_loop, 1),
    "pipe": (pipe_pingpong, 4),
    "yield": (yield_pingpong, 2),
    "batch": (batch_loop, BATCH_RECORDS),
}
