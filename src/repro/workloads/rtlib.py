"""Assembly runtime-call library: the "instrumented libc" shim (§5.1).

Generated programs call the runtime using the trampoline-free sequence of
§4.4.  As in the paper's implementation, x30 is conservatively saved and
restored around the call (the rewriter adds the x30 guard after the
restore).

Arguments go in x0-x5 and the result comes back in x0, so these sequences
drop in wherever a syscall would be.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..runtime.table import BATCH_RECORD_SIZE, RuntimeCall, table_offset

__all__ = ["rtcall", "rt_exit", "prologue", "busy_program", "mov_imm",
           "batch_block", "RuntimeCall"]


def rtcall(call: int, save_reg: str = "x9") -> str:
    """The runtime-call sequence (paper §4.4), saving x30 in ``save_reg``."""
    offset = table_offset(call)
    return (
        f"\tmov {save_reg}, x30\n"
        f"\tldr x30, [x21, #{offset}]\n"
        f"\tblr x30\n"
        f"\tmov x30, {save_reg}\n"
    )


def rt_exit(code_reg: str = "x0") -> str:
    """Terminate the process with the status in ``code_reg`` (no return)."""
    lines = ""
    if code_reg != "x0":
        lines += f"\tmov x0, {code_reg}\n"
    offset = table_offset(RuntimeCall.EXIT)
    return lines + (
        f"\tldr x30, [x21, #{offset}]\n"
        f"\tblr x30\n"
    )


def prologue(name: str = "_start") -> str:
    return f".text\n.globl {name}\n{name}:\n"


def mov_imm(reg: str, value: int) -> str:
    """movz/movk sequence materializing a 64-bit immediate in ``reg``."""
    value &= (1 << 64) - 1
    lines = [f"\tmovz {reg}, #{value & 0xFFFF}\n"]
    for shift in (16, 32, 48):
        part = (value >> shift) & 0xFFFF
        if part:
            lines.append(f"\tmovk {reg}, #{part}, lsl #{shift}\n")
    return "".join(lines)


def batch_block(records: Iterable[Tuple[int, Sequence[int]]],
                buf_reg: str = "x19", scratch: str = "x10",
                save_reg: str = "x9") -> str:
    """Emit a ``RuntimeCall.BATCH`` submission of ``records``.

    ``records`` is a sequence of ``(call, args)`` pairs (up to six integer
    arguments each).  ``buf_reg`` must already hold a pointer to writable
    guest memory with room for ``len(records) * BATCH_RECORD_SIZE`` bytes;
    the emitted code fills in the 64-byte records — eight little-endian
    u64 words ``[call, a0..a5, result]`` — then issues one batch call.
    The kernel writes each record's result word in place and returns the
    record count in x0.
    """
    asm = ""
    count = 0
    for call, args in records:
        args = list(args)
        assert len(args) <= 6, f"batch record takes at most 6 args: {args}"
        words = [int(call)] + args + [0] * (6 - len(args)) + [0]
        for j, word in enumerate(words):
            offset = count * BATCH_RECORD_SIZE + j * 8
            asm += mov_imm(scratch, word)
            asm += f"\tstr {scratch}, [{buf_reg}, #{offset}]\n"
        count += 1
    asm += f"\tmov x0, {buf_reg}\n"
    asm += mov_imm("x1", count)
    asm += rtcall(RuntimeCall.BATCH, save_reg=save_reg)
    return asm


def busy_program(value: int = 0, target_instructions: int = 10_000) -> str:
    """A self-contained spin loop retiring ~``target_instructions`` and
    exiting with ``value`` — the synthetic job body used by the cluster
    CLI, the serving load generator, and the throughput example."""
    iters = max(1, target_instructions // 2)  # 2-instruction loop body
    lo = iters & 0xFFFF
    hi = (iters >> 16) & 0xFFFF
    body = prologue()
    body += f"\tmovz x1, #{lo}\n"
    if hi:
        body += f"\tmovk x1, #{hi}, lsl #16\n"
    body += "spin:\n"
    body += "\tsub x1, x1, #1\n"
    body += "\tcbnz x1, spin\n"
    body += f"\tmovz x0, #{value & 0xFFFF}\n"
    return body + rt_exit()
