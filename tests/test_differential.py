"""Differential testing: LFI rewriting must preserve program semantics.

Hypothesis generates random (well-behaved) programs mixing ALU operations
and memory accesses across all of Table 1's addressing modes; each program
runs twice — natively and after O0/O1/O2 rewriting — inside a sandbox slot,
and the final register file and data buffer must match exactly.

This is the reproduction's strongest correctness property: it exercises
the rewriter, the assembler/encoder, the verifier, and the emulator
against each other on inputs nobody hand-picked.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.core import O0, O1, O2, VerifierPolicy, rewrite_program, verify_elf
from repro.elf import build_elf
from repro.emulator import BrkTrap, Machine
from repro.memory import PERM_RW, PagedMemory, SandboxLayout
from tests.conftest import load_elf_into

#: Registers the generated programs may use freely.
WORK_REGS = [f"x{i}" for i in range(8)]
BUF_REG = "x10"  # holds the buffer pointer
IDX_REG = "x11"  # a bounded index for register-offset modes
BUF_SIZE = 4096

_alu = st.sampled_from(["add", "sub", "and", "orr", "eor"])
_alu_imm = st.sampled_from(["add", "sub"])  # any 12-bit imm encodes
_reg = st.sampled_from(WORK_REGS)
_imm = st.integers(min_value=0, max_value=4095)
#: Valid logical (bitmask) immediates for and/orr/eor.
_logical_imm = st.sampled_from(
    [0x1, 0x3, 0xF, 0xFF, 0xF0, 0x3F0, 0xFF00, 0xFFFF,
     0x7FFFFFFF, 0xFFFFFFFF00000000, 0x5555555555555555]
)
_off = st.integers(min_value=0, max_value=BUF_SIZE // 8 - 1)


@st.composite
def _instruction(draw):
    kind = draw(st.sampled_from(
        ["alu_imm", "logical_imm", "alu_reg", "alu_shift", "mov", "load",
         "store", "load_pre", "store_post", "load_regoff", "store_regoff",
         "load_byte", "csel"]
    ))
    a, b, c = draw(_reg), draw(_reg), draw(_reg)
    if kind == "alu_imm":
        return f"{draw(_alu_imm)} {a}, {b}, #{draw(_imm)}"
    if kind == "logical_imm":
        op = draw(st.sampled_from(["and", "orr", "eor"]))
        return f"{op} {a}, {b}, #{draw(_logical_imm)}"
    if kind == "alu_reg":
        return f"{draw(_alu)} {a}, {b}, {c}"
    if kind == "alu_shift":
        return f"add {a}, {b}, {c}, lsl #{draw(st.integers(0, 3))}"
    if kind == "mov":
        return f"mov {a}, #{draw(_imm)}"
    offset = draw(_off) * 8
    if kind == "load":
        return f"ldr {a}, [{BUF_REG}, #{offset}]"
    if kind == "store":
        return f"str {a}, [{BUF_REG}, #{offset}]"
    if kind == "load_pre":
        # Writeback stays in bounds: re-centre the pointer afterwards.
        return (f"ldr {a}, [{BUF_REG}, #8]!\n"
                f"    sub {BUF_REG}, {BUF_REG}, #8")
    if kind == "store_post":
        return (f"str {a}, [{BUF_REG}], #16\n"
                f"    sub {BUF_REG}, {BUF_REG}, #16")
    if kind == "load_regoff":
        return (f"and {IDX_REG}, {a}, #{BUF_SIZE // 8 - 1}\n"
                f"    ldr {b}, [{BUF_REG}, {IDX_REG}, lsl #3]")
    if kind == "store_regoff":
        return (f"and {IDX_REG}, {a}, #{BUF_SIZE // 8 - 1}\n"
                f"    str {b}, [{BUF_REG}, {IDX_REG}, lsl #3]")
    if kind == "load_byte":
        return f"ldrb w{a[1:]}, [{BUF_REG}, #{offset}]"
    if kind == "csel":
        cond = draw(st.sampled_from(["eq", "ne", "lt", "ge", "hi"]))
        return (f"cmp {b}, {c}\n"
                f"    csel {a}, {b}, {c}, {cond}")
    raise AssertionError(kind)


programs = st.lists(_instruction(), min_size=1, max_size=24)

SLOT = SandboxLayout.for_slot(3)


def _build_source(body_lines):
    body = "\n".join(f"    {line}" for line in body_lines)
    seeds = "\n".join(
        f"    movz x{i}, #{(i * 0x1234 + 7) & 0xFFFF}" for i in range(8)
    )
    return f"""
.text
.globl _start
_start:
{seeds}
    adrp {BUF_REG}, buffer
    add {BUF_REG}, {BUF_REG}, :lo12:buffer
    mov {IDX_REG}, #0
{body}
    brk #0
.data
.balign 8
buffer:
    .skip {BUF_SIZE}
"""


def _run(program, rewrite_options=None):
    """Run (optionally rewritten) code in the sandbox slot; return state."""
    if rewrite_options is not None:
        program = rewrite_program(program, rewrite_options).program
    image = assemble(program)
    elf = build_elf(image)
    if rewrite_options is not None:
        policy = VerifierPolicy()
        result = verify_elf(elf, policy)
        assert result.ok, result.violations[:3]

    memory = PagedMemory()
    # Load at the slot base, like the runtime loader does.
    from repro.elf import PF_X
    from repro.memory import PERM_RX

    page = memory.page_size
    for seg in elf.segments:
        vaddr = SLOT.base + seg.vaddr
        base = vaddr & ~(page - 1)
        end = (vaddr + max(seg.memsz, 1) + page - 1) & ~(page - 1)
        memory.map_region(base, end - base, PERM_RW)
        memory.load_image(vaddr, seg.data)
        memory.protect(base, end - base,
                       PERM_RX if seg.flags & PF_X else PERM_RW)
    stack_top = SLOT.usable_end
    memory.map_region(stack_top - 0x8000, 0x8000, PERM_RW)

    machine = Machine(memory)
    machine.cpu.pc = SLOT.base + elf.entry
    machine.cpu.sp = stack_top
    machine.cpu.regs[21] = SLOT.base
    try:
        machine.run(fuel=10_000)
    except BrkTrap:
        pass
    else:
        raise AssertionError("program did not halt")

    buffer_addr = SLOT.base + 0x2000_0000  # .data base offset
    return (
        [machine.cpu.regs[i] for i in range(8)],
        memory.read(buffer_addr, BUF_SIZE),
    )


class TestDifferential:
    @given(programs)
    @settings(max_examples=60, deadline=None)
    def test_o1_preserves_semantics(self, body):
        program = parse_assembly(_build_source(body))
        native = _run(program)
        sandboxed = _run(parse_assembly(_build_source(body)), O1)
        assert native == sandboxed

    @given(programs)
    @settings(max_examples=40, deadline=None)
    def test_o2_preserves_semantics(self, body):
        program = parse_assembly(_build_source(body))
        native = _run(program)
        sandboxed = _run(parse_assembly(_build_source(body)), O2)
        assert native == sandboxed

    @given(programs)
    @settings(max_examples=25, deadline=None)
    def test_o0_preserves_semantics(self, body):
        program = parse_assembly(_build_source(body))
        native = _run(program)
        sandboxed = _run(parse_assembly(_build_source(body)), O0)
        assert native == sandboxed
