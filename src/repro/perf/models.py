"""The comparison systems the paper measures LFI against, as models.

None of them runs inside this reproduction, so each is a model of the
mechanism the paper blames for its cost.

* **WebAssembly engines** (Figure 4, §6.2): Wasmtime, Wasm2c and WAMR,
  each an alternative sandboxing *rewriter* over the same workload
  assembly (:func:`wasm_rewrite`), so the rewritten programs execute in
  the same runtime and cost model as LFI and native code:

  - *heap-base indirection*: stock Wasm2c keeps the linear-memory base in
    a context struct and loads it for every access; its LLVM *compiler
    barrier* (required for trap-semantics conformance) blocks hoisting of
    that load.  "No barrier" hoists the load to once per basic block;
    "pinned register" (the paper's own Wasm2c patch) and WAMR keep the
    base in a register permanently.
  - *32-bit index rebasing*: every Wasm memory access is
    ``base + zext32(index)``; bounds checks are elided via guard pages in
    all configurations, matching the paper's engine settings.
  - *indirect-call checks*: Wasm must verify the table index and the
    callee's type signature at every ``call_indirect``; LFI needs no check.
  - *code-quality dilation*: Cranelift (Wasmtime) generates measurably
    worse code than LLVM; modeled as a fraction of extra ALU instructions
    (register shuffles) inserted per original instruction.

* **KVM virtualization** (Figure 5, §6.4): guest code runs at native speed
  but every TLB miss walks *nested* page tables, roughly doubling the walk
  cost.  Modeled by running the native binary with the emulator's TLB walk
  cost scaled by ``NESTED_WALK_SCALE``.

* **Context-switch cost models** (Table 5): Linux hardware protection and
  gVisor containerization.  LFI's numbers are *measured* in our runtime;
  Linux and gVisor are reference points computed from a documented cycle
  decomposition calibrated against the paper's measurements and the
  microkernel literature it cites ([22, 53]: hardware-protection IPC floor
  around 400 cycles; Linux context switches cost thousands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..arm64.instructions import Instruction, ins
from ..arm64.operands import (
    Extended, Imm, Label, Mem, POST_INDEX, PRE_INDEX, Shifted,
)
from ..arm64.program import Directive, LabelDef, Program
from ..arm64.registers import Reg, X

__all__ = [
    "GVISOR_MODEL",
    "HardwareIsolationModel",
    "LINUX_MODEL",
    "NESTED_WALK_SCALE",
    "WASM_ENGINES",
    "WasmEngineModel",
    "wasm_rewrite",
]

#: Nested paging doubles the translation depth (paper §6.4: "the cost of a
#: TLB miss is doubled due to the additional pagetable levels").
NESTED_WALK_SCALE = 2.0


@dataclass(frozen=True)
class HardwareIsolationModel:
    """Cycle decomposition of syscall/pipe transitions for one system."""

    name: str
    #: One user->kernel->user privilege round trip.
    trap_cycles: float
    #: Kernel-side work of a trivial syscall (entry glue, dispatch, audit).
    syscall_work_cycles: float
    #: One full context switch between processes (scheduler + pagetable
    #: switch + TLB/cache effects).
    context_switch_cycles: float
    #: Extra per-transition cost for delegation (gVisor bounces every
    #: syscall to a supervisor process over its systrap platform).
    delegation_cycles: float = 0.0

    def syscall_cycles(self) -> float:
        """A null syscall (getpid)."""
        return self.trap_cycles + self.syscall_work_cycles \
            + self.delegation_cycles

    def pipe_roundtrip_cycles(self) -> float:
        """One hop of the Table-5 pipe ping-pong: a blocking read plus a
        write, forcing a process switch."""
        return (2 * self.syscall_cycles()
                + 2 * self.context_switch_cycles)

    def syscall_ns(self, freq_ghz: float) -> float:
        return self.syscall_cycles() / freq_ghz

    def pipe_ns(self, freq_ghz: float) -> float:
        return self.pipe_roundtrip_cycles() / freq_ghz


#: Linux with standard hardware protection.  Calibrated to the paper's
#: measurements: ~129ns syscall and ~1504ns pipe at 3.2GHz (M1), ~160ns
#: and ~2494ns at 3.0GHz (T2A) — i.e. a ~410-cycle trap+dispatch and a
#: context switch costing a couple thousand cycles.
LINUX_MODEL = HardwareIsolationModel(
    name="linux",
    trap_cycles=290.0,
    syscall_work_cycles=123.0,
    context_switch_cycles=1993.0,
)

#: gVisor (systrap platform): every syscall is intercepted and serviced by
#: the sentry in another process, costing multiple context switches
#: (paper §6.4: "multiple context switches just to handle a system call").
GVISOR_MODEL = HardwareIsolationModel(
    name="gvisor",
    trap_cycles=290.0,
    syscall_work_cycles=900.0,
    context_switch_cycles=6500.0,
    delegation_cycles=35_000.0,
)


# -- WebAssembly engines (Figure 4) ----------------------------------------

#: Registers owned by the model (callee-saved, untouched by workloads).
CTX_REG = X[27]  # vmctx pointer (holds the heap base in memory)
HEAP_REG = X[28]  # pinned heap base
ADDR_REG = X[16]  # materialized effective address
TMP_REG = X[17]  # offset scratch


@dataclass(frozen=True)
class WasmEngineModel:
    """One engine configuration of Figure 4."""

    name: str
    #: 'always' (compiler barrier), 'per_block', or 'pinned'.
    heap_base: str
    #: Extra instructions executed per indirect call (type/bounds check).
    indirect_call_checks: int
    #: Fraction of extra ALU instructions (compiler-quality dilation).
    dilation: float
    description: str = ""


WASM_ENGINES = {
    engine.name: engine
    for engine in (
        WasmEngineModel(
            "wasmtime", heap_base="per_block", indirect_call_checks=5,
            dilation=0.55,
            description="Cranelift AOT: correct but weaker codegen",
        ),
        WasmEngineModel(
            "wasm2c", heap_base="always", indirect_call_checks=4,
            dilation=0.02,
            description="stock Wasm2c + Clang: compiler barrier reloads "
                        "the heap base on every access",
        ),
        WasmEngineModel(
            "wasm2c-nobarrier", heap_base="per_block",
            indirect_call_checks=4, dilation=0.02,
            description="Wasm2c with the spec-conformance barrier removed",
        ),
        WasmEngineModel(
            "wasm2c-pinned", heap_base="pinned", indirect_call_checks=4,
            dilation=0.02,
            description="Wasm2c with the heap base pinned in a register "
                        "(the paper's patch)",
        ),
        WasmEngineModel(
            "wamr", heap_base="pinned", indirect_call_checks=4,
            dilation=0.08,
            description="WAMR LLVM AOT: pinned base, slightly weaker "
                        "pipeline than native LLVM",
        ),
    )
}

_PRELUDE = """
    adrp x27, __wasm_ctx
    add x27, x27, :lo12:__wasm_ctx
    str x21, [x27]
    str xzr, [x27, #8]
    mov x28, x21
"""

_DATA = """
.data
.balign 8
__wasm_ctx:
    .skip 16
"""


def wasm_rewrite(asm_text: str, engine: WasmEngineModel) -> str:
    """Instrument workload assembly the way ``engine`` would compile it."""
    from ..arm64.parser import parse_assembly
    from ..arm64.printer import print_assembly

    program = parse_assembly(asm_text)
    out = Program()
    first_inst_done = False
    dilation_credit = 0.0
    check_counter = [0]
    section = ".text"
    #: Is the heap-base register known-loaded in this basic block?
    state = {"heap_valid": False}

    for item in program.items:
        if isinstance(item, Directive):
            if item.name in (".text", ".data", ".bss", ".rodata", ".section"):
                section = item.name
            out.add(item)
            continue
        if isinstance(item, LabelDef):
            state["heap_valid"] = False  # block boundary
            out.add(item)
            continue
        if not section.startswith(".text"):
            out.add(item)
            continue

        if not first_inst_done:
            for line in _parse_lines(_PRELUDE):
                out.add(line)
            first_inst_done = True

        emitted = _transform(item, engine, out, check_counter, state)
        if item.is_branch:
            state["heap_valid"] = False
        dilation_credit += engine.dilation * emitted
        while dilation_credit >= 1.0:
            out.add(ins("add", TMP_REG, TMP_REG, Imm(1)))
            dilation_credit -= 1.0

    text = print_assembly(out) + _DATA
    return text


def _parse_lines(snippet: str) -> List[Instruction]:
    from ..arm64.parser import parse_assembly

    return list(parse_assembly(snippet).instructions())


def _transform(inst: Instruction, engine: WasmEngineModel, out: Program,
               check_counter: List[int], state: dict) -> int:
    """Emit the engine's code for one instruction; returns count emitted."""
    if inst.is_memory and inst.mem is not None and not inst.mem.base.is_sp:
        return _transform_memory(inst, engine, out, state)
    if inst.mnemonic == "blr":
        n = engine.indirect_call_checks
        # A semantics-neutral table-bounds + type check of ``n`` insts:
        # load the (zero) check cell, compare, never-taken branch, repeat.
        emitted = 0
        skip = f"__wasm_ok_{check_counter[0]}"
        check_counter[0] += 1
        out.add(ins("ldr", TMP_REG, Mem(CTX_REG, Imm(8))))
        out.add(ins("cmp", TMP_REG, Imm(0)))
        out.add(ins("b.ne", Label(skip)))
        emitted += 3
        while emitted < n:
            out.add(ins("cmp", TMP_REG, Imm(0)))
            emitted += 1
        out.add(LabelDef(skip))
        out.add(inst)
        return emitted + 1
    out.add(inst)
    return 1


def _transform_memory(inst: Instruction, engine: WasmEngineModel,
                      out: Program, state: dict) -> int:
    """base + zext32(index) materialization for one access."""
    mem = inst.mem
    base = mem.base
    emitted = 0

    def emit(i: Instruction) -> None:
        nonlocal emitted
        out.add(i)
        emitted += 1

    # The heap-base load: reloaded on every access when the compiler
    # barrier is on, hoisted to once per basic block without it, and never
    # needed when the base is pinned in a register.
    if engine.heap_base == "always":
        emit(ins("ldr", HEAP_REG, Mem(CTX_REG)))
    elif engine.heap_base == "per_block" and not state["heap_valid"]:
        emit(ins("ldr", HEAP_REG, Mem(CTX_REG)))
        state["heap_valid"] = True

    offset = mem.offset
    if mem.mode == PRE_INDEX:
        emit(_advance(base, mem.imm_value))
        emit(ins("add", ADDR_REG, HEAP_REG,
                 Extended(base.as_32(), "uxtw")))
        emit(_with_mem(inst, Mem(ADDR_REG)))
        return emitted
    if mem.mode == POST_INDEX:
        emit(ins("add", ADDR_REG, HEAP_REG,
                 Extended(base.as_32(), "uxtw")))
        emit(_with_mem(inst, Mem(ADDR_REG)))
        emit(_advance(base, mem.imm_value))
        return emitted
    if offset is None or isinstance(offset, Imm):
        emit(ins("add", ADDR_REG, HEAP_REG,
                 Extended(base.as_32(), "uxtw")))
        emit(_with_mem(inst, Mem(ADDR_REG, offset)))
        return emitted
    # Register offsets: fold the 32-bit index first (Wasm indices are i32).
    if isinstance(offset, Reg):
        emit(ins("add", TMP_REG.as_32(), base.as_32(), offset.as_32()))
    elif isinstance(offset, Shifted):
        emit(ins("add", TMP_REG.as_32(), base.as_32(),
                 Shifted(offset.reg.as_32(), offset.kind, offset.amount)))
    elif isinstance(offset, Extended):
        emit(ins("add", TMP_REG.as_32(), base.as_32(),
                 Shifted(offset.reg.as_32(), "lsl", offset.amount or 0)))
    emit(ins("add", ADDR_REG, HEAP_REG, Extended(TMP_REG.as_32(), "uxtw")))
    emit(_with_mem(inst, Mem(ADDR_REG)))
    return emitted


def _advance(base: Reg, imm: int) -> Instruction:
    if imm < 0:
        return ins("sub", base, base, Imm(-imm))
    return ins("add", base, base, Imm(imm))


def _with_mem(inst: Instruction, mem: Mem) -> Instruction:
    ops = tuple(mem if isinstance(op, Mem) else op for op in inst.operands)
    return Instruction(inst.mnemonic, ops, inst.line)
