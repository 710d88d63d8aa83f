"""The differential oracles (ISSUE 2 tentpole, extended by ISSUE 6).

* :func:`check_completeness` — everything the rewriter emits must be
  accepted by the verifier, at every optimization level (paper §5.1);
* :func:`check_semantics` — O0/O1/O2 (and the store-only variant) rewrites
  of one program must be observationally equivalent to the native run on
  final register file and data buffer;
* :func:`soundness_probe` — a mutant the verifier *accepts* must execute
  under the :class:`~repro.robustness.ContainmentAuditor` with zero
  out-of-sandbox effects (paper §5.2, tested adversarially);
* :func:`check_checkpoint` — interrupting a run at an arbitrary point,
  serializing it through :class:`~repro.checkpoint.Checkpoint` bytes, and
  resuming in a *fresh* runtime must be observationally invisible: exit
  code, stdout, instruction count, canonical registers, normalized memory
  digests, metrics, and the full normalized event trace all byte-identical
  to the uninterrupted run (DESIGN.md §13);
* :func:`check_speculation` — enabling the bounded-speculation engine
  mode must be architecturally invisible: registers, memory, retired
  instructions, cycle totals, gauge counters, stdout, and event traces
  all byte-identical to the non-speculative stepping run (DESIGN.md §16);
* :func:`check_engines` — the superblock engine, costed and uncosted,
  must be the stepping interpreter's twin on every observable a bare
  machine has (DESIGN.md §14, §10).

All entry points are pure functions of their inputs; nothing here consults
global randomness, so a fuzz campaign driven by one seed replays exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..arm64 import parse_assembly
from ..arm64.assembler import assemble
from ..checkpoint import (
    Checkpoint,
    canonical_registers,
    capture_job,
    job_processes,
    memory_digest,
    normalize_events,
    restore_job,
    track_slot_bases,
)
from ..core import (
    O0,
    O1,
    O2,
    O2_FENCE,
    O2_MASK,
    O2_NO_LOADS,
    RewriteError,
    RewriteOptions,
    VerifierPolicy,
    rewrite_program,
    verify_elf,
)
from ..elf import PF_X, ElfImage, ElfSegment, build_elf
from ..emulator import BrkTrap, Machine, MemTrap, OutOfFuel, Trap
from ..emulator import superblock
from ..emulator.costs import APPLE_M1
from ..engine import EngineConfig, SpeculationConfig
from ..memory import GUARD_SIZE, PERM_RW, PERM_RX, PagedMemory, SandboxLayout
from ..obs import MetricsHub, Tracer
from ..robustness import ContainmentAuditor
from ..runtime import Deadlock, Runtime, RuntimeError_

__all__ = [
    "Finding",
    "LEVELS",
    "CHECKPOINT_POINTS",
    "check_checkpoint",
    "check_completeness",
    "check_engines",
    "ENGINE_RUNS",
    "check_semantics",
    "check_speculation",
    "assemble_to_elf",
    "mutant_elf",
    "rewrite_to_elf",
    "run_elf_in_slot",
    "state_diff",
    "soundness_probe",
]

#: ``(label, rewrite options, matching verifier policy)`` for each level the
#: oracles exercise — the four configurations of the paper's Figure 3, plus
#: the two Spectre-hardened ablations (DESIGN.md §16).
LEVELS: Tuple[Tuple[str, RewriteOptions, VerifierPolicy], ...] = (
    ("O0", O0, VerifierPolicy()),
    ("O1", O1, VerifierPolicy()),
    ("O2", O2, VerifierPolicy()),
    ("O2-noloads", O2_NO_LOADS, VerifierPolicy(sandbox_loads=False)),
    ("O2-fence", O2_FENCE, VerifierPolicy()),
    ("O2-mask", O2_MASK, VerifierPolicy()),
)

#: Slot used for the machine-level (non-runtime) differential runs.
SLOT = SandboxLayout.for_slot(3)

#: Offset of the ``.data`` section inside the image (assembler layout).
DATA_OFFSET = 0x2000_0000

#: Machine-level fuel for one differential run.  Generated programs are a
#: few hundred dynamic instructions; rewriting at most triples that.
RUN_FUEL = 200_000

#: Instruction budget for one mutant probe under the runtime.
PROBE_BUDGET = 50_000

#: Default interruption points (in retired instructions) for the
#: checkpoint oracle.  Deliberately *not* timeslice-aligned: run_bounded
#: rounds up to the next slice boundary, so odd points also prove that
#: chunked execution never pauses mid-slice.
CHECKPOINT_POINTS: Tuple[int, ...] = (37, 120, 451, 1900)

#: Instruction budget for one checkpoint-oracle run.
CHECKPOINT_BUDGET = 500_000


@dataclass(frozen=True)
class Finding:
    """One oracle failure, formatted deterministically."""

    #: "completeness" | "semantics" | "soundness" | "engines" | "crash"
    oracle: str
    level: str  # opt-level label, or "-" when not level-specific
    detail: str

    def line(self) -> str:
        return f"FINDING {self.oracle} level={self.level} {self.detail}"


# -- building and running images ---------------------------------------------


def rewrite_to_elf(source: str, options: RewriteOptions) -> ElfImage:
    """Parse, rewrite, assemble, and link one program."""
    program = rewrite_program(parse_assembly(source), options).program
    return build_elf(assemble(program))


def assemble_to_elf(source: str) -> ElfImage:
    """Assemble a program natively (no rewriting)."""
    return build_elf(assemble(parse_assembly(source)))


def mutant_elf(elf: ElfImage, text: bytes) -> ElfImage:
    """A copy of ``elf`` whose executable segment holds ``text``."""
    segments = []
    for seg in elf.segments:
        if seg.flags & PF_X:
            segments.append(ElfSegment(
                vaddr=seg.vaddr, data=text,
                memsz=max(seg.memsz, len(text)), flags=seg.flags))
        else:
            segments.append(seg)
    return ElfImage(entry=elf.entry, segments=segments)


def slot_machine(elf: ElfImage, engine=None, model=None) -> Machine:
    """Map ``elf`` into the differential slot; return a ready machine.

    Mirrors the runtime loader: segments land at ``SLOT.base + vaddr``, a
    stack is mapped below ``usable_end``, x21 holds the slot base.
    """
    memory = PagedMemory()
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

    machine = Machine(memory, model=model, engine=engine)
    machine.cpu.pc = SLOT.base + elf.entry
    machine.cpu.sp = stack_top
    machine.cpu.regs[21] = SLOT.base
    return machine


def _halt(machine: Machine, fuel: int) -> tuple:
    """Run ``machine`` to its ``brk`` (``("brk",)``) or memory fault
    (``(kind, address)``: where a generated program may end)."""
    try:
        machine.run(fuel=fuel)
    except BrkTrap:
        return ("brk",)
    except MemTrap as trap:
        return (trap.fault.kind, trap.fault.address)
    raise OutOfFuel("program did not halt")


def run_elf_in_slot(elf: ElfImage, fuel: int = RUN_FUEL,
                    buf_size: int = 4096) -> Tuple[List[int], bytes, tuple]:
    """Run an image bare-machine in a sandbox slot; return observable state.

    The program must halt via ``brk #0`` or a memory fault.  Returns
    ``(x0..x7, data buffer, how it halted)``.
    """
    machine = slot_machine(elf)
    stop = _halt(machine, fuel)
    return (
        [machine.cpu.regs[i] for i in range(8)],
        machine.memory.read(SLOT.base + DATA_OFFSET, buf_size),
        stop,
    )


# -- oracle 1: completeness ---------------------------------------------------


def check_completeness(source: str) -> List[Finding]:
    """Rewriter output must verify at every level (with its own policy)."""
    findings: List[Finding] = []
    for label, options, policy in LEVELS:
        try:
            elf = rewrite_to_elf(source, options)
        except RewriteError as exc:
            findings.append(Finding("completeness", label,
                                    f"rewriter rejected input: {exc}"))
            continue
        result = verify_elf(elf, policy)
        if not result.ok:
            first = "; ".join(str(v) for v in result.violations[:3])
            findings.append(Finding(
                "completeness", label,
                f"{len(result.violations)} violation(s): {first}"))
    return findings


# -- oracle 2: semantics preservation ----------------------------------------


def check_semantics(source: str, fuel: int = RUN_FUEL) -> List[Finding]:
    """Native and rewritten runs must agree on registers, data buffer and
    how they halt (brk, or the fault of a loop that walks off the data)."""
    findings: List[Finding] = []
    try:
        native = run_elf_in_slot(assemble_to_elf(source), fuel)
    except OutOfFuel:
        return [Finding("crash", "native", "program did not halt")]
    for label, options, _policy in LEVELS:
        try:
            elf = rewrite_to_elf(source, options)
        except RewriteError:
            continue  # completeness oracle reports this
        try:
            sandboxed = run_elf_in_slot(elf, fuel)
        except OutOfFuel:
            findings.append(Finding("semantics", label,
                                    "rewritten program did not halt"))
            continue
        if sandboxed != native:
            findings.append(Finding("semantics", label,
                                    state_diff(native, sandboxed)))
    return findings


def state_diff(native, sandboxed) -> str:
    """First observable divergence, deterministically formatted."""
    nregs, nbuf, nstop = native
    sregs, sbuf, sstop = sandboxed
    if nstop != sstop:
        return f"halt: native={nstop} rewritten={sstop}"
    for i, (a, b) in enumerate(zip(nregs, sregs)):
        if a != b:
            return f"x{i}: native={a:#x} rewritten={b:#x}"
    for off, (a, b) in enumerate(zip(nbuf, sbuf)):
        if a != b:
            return f"buffer[{off:#x}]: native={a:#x} rewritten={b:#x}"
    return "states differ"


# -- oracle 3: soundness ------------------------------------------------------


def soundness_probe(elf: ElfImage, policy: Optional[VerifierPolicy] = None,
                    budget: int = PROBE_BUDGET,
                    ) -> Tuple[bool, List[Finding]]:
    """Check one (possibly adversarial) image against the verifier's promise.

    Returns ``(accepted, findings)``.  If the verifier rejects the image
    there is nothing to check (``(False, [])``).  If it accepts, the image
    runs under a fresh :class:`Runtime` with a :class:`ContainmentAuditor`
    attached and a writable decoy page mapped in the *neighbouring* slot —
    a landing zone that turns a silent escape into a recorded write — and
    every audited effect outside the sandbox becomes a soundness finding.
    """
    result = verify_elf(elf, policy)
    if not result.ok:
        return False, []

    runtime = Runtime(first_slot=1)
    auditor = ContainmentAuditor(runtime)
    # Decoy page one slot above: adjacent-slot escapes (e.g. a computed
    # address just past the 4GiB boundary) hit mapped memory instead of
    # faulting, so only the auditor can catch them.
    decoy = SandboxLayout.for_slot(2)
    runtime.memory.map_region(decoy.base + 0x10000, runtime.memory.page_size,
                              PERM_RW)

    # The verifier already accepted the image above; spawn trusts it so the
    # probe exercises exactly what was verified.
    proc = runtime.spawn(elf, verify=False)
    outcome = "exited"
    try:
        runtime.run_until_exit(proc, max_instructions=budget)
    except Deadlock:
        outcome = "deadlocked"
    except RuntimeError_:
        outcome = "budget-exhausted"
    auditor.audit_after_fault(proc.pid)

    findings = [
        Finding("soundness", "-", f"[{outcome}] {v.line()}")
        for v in auditor.violations
    ]
    # The auditor's register walk skips zombies, but the probed process is
    # usually dead by now (brk/segv terminate it) — its *saved* registers
    # still witness any invariant break, so check them here.  x21 is never
    # legally written; sp may legitimately drift into the guard regions.
    lo, hi = proc.layout.base, proc.layout.end
    x21 = proc.registers["regs"][21]
    if x21 != lo:
        findings.append(Finding(
            "soundness", "-",
            f"[{outcome}] register: pid={proc.pid} x21 = {x21:#x}, "
            f"expected slot base {lo:#x}"))
    sp = proc.registers["sp"]
    if not lo - GUARD_SIZE <= sp <= hi + GUARD_SIZE:
        findings.append(Finding(
            "soundness", "-",
            f"[{outcome}] register: pid={proc.pid} sp = {sp:#x} outside "
            f"slot [{lo:#x}, {hi:#x}] and its guard regions"))
    return True, findings


# -- oracle 4: checkpoint transparency ----------------------------------------


def _observed_run(elf: ElfImage, stdin: bytes, timeslice: int):
    """A fresh fully-observed runtime with ``elf`` spawned, not yet run."""
    runtime = Runtime(model=None, timeslice=timeslice)
    tracer = Tracer(record=True)
    tracer.attach(runtime)
    hub = MetricsHub().attach(tracer, runtime)
    bases = track_slot_bases(runtime, tracer)
    proc = runtime.spawn(elf)
    if stdin:
        proc.fds[0].buffer.extend(stdin)
    return runtime, tracer, hub, bases, proc


def _final_state(runtime: Runtime, root) -> dict:
    """Everything position-independent a finished job left behind."""
    procs = {}
    for proc in job_processes(runtime, root):
        procs[proc.pid - root.pid] = (
            str(proc.state),
            proc.exit_code,
            proc.instructions,
            canonical_registers(proc.registers, proc.layout),
            memory_digest(runtime.memory, proc.layout),
        )
    return procs


def check_checkpoint(elf: ElfImage, points: Tuple[int, ...]
                     = CHECKPOINT_POINTS, budget: int = CHECKPOINT_BUDGET,
                     stdin: bytes = b"", timeslice: int = 50,
                     ) -> List[Finding]:
    """Checkpoint/restore at each point must be observationally invisible.

    For every interruption point: run a fresh sandbox for that many
    instructions, capture a :class:`~repro.checkpoint.Checkpoint`,
    round-trip it through bytes, restore into a *fresh* runtime, and run
    to completion.  The split run must match the uninterrupted reference
    byte-for-byte on exit code, stdout, per-process instruction counts,
    canonical registers, normalized memory digests, metrics state, and
    the full normalized event trace (checkpoint-phase events rebased by
    the consumed cycle/instruction counters).  Points past the program's
    natural exit are skipped — there is nothing left to interrupt.
    """
    runtime, tracer, hub, bases, proc = _observed_run(elf, stdin, timeslice)
    if not runtime.run_bounded(proc, budget):
        return [Finding("checkpoint", "-",
                        f"reference run did not halt in {budget}")]
    reference = {
        "stdout": runtime.stdout_of(proc),
        "events": normalize_events(tracer.events, bases, pid_base=proc.pid),
        "metrics": hub.state_dict(pid_base=proc.pid),
        "state": _final_state(runtime, proc),
    }

    findings: List[Finding] = []
    for point in points:
        rt1, tr1, hub1, b1, p1 = _observed_run(elf, stdin, timeslice)
        if rt1.run_bounded(p1, point):
            continue  # program finished before the interruption point
        ckpt = capture_job(
            rt1, p1, hub1,
            consumed_instructions=rt1.machine.instret,
            consumed_cycles=rt1.machine.cycles)
        blob = ckpt.to_bytes()
        ckpt2 = Checkpoint.from_bytes(blob)
        if ckpt2.digest() != ckpt.digest():
            findings.append(Finding(
                "checkpoint", f"@{point}",
                "serialization round trip changed the digest"))
            continue
        phase1 = normalize_events(tr1.events, b1, pid_base=p1.pid)

        rt2 = Runtime(model=None, timeslice=timeslice)
        tr2 = Tracer(record=True)
        tr2.attach(rt2)
        hub2 = MetricsHub().attach(tr2, rt2)
        b2 = track_slot_bases(rt2, tr2)
        p2 = restore_job(rt2, ckpt2, hub2)
        if not rt2.run_bounded(p2, budget):
            findings.append(Finding("checkpoint", f"@{point}",
                                    "resumed run did not halt"))
            continue
        phase2 = normalize_events(
            tr2.events, b2, ts_base=-ckpt2.consumed_cycles,
            pid_base=p2.pid, instret_base=-ckpt2.consumed_instructions)

        resumed_stdout = rt2.stdout_of(p2)
        if resumed_stdout != reference["stdout"]:
            findings.append(Finding(
                "checkpoint", f"@{point}",
                f"stdout diverged: ref={reference['stdout']!r} "
                f"resumed={resumed_stdout!r}"))
        state = _final_state(rt2, p2)
        if state != reference["state"]:
            for off in sorted(set(reference["state"]) | set(state)):
                if reference["state"].get(off) != state.get(off):
                    findings.append(Finding(
                        "checkpoint", f"@{point}",
                        f"process +{off} final state diverged"))
                    break
        if hub2.state_dict(pid_base=p2.pid) != reference["metrics"]:
            findings.append(Finding("checkpoint", f"@{point}",
                                    "metrics state diverged"))
        combined = phase1 + phase2
        if combined != reference["events"]:
            detail = "trace diverged"
            for a, b in zip(reference["events"], combined):
                if a != b:
                    detail = (f"trace diverged: ref={a!r} resumed={b!r}")
                    break
            else:
                detail = (f"trace length {len(reference['events'])} != "
                          f"{len(combined)}")
            findings.append(Finding("checkpoint", f"@{point}", detail))
    return findings


# -- oracle 5: speculation transparency ---------------------------------------


def _speculation_observables(elf: ElfImage, speculation, model,
                             fuel: int) -> dict:
    """Every architectural observable of one bare-machine stepping run."""
    machine = slot_machine(
        elf, engine=EngineConfig(kind="stepping", speculation=speculation),
        model=model)
    obs = {
        "halt": _halt(machine, fuel),
        "cpu": machine.cpu.snapshot(),
        "exclusive": machine.cpu.exclusive_addr,
        "buffer": machine.memory.read(SLOT.base + DATA_OFFSET, 4096),
        "instret": machine.instret,
        "cycles": machine.cycles,
    }
    for gauge in ("tlb", "l1", "l2"):
        unit = getattr(machine, gauge)
        obs[gauge] = (unit.hits, unit.misses) if unit is not None else None
    return obs


def _speculation_runtime_run(elf: ElfImage, engine: EngineConfig,
                             budget: int, timeslice: int) -> dict:
    """One observed runtime-level run (stdout, trace, metrics, state).

    The metrics hub attaches event-only (no runtime): a per-step probe
    would — correctly — be rejected in combination with speculation.
    """
    runtime = Runtime(model=None, timeslice=timeslice, engine=engine)
    tracer = Tracer(record=True)
    tracer.attach(runtime)
    hub = MetricsHub().attach(tracer)
    bases = track_slot_bases(runtime, tracer)
    proc = runtime.spawn(elf)
    halted = runtime.run_bounded(proc, budget)
    return {
        "halted": halted,
        "stdout": runtime.stdout_of(proc),
        "events": normalize_events(tracer.events, bases, pid_base=proc.pid),
        "metrics": hub.state_dict(pid_base=proc.pid),
        "state": _final_state(runtime, proc),
    }


def check_speculation(elf: ElfImage, seed: int = 0, fuel: int = RUN_FUEL,
                      budget: int = CHECKPOINT_BUDGET, timeslice: int = 50,
                      ) -> List[Finding]:
    """Bounded speculation with rollback must be architecturally invisible.

    Runs ``elf`` twice on the stepping engine — plain, and with
    ``EngineConfig(speculation=...)`` under predictor seed ``seed`` — and
    requires bit-identical observables at two levels:

    * **bare machine**, uncosted and under the Apple-M1 cost model: the
      full register file and flags, data buffer, retired instruction
      count, cycle total, and the TLB/L1/L2 hit and miss counters (the
      speculative engine probes the gauges for its observer but must
      roll every transient mutation back);
    * **runtime**: exit state, stdout, the metrics-hub state, and the
      full normalized event trace.

    Any divergence means transient state escaped a squash — a real
    isolation bug, reported as a ``speculation`` finding.
    """
    findings: List[Finding] = []
    spec = SpeculationConfig(seed=seed)
    for label, model in (("bare", None), ("bare+model", APPLE_M1)):
        try:
            base = _speculation_observables(elf, None, model, fuel)
        except OutOfFuel:
            return [Finding("speculation", label,
                            "baseline run did not halt")]
        try:
            speculated = _speculation_observables(elf, spec, model, fuel)
        except OutOfFuel:
            findings.append(Finding("speculation", label,
                                    "speculative run did not halt"))
            continue
        for key, value in base.items():
            if speculated[key] != value:
                findings.append(Finding(
                    "speculation", label,
                    f"{key} diverged under speculation (seed={seed})"))
                break

    reference = _speculation_runtime_run(
        elf, EngineConfig(kind="stepping"), budget, timeslice)
    observed = _speculation_runtime_run(
        elf, EngineConfig(kind="stepping", speculation=spec),
        budget, timeslice)
    for key, value in reference.items():
        if observed[key] != value:
            findings.append(Finding(
                "speculation", "runtime",
                f"{key} diverged under speculation (seed={seed})"))
            break
    return findings


# -- oracle 6: engine twins ----------------------------------------------------

#: The superblock runs :func:`check_engines` compares with stepping:
#: ``(cost model, compile threshold)``, None for the default threshold.
ENGINE_RUNS = ((None, None), (APPLE_M1, None), (None, 1), (APPLE_M1, 1))


def _engine_observables(elf: ElfImage, kind: str, model, fuel: int) -> dict:
    """Everything a bare-machine run leaves, to the trap that ends it."""
    machine = slot_machine(elf, engine=EngineConfig(kind=kind), model=model)
    try:
        machine.run(fuel=fuel)
    except MemTrap as trap:
        stop = (trap.fault.kind, trap.fault.address, trap.pc)
    except Trap as trap:
        stop = (type(trap).__name__, None, trap.pc)
    except OutOfFuel:
        stop = ("OutOfFuel", None, machine.cpu.pc)
    memory = machine.memory
    digest = hashlib.sha256(repr(list(
        memory.mapped_regions(SLOT.base, SLOT.end))).encode())
    for address, page in memory.nonzero_pages(SLOT.base, SLOT.end):
        digest.update(address.to_bytes(8, "little") + page)
    return {"trap": stop, "cpu": machine.cpu.snapshot(),
            "memory": digest.hexdigest(), "instret": machine.instret,
            "cycles": machine.cycles,
            **{name: unit and (unit.hits, unit.misses, unit._sets)
               for name, unit in (("tlb", machine.tlb), ("l1", machine.l1),
                                  ("l2", machine.l2))}}


def check_engines(elf: ElfImage, level: str = "-", fuel: int = RUN_FUEL,
                  runs=ENGINE_RUNS) -> List[Finding]:
    """Stepping (Apple-M1 costs) and the superblock engine once per entry
    of ``runs`` — at the default threshold a content the process has not
    seen starts cold and turns hot mid-run, at 1 every block runs its
    body at once — must agree on registers, flags, memory, ``instret``,
    cycles (uncosted: the instructions), TLB/L1/L2 hits, misses and LRU
    sets, and the trap (kind, address, pc); the first key that differs
    is reported per run."""
    findings: List[Finding] = []
    reference = _engine_observables(elf, "stepping", APPLE_M1, fuel)
    uncosted = {**reference, "cycles": float(reference["instret"]),
                "tlb": None, "l1": None, "l2": None}
    default = superblock._COMPILE_THRESHOLD
    for model, threshold in runs:
        superblock._COMPILE_THRESHOLD = threshold or default
        try:
            observed = _engine_observables(elf, "superblock", model, fuel)
        finally:
            superblock._COMPILE_THRESHOLD = default
        for key, value in (uncosted if model is None else reference).items():
            if observed[key] != value:
                findings.append(Finding(
                    "engines", level, f"{key} diverged from stepping "
                    f"({'costed' if model else 'uncosted'}, compile "
                    f"threshold {threshold or default})"))
                break
    return findings
