"""Spectre attack gallery workloads (DESIGN.md §16).

Two canonical transient-execution attacks, expressed as sandbox programs
that pass the verifier and the semantics oracle at every optimization
level — architecturally they are benign, and that is the point: the leak
lives entirely on mispredicted paths the emulator's speculative mode
(:class:`~repro.emulator.speculation.SpeculativeEngine`) makes visible.

* **Spectre-PHT** (bounds-check bypass, variant 1): a bounds check
  ``cmp w1, w6; b.hs skip`` guards an array read.  Twenty-four in-bounds
  training trials bias the pattern history table toward *fall-through*;
  the twenty-fifth trial presents an out-of-bounds index, the branch
  mispredicts, and the transient window reads ``array1[16]`` — the secret
  byte — then touches ``probe + secret*64``.
* **Spectre-RSB** (return-stack underflow, variant 5): ``bl diverge``
  pushes the gadget site onto the return-stack buffer, but ``diverge``
  overwrites ``x30`` and returns elsewhere.  The RSB predicts the stale
  entry, so the architecturally-dead gadget (read secret, touch probe)
  runs transiently.

Leakage is judged *differentially*: run the same attack twice with two
different secret bytes and count positions where the transient access
traces disagree (:func:`repro.obs.speculation.differential_leakage`).
Unhardened (O0/O1/O2) both attacks leak; under the hardened rewrites
(``O2_FENCE``, ``O2_MASK``) the traces collapse to secret-independence
and the leakage is exactly zero.  :mod:`examples.attack_gallery`,
``tests/test_speculation.py``, and the hardening section of
``benchmarks/paper.py`` all measure through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..engine import EngineConfig, SpeculationConfig
from ..obs.speculation import SpeculationLog, differential_leakage

__all__ = [
    "ATTACKS",
    "DEFAULT_SECRETS",
    "PROBE_OFFSET",
    "PROBE_SIZE",
    "PROBE_STRIDE",
    "AttackResult",
    "attack_source",
    "measure_attack",
    "recover_secrets",
    "run_attack",
]

#: Two secrets whose transient footprints must differ for a leak to count.
DEFAULT_SECRETS: Tuple[int, int] = (0x2A, 0x77)

#: Layout of the attack data section: ``array1`` (16 bytes) at offset 0,
#: the secret byte at offset 16, and the probe array cache-line-aligned
#: at offset 64.  ``.balign 64`` in the sources pins these.
SECRET_OFFSET = 16
PROBE_OFFSET = 64
PROBE_STRIDE = 64
PROBE_SIZE = 16384

#: Fuel for one attack run (architectural retirements only; transient
#: work is free).  The attacks retire a few hundred instructions.
ATTACK_FUEL = 200_000

_DATA_SECTION = """\
.data
.balign 64
array1:
    .byte 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
secret:
    .byte {secret}
.balign 64
probe:
    .skip {probe_size}
"""

#: Spectre-PHT: train the bounds check not-taken with in-bounds indices,
#: then present index 16 (= the secret's offset past array1's end).
_PHT_SOURCE = """\
.text
_start:
    adrp x3, array1
    add  x3, x3, :lo12:array1
    adrp x8, probe
    add  x8, x8, :lo12:probe
    movz w0, #0
    movz w6, #16
    movz w7, #24
trial:
    cmp  w0, w7
    csel w1, w6, wzr, eq
    cmp  w1, w6
    b.hs skip
    add  x4, x3, w1, uxtw
    ldrb w2, [x4]
    lsl  w2, w2, #6
    add  x5, x8, w2, uxtw
    ldrb w10, [x5]
skip:
    add  w0, w0, #1
    cmp  w0, #25
    b.ne trial
    movz x0, #0
    brk  #0
""" + _DATA_SECTION

#: Spectre-RSB: ``bl`` pushes the gadget site, ``diverge`` retargets the
#: return, the stale RSB entry runs the dead gadget transiently.
_RSB_SOURCE = """\
.text
_start:
    adrp x3, secret
    add  x3, x3, :lo12:secret
    adrp x8, probe
    add  x8, x8, :lo12:probe
    bl   diverge
gadget:
    ldrb w2, [x3]
    lsl  w2, w2, #6
    add  x5, x8, w2, uxtw
    ldrb w10, [x5]
resume:
    movz x0, #0
    brk  #0
diverge:
    adr  x9, resume
    mov  x30, x9
    ret
""" + _DATA_SECTION


def _pht_source(secret: int) -> str:
    return _PHT_SOURCE.format(secret=secret, probe_size=PROBE_SIZE)


def _rsb_source(secret: int) -> str:
    return _RSB_SOURCE.format(secret=secret, probe_size=PROBE_SIZE)


#: Attack name -> source builder (secret byte -> assembly text).
ATTACKS: Dict[str, Callable[[int], str]] = {
    "pht": _pht_source,
    "rsb": _rsb_source,
}


def attack_source(name: str, secret: int) -> str:
    """Assembly text of attack ``name`` with ``secret`` baked into .data."""
    if name not in ATTACKS:
        raise ValueError(f"unknown attack {name!r}; "
                         f"have {sorted(ATTACKS)}")
    if not 0 <= secret <= 0xFF:
        raise ValueError(f"secret must be one byte, got {secret:#x}")
    return ATTACKS[name](secret)


@dataclass(frozen=True)
class AttackResult:
    """One differential leakage measurement."""

    name: str
    level: str  # rewrite options label, or "native"
    secrets: Tuple[int, int]
    #: Positional trace differences between the two runs (0 = no leak).
    leakage: int
    logs: Tuple[SpeculationLog, SpeculationLog]
    #: Secret byte inferred from each run's *diverging* probe footprint
    #: (:func:`recover_secrets`; ``None`` when the traces never diverge
    #: on a probe line — the hardened outcome).
    recovered: Tuple[Optional[int], Optional[int]]

    def line(self) -> str:
        rec = "/".join("-" if r is None else f"{r:#04x}"
                       for r in self.recovered)
        return (f"{self.name:<4} {self.level:<10} leakage={self.leakage:<3} "
                f"recovered={rec} windows={len(self.logs[0].windows)}")


def run_attack(source: str, options=None,
               speculation: Optional[SpeculationConfig] = None,
               fuel: int = ATTACK_FUEL, model=None) -> SpeculationLog:
    """Assemble (and optionally rewrite) ``source``; run it bare-machine
    in the differential slot under the speculative engine; return the log.
    """
    # Imported lazily: workloads must not pull the fuzz package (and its
    # runtime/checkpoint closure) at import time.
    from ..fuzz.differential import (
        SLOT,
        assemble_to_elf,
        rewrite_to_elf,
    )
    from ..elf import PF_X
    from ..emulator import BrkTrap, Machine
    from ..memory import PERM_RW, PERM_RX, PagedMemory

    spec = speculation or SpeculationConfig()
    if options is None:
        elf = assemble_to_elf(source)
    else:
        elf = rewrite_to_elf(source, options)

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

    machine = Machine(
        memory, model=model,
        engine=EngineConfig(kind="stepping", speculation=spec))
    machine.cpu.pc = SLOT.base + elf.entry
    machine.cpu.sp = stack_top
    machine.cpu.regs[21] = SLOT.base
    try:
        machine.run(fuel=fuel)
    except BrkTrap:
        pass
    else:
        raise RuntimeError("attack program did not halt")
    return machine.speculation_log


def _decode_probe(address: int) -> Optional[int]:
    """Probe-line index of ``address``, or None if outside the probe."""
    from ..fuzz.differential import DATA_OFFSET, SLOT

    off = address - (SLOT.base + DATA_OFFSET + PROBE_OFFSET)
    if 0 <= off < PROBE_SIZE and off % PROBE_STRIDE == 0:
        return off // PROBE_STRIDE
    return None


def recover_secrets(
    log_a: SpeculationLog, log_b: SpeculationLog,
) -> Tuple[Optional[int], Optional[int]]:
    """Differential recovery: decode the first *diverging* probe access.

    Seed-dependent mispredict windows (loop-exit overshoot, cold-counter
    training noise) touch the probe at the training line in *both* runs,
    so positionally-identical accesses carry no secret and are skipped;
    the first position where the traces disagree is, by construction,
    secret-dependent.  Returns ``(None, None)`` when the traces match —
    the hardened outcome: zero divergence means nothing to decode.
    """
    trace_a, trace_b = log_a.access_trace(), log_b.access_trace()
    rec_a: Optional[int] = None
    rec_b: Optional[int] = None
    for i in range(max(len(trace_a), len(trace_b))):
        a = trace_a[i] if i < len(trace_a) else None
        b = trace_b[i] if i < len(trace_b) else None
        if a == b:
            continue
        if rec_a is None and a is not None:
            rec_a = _decode_probe(a[0])
        if rec_b is None and b is not None:
            rec_b = _decode_probe(b[0])
        if rec_a is not None and rec_b is not None:
            break
    return rec_a, rec_b


def measure_attack(name: str, options=None,
                   speculation: Optional[SpeculationConfig] = None,
                   secrets: Tuple[int, int] = DEFAULT_SECRETS,
                   fuel: int = ATTACK_FUEL, model=None) -> AttackResult:
    """Run attack ``name`` twice (one secret each) and diff the traces."""
    spec = speculation or SpeculationConfig()
    logs = tuple(
        run_attack(attack_source(name, secret), options=options,
                   speculation=spec, fuel=fuel, model=model)
        for secret in secrets
    )
    return AttackResult(
        name=name,
        level=options.label if options is not None else "native",
        secrets=tuple(secrets),
        leakage=differential_leakage(logs[0], logs[1]),
        logs=logs,
        recovered=recover_secrets(logs[0], logs[1]),
    )
