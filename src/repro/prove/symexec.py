"""Bounded symbolic execution of verifier-accepted words (DESIGN.md §14).

For every word in an instruction class the driver asks two questions:

1. *Acceptance*: does the :class:`~repro.core.verifier.Verifier`'s rule
   table (``core/rules.py``, the code ``verify_text`` runs) accept the
   word in **any** of a fixed set of continuation contexts?  The rules
   consult at most the next one or two words (a guard, a ``blr``, or an sp
   re-establishing access), so a small context set covers every way a
   word can appear in an accepted program.  The decoded checker is run
   beside the table and any disagreement fails the report, so no word is
   accepted by a path the prover never saw.
2. *Obligation*: for **each** accepting context, run the abstract
   transfer function over the word plus its context starting from the
   weakest verified-program state and check that (a) indirect branch
   targets stay in the sandbox, (b) every memory effect stays inside the
   containment region, and (c) the reserved-register invariants hold at
   the end of the sequence.

A word that is accepted but fails an obligation is a *counterexample*:
either a verifier soundness bug or a prover/emulator disagreement.  The
symbolic field of a class is threaded through the real decoder as an
affine interval and split on demand, so one analysis covers thousands of
immediates at once; ``cross_check`` and ``probe`` re-validate sampled
results against fully concrete analysis and against the stepping
emulator respectively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..arm64.decoder import decode_word
from ..arm64.encoder import encode_instruction
from ..arm64.operands import Imm, OFFSET
from ..arm64.registers import Reg
from ..core.constants import SCRATCH_REG, SP_SMALL_IMM
from ..core.guards import guard_address, sp_guard_pair, x30_guard
from ..core.rules import NEEDS, OK, rule_index
from ..core.verifier import Verifier, VerifierPolicy
from ..memory.layout import PAGE_SIZE, SANDBOX_SIZE
from .absdomain import (
    AbsVal,
    CONTAIN_HI,
    CONTAIN_LO,
    Concretize,
    NeedSplit,
    TOP,
    _sp_rest,
    bounds,
    initial_state,
    invariant_failures,
    mem_effects,
    transfer,
)
from .enumerate import InstructionClass
from .report import ClassReport, Counterexample

__all__ = ["CONTEXTS", "context_words", "analyze_word", "check_obligations",
           "prove_class", "violating", "probe_word", "WeakenedVerifier"]

# Context tail instructions, by encoded word (decoded lazily below):
#:  str x0, [sp]        — the d=0 sp re-establishing access
_STR_SP0 = 0xF90003E0
#:  str x0, [sp, #2000] — a large-displacement re-establishing access;
#:  before the SP_SMALL_IMM closing-access bound this was accepted and
#:  let sp drift past the guard band over many windows (DESIGN.md §14)
_STR_SP_FAR = 0xF903EBE0
#:  blr x30             — the runtime-call tail
_BLR_X30 = 0xD63F03C0


def _build_contexts() -> Tuple[Tuple[str, tuple, tuple], ...]:
    """The fixed ``(name, tail instructions, tail words)`` contexts."""
    tails = (
        ("solo", ()),
        ("x30-guard", (x30_guard(),)),
        ("x18-guard", (guard_address(SCRATCH_REG),)),
        ("sp-guard", tuple(sp_guard_pair())),
        ("sp-close", (decode_word(_STR_SP0),)),
        ("sp-close-far", (decode_word(_STR_SP_FAR),)),
        ("runtime-call", (decode_word(_BLR_X30),)),
        ("x30-guard+sp-guard", (x30_guard(),) + tuple(sp_guard_pair())),
    )
    return tuple((name, tail, tuple(encode_instruction(i) for i in tail))
                 for name, tail in tails)


_CONTEXTS = _build_contexts()
CONTEXTS = tuple(name for name, _tail, _words in _CONTEXTS)

#: Proper sub-contexts of each context (tails that are prefixes/subsets).
#: Obligations are only checked for *minimal* accepting contexts: if a
#: word is already accepted with less lookahead, the larger context's
#: extra tail is unrelated subsequent code whose execution is covered by
#: its own per-word proof (the program-point induction, DESIGN.md §14).
_SUB_CONTEXTS: Dict[str, Tuple[str, ...]] = {
    "solo": (),
    "x30-guard": ("solo",),
    "x18-guard": ("solo",),
    "sp-guard": ("solo",),
    "sp-close": ("solo",),
    "sp-close-far": ("solo",),
    "runtime-call": ("solo",),
    "x30-guard+sp-guard": ("solo", "x30-guard", "sp-guard"),
}


def context_words(name: str) -> List[int]:
    """Encoded words of a context's tail (for the corpus bridge)."""
    for ctx_name, _tail, words in _CONTEXTS:
        if ctx_name == name:
            return list(words)
    raise KeyError(f"unknown context {name!r}")


# ---------------------------------------------------------------------------
# Obligations


def _imax(a, b):
    """max() that works when one side is a SymInt (comparison may split)."""
    if a <= b:
        return b
    return a


def _imin(a, b):
    if a <= b:
        return a
    return b


def _sp_def_or_wide_access(inst) -> bool:
    """Does this word only ever execute at an sp *rest* point?

    The verifier forbids sp writes and sp accesses inside an arithmetic
    window (the window scan stops at both), except for the small closing
    access itself.  So a word that defines sp, or accesses sp with a
    displacement too large to be a closer, can only sit at a rest point —
    its precondition is the rest hull, not the pending hull.
    """
    mem = inst.mem
    if mem is not None and mem.base.is_sp:
        if mem.writes_back:
            return True
        off = mem.offset
        if off is None:
            return False
        if isinstance(off, Imm):
            # May raise NeedSplit on a symbolic displacement straddling
            # the bound; the driver splits the interval and retries.
            return not bool(abs(mem.imm_value) < SP_SMALL_IMM)
        return True
    for reg in inst.defs():
        if reg.is_sp:
            return True
    return False


def _refine_sp(inst, state: dict) -> bool:
    """Intersect sp with what a *completed* sp-relative access implies.

    Trap-before-writeback: if the access at ``sp + d`` completed, then
    ``sp + d`` (through ``sp + d + width - 1``) was readable/writable, so
    sp itself lies within the readable region shifted by ``-d``.  Stores
    pin to the mapped sandbox; loads may also land in the neighbour's
    read-only table page.  Returns True if a refinement was applied.
    """
    mem = inst.mem
    if mem is None or not mem.base.is_sp or mem.writes_back:
        return False
    off = mem.offset
    if off is not None and not isinstance(off, Imm):
        return False
    d = mem.imm_value if (mem.mode == OFFSET and off is not None) else 0
    hi_mapped = (SANDBOX_SIZE - 1 if inst.is_store
                 else SANDBOX_SIZE + PAGE_SIZE - 1)
    old = state["sp"]
    if old.rel:
        state["sp"] = AbsVal(True, _imax(old.lo, 0 - d),
                             _imin(old.hi, hi_mapped - d))
    else:
        state["sp"] = AbsVal(True, 0 - d, hi_mapped - d)
    return True


def check_obligations(stream: List, policy: VerifierPolicy) -> List[str]:
    """Prove one accepted instruction sequence upholds the invariants.

    Returns human-readable violation strings (empty = proved).  May raise
    :class:`NeedSplit`/:class:`Concretize` when the word is symbolic and
    the answer depends on the immediate — the driver splits and retries.
    """
    state = initial_state()
    sp_touched = False
    if stream and _sp_def_or_wide_access(stream[0]):
        # The word under test can only execute at a rest point.
        state["sp"] = _sp_rest()
        sp_touched = True
    violations: List[str] = []
    for inst in stream:
        if inst.is_indirect_branch and inst.operands:
            target = inst.operands[0]
            if isinstance(target, Reg) and not target.is_sp:
                val = state[target.index]
                ok = bool(val.rel and (val.lo >= 0)
                          and (val.hi <= SANDBOX_SIZE - 1))
                if not ok:
                    violations.append(
                        f"branch target {target} may leave the sandbox: "
                        f"{val!r} ({inst})")
        for is_load, is_store, addr, width in mem_effects(inst, state):
            if is_load and not is_store and not policy.sandbox_loads:
                # store-only mode: load addresses are the documented
                # carve-out A4 (DESIGN.md §14) — confidentiality, not
                # integrity, so no containment obligation.
                pass
            elif not addr.rel:
                violations.append(
                    f"access address unprovable (not base-relative): "
                    f"{inst} at {addr!r}")
            elif not bool((addr.lo >= CONTAIN_LO)
                          and (addr.hi <= CONTAIN_HI - 1)):
                violations.append(
                    f"access may escape containment: {inst} at {addr!r}")
        state = transfer(inst, state)
        if any(r.is_sp for r in inst.defs()):
            sp_touched = True
        if _refine_sp(inst, state):
            sp_touched = True
    sp_req = _sp_rest() if sp_touched else None
    violations.extend(invariant_failures(state, sp_req=sp_req))
    return violations


# ---------------------------------------------------------------------------
# Per-word verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of analyzing one (possibly symbolic) word."""

    decoded: bool
    accepted: bool
    #: Names of every context in which the verifier accepts the word.
    contexts: Tuple[str, ...] = ()
    #: (context name, violation string) for every failed obligation.
    violations: Tuple[Tuple[str, str], ...] = ()
    #: Contexts where the rule table and the decoded checker disagree.
    disagreements: Tuple[str, ...] = ()


def analyze_word(word, verifier: Verifier) -> Verdict:
    """Classify one word: undecodable, rejected, proved, or violating.

    ``word`` may be a concrete int or a :class:`SymWord`; symbolic
    analysis raises :class:`NeedSplit`/:class:`Concretize` when the
    answer depends on the symbolic field.  The verdict is the rule
    table's; the decoded checker runs beside it (unless the verifier is
    deliberately weakened) and must agree in every context tried.
    """
    inst = decode_word(word)
    code = verifier.classify([word])[0]
    if inst is None:
        # The table accepts nothing the decoder cannot decode.
        return Verdict(False, False,
                       disagreements=("undecodable",) if code else ())
    accepted: List[str] = []
    streams: Dict[str, List] = {}
    disagreements: List[str] = []
    for name, tail, tail_words in _CONTEXTS:
        if tail and (code & OK or not code & NEEDS):
            # Accepted alone (lookahead never revokes that), or rejected
            # for what the word is: one solo check classifies it.
            break
        stream = [inst] + list(tail)
        ok = verifier.accepts([word] + list(tail_words), 0)
        if not verifier.weakened \
                and ok != (not verifier.check_instruction(inst, stream, 0)):
            disagreements.append(name)
        if ok:
            accepted.append(name)
            streams[name] = stream
    violations = []
    for name in accepted:
        if any(sub in streams for sub in _SUB_CONTEXTS[name]):
            continue  # not minimal: covered with less lookahead
        for v in check_obligations(streams[name], verifier.policy):
            violations.append((name, v))
    return Verdict(True, bool(accepted), tuple(accepted), tuple(violations),
                   tuple(disagreements))


def violating(words: Iterable[int], policy: VerifierPolicy,
              verifier: Optional[Verifier] = None) -> bool:
    """ddmin predicate: is this concrete word sequence a counterexample?

    True iff the verifier accepts every instruction of the sequence *as a
    whole program* and the abstract obligations fail on it.  Used by the
    counterexample bridge so the shrinker never reduces past the point
    where the verifier starts rejecting.
    """
    words = list(words)
    verifier = verifier or Verifier(policy)
    if not verifier.accepts(words):
        return False
    return bool(check_obligations([decode_word(w) for w in words],
                                  verifier.policy))


# ---------------------------------------------------------------------------
# The interval driver


@dataclass
class _Tally:
    """Mutable counters threaded through one class run."""

    report: ClassReport
    reservoir: List[int] = field(default_factory=list)

    def record(self, verdict: Verdict, count: int, rep_word: int,
               cls: InstructionClass, shape: Optional[int] = None,
               flo: Optional[int] = None, fhi: Optional[int] = None) -> None:
        rep = self.report
        rep.checked += count
        for ctx in verdict.disagreements:
            rep.mismatches.append(
                f"{cls.name} {rep_word:#010x} [{ctx}]: rule table and "
                f"decoded checker disagree")
        if not verdict.decoded:
            rep.undecodable += count
            return
        if not verdict.accepted:
            rep.rejected += count
            return
        rep.accepted += count
        for name in verdict.contexts:
            rep.accepted_by_context[name] = \
                rep.accepted_by_context.get(name, 0) + count
        if len(self.reservoir) < 4096:
            self.reservoir.append(rep_word)
        for ctx, reason in verdict.violations:
            inst = decode_word(rep_word)
            fname = cls.sym_field.name if (cls.sym_field is not None
                                           and shape is not None) else ""
            rep.add(Counterexample(
                klass=cls.name, policy=rep.policy, context=ctx,
                word=rep_word, count=count, reason=reason,
                disasm=str(inst) if inst is not None else "",
                shape=shape, field=fname, flo=flo, fhi=fhi))


def _analyze_interval(cls: InstructionClass, shape: int, flo: int, fhi: int,
                      verifier: Verifier, tally: _Tally,
                      segments: Optional[List[tuple]] = None) -> None:
    """Resolve one shape over a symbolic-field interval, splitting on
    demand.  Appends ``(flo, fhi, accepted, n_violations)`` records to
    ``segments`` when provided (for cross-checking)."""
    stack = [(flo, fhi)]
    fld = cls.sym_field
    while stack:
        lo, hi = stack.pop()
        if lo > hi:
            continue
        if lo == hi:
            word = shape | (lo << fld.lo)
            v = analyze_word(word, verifier)
            tally.record(v, 1, word, cls, shape=shape, flo=lo, fhi=hi)
            if segments is not None:
                segments.append((lo, hi, v.accepted, len(v.violations)))
            continue
        sym = cls.sym_word(shape, lo, hi)
        try:
            v = analyze_word(sym, verifier)
        except NeedSplit as exc:
            split_done = False
            for p in sorted(set(exc.points)):
                if lo < p <= hi:
                    stack.append((lo, p - 1))
                    stack.append((p, hi))
                    split_done = True
                    break
            if not split_done:
                # Defensive: split point outside the interval — bisect.
                mid = (lo + hi) // 2
                stack.append((lo, mid))
                stack.append((mid + 1, hi))
            tally.report.splits += 1
            continue
        except Concretize:
            tally.report.concretized += 1
            for f in range(lo, hi + 1):
                word = shape | (f << fld.lo)
                cv = analyze_word(word, verifier)
                tally.record(cv, 1, word, cls, shape=shape, flo=f, fhi=f)
                if segments is not None:
                    segments.append((f, f, cv.accepted, len(cv.violations)))
            continue
        count = hi - lo + 1
        rep_word = shape | (lo << fld.lo)
        tally.record(v, count, rep_word, cls, shape=shape, flo=lo, fhi=hi)
        if segments is not None:
            segments.append((lo, hi, v.accepted, len(v.violations)))


def prove_class(cls: InstructionClass,
                policy: Optional[VerifierPolicy] = None,
                verifier: Optional[Verifier] = None,
                mode: str = "auto",
                limit: Optional[int] = None,
                cross_check: int = 0,
                probe: int = 0,
                seed: int = 0) -> ClassReport:
    """Exhaustively check one instruction class under one policy.

    ``mode``: ``"words"`` enumerates every concrete word, ``"shapes"``
    enumerates concrete shapes with the class's symbolic field as an
    interval, ``"auto"`` picks shapes when the class has a symbolic field
    and a non-trivial space.  ``limit`` truncates the enumeration (the
    report is marked partial).  ``cross_check`` re-analyzes that many
    seeded sample shapes concretely and compares; ``probe`` single-steps
    that many accepted words on the real emulator and checks the concrete
    effects against the abstract hulls.
    """
    if verifier is None:
        verifier = Verifier(policy or VerifierPolicy())
    policy = verifier.policy
    if mode == "auto":
        mode = "shapes" if (cls.sym is not None and cls.space() > 4096) \
            else "words"
    if mode == "shapes" and cls.sym is None:
        mode = "words"
    report = ClassReport(klass=cls.name, policy=policy.label(), mode=mode,
                         space=cls.space())
    tally = _Tally(report)
    rng = random.Random(seed)

    if mode == "words":
        for n, word in enumerate(cls.words()):
            if limit is not None and n >= limit:
                report.truncated = True
                break
            v = analyze_word(word, verifier)
            tally.record(v, 1, word, cls)
    else:
        fld = cls.sym_field
        fhi = (1 << fld.width) - 1 if fld.values is None \
            else max(fld.values)
        flo = 0 if fld.values is None else min(fld.values)
        sample: set = set()
        if cross_check:
            total = cls.shape_count()
            sample = set(rng.sample(range(total),
                                    min(cross_check, total)))
        for n, shape in enumerate(cls.shapes()):
            if limit is not None and n >= limit:
                report.truncated = True
                break
            segments: Optional[List[tuple]] = [] if n in sample else None
            _analyze_interval(cls, shape, flo, fhi, verifier, tally,
                              segments)
            if segments is not None:
                _cross_check_shape(cls, shape, segments, verifier, report,
                                   rng)

    if probe and tally.reservoir:
        picks = rng.sample(tally.reservoir,
                           min(probe, len(tally.reservoir)))
        for word in sorted(picks):
            report.probes += 1
            report.probe_issues.extend(probe_word(word, rng.getrandbits(32)))
    return report


def _cross_check_shape(cls: InstructionClass, shape: int,
                       segments: List[tuple], verifier: Verifier,
                       report: ClassReport, rng: random.Random) -> None:
    """Spot-check symbolic segment verdicts against concrete analysis."""
    fld = cls.sym_field
    for lo, hi, accepted, n_viol in segments:
        picks = {lo, hi, rng.randint(lo, hi)}
        for f in sorted(picks):
            word = shape | (f << fld.lo)
            v = analyze_word(word, verifier)
            report.cross_checks += 1
            if v.accepted != accepted or bool(v.violations) != bool(n_viol):
                report.mismatches.append(
                    f"{cls.name} shape {shape:#010x} {fld.name}={f}: "
                    f"symbolic said accepted={accepted}/violations={n_viol}"
                    f", concrete says accepted={v.accepted}/"
                    f"violations={len(v.violations)}")


# ---------------------------------------------------------------------------
# Emulator differential probe


def probe_word(word: int, seed: int = 0) -> List[str]:
    """Single-step one accepted word on the stepping emulator and check
    the concrete effects against the abstract post-state.

    Two checks: a trapping instruction must leave every register
    unchanged (the trap-before-writeback property the sp hulls rely on),
    and a completed instruction must leave each reserved register inside
    its abstract post-hull.  Returns human-readable issue strings.
    """
    from ..emulator.machine import Machine, Trap
    from ..engine import EngineConfig
    from ..memory import PERM_RW, PERM_RX, PagedMemory, SandboxLayout
    from ..memory.pages import MemoryFault

    inst = decode_word(word)
    if inst is None:
        return []
    layout = SandboxLayout.for_slot(1)
    memory = PagedMemory()
    code = layout.base + 0x40000
    memory.map_region(code, PAGE_SIZE, PERM_RW)
    memory.write_u32(code, word)
    memory.protect(code, PAGE_SIZE, PERM_RX)
    data = layout.base + 0x2000_0000
    memory.map_region(data, 4 * PAGE_SIZE, PERM_RW)
    machine = Machine(memory, engine=EngineConfig(kind="stepping"))
    rng = random.Random(seed)
    base = layout.base
    cpu = machine.cpu
    for i in range(31):
        cpu.regs[i] = rng.getrandbits(64)
    cpu.regs[21] = base
    for idx in (18, 23, 24):
        cpu.regs[idx] = base + rng.choice(
            (0, data - base, SANDBOX_SIZE - 16))
    cpu.regs[22] = rng.choice((0, (1 << 32) - 1, data - base))
    cpu.regs[30] = base + rng.choice((0x40000, data - base))
    cpu.sp = base + rng.choice((data - base + 512, data - base + 2048))
    cpu.pc = code
    pre = cpu.clone()
    trapped = False
    try:
        machine.step()
    except (Trap, MemoryFault):
        trapped = True
    issues: List[str] = []
    if trapped:
        for i in range(31):
            if cpu.regs[i] != pre.regs[i]:
                issues.append(
                    f"{word:#010x} ({inst}): trap left x{i} modified "
                    f"({pre.regs[i]:#x} -> {cpu.regs[i]:#x})")
        if cpu.sp != pre.sp:
            issues.append(
                f"{word:#010x} ({inst}): trap left sp modified "
                f"({pre.sp:#x} -> {cpu.sp:#x})")
        return issues
    post = transfer(inst, initial_state())
    for key in (18, 21, 22, 23, 24, 30, "sp"):
        cur = cpu.sp if key == "sp" else cpu.regs[key]
        prev = pre.sp if key == "sp" else pre.regs[key]
        if cur == prev:
            continue
        hull = post[key]
        if hull is TOP or (not hull.rel and bounds(hull.lo)[0] == 0
                           and bounds(hull.hi)[1] == (1 << 64) - 1):
            continue
        if hull.rel:
            delta = (cur - base) % (1 << 64)
            if delta >= 1 << 63:
                delta -= 1 << 64
            lo = bounds(hull.lo)[0]
            hi = bounds(hull.hi)[1]
            ok = lo <= delta <= hi
            shown = f"base{delta:+#x}"
        else:
            lo = bounds(hull.lo)[0]
            hi = bounds(hull.hi)[1]
            ok = lo <= cur <= hi
            shown = f"{cur:#x}"
        if not ok:
            name = f"x{key}" if key != "sp" else "sp"
            issues.append(
                f"{word:#010x} ({inst}): {name} = {shown} outside "
                f"abstract hull {hull!r}")
    return issues


# ---------------------------------------------------------------------------
# Non-vacuity


class WeakenedVerifier(Verifier):
    """A deliberately unsound verifier for the prover's self-test.

    Its rule table is built with ``writeback_hole`` set: writeback through
    a reserved base register goes unpoliced, restoring the exact PR-2
    store-only hole that differential fuzzing found.  The prover must
    produce counterexamples against this verifier or it is vacuous
    (ISSUE 7 acceptance criterion).
    """

    weakened = True

    def __init__(self, policy: Optional[VerifierPolicy] = None):
        super().__init__(policy)
        self._index = rule_index(
            self.policy.max_displacement, self.policy.sandbox_loads,
            self.policy.allow_exclusives, writeback_hole=True)
