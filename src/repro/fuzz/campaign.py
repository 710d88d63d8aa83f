"""The budgeted fuzz campaign behind ``python -m repro.tools fuzz``.

One campaign is a pure function of its seed: every random draw flows from
a single ``random.Random(seed)``, every log line is free of timestamps and
absolute paths, so two runs with the same seed and budget produce
byte-identical logs (an acceptance criterion, checked in CI).

Each iteration of the budget:

1. generate one well-formed program (:mod:`~repro.fuzz.genasm`);
2. run the **completeness** and **semantics** oracles across all four
   rewrite levels against one shared native execution, and the
   **engines** oracle on the native image and the O2 rewrite;
3. corrupt the verified O1 and store-only rewrites with the mutation
   engine and feed each mutant to the **soundness** probe;
4. run the **speculation** oracle on the verified O1 rewrite under a
   seeded predictor configuration — the bounded-speculation engine mode
   must be architecturally invisible;
5. (optional, ``checkpoint_points > 0``) interrupt the verified O1
   rewrite at seeded points and check the **checkpoint** oracle —
   serialize/restore/resume must be observationally invisible.

Failures are shrunk (:mod:`~repro.fuzz.shrink`) and, when a corpus
directory is configured, persisted for deterministic replay.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core import O2, RewriteError, VerifierPolicy, verify_elf
from ..elf import ElfImage
from ..emulator import OutOfFuel
from .corpus import CorpusEntry, save_entry
from .differential import (
    ENGINE_RUNS,
    LEVELS,
    Finding,
    assemble_to_elf,
    check_checkpoint,
    check_completeness,
    check_engines,
    check_semantics,
    check_speculation,
    mutant_elf,
    rewrite_to_elf,
    run_elf_in_slot,
    soundness_probe,
    state_diff,
)
from .genasm import AsmGenerator, GenConfig, GeneratedProgram
from .mutate import MutationEngine, Mutation, apply_mutations
from .shrink import shrink_mutations, shrink_program

__all__ = ["CampaignStats", "FuzzCampaign"]

#: Instruction budget for one mutant probe (smaller than the default:
#: campaigns run thousands of probes, and accepted mutants that loop
#: forever should burn bounded time).
CAMPAIGN_PROBE_BUDGET = 20_000


@dataclass
class CampaignStats:
    """Counters for one campaign, summarized in the final log line."""

    programs: int = 0
    rewrites: int = 0
    runs: int = 0
    mutants: int = 0
    mutants_accepted: int = 0
    spec_checks: int = 0
    engine_checks: int = 0
    findings: int = 0

    def summary(self) -> str:
        return (f"programs={self.programs} rewrites={self.rewrites} "
                f"runs={self.runs} mutants={self.mutants} "
                f"mutants-accepted={self.mutants_accepted} "
                f"spec-checks={self.spec_checks} "
                f"engine-checks={self.engine_checks} "
                f"findings={self.findings}")


class FuzzCampaign:
    """A seeded, budgeted fuzz run over the three oracles."""

    #: Rewrites used as mutation bases: the zero-instruction-guard level
    #: (richest guard surface) and the store-only variant (whose laxer
    #: policy historically hides verifier gaps).
    MUTANT_BASES = ("O1", "O2-noloads")

    def __init__(self, seed: int, budget: int,
                 mutants_per_program: int = 4,
                 config: Optional[GenConfig] = None,
                 corpus_dir: Optional[Path] = None,
                 probe_budget: int = CAMPAIGN_PROBE_BUDGET,
                 checkpoint_points: int = 0):
        self.seed = seed
        self.budget = budget
        self.mutants_per_program = mutants_per_program
        self.checkpoint_points = checkpoint_points
        self.rng = random.Random(seed)
        self.generator = AsmGenerator(config)
        self.engine = MutationEngine(self.rng)
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.probe_budget = probe_budget
        self.stats = CampaignStats()
        self.findings: List[Finding] = []
        self.lines: List[str] = []

    # -- logging -------------------------------------------------------------

    def log(self, message: str) -> None:
        self.lines.append(message)

    # -- the campaign loop ---------------------------------------------------

    def run(self) -> List[Finding]:
        self.log(f"fuzz seed={self.seed} budget={self.budget} "
                 f"mutants-per-program={self.mutants_per_program}")
        for iteration in range(self.budget):
            program = self.generator.generate(self.rng)
            self.stats.programs += 1
            findings, bases = self._examine(program)
            if findings:
                self._report_program(iteration, program, findings)
            mutant_findings = self._mutants(iteration, bases)
            spec_findings = self._speculation(bases)
            line = (f"iter {iteration:04d} frags="
                    f"{len(program.fragments)} "
                    f"est={program.instruction_estimate()} "
                    f"findings={len(findings)} "
                    f"mutant-findings={len(mutant_findings)} "
                    f"spec-findings={len(spec_findings)}")
            if self.checkpoint_points:
                ckpt_findings = self._checkpoints(bases)
                line += f" ckpt-findings={len(ckpt_findings)}"
                self.findings.extend(ckpt_findings)
            self.log(line)
            self.findings.extend(findings)
            self.findings.extend(mutant_findings)
            self.findings.extend(spec_findings)
        self.stats.findings = len(self.findings)
        self.log(f"done {self.stats.summary()}")
        return self.findings

    # -- oracle evaluation ----------------------------------------------------

    def _examine(self, program: GeneratedProgram,
                 ) -> Tuple[List[Finding],
                            Dict[str, Tuple[ElfImage, VerifierPolicy]]]:
        """Completeness + semantics for one program; returns the verified
        rewrites keyed by level label (the mutation bases)."""
        source = program.source
        findings: List[Finding] = []
        bases: Dict[str, Tuple[ElfImage, VerifierPolicy]] = {}
        elf = assemble_to_elf(source)
        try:
            native = run_elf_in_slot(elf)
            self.stats.runs += 1
        except OutOfFuel:
            return ([Finding("crash", "native",
                             "generated program did not halt")], bases)
        findings += self._engines(elf, "native")
        for label, options, policy in LEVELS:
            try:
                elf = rewrite_to_elf(source, options)
            except RewriteError as exc:
                findings.append(Finding("completeness", label,
                                        f"rewriter rejected input: {exc}"))
                continue
            self.stats.rewrites += 1
            result = verify_elf(elf, policy)
            if result.ok:
                bases[label] = (elf, policy)
            else:
                first = "; ".join(str(v) for v in result.violations[:3])
                findings.append(Finding(
                    "completeness", label,
                    f"{len(result.violations)} violation(s): {first}"))
            if options is O2:
                findings += self._engines(elf, label)
            try:
                state = run_elf_in_slot(elf)
                self.stats.runs += 1
            except OutOfFuel:
                findings.append(Finding("semantics", label,
                                        "rewritten program did not halt"))
                continue
            if state != native:
                findings.append(Finding("semantics", label,
                                        state_diff(native, state)))
        return findings, bases

    def _engines(self, elf: ElfImage, level: str) -> List[Finding]:
        """Two of the engines oracle's runs, one costed and one uncosted,
        the other two on the next image (four would double the wall)."""
        self.stats.engine_checks += 1
        halves = ENGINE_RUNS[0::3], ENGINE_RUNS[1:3]
        odd = (self.stats.programs + (level == "O2")) % 2
        return check_engines(elf, level, runs=halves[odd])

    def _mutants(self, iteration: int,
                 bases: Dict[str, Tuple[ElfImage, VerifierPolicy]],
                 ) -> List[Finding]:
        out: List[Finding] = []
        for index in range(self.mutants_per_program):
            label = self.MUTANT_BASES[
                self.rng.randrange(len(self.MUTANT_BASES))]
            count = self.rng.randint(1, 3)
            if label not in bases:
                continue  # rewrite failed; completeness already reported
            elf, policy = bases[label]
            text = bytes(elf.text.data)
            plan = self.engine.plan(text, count)
            if not plan:
                continue
            accepted, probe = self._probe(elf, text, plan, policy)
            self.stats.mutants += 1
            if accepted:
                self.stats.mutants_accepted += 1
            if probe:
                self._report_mutant(iteration, index, label,
                                    elf, text, plan, policy, probe)
                out.extend(probe)
        return out

    def _probe(self, elf: ElfImage, text: bytes, plan: List[Mutation],
               policy: VerifierPolicy) -> Tuple[bool, List[Finding]]:
        mutated = apply_mutations(text, plan)
        return soundness_probe(mutant_elf(elf, mutated), policy,
                               budget=self.probe_budget)

    def _speculation(self, bases: Dict[str, Tuple[ElfImage,
                                                  VerifierPolicy]],
                     ) -> List[Finding]:
        """Speculation-transparency oracle on the verified O1 rewrite.

        The predictor seed is drawn from the campaign RNG — drawn
        unconditionally so the stream stays aligned even when the O1
        rewrite failed (completeness already reported that).
        """
        seed = self.rng.randrange(1 << 16)
        if "O1" not in bases:
            return []
        findings = check_speculation(bases["O1"][0], seed=seed)
        self.stats.spec_checks += 1
        for finding in findings:
            self.log(finding.line())
        return findings

    def _checkpoints(self, bases: Dict[str, Tuple[ElfImage,
                                                  VerifierPolicy]],
                     ) -> List[Finding]:
        """Checkpoint-transparency oracle on the verified O1 rewrite.

        Interruption points are drawn from the campaign RNG, so the same
        seed probes the same split points; programs shorter than a point
        skip it inside the oracle.
        """
        if "O1" not in bases:
            return []
        points = tuple(sorted(
            self.rng.randrange(20, 2400)
            for _ in range(self.checkpoint_points)))
        findings = check_checkpoint(bases["O1"][0], points=points)
        for finding in findings:
            self.log(finding.line())
        return findings

    # -- failure reporting and shrinking --------------------------------------

    def _report_program(self, iteration: int, program: GeneratedProgram,
                        findings: List[Finding]) -> None:
        for finding in findings:
            self.log(finding.line())
        oracles = {f.oracle for f in findings}

        def still_fails(candidate: GeneratedProgram) -> bool:
            got = check_completeness(candidate.source)
            if not ({f.oracle for f in got} & oracles):
                got += check_semantics(candidate.source)
            if "engines" in oracles and not ({f.oracle for f in got}
                                             & oracles):
                got += check_engines(assemble_to_elf(candidate.source))
                with contextlib.suppress(RewriteError):
                    got += check_engines(rewrite_to_elf(candidate.source, O2))
            return bool({f.oracle for f in got} & oracles)

        shrunk = shrink_program(program, still_fails)
        self.log(f"shrunk iter {iteration:04d}: "
                 f"{len(program.fragments)} -> {len(shrunk.fragments)} "
                 f"fragments")
        if self.corpus_dir is not None:
            entry = CorpusEntry(
                name=f"fuzz-s{self.seed}-i{iteration:04d}",
                kind="program", expect="pass",
                description=("shrunk by fuzz campaign; oracles: "
                             + ", ".join(sorted(oracles))),
                source=shrunk.source,
            )
            save_entry(entry, self.corpus_dir)
            self.log(f"saved corpus entry {entry.name}")

    def _report_mutant(self, iteration: int, index: int, label: str,
                       elf: ElfImage, text: bytes, plan: List[Mutation],
                       policy: VerifierPolicy,
                       findings: List[Finding]) -> None:
        for finding in findings:
            self.log(finding.line())

        def still_fails(candidate: List[Mutation]) -> bool:
            accepted, got = self._probe(elf, text, candidate, policy)
            return accepted and bool(got)

        shrunk = shrink_mutations(plan, still_fails)
        self.log(f"shrunk mutant iter {iteration:04d} m{index}: "
                 f"{len(plan)} -> {len(shrunk)} mutation(s) "
                 f"[{' '.join(m.op for m in shrunk)}]")
        if self.corpus_dir is not None:
            overrides: Dict[str, object] = {}
            if not policy.sandbox_loads:
                overrides["sandbox_loads"] = False
            entry = CorpusEntry(
                name=f"fuzz-s{self.seed}-i{iteration:04d}-m{index}",
                kind="machine", expect="reject",
                description=(f"escaped mutant of a verified {label} "
                             f"rewrite; shrunk by fuzz campaign"),
                text_hex=apply_mutations(text, shrunk).hex(),
                policy=overrides,
            )
            save_entry(entry, self.corpus_dir)
            self.log(f"saved corpus entry {entry.name}")
