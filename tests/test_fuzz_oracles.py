"""Tests of the fuzzing machinery itself (ISSUE 2 satellite).

The oracles are trusted to gate every future rewriter/verifier change, so
they get the same treatment as the code under test: determinism is pinned
byte-for-byte, and a planted escape checks that the soundness probe
actually notices a broken invariant rather than vacuously passing.
"""

from __future__ import annotations

import random
import re
from types import SimpleNamespace

import pytest

from repro.core import VerifierPolicy, verify_elf
from repro.fuzz import differential
from repro.fuzz.campaign import FuzzCampaign
from repro.fuzz.differential import (
    ENGINE_RUNS,
    assemble_to_elf,
    check_completeness,
    check_engines,
    check_semantics,
    rewrite_to_elf,
    run_elf_in_slot,
    soundness_probe,
)
from repro.fuzz.genasm import MAPPED, AsmGenerator, GenConfig
from repro.fuzz.mutate import (
    Mutation,
    MutationEngine,
    apply_mutations,
    find_guards,
)
from repro.fuzz.shrink import shrink_mutations, shrink_program
from repro.fuzz.genasm import GeneratedProgram
from repro.core.options import O0, O2
from repro.emulator import superblock

from .conftest import flush_translation_caches


class TestDeterminism:
    def test_campaign_log_is_byte_identical_for_a_seed(self):
        runs = []
        for _ in range(2):
            campaign = FuzzCampaign(seed=20, budget=3)
            campaign.run()
            runs.append("\n".join(campaign.lines).encode())
        assert runs[0] == runs[1]

    def test_campaign_log_depends_on_the_seed(self):
        logs = []
        for seed in (20, 21):
            campaign = FuzzCampaign(seed=seed, budget=2)
            campaign.run()
            logs.append(campaign.lines)
        assert logs[0] != logs[1]

    def test_mutation_plans_replay_from_the_seed(self):
        source = AsmGenerator().generate(random.Random(5)).source
        text = bytes(rewrite_to_elf(source, O0).text.data)
        plans = [MutationEngine(random.Random(99)).plan(text, 5)
                 for _ in range(2)]
        assert plans[0] == plans[1]

    def test_generator_replays_from_the_seed(self):
        sources = [AsmGenerator().generate(random.Random(12)).source
                   for _ in range(2)]
        assert sources[0] == sources[1]


class TestMutations:
    def test_every_op_replays_as_a_word_edit(self):
        text = bytes(range(32))
        for mutation in (Mutation("bitflip", (3, 17)),
                         Mutation("guarddel", (2, 1, 9)),
                         Mutation("regsub", (4, 5, 21)),
                         Mutation("splice", (1, 6, 0))):
            once = apply_mutations(text, [mutation])
            assert len(once) == len(text) and once != text
            assert apply_mutations(text, [mutation]) == once
        assert text == bytes(range(32))

    def test_bitflip_is_an_involution_and_pure(self):
        text = bytes(range(16))
        flip = [Mutation("bitflip", (1, 9))]
        once = apply_mutations(text, flip)
        assert once != text
        assert apply_mutations(once, flip) == text
        assert text == bytes(range(16))  # input untouched

    def test_find_guards_sees_the_rewriter_output(self):
        source = (".text\n.globl _start\n_start:\n"
                  "    adrp x10, buffer\n"
                  "    add x10, x10, :lo12:buffer\n"
                  "    str x0, [x10]\n"
                  "    brk #0\n"
                  ".data\nbuffer:\n    .skip 16\n")
        text = bytes(rewrite_to_elf(source, O0).text.data)
        guards = find_guards(text)
        assert guards, "O0 rewrite of a store must contain a guard"
        for _index, dest, src in guards:
            assert dest in {18, 23, 24, 30} or dest == src

    def test_guarddel_nop_erases_the_guard_word(self):
        source = (".text\n.globl _start\n_start:\n"
                  "    adrp x10, buffer\n"
                  "    add x10, x10, :lo12:buffer\n"
                  "    str x0, [x10]\n"
                  "    brk #0\n"
                  ".data\nbuffer:\n    .skip 16\n")
        text = bytes(rewrite_to_elf(source, O0).text.data)
        index, _dest, src = find_guards(text)[0]
        nopped = apply_mutations(text, [Mutation("guarddel",
                                                 (index, 1, src))])
        word = int.from_bytes(nopped[4 * index: 4 * index + 4], "little")
        assert word == 0xD503201F  # nop
        assert not any(g[0] == index for g in find_guards(nopped))

    def test_guarddel_falls_back_to_bitflip_without_guards(self):
        text = (0xD503201F).to_bytes(4, "little") * 4  # nops: no guards
        engine = MutationEngine(random.Random(0))
        plan = engine.plan(text, 12)
        assert plan and all(m.op != "guarddel" for m in plan)


class TestPlantedEscape:
    """A known-bad mutant the soundness oracle must flag.

    ``ldr x0, [x21], #8`` moves the sandbox base: the verifier must reject
    it (the fuzzer-found fix), and — were it ever accepted again — the
    probe's register check must still catch the moved x21 at runtime.
    """

    SOURCE = (".text\n.globl _start\n_start:\n"
              "    ldr x0, [x21], #8\n"
              "    brk #0\n")

    def test_verifier_rejects_the_plant_in_noloads_mode(self):
        elf = assemble_to_elf(self.SOURCE)
        result = verify_elf(elf, VerifierPolicy(sandbox_loads=False))
        assert not result.ok
        accepted, findings = soundness_probe(
            elf, VerifierPolicy(sandbox_loads=False))
        assert (accepted, findings) == (False, [])

    def test_probe_flags_the_plant_when_the_verifier_is_blinded(
            self, monkeypatch):
        monkeypatch.setattr(differential, "verify_elf",
                            lambda elf, policy=None: SimpleNamespace(ok=True))
        accepted, findings = soundness_probe(assemble_to_elf(self.SOURCE))
        assert accepted
        assert any("x21" in f.detail for f in findings), \
            [f.line() for f in findings]
        assert all(f.oracle == "soundness" for f in findings)


class TestShrink:
    @staticmethod
    def _program(n, marker_at=()):
        fragments = [[f"mov x0, #{i}"] for i in range(n)]
        for i in marker_at:
            fragments[i] = [f"movz x7, #{7000 + i}"]
        return GeneratedProgram(fragments=fragments)

    @staticmethod
    def _has_marker(program, value):
        return any(f"movz x7, #{value}" in line
                   for frag in program.fragments for line in frag)

    def test_shrink_program_isolates_the_failing_fragment(self):
        program = self._program(8, marker_at=(5,))
        shrunk = shrink_program(
            program, lambda p: self._has_marker(p, 7005))
        assert len(shrunk.fragments) == 1
        assert self._has_marker(shrunk, 7005)

    def test_shrink_program_keeps_interacting_fragments(self):
        program = self._program(8, marker_at=(1, 6))
        shrunk = shrink_program(
            program,
            lambda p: self._has_marker(p, 7001) and self._has_marker(p, 7006))
        assert len(shrunk.fragments) == 2

    def test_shrink_program_never_returns_a_passing_case(self):
        program = self._program(4)
        shrunk = shrink_program(program, lambda p: len(p.fragments) >= 3)
        assert len(shrunk.fragments) == 3

    def test_shrink_mutations_drops_the_irrelevant_ones(self):
        culprit = Mutation("bitflip", (0, 5))
        plan = [Mutation("splice", (1, 2, 0)), culprit,
                Mutation("regsub", (3, 0, 21)), Mutation("bitflip", (2, 2))]
        shrunk = shrink_mutations(plan, lambda batch: culprit in batch)
        assert shrunk == [culprit]


class TestOracleSmoke:
    def test_oracles_pass_on_a_generated_program(self):
        program = AsmGenerator(GenConfig(min_fragments=2,
                                         max_fragments=4)).generate(
            random.Random(7))
        assert check_completeness(program.source) == []
        assert check_semantics(program.source) == []

    def test_completeness_reports_the_level(self):
        # A program the rewriter itself must refuse (reserved register).
        source = (".text\n.globl _start\n_start:\n"
                  "    add x21, x21, #1\n"
                  "    brk #0\n")
        findings = check_completeness(source)
        assert findings
        labels = {f.level for f in findings}
        assert "O0" in labels and "O2-noloads" in labels
        assert all(f.oracle == "completeness" for f in findings)

    def test_finding_line_format_is_stable(self):
        from repro.fuzz.differential import Finding
        line = Finding("soundness", "O1", "detail text").line()
        assert line == "FINDING soundness level=O1 detail text"


class TestEngineTwinOracle:
    def test_engines_agree_on_generated_programs(self):
        """Every superblock run of the oracle is stepping's twin on
        generated programs, native and rewritten."""
        rng = random.Random(11)
        generator = AsmGenerator()
        for _ in range(3):
            source = generator.generate(rng).source
            for level, elf in (("native", assemble_to_elf(source)),
                               ("O2", rewrite_to_elf(source, O2))):
                assert check_engines(elf, level) == []

    @staticmethod
    def faulting_programs(count):
        """The first ``count`` small generated programs that end in a loop
        which faults on a later trip."""
        rng = random.Random(3)
        generator = AsmGenerator(GenConfig(min_fragments=1, max_fragments=3))
        found = []
        while len(found) < count:
            program = generator.generate(rng)
            if program.ending != ["brk #0"]:
                found.append(program.source)
        return found

    def test_generated_loops_fault_on_a_later_trip(self):
        """Such a program halts natively and rewritten at one unmapped
        address past the data, after a trip that read or wrote it, and
        every engine leaves the looping body there as stepping does."""
        for source in self.faulting_programs(3):
            elf = assemble_to_elf(source)
            regs, buffer, halt = run_elf_in_slot(elf)
            assert halt[0] == "unmapped"
            assert halt[1] - differential.SLOT.base - \
                differential.DATA_OFFSET >= MAPPED
            assert check_semantics(source) == []
            for level, image in (("native", elf),
                                 ("O2", rewrite_to_elf(source, O2))):
                assert check_engines(image, level) == []

    def test_a_fault_exit_that_skips_a_register_store_is_a_finding(
            self, monkeypatch):
        """A planted generator bug: a looping body's fault exit reloads
        its last GPR local before the ``finally`` stores it, so a fault
        mid-loop loses that register's trips.  Only a loop that faults
        shows it, and a generated one does."""
        real = superblock._function

        def lossy(name, params, body, inner="run()"):
            fill = [line for line in body if re.fullmatch(
                r"r\d+ = regs\[\d+\]", line)]
            if fill and "except BaseException:" in body:
                at = body.index("except BaseException:") + 1
                body = [*body[:at], "    " + fill[-1], *body[at:]]
            return real(name, params, body, inner)

        sources = self.faulting_programs(3)
        flush_translation_caches()
        monkeypatch.setattr(superblock, "_function", lossy)
        try:
            findings = [finding for source in sources
                        for finding in check_engines(assemble_to_elf(source))]
        finally:
            monkeypatch.undo()
            flush_translation_caches()
        assert findings
        assert {finding.detail.split()[0] for finding in findings} == {"cpu"}

    def test_a_body_that_is_not_steppings_twin_is_a_finding(
            self, monkeypatch):
        """A planted emitter bug (an ``add`` that adds one more) shows in
        every run that executes a generated body — at threshold 1 at
        once, at the default once the loop is hot — named by cost
        identity and threshold; the threshold is put back."""
        real = superblock._e_addsub

        def wrong(w, d, n, b, width, sub, form):
            return real(w, d, n, b, width, sub, form) \
                + [f"{w.x(d)} = ({w.x(d)} + 1) & {superblock.M64}"] \
                * (not sub)

        wrong.kind = real.kind
        elf = assemble_to_elf(".text\n.globl _start\n_start:\n"
                              "    mov x9, #20\n"
                              "top:\n"
                              "    add x0, x0, #3\n"
                              "    sub x9, x9, #1\n"
                              "    cbnz x9, top\n"
                              "    brk #0\n")
        flush_translation_caches()
        monkeypatch.setattr(superblock, "_e_addsub", wrong)
        try:
            findings = check_engines(elf, "native")
        finally:
            monkeypatch.undo()
            flush_translation_caches()
        assert superblock._COMPILE_THRESHOLD == 8
        assert [f.line() for f in findings] == [
            f"FINDING engines level=native cpu diverged from stepping "
            f"({'costed' if model else 'uncosted'}, compile threshold "
            f"{threshold or 8})" for model, threshold in ENGINE_RUNS]
        assert check_engines(elf) == []
