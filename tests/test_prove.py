"""Tier-1 tests for the ``repro.prove`` verifier-soundness prover.

Three acceptance criteria from ISSUE 7:

* a small class (``branch-reg``) is proven exhaustively with a known
  acceptance count and zero counterexamples;
* a deliberately weakened verifier (the PR-2 writeback hole restored)
  makes the prover produce counterexamples — the proof is not vacuous;
* a counterexample round-trips through the ddmin bridge into a corpus
  entry that the real (fixed) verifier rejects on replay.

Plus unit coverage for the symbolic-word machinery the driver rides on.
"""

from __future__ import annotations

import pytest

from repro.core.verifier import Verifier, VerifierPolicy
from repro.prove import (
    CONTEXTS,
    Counterexample,
    Field,
    InstructionClass,
    NeedSplit,
    SymInt,
    SymWord,
    WeakenedVerifier,
    analyze_word,
    class_by_name,
    context_words,
    counterexample_entry,
    default_classes,
    nightly_classes,
    probe_word,
    prove_class,
    render_reports,
    violating,
)

#: ldr x0, [x21], #8 — the word behind the PR-2 store-only hole.
WRITEBACK_X21 = 0xF84086A0

#: A small ldst-post slice: full imm9 symbolically, registers narrowed to
#: the interesting ones (reserved bases, sp, work regs).  48 shapes.
LDST_POST_SLICE = InstructionClass(
    name="ldst-post-slice",
    description="ldst-post with registers narrowed to the boundary cases",
    template=0x38000400,
    fields=(
        Field("size", 30, 2, values=(3,)),
        Field("v", 26, 1, values=(0,)),
        Field("opc", 22, 2, values=(0, 1)),
        Field("imm9", 12, 9),
        Field("rn", 5, 5, values=(0, 5, 18, 21, 28, 31)),
        Field("rt", 0, 5, values=(0, 22, 30, 31)),
    ),
    sym="imm9",
)


def in_space(cls, word):
    """Is ``word`` inside the class space (template + field values)?"""
    free = 0
    for f in cls.fields:
        free |= f.mask
        if (word & f.mask) >> f.lo not in f.domain():
            return False
    return (word & ~free & 0xFFFFFFFF) == cls.template


class TestEnumeration:
    def test_registry_names_unique(self):
        names = [c.name for c in default_classes() + nightly_classes()]
        assert len(names) == len(set(names))

    def test_class_spaces_disjoint(self):
        # Template signature bits (outside any field) must differ pairwise,
        # or one field's bits must take disjoint values in the two classes.
        def values_at(cls, fld):
            """What ``cls`` allows on ``fld``'s bits, None if unknown."""
            for f in cls.fields:
                if (f.lo, f.width) == (fld.lo, fld.width):
                    return set(f.domain())
            if any(f.mask & fld.mask for f in cls.fields):
                return None
            return {(cls.template & fld.mask) >> fld.lo}

        classes = default_classes() + nightly_classes()
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                free_a = sum(f.mask for f in a.fields)
                free_b = sum(f.mask for f in b.fields)
                common = ~(free_a | free_b) & 0xFFFFFFFF
                if (a.template ^ b.template) & common:
                    continue
                assert any(
                    values_at(other, f) is not None
                    and not set(f.domain()) & values_at(other, f)
                    for one, other in ((a, b), (b, a))
                    for f in one.fields), (a.name, b.name)

    def test_contains_matches_enumeration(self):
        cls = class_by_name("branch-reg")
        words = set(cls.words())
        assert len(words) == cls.space()
        assert all(in_space(cls, w) for w in words)
        assert not in_space(cls, 0)

    def test_slice_is_inside_the_full_class(self):
        full = class_by_name("ldst-post")
        for word in (0x38000400 | (3 << 30) | (8 << 12) | (21 << 5),
                     WRITEBACK_X21):
            assert in_space(full, word)
            assert word in set(LDST_POST_SLICE.words())

    def test_unknown_class_name(self):
        with pytest.raises(KeyError):
            class_by_name("no-such-class")


class TestSymbolicWord:
    def test_field_extraction_is_symbolic(self):
        w = SymWord(0x38000400, 12, 9, SymInt(1, 0, 0, 511))
        r = (w >> 12) & 0x1FF
        assert isinstance(r, SymInt)
        assert (r.a, r.b, r.flo, r.fhi) == (1, 0, 0, 511)

    def test_bits_outside_field_are_concrete(self):
        w = SymWord(0x38000400, 12, 9, SymInt(1, 0, 0, 511))
        assert (w >> 22) & 0x3FF == 0xE0
        assert (w >> 0) & 0xFFF == 0x400

    def test_mid_field_shift_block_constant(self):
        # imm9 in [256, 259]: bits 19.. are the same for the whole
        # interval, so a shift landing mid-field stays concrete.
        w = SymWord(0x38000400, 12, 9, SymInt(1, 0, 256, 259))
        assert (w >> 19) & 0x3 == 0x2 & 0x3

    def test_mid_field_shift_splits_at_block_boundary(self):
        w = SymWord(0x38000400, 12, 9, SymInt(1, 0, 0, 511))
        with pytest.raises(NeedSplit) as exc:
            _ = w >> 19
        assert any(0 < p <= 511 for p in exc.value.points)

    def test_symint_comparison_splits(self):
        s = SymInt(1, 0, 0, 511)
        with pytest.raises(NeedSplit):
            bool(s < 256)
        assert bool(SymInt(1, 0, 0, 255) < 256)


class TestBranchRegExhaustive:
    """The whole branch-register space, word by word, both policies."""

    @pytest.mark.parametrize("policy", [VerifierPolicy(),
                                        VerifierPolicy(sandbox_loads=False)],
                             ids=["sandbox", "store-only"])
    def test_exactly_the_guarded_targets_accepted(self, policy):
        report = prove_class(class_by_name("branch-reg"), policy=policy)
        assert report.ok
        assert report.checked == 512
        # br/blr/ret through each of x18/x23/x24/x30: 3 * 4 words.
        assert report.accepted == 12
        assert report.accepted_by_context == {"solo": 12}
        assert report.counterexample_words == 0

    def test_accepted_words_are_the_expected_ones(self):
        verifier = Verifier(VerifierPolicy())
        accepted = [w for w in class_by_name("branch-reg").words()
                    if analyze_word(w, verifier).accepted]
        regs = {(w >> 5) & 0x1F for w in accepted}
        assert regs == {18, 23, 24, 30}


class TestMaskedGuard:
    """``bic w18, wN, w25`` ahead of the x18 guard (DESIGN.md §16) is the
    one way a logical op may write x18 — proved, not just tolerated."""

    #: logical-reg-bic18 narrowed to the registers and amounts that matter.
    SLICE = InstructionClass(
        name="logical-reg-bic18-slice",
        description="logical-reg-bic18 around the poison register",
        template=0x0A000012,
        fields=(
            Field("sf", 31, 1),
            Field("opc", 29, 2),
            Field("shift", 22, 2),
            Field("N", 21, 1),
            Field("rm", 16, 5, values=(24, 25, 26, 31)),
            Field("imm6", 10, 6, values=(0, 1)),
            Field("rn", 5, 5, values=(0, 18, 25, 31)),
        ),
    )

    @pytest.mark.parametrize("policy", [VerifierPolicy(),
                                        VerifierPolicy(sandbox_loads=False)],
                             ids=["sandbox", "store-only"])
    def test_only_the_masked_guard_is_accepted(self, policy):
        report = prove_class(self.SLICE, policy=policy, probe=4)
        assert report.ok, "\n".join(report.lines())
        assert report.checked == self.SLICE.space()
        # bic w18, wN, w25 for N in {0, 18, 25}; wzr is not a GPR source.
        assert report.accepted == 3
        assert report.accepted_by_context == {"x18-guard": 3}

    def test_the_full_class_is_registered_and_contains_the_guard(self):
        cls = class_by_name("logical-reg-bic18")
        assert cls in nightly_classes()
        assert in_space(cls, 0x0A390072)         # bic w18, w3, w25
        assert 0x0A390012 in set(self.SLICE.words())
        assert not in_space(class_by_name("logical-reg0"), 0x0A390072)

    def test_guard_must_follow_immediately(self):
        bic, guard, nop = 0x0A390072, 0x8B3242B2, 0xD503201F
        verifier = Verifier()
        assert verifier.accepts([bic, guard])
        assert not verifier.accepts([bic, nop, guard], 0)
        assert not verifier.accepts([bic], 0)
        verdict = analyze_word(bic, verifier)
        assert verdict.contexts == ("x18-guard",)
        assert not verdict.violations and not verdict.disagreements


class TestTableCoverage:
    """Which rows of the decoder/verifier table the prover reaches."""

    #: Encoding groups no prover class reaches.  May only shrink: a new
    #: class removes its group here, a new group must come with a class.
    UNCOVERED = {
        "system", "adr", "logical_imm", "bitfield", "extr",
        "addsub_shifted", "dp2", "dp1", "dp3", "condsel", "ccmp",
        "fp_imm", "fp1", "fp", "simd3", "movi", "dup",
    }

    def test_uncovered_groups_only_shrink(self):
        from repro.prove import row_coverage

        uncovered = {name for name, _mask, _match, classes
                     in row_coverage() if not classes}
        assert uncovered <= self.UNCOVERED
        covered = {name for name, _mask, _match, classes
                   in row_coverage() if classes}
        assert not covered & uncovered      # a group is reached row by row

    def test_every_class_template_lies_in_exactly_one_row(self):
        from repro.arm64.decoder import ENCODINGS

        for cls in default_classes() + nightly_classes():
            rows = [name for name, mask, match, _fields in ENCODINGS
                    if cls.template & mask == match]
            assert len(rows) == 1, (cls.name, rows)


class TestTableAgreement:
    def test_sp_write_ahead_of_the_sp_guard(self):
        # add sp, x21, w3, uxtw: accepted only because the sp guard
        # follows, and its destination has no x-register index for the
        # guard matcher to look up.
        verdict = analyze_word(0x8B2342BF, Verifier())
        assert verdict.contexts == ("sp-guard", "x30-guard+sp-guard")
        assert not verdict.violations and not verdict.disagreements

    def test_disagreement_fails_the_report(self, monkeypatch):
        """If the decoded checker stopped faulting what the table rejects,
        the proof run says so instead of passing."""
        monkeypatch.setattr(Verifier, "check_instruction",
                            lambda self, inst, stream=None, index=0: [])
        report = prove_class(class_by_name("branch-reg"))
        assert not report.ok
        assert any("disagree" in m for m in report.mismatches)


class TestSliceProof:
    @pytest.mark.parametrize("policy", [VerifierPolicy(),
                                        VerifierPolicy(sandbox_loads=False)],
                             ids=["sandbox", "store-only"])
    def test_slice_proves_clean(self, policy):
        report = prove_class(LDST_POST_SLICE, policy=policy,
                             cross_check=4, probe=4)
        assert report.ok, "\n".join(report.lines())
        assert report.checked == LDST_POST_SLICE.space()
        assert report.mismatches == []
        assert report.probe_issues == []
        assert report.accepted > 0


class TestNonVacuity:
    """A weakened verifier must make the prover scream (ISSUE 7)."""

    def test_restored_writeback_hole_is_found(self):
        policy = VerifierPolicy(sandbox_loads=False)
        report = prove_class(LDST_POST_SLICE, policy=policy,
                             verifier=WeakenedVerifier(policy))
        assert not report.ok
        assert report.counterexample_words > 0
        # The writeback word itself must be covered by a recorded record: its
        # shape (the word with the symbolic field cleared) and an interval
        # holding its field value.
        sym = LDST_POST_SLICE.sym_field
        value = (WRITEBACK_X21 & sym.mask) >> sym.lo
        assert any(cx.shape == WRITEBACK_X21 & ~sym.mask
                   and cx.flo <= value <= cx.fhi
                   for cx in report.counterexamples)

    def test_fixed_verifier_rejects_the_same_word(self):
        policy = VerifierPolicy(sandbox_loads=False)
        verdict = analyze_word(WRITEBACK_X21, Verifier(policy))
        assert verdict.decoded and not verdict.accepted

    def test_violating_predicate_matches(self):
        policy = VerifierPolicy(sandbox_loads=False)
        assert not violating([WRITEBACK_X21], policy)
        assert violating([WRITEBACK_X21], policy,
                         verifier=WeakenedVerifier(policy))


class TestCounterexampleBridge:
    def test_entry_from_known_word(self):
        from repro.fuzz import entry_from_words

        entry = entry_from_words("t", [WRITEBACK_X21],
                                 policy=VerifierPolicy(sandbox_loads=False))
        assert entry.text_hex == "a08640f8000020d4"
        assert entry.policy == {"sandbox_loads": False}

    def test_round_trip_to_corpus_and_replay(self):
        from repro.fuzz.corpus import replay_entry

        policy = VerifierPolicy(sandbox_loads=False)
        report = prove_class(LDST_POST_SLICE, policy=policy,
                             verifier=WeakenedVerifier(policy))
        assert report.counterexamples
        cx = report.counterexamples[0]
        entry = counterexample_entry(cx, policy)
        assert entry.kind == "machine" and entry.expect == "reject"
        assert "prove" in entry.description
        # The fixed verifier rejects the entry, so replay is silent.
        assert replay_entry(entry) == []

    def test_shrinking_drops_unneeded_context(self):
        policy = VerifierPolicy(sandbox_loads=False)
        cx = Counterexample(
            klass="ldst-post", policy="store-only",
            context="x30-guard", word=WRITEBACK_X21, reason="r")
        # Build against the weakened verifier: violating() with the real
        # one would refuse every candidate, so shrinking keeps all words.
        from repro.fuzz.shrink import shrink_words
        from repro.prove import violating as _violating

        weak = WeakenedVerifier(policy)
        words = [WRITEBACK_X21] + context_words("x30-guard")
        shrunk = shrink_words(
            words, lambda ws: _violating(ws, policy, verifier=weak))
        assert shrunk == [WRITEBACK_X21]


class TestContexts:
    def test_context_words_encode_round_trip(self):
        from repro.arm64.decoder import decode_word

        for name in CONTEXTS:
            for word in context_words(name):
                assert decode_word(word) is not None

    def test_unknown_context(self):
        with pytest.raises(KeyError):
            context_words("no-such-context")


class TestProbe:
    def test_probe_accepted_word_is_silent(self):
        # str x0, [x21-guarded base]: accepted and well-behaved.
        for seed in range(3):
            assert probe_word(0xF9000240, seed=seed) == []  # str x0, [x18]

    def test_probe_undecodable_word_is_silent(self):
        assert probe_word(0xFFFFFFFF) == []


class TestReportRendering:
    def test_render_is_deterministic(self):
        r1 = prove_class(class_by_name("branch-reg"))
        r2 = prove_class(class_by_name("branch-reg"))
        assert render_reports([r1]) == render_reports([r2])
        assert r1.to_dict() == r2.to_dict()

    def test_report_json_shape(self):
        rep = prove_class(class_by_name("branch-reg"))
        d = rep.to_dict()
        assert d["ok"] is True
        assert d["class"] == "branch-reg"
        assert d["accepted"] == 12

    def test_truncated_report_is_marked(self):
        rep = prove_class(class_by_name("ldst-post"), limit=4)
        assert rep.truncated
        assert "TRUNCATED" in rep.lines()[0]


class TestCli:
    def test_prove_smoke(self, capsys):
        from repro.tools.cli import main

        assert main(["prove", "--class", "branch-reg",
                     "--policy", "sandbox"]) == 0
        out = capsys.readouterr().out
        assert "OK branch-reg [sandbox]" in out
        assert "proved 1/1" in out

    def test_prove_unknown_class_is_a_tool_error(self, capsys):
        from repro.tools.cli import main

        assert main(["prove", "--class", "bogus-name"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro.tools: error:")
        assert "bogus-name" in err

    def test_prove_list(self, capsys):
        from repro.tools.cli import main

        assert main(["prove", "--list"]) == 0
        out = capsys.readouterr().out
        assert "branch-reg" in out and "nightly" in out
        # ... and, row by row, what the prover reaches and what it does not.
        assert "ldst_imm9" in out and "ldst-post, ldst-pre" in out
        assert "-- no class" in out
