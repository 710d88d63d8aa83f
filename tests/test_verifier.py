"""Verifier tests: every class of attack the paper's §5.2 rules must stop.

The attack programs are assembled directly (bypassing the rewriter, as a
malicious toolchain would) and must be rejected with the right reason.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.arm64.decoder import ENCODINGS, decode_word
from repro.core import (
    O0,
    O1,
    O2,
    O2_FENCE,
    O2_MASK,
    VerificationError,
    Verifier,
    VerifierPolicy,
    rewrite_program,
    verify_elf,
    verify_text,
)
from repro.elf import build_elf
from repro.errors import RewriteError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.genasm import AsmGenerator, GenConfig
from repro.toolchain import compile_lfi, compile_native


def verify_src(src, policy=None):
    image = assemble(parse_assembly(src))
    return verify_text(bytes(image.text.data), image.text.base, policy)


def assert_rejected(src, fragment, policy=None):
    result = verify_src(src, policy)
    assert not result.ok, f"expected rejection: {src!r}"
    reasons = " | ".join(v.reason for v in result.violations)
    assert fragment in reasons, f"wanted {fragment!r} in {reasons!r}"


def assert_accepted(src, policy=None):
    result = verify_src(src, policy)
    assert result.ok, "; ".join(str(v) for v in result.violations)


class TestUnsafeAddressing:
    def test_naked_load(self):
        assert_rejected("ldr x0, [x1]", "unguarded base")

    def test_naked_store(self):
        assert_rejected("str x0, [x1, #8]", "unguarded base")

    def test_naked_pair(self):
        assert_rejected("ldp x0, x1, [x2]", "unguarded base")

    def test_register_offset_from_sp(self):
        assert_rejected("ldr x0, [sp, x1]", "register-offset addressing from sp")

    def test_register_offset_from_scratch(self):
        assert_rejected("ldr x0, [x18, x1]", "register-offset addressing")

    def test_writeback_on_scratch(self):
        assert_rejected("ldr x0, [x18], #8", "writeback would modify")

    def test_writeback_on_hoist_register(self):
        assert_rejected("ldr x0, [x23, #8]!", "writeback would modify")

    def test_x21_sxtw_escape(self):
        # sxtw can go negative: addr = x21 + sx(w1) can exit the sandbox.
        assert_rejected("ldr x0, [x21, w1, sxtw]", "unsafe extend")

    def test_x21_shifted_uxtw_escape(self):
        # uxtw #3 reaches 8 * 4GiB past the base.
        assert_rejected("ldr x0, [x21, w1, uxtw #3]", "unsafe extend")

    def test_store_through_table(self):
        assert_rejected("str x0, [x21, #8]", "read-only")

    def test_safe_forms_accepted(self):
        assert_accepted(
            """
            ldr x0, [x21, w1, uxtw]
            str x0, [x21, w2, uxtw]
            ldr x0, [x18]
            ldr x0, [x18, #32]
            str x0, [x23, #8]
            ldr x0, [x24, #-16]
            ldr x0, [sp, #64]
            stp x29, x30, [sp, #-16]!
            ldr x5, [x21, #128]
            """
        )


class TestReservedRegisters:
    def test_write_to_base(self):
        assert_rejected("mov x21, #0", "x21")

    def test_write_to_base_32bit(self):
        assert_rejected("mov w21, #0", "x21")

    def test_arith_on_scratch(self):
        assert_rejected("add x18, x18, #8", "x18 modified")

    def test_hoist_reg_add_wrong_base(self):
        # add x23, x20, w1, uxtw guards against the WRONG base register.
        assert_rejected("add x23, x20, w1, uxtw", "x23 modified")

    def test_guard_with_shift_rejected(self):
        assert_rejected("add x18, x21, w1, uxtw #2", "x18 modified")

    def test_64bit_write_to_x22(self):
        assert_rejected("mov x22, x1", "x22")

    def test_32bit_write_to_x22_allowed(self):
        assert_accepted("mov w22, w1")
        assert_accepted("add w22, w1, #8")

    def test_guards_accepted(self):
        assert_accepted(
            """
            add x18, x21, w1, uxtw
            add x23, x21, w9, uxtw
            add x24, x21, w22, uxtw
            add x30, x21, w30, uxtw
            """
        )

    def test_load_into_scratch(self):
        assert_rejected("ldr x18, [sp]", "reserved register x18")

    def test_load_into_base(self):
        assert_rejected("ldr x21, [sp]", "x21")

    def test_stxr_status_into_reserved(self):
        assert_rejected("stxr w18, x0, [x23]", "reserved register x18")


class TestStackPointer:
    def test_sp_guard_accepted(self):
        assert_accepted("mov w22, wsp\n add sp, x21, x22")

    def test_mov_sp_from_register_rejected(self):
        assert_rejected("mov sp, x0", "unsafe sp modification")

    def test_small_arith_with_access(self):
        assert_accepted("sub sp, sp, #32\n str x0, [sp]")

    def test_small_arith_without_access(self):
        assert_rejected("sub sp, sp, #32\n ret", "without a following sp access")

    def test_small_arith_access_after_branch_rejected(self):
        assert_rejected(
            "sub sp, sp, #32\n b over\nover: str x0, [sp]",
            "without a following sp access",
        )

    def test_large_arith_rejected_even_with_access(self):
        assert_rejected("sub sp, sp, #2048\n str x0, [sp]",
                        "unsafe sp modification")

    def test_sp_add_register_rejected(self):
        assert_rejected("add sp, sp, x1", "unsafe sp modification")

    def test_another_sp_write_interrupts_scan(self):
        src = """
        sub sp, sp, #16
        sub sp, sp, #16
        str x0, [sp]
        """
        # The first sub's scan hits the second sp write before an access.
        result = verify_src(src)
        assert not result.ok


class TestLinkRegister:
    def test_restore_with_guard(self):
        assert_accepted("ldr x30, [sp, #8]\n add x30, x21, w30, uxtw\n ret")

    def test_restore_without_guard(self):
        assert_rejected("ldr x30, [sp, #8]\n ret", "link-register guard")

    def test_mov_with_following_guard(self):
        assert_accepted("mov x30, x9\n add x30, x21, w30, uxtw")

    def test_mov_without_guard(self):
        assert_rejected("mov x30, x9\n ret", "x30 modified")

    def test_adr_into_x30_rejected(self):
        assert_rejected("adr x30, target\ntarget: ret", "x30 modified")

    def test_runtime_call_idiom(self):
        assert_accepted("ldr x30, [x21, #16]\n blr x30")

    def test_table_load_without_blr(self):
        assert_rejected("ldr x30, [x21, #16]\n ret", "link-register guard")

    def test_table_load_then_br_rejected(self):
        # Only blr x30 resets the invariant (§4.4).
        assert_rejected("ldr x30, [x21, #16]\n br x30", "link-register guard")


class TestIndirectBranches:
    def test_br_unguarded(self):
        assert_rejected("br x0", "unguarded register")

    def test_blr_unguarded(self):
        assert_rejected("blr x7", "unguarded register")

    def test_ret_other_register(self):
        assert_rejected("ret x5", "unguarded register")

    def test_br_through_guarded(self):
        assert_accepted("add x18, x21, w0, uxtw\n br x18")
        assert_accepted("ret")
        assert_accepted("add x23, x21, w0, uxtw\n blr x23")


class TestUnsafeInstructions:
    def test_svc(self):
        assert_rejected("svc #0", "safe list")

    def test_hlt(self):
        assert_rejected("hlt #0", "safe list")

    def test_undecodable(self):
        result = verify_text(struct.pack("<I", 0xD51B4200))  # msr
        assert not result.ok
        assert "undecodable" in result.violations[0].reason

    def test_arbitrary_data_rejected(self):
        result = verify_text(b"\xff" * 16)
        assert not result.ok

    def test_misaligned_text(self):
        result = verify_text(b"\x1f\x20\x03\xd5\x00")
        assert not result.ok

    def test_spectre_hardening_rejects_exclusives(self):
        """§7.1: LL/SC can be disallowed by policy to stop timerless
        side-channel attacks."""
        policy = VerifierPolicy(allow_exclusives=False)
        assert_rejected("add x18, x21, w1, uxtw\n ldxr x0, [x18]",
                        "disallowed by policy", policy)
        assert_rejected("add x18, x21, w1, uxtw\n ldar x0, [x18]",
                        "disallowed by policy", policy)

    def test_exclusives_allowed_by_default(self):
        assert_accepted("add x18, x21, w1, uxtw\n ldxr x0, [x18]")


class TestNoLoadsPolicy:
    POLICY = VerifierPolicy(sandbox_loads=False)

    def test_naked_load_allowed(self):
        assert_accepted("ldr x0, [x1]", self.POLICY)

    def test_naked_store_still_rejected(self):
        assert_rejected("str x0, [x1]", "unguarded base", self.POLICY)

    def test_load_into_reserved_still_rejected(self):
        assert_rejected("ldr x18, [x1]", "reserved register", self.POLICY)

    def test_x30_load_still_needs_guard(self):
        assert_rejected("ldr x30, [x1]\n ret", "link-register guard",
                        self.POLICY)


class TestElfVerification:
    def test_verify_elf_all_exec_segments(self):
        src = "_start:\n add x18, x21, w0, uxtw\n ldr x1, [x18]\n ret\n"
        image = assemble(parse_assembly(src))
        result = verify_elf(build_elf(image))
        assert result.ok
        assert result.instructions == 3

    def test_verify_elf_rejects_bad_text(self):
        src = "_start:\n ldr x1, [x0]\n ret\n"
        image = assemble(parse_assembly(src))
        result = verify_elf(build_elf(image))
        assert not result.ok

    def test_raise_if_failed(self):
        src = "_start:\n ldr x1, [x0]\n ret\n"
        image = assemble(parse_assembly(src))
        result = verify_elf(build_elf(image))
        with pytest.raises(VerificationError):
            result.raise_if_failed()

    def test_data_segments_not_verified(self):
        """Only executable segments are checked (hardware W^X covers data)."""
        src = "_start:\n ret\n.data\n .word 0xdeadbeef\n"
        image = assemble(parse_assembly(src))
        result = verify_elf(build_elf(image))
        assert result.ok


class TestVerifierRobustness:
    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_garbage(self, data):
        data = data[: len(data) - len(data) % 4]
        verify_text(data)  # must not raise

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=500, deadline=None)
    def test_single_word_never_crashes(self, word):
        verify_text(struct.pack("<I", word))

    def test_counts(self):
        result = verify_src("nop\n nop\n ret")
        assert result.instructions == 3
        assert result.bytes_verified == 12


# ---------------------------------------------------------------------------
# The rule table (core/rules.py) against the decoded checker
# ---------------------------------------------------------------------------

POLICIES = (VerifierPolicy(), VerifierPolicy(sandbox_loads=False),
            VerifierPolicy(allow_exclusives=False))


def decoded_verdict(verifier, data, base=0):
    """``verify_text`` as it was before the rule table: decode every word,
    run the decoded checker on each.  The reference the table must equal."""
    words = struct.unpack_from(f"<{len(data) // 4}I", data)
    decoded = [decode_word(w, base + 4 * i) for i, w in enumerate(words)]
    violations, instructions = [], 0
    for i, inst in enumerate(decoded):
        if inst is None:
            violations.append((base + 4 * i, words[i],
                               "undecodable instruction", ""))
            continue
        instructions += 1
        violations.extend((base + 4 * i, words[i], reason, str(inst))
                          for reason in verifier._check(inst, decoded, i))
    return violations, instructions, 4 * len(words)


def assert_table_matches(data, base=0, policies=POLICIES):
    for policy in policies:
        verifier = Verifier(policy)
        want, instructions, size = decoded_verdict(verifier, data, base)
        got = verifier.verify_text(data, base)
        assert [(v.address, v.word, v.reason, v.disasm)
                for v in got.violations] == want, policy.label()
        assert got.ok == (not want)
        assert (got.instructions, got.bytes_verified) == (instructions, size)
        assert all(v.mode == policy.label() for v in got.violations)


def generated_texts(seeds=range(8)):
    """Text segments of seeded programs: five LFI builds and a native one."""
    generator = AsmGenerator(GenConfig())
    for seed in seeds:
        source = generator.generate(random.Random(seed)).source
        for options in (O0, O1, O2, O2_FENCE, O2_MASK):
            yield bytes(compile_lfi(source, options=options).image.text.data)
        yield bytes(compile_native(source).image.text.data)


class TestRuleTable:
    def test_corpus(self):
        for entry in load_corpus():
            if entry.kind == "machine":
                texts = [bytes.fromhex(entry.text_hex)]
            else:
                texts = [bytes(compile_native(entry.source).image.text.data)]
                try:
                    lfi = compile_lfi(entry.source)
                    texts.append(bytes(lfi.image.text.data))
                except RewriteError:
                    pass    # the entry pins a rewriter rejection
            for text in texts:
                assert_table_matches(text, 0x40000)

    def test_examples(self, example_traffic):
        _sources, texts = example_traffic
        for data, base, policy in set(texts):
            assert_table_matches(data, base, POLICIES + (policy,))

    def test_generated_programs(self):
        for text in generated_texts():
            assert_table_matches(text, 0x40000)

    def test_mutated_words(self):
        """200 k one- and two-bit flips of accepted words, each judged in
        the context of its unmutated neighbours."""
        rng = random.Random(17)
        words = [w for text in generated_texts(range(3))
                 for w in struct.unpack_from(f"<{len(text) // 4}I", text)]
        for round_ in range(200_000 // 32):
            start = rng.randrange(len(words) - 48)
            window = words[start:start + 48]
            for slot in rng.sample(range(48), 32):
                window[slot] ^= 1 << rng.randrange(32)
                if rng.random() < 0.5:
                    window[slot] ^= 1 << rng.randrange(32)
            assert_table_matches(struct.pack("<48I", *window), 0,
                                 (POLICIES[round_ % 3],))

    def test_every_row_sampled(self):
        """Random words inside each encoding row, reserved registers and
        guard words mixed in: the table never accepts what the decoder
        cannot decode, and agrees with the checker on the rest."""
        rng = random.Random(29)
        specials = (31, 30, 25, 24, 23, 22, 21, 18, 0)
        tails = (0x8B3E42BE, 0x8B3662BF, 0x110003F6, 0xF90003E0, 0xF903EBE0,
                 0xD63F03C0, 0x8B2342B2, 0xD503201F, 0x14000001, 0x910043FF)
        for _ in range(1500):
            words = []
            for _ in range(16):
                _name, mask, match, _fields = rng.choice(ENCODINGS)
                word = rng.getrandbits(32) & ~mask | match
                if rng.random() < 0.5:
                    word = word & ~0x3FF | rng.choice(specials) \
                        | rng.choice(specials) << 5
                if rng.random() < 0.1:
                    word ^= 1 << rng.randrange(32)
                words.append(rng.choice(tails) if rng.random() < 0.3
                             else word)
            assert_table_matches(struct.pack("<16I", *words))

    def test_logical_immediates_exhaustively(self):
        """All 2 x 8192 (sf, N:immr:imms) bitmask fields, computed by the
        rule and decoded by ``decode_bitmask``: the same ones exist."""
        verifier = Verifier()
        words = [sf << 31 | 0x12000000 | field << 10 | 2 << 5 | 1
                 for sf in (0, 1) for field in range(1 << 13)]
        for word, code in zip(words, verifier.classify(words)):
            assert bool(code) == (decode_word(word) is not None), hex(word)

    def test_prover_class_shapes(self):
        """Every shape of every default prover class: what the table
        accepts, alone or ahead of a context, the checker accepts there."""
        from repro.core.rules import NEEDS, OK
        from repro.prove import CONTEXTS, context_words, default_classes

        tails = [context_words(name) for name in CONTEXTS]
        for policy in POLICIES[:2]:
            verifier = Verifier(policy)
            for cls in default_classes():
                shapes = list(cls.shapes())
                for shape, code in zip(shapes, verifier.classify(shapes)):
                    for tail in tails if code & NEEDS else tails[:code & OK]:
                        words = [shape] + tail
                        if verifier.accepts(words, 0):
                            stream = [decode_word(w) for w in words]
                            assert stream[0] is not None and not \
                                verifier.check_instruction(
                                    stream[0], stream, 0), hex(shape)
                            break

    def test_unexplained_rejection_fails_closed(self, monkeypatch):
        """A word the table rejects stays rejected even when the decoded
        checker finds nothing to say about it."""
        monkeypatch.setattr(Verifier, "_check", lambda *args: iter(()))
        result = verify_src("ldr x0, [x1]")
        assert not result.ok
        assert [v.reason for v in result.violations] == [
            "rejected by the rule table"]

    def test_guard_constants_match_the_encoder(self):
        from repro.arm64.encoder import encode_instruction
        from repro.core import guards, rules

        assert encode_instruction(guards.x30_guard()) \
            & rules._GUARD_MASK | 30 == rules._GUARD | 30
        assert encode_instruction(guards.sp_guard_pair()[1]) \
            == rules._SP_GUARD
        (bic,) = parse_assembly("bic w18, wzr, w25").instructions()
        assert encode_instruction(bic) & 0xFFFFFC1F == rules._BIC_W18
        (blr,) = parse_assembly("blr x30").instructions()
        assert encode_instruction(blr) == rules._BLR_X30

    def test_sp_window_scan_is_linear(self):
        """An sp adjustment every 8 instructions: 64 k instructions take
        at most 12x the time of 8 k (a quadratic scan would take 64x)."""
        import time

        unit = parse_assembly("sub sp, sp, #16\n str x0, [sp]\n"
                              + " mov x1, x2\n" * 6)
        block = bytes(assemble(unit).text.data)
        # The reject path walks the decoded checker's window too.
        bad = bytes(assemble(parse_assembly("sub sp, sp, #16\n"
                                            + " mov x1, x2\n" * 7)).text.data)

        def best(data):
            times = []
            for _ in range(4):
                t0 = time.perf_counter()
                verify_text(data)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert verify_text(block * 8).ok and not verify_text(bad * 8).ok
        assert best(block * 8192) <= 12 * best(block * 1024)
        assert best(bad * 2048) <= 12 * best(bad * 256)
