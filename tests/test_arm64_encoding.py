"""Encoder/decoder tests, including Hypothesis round-trip properties.

Two directions are checked:

* instruction -> word -> instruction -> word must reproduce the word
  (semantic fidelity of the decoder), and
* for arbitrary 32-bit words, if the decoder accepts a word, re-encoding the
  decoded instruction must reproduce the word exactly (the decoder never
  "normalizes" machine code — vital for a verifier).
"""

import hashlib
import inspect
import json
import random
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import decoder, encoder, parse_assembly
from repro.arm64.assembler import assemble
from repro.arm64.decoder import (
    ROWS, decode_bitmask, decode_fp8, decode_word, row_fields)
from repro.arm64.encoder import (
    _pack, encode_bitmask, encode_fp8, encode_instruction, reencode_word)
from repro.core.options import O0, O1, O2, O2_FENCE, O2_MASK, O2_NO_LOADS
from repro.core.rewriter import rewrite_program
from repro.errors import EncodeError, ReproError
from repro.fuzz.genasm import AsmGenerator, GenConfig
from repro.runtime.table import RuntimeCall
from repro.workloads import benchmark_names, build_benchmark
from repro.workloads.rtlib import (
    batch_block, busy_program, prologue, rt_exit, rtcall)
from repro.workloads.spectre import ATTACKS, attack_source


def encode_text(text, pc=0, symbols=None):
    program = parse_assembly(text)
    insts = list(program.instructions())
    assert len(insts) == 1
    return encode_instruction(insts[0], pc=pc, symbols=symbols or {})


def roundtrip(text, pc=0, symbols=None):
    word = encode_text(text, pc, symbols)
    inst = decode_word(word, pc)
    assert inst is not None, f"decoder rejected {text!r} ({word:#010x})"
    word2 = encode_instruction(inst, pc=pc, symbols=symbols or {})
    assert word2 == word, f"{text}: {word:#010x} != {word2:#010x} via {inst}"
    return inst


class TestKnownEncodings:
    """Golden encodings cross-checked against the ARM ARM / GNU as."""

    def test_nop(self):
        assert encode_text("nop") == 0xD503201F

    def test_ret(self):
        assert encode_text("ret") == 0xD65F03C0

    def test_add_imm(self):
        # add x0, x1, #4 => 0x91001020
        assert encode_text("add x0, x1, #4") == 0x91001020

    def test_add_extended_guard(self):
        # The LFI guard: add x18, x21, w1, uxtw => 0x8B214AB2
        assert encode_text("add x18, x21, w1, uxtw") == 0x8B2142B2

    def test_ldr_unsigned(self):
        # ldr x0, [x1, #16] => 0xF9400820
        assert encode_text("ldr x0, [x1, #16]") == 0xF9400820

    def test_ldr_guard_form(self):
        # ldr x0, [x21, w1, uxtw] => register offset, option=010, S=0
        word = encode_text("ldr x0, [x21, w1, uxtw]")
        assert word == 0xF8614AA0

    def test_str_pre_index(self):
        # str x0, [sp, #-16]! => 0xF81F0FE0
        assert encode_text("str x0, [sp, #-16]!") == 0xF81F0FE0

    def test_stp_pre_index(self):
        # stp x29, x30, [sp, #-32]! => 0xA9BE7BFD
        assert encode_text("stp x29, x30, [sp, #-32]!") == 0xA9BE7BFD

    def test_movz_shift(self):
        # movz x9, #0x1234, lsl #16 => 0xD2A24689
        assert encode_text("movz x9, #0x1234, lsl #16") == 0xD2A24689

    def test_svc(self):
        assert encode_text("svc #0") == 0xD4000001

    def test_b_forward(self):
        # b .+8 => 0x14000002
        assert encode_text("b target", pc=0, symbols={"target": 8}) == 0x14000002

    def test_bl_backward(self):
        assert (
            encode_text("bl target", pc=16, symbols={"target": 0}) == 0x97FFFFFC
        )

    def test_cbz(self):
        word = encode_text("cbz x0, target", pc=0, symbols={"target": 64})
        assert word == 0xB4000200

    def test_mov_reg(self):
        # mov x0, x1 == orr x0, xzr, x1 => 0xAA0103E0
        assert encode_text("mov x0, x1") == 0xAA0103E0

    def test_mov_sp(self):
        # mov x29, sp == add x29, sp, #0 => 0x910003FD
        assert encode_text("mov x29, sp") == 0x910003FD

    def test_cmp_alias(self):
        # cmp x0, #0 == subs xzr, x0, #0 => 0xF100001F
        assert encode_text("cmp x0, #0") == 0xF100001F

    def test_lsl_alias(self):
        # lsl x0, x1, #3 == ubfm x0, x1, #61, #60 => 0xD37DF020
        assert encode_text("lsl x0, x1, #3") == 0xD37DF020

    def test_and_bitmask(self):
        # and x0, x1, #0xff => 0x92401C20
        assert encode_text("and x0, x1, #0xff") == 0x92401C20


class TestAliasCanonicalization:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("cmp x1, x2", "subs xzr, x1, x2"),
            ("cmn w1, #3", "adds wzr, w1, #3"),
            ("tst x3, x4", "ands xzr, x3, x4"),
            ("neg x0, x5", "sub x0, xzr, x5"),
            ("mvn w2, w3", "orn w2, wzr, w3"),
            ("mul x0, x1, x2", "madd x0, x1, x2, xzr"),
            ("mneg x0, x1, x2", "msub x0, x1, x2, xzr"),
            ("cset x0, eq", "csinc x0, xzr, xzr, ne"),
            ("csetm w0, lt", "csinv w0, wzr, wzr, ge"),
            ("cinc x1, x2, gt", "csinc x1, x2, x2, le"),
            ("lsr w0, w1, #5", "ubfm w0, w1, #5, #31"),
            ("asr x0, x1, #7", "sbfm x0, x1, #7, #63"),
            ("sxtw x0, w1", "sbfm x0, x1, #0, #31"),
            ("ubfx x0, x1, #8, #4", "ubfm x0, x1, #8, #11"),
        ],
    )
    def test_same_word(self, alias, canonical):
        assert encode_text(alias) == encode_text(canonical)


class TestInstructionRoundTrip:
    CASES = [
        "add x0, x1, x2",
        "adds w3, w4, w5",
        "sub x6, x7, x8, lsl #12",
        "add x18, x21, w1, uxtw",
        "add sp, x21, x22",
        "and x0, x1, #0xff00ff00ff00ff00",
        "orr w2, w3, #0x7fffffff",
        "eor x4, x5, x6, lsr #3",
        "bic x7, x8, x9",
        "movz x9, #0x1234, lsl #32",
        "movn w1, #77",
        "movk x2, #0xdead, lsl #48",
        "ubfm x0, x1, #3, #20",
        "sbfm w0, w1, #2, #17",
        "ror x0, x1, #13",
        "madd x0, x1, x2, x3",
        "msub w4, w5, w6, w7",
        "smull x0, w1, w2",
        "umulh x3, x4, x5",
        "sdiv x6, x7, x8",
        "udiv w9, w10, w11",
        "clz x0, x1",
        "rbit w2, w3",
        "rev x4, x5",
        "csel x0, x1, x2, ne",
        "csinc w3, w4, w5, lt",
        "csinv x6, x7, x8, cs",
        "csneg x9, x10, x11, vc",
        "ccmp x0, #12, #4, eq",
        "ccmn w1, w2, #0, gt",
        "ldr x0, [x1]",
        "ldr x0, [x1, #2048]",
        "ldr w2, [x3, #-9]",
        "ldur x4, [x5, #-17]",
        "str x6, [x7, #8]!",
        "str w8, [x9], #-4",
        "ldr x0, [x21, w1, uxtw]",
        "ldr x0, [x1, x2, lsl #3]",
        "str w3, [x4, w5, sxtw #2]",
        "ldr x6, [x7, x8]",
        "ldrb w0, [x1, #3]",
        "strh w2, [x3, #6]",
        "ldrsb x4, [x5]",
        "ldrsh w6, [x7, #2]",
        "ldrsw x8, [x9, #4]",
        "ldp x0, x1, [sp, #16]",
        "stp x29, x30, [sp, #-32]!",
        "ldp w2, w3, [x4], #8",
        "stp d8, d9, [sp, #48]",
        "ldxr x0, [x1]",
        "stxr w2, x3, [x4]",
        "ldaxr w5, [x6]",
        "stlxr w7, w8, [x9]",
        "ldar x10, [x11]",
        "stlr w12, [x13]",
        "ldr d0, [x1, #8]",
        "str q2, [x3, #64]",
        "ldr s4, [x5, x6]",
        "br x3",
        "blr x30",
        "ret",
        "ret x1",
        "nop",
        "brk #7",
        "dmb ish",
        "isb sy",
        "fadd d0, d1, d2",
        "fsub s3, s4, s5",
        "fmul d6, d7, d8",
        "fdiv s9, s10, s11",
        "fneg d12, d13",
        "fabs s14, s15",
        "fsqrt d16, d17",
        "fmadd d0, d1, d2, d3",
        "fmsub s4, s5, s6, s7",
        "fcmp d0, d1",
        "fcmpe s2, s3",
        "fcsel d4, d5, d6, ne",
        "fmov d0, d1",
        "fmov x0, d1",
        "fmov d2, x3",
        "fmov s4, w5",
        "fmov d6, #1.0",
        "fmov s7, #-0.5",
        "scvtf d0, x1",
        "ucvtf s2, w3",
        "fcvtzs x4, d5",
        "fcvtzu w6, s7",
        "fcvt d0, s1",
        "fcvt s2, d3",
        "add v0.4s, v1.4s, v2.4s",
        "sub v3.2d, v4.2d, v5.2d",
        "mul v6.8h, v7.8h, v8.8h",
        "and v0.16b, v1.16b, v2.16b",
        "eor v3.8b, v4.8b, v5.8b",
        "orr v6.16b, v7.16b, v8.16b",
        "fadd v0.4s, v1.4s, v2.4s",
        "fsub v3.2d, v4.2d, v5.2d",
        "fmul v6.2s, v7.2s, v8.2s",
        "movi v0.16b, #42",
        "movi v1.2d, #0",
        "dup v2.4s, w3",
        "dup v4.2d, x5",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        roundtrip(text)

    BRANCHES = [
        ("b target", 0x1000, {"target": 0x2000}),
        ("bl target", 0x1000, {"target": 0x400}),
        ("b.eq target", 0x1000, {"target": 0x1004}),
        ("b.hi target", 0x1000, {"target": 0xF00}),
        ("cbz x0, target", 0x1000, {"target": 0x1100}),
        ("cbnz w1, target", 0x1000, {"target": 0xFF0}),
        ("tbz x2, #33, target", 0x1000, {"target": 0x1010}),
        ("tbnz w3, #5, target", 0x1000, {"target": 0x1020}),
        ("adr x0, target", 0x1000, {"target": 0x1234}),
        ("adrp x1, target", 0x1000, {"target": 0x40000}),
    ]

    @pytest.mark.parametrize("text,pc,symbols", BRANCHES)
    def test_branch_roundtrip(self, text, pc, symbols):
        roundtrip(text, pc=pc, symbols=symbols)


class TestEncodeErrors:
    def test_unencodable_bitmask(self):
        with pytest.raises(EncodeError):
            encode_text("and x0, x1, #0x12345")

    def test_offset_too_large(self):
        with pytest.raises(EncodeError):
            encode_text("ldr x0, [x1, #100000]")

    def test_branch_out_of_range(self):
        with pytest.raises(EncodeError):
            encode_text("b.eq target", pc=0, symbols={"target": 1 << 26})

    @pytest.mark.parametrize("text", [
        "b target", "b.eq target", "cbz x0, target", "cbnz x0, target",
        "tbz x0, #3, target", "tbnz x0, #3, target"])
    def test_misaligned_branch(self, text):
        with pytest.raises(EncodeError, match="misaligned"):
            encode_text(text, pc=0x1000, symbols={"target": 0x1002})

    def test_bad_memory_shift(self):
        with pytest.raises(EncodeError):
            encode_text("ldr x0, [x1, x2, lsl #2]")  # must be 0 or 3

    def test_undefined_symbol(self):
        with pytest.raises(EncodeError):
            encode_text("b nowhere")

    def test_mov_unencodable(self):
        with pytest.raises(EncodeError):
            encode_text("mov x0, #0x123456789")

    @pytest.mark.parametrize("text", [
        # An out-of-range shift or bit number was taken modulo the width.
        "lsl x0, x1, #64", "lsr w0, w1, #33", "ror w0, w1, #32",
        "mov w0, #0x100000000", "tbz w0, #40, L", "fcmp s0, #1.0",
        # ands (the flag-setting one) cannot write sp: this was a tst.
        "ands sp, x0, #1",
        # An operand of the wrong width was read as the right one.
        "csel w0, x1, x2, eq", "mul w0, x1, x2", "ldp x0, w1, [x2]",
        "fadd s0, d1, d2", "fadd s0, v1.4s, v2.4s", "add v0.4s, v1.4s, v2.2s",
        # A field too wide for its bits spilled into its neighbour.
        "ubfx x0, x1, #60, #8", "ubfm x0, x1, #64, #3", "bfi x0, x1, #0, #65",
        "sbfx w0, w1, #0, #0", "ccmp x0, x1, #16, eq",
    ])
    def test_no_silent_meaning_change(self, text):
        with pytest.raises(EncodeError):
            encode_text(text, symbols={"L": 0x40})

    @pytest.mark.parametrize("text", [
        "add w0, w1, w2, lsl #32", "sub x0, x1, w2, uxtw #5", "fmov w0, d1",
        "b.al L"])
    def test_no_word_the_decoder_rejects(self, text):
        with pytest.raises(EncodeError):
            encode_text(text, symbols={"L": 0x40})

    @pytest.mark.parametrize("text", [
        "ret x31", "br L", "csel x0, x1, x2, #1", "dmb #5"])
    def test_operand_of_the_wrong_kind(self, text):
        with pytest.raises(EncodeError):
            encode_text(text, symbols={"L": 0x40})

    @pytest.mark.parametrize("text", [
        "mov w0, #-1", "and w0, w1, #-2", "tbz w0, #31, L", "fcmp d0, #0.0",
        "ands xzr, x0, #1", "and sp, x0, #1", "ubfx x0, x1, #60, #4",
        "bfi w0, w1, #31, #1", "ccmp x0, #31, #15, al", "lsl x0, x1, #63"])
    def test_edges_that_do_encode(self, text):
        roundtrip(text, symbols={"L": 0x40})


class TestBitmaskImmediates:
    @pytest.mark.parametrize(
        "value,width",
        [
            (0xFF, 64),
            (0xFF00, 64),
            (0x5555555555555555, 64),
            (0x3F3F3F3F3F3F3F3F, 64),
            (0xFFFF0000FFFF0000, 64),
            (0x7FFFFFFF, 32),
            (0x80000001, 32),
            (0xE0000000, 32),
            (1, 64),
            ((1 << 63), 64),
        ],
    )
    def test_encode_decode(self, value, width):
        fields = encode_bitmask(value, width)
        assert fields is not None
        n, immr, imms = fields
        assert decode_bitmask(n, immr, imms, width) == value

    @pytest.mark.parametrize("value,width", [(0, 64), (2**64 - 1, 64),
                                             (0, 32), (2**32 - 1, 32),
                                             (0x12345, 64)])
    def test_not_encodable(self, value, width):
        assert encode_bitmask(value, width) is None

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=300)
    def test_property_64(self, value):
        fields = encode_bitmask(value, 64)
        if fields is not None:
            n, immr, imms = fields
            assert decode_bitmask(n, immr, imms, 64) == value

    @given(st.integers(min_value=1, max_value=63),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=200)
    def test_runs_always_encodable(self, ones, rotation):
        """Every rotated run of ones is a valid 64-bit bitmask immediate."""
        run = (1 << ones) - 1
        value = ((run >> rotation) | (run << (64 - rotation))) & (2**64 - 1)
        assert encode_bitmask(value, 64) is not None


class TestFp8:
    @pytest.mark.parametrize("value", [1.0, -1.0, 0.5, 2.0, 0.125, 31.0,
                                       -0.5, 1.5, 3.0, 10.0])
    def test_encodable(self, value):
        imm8 = encode_fp8(value)
        assert imm8 is not None
        assert decode_fp8(imm8) == value

    @pytest.mark.parametrize("value", [0.0, 0.1, 100.0, -64.0])
    def test_not_encodable(self, value):
        assert encode_fp8(value) is None

    @given(st.integers(min_value=0, max_value=255))
    def test_roundtrip_all(self, imm8):
        assert encode_fp8(decode_fp8(imm8)) == imm8


class TestDecoderStrictness:
    """decode(word) accepted => encode(decode(word)) == word."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=2000, deadline=None)
    def test_random_words(self, word):
        inst = decode_word(word, pc=0x10000)
        if inst is None:
            return
        word2 = encode_instruction(inst, pc=0x10000, symbols={})
        assert word2 == word, f"{inst} decoded from {word:#010x} -> {word2:#010x}"

    def test_unknown_word_rejected(self):
        # An MSR instruction: not in the supported subset.
        assert decode_word(0xD51B4200) is None

    def test_noncanonical_rejected(self):
        # add x0, x1, #0 with sh=1: non-canonical, decoder must reject.
        word = (1 << 31) | (0b100010 << 23) | (1 << 22) | (1 << 5)
        assert decode_word(word) is None


class TestDecodeSegment:
    def test_decode_text_stream(self):
        from repro.arm64.decoder import decode_text

        program = parse_assembly("start:\n mov x0, #1\n add x0, x0, #2\n ret\n")
        image = assemble(program)
        decoded = decode_text(bytes(image.text.data), image.text.base)
        # "mov x0, #1" canonicalizes to movz at the machine-code level.
        assert [d.mnemonic for d in decoded] == ["movz", "add", "ret"]


# ---------------------------------------------------------------------------
# Byte-identical output on real programs
# ---------------------------------------------------------------------------

def _pinned_sources():
    """(name, source, levels) of every program the digest below covers;
    level ``None`` is the native build."""
    every = (None,) + tuple(_LEVELS)
    corpus = Path(__file__).parent / "corpus"
    for path in sorted(corpus.glob("*.json")):
        entry = json.loads(path.read_text())
        if entry["kind"] == "program":
            yield path.stem, entry["source"], every
    generator = AsmGenerator(GenConfig(min_fragments=60, max_fragments=60))
    rng = random.Random(7)
    for i in range(16):
        yield f"genasm-{i}", generator.generate(rng).source, \
            (None, "O0", "O1", "O2")
    for name in benchmark_names():
        yield name, build_benchmark(name, 4000), every
    for name in sorted(ATTACKS):
        yield f"spectre-{name}", attack_source(name, 0x5A), every
    yield "busy", busy_program(3, 200_000), (None, "O2")
    yield "rtcalls", (prologue() + "".join(rtcall(c) for c in RuntimeCall.ALL)
                      + rt_exit()), (None, "O2")
    yield "batch", (
        prologue() + "\tadrp x19, buf\n\tadd x19, x19, :lo12:buf\n"
        + batch_block([(RuntimeCall.GETPID, ()),
                       (RuntimeCall.WRITE, (1, 2, 3))])
        + rt_exit() + ".data\nbuf:\n\t.skip 256\n"), (None, "O2")


_LEVELS = {"O0": O0, "O1": O1, "O2": O2, "O2-noloads": O2_NO_LOADS,
           "O2-fence": O2_FENCE, "O2-mask": O2_MASK}


class TestEncoderPinned:
    #: sha256 over every text section the programs above assemble to (an
    #: input the rewriter refuses contributes its error's name instead).
    TEXT_SHA256 = ("ef0a9a1218bf187ce5c9586002abb2fd"
                   "12b3531ea38e270e944e9d4a9e0eb977")

    def test_text_digest(self):
        digest = hashlib.sha256()
        for name, source, levels in _pinned_sources():
            for level in levels:
                try:
                    program = parse_assembly(source)
                    if level is not None:
                        program = rewrite_program(program,
                                                  _LEVELS[level]).program
                    text = bytes(assemble(program).text.data)
                except ReproError as exc:
                    text = type(exc).__name__.encode()
                digest.update(f"{name}/{level}:".encode() + text)
        assert digest.hexdigest() == self.TEXT_SHA256

    def test_every_generated_instruction_encodes_decodably(self):
        """Every instruction ``genasm`` emits for 40 seed-7 programs, native
        and rewritten at O2, encodes to a word the decoder accepts and
        ``reencode_word`` maps back to itself."""
        generator = AsmGenerator(GenConfig(min_fragments=100,
                                           max_fragments=100))
        rng = random.Random(7)
        count = 0
        for _ in range(40):
            native = parse_assembly(generator.generate(rng).source)
            for program in (native,
                            rewrite_program(native, _LEVELS["O2"]).program):
                text = assemble(program).text
                for offset in range(0, len(text.data), 4):
                    pc = text.base + offset
                    word = int.from_bytes(text.data[offset:offset + 4],
                                          "little")
                    assert decode_word(word, pc) is not None, hex(word)
                    assert reencode_word(word, pc) == word, hex(word)
                    count += 1
        assert count > 20_000


# ---------------------------------------------------------------------------
# The packer: one statement of each layout
# ---------------------------------------------------------------------------


def _assert_packs(row, values):
    """``_pack`` either refuses a value outside its field, or returns a
    word of ``row`` whose fields read back as ``values``."""
    _group, mask, match, layout = ROWS[row]
    fields = row_fields(layout)
    fits = all(0 <= v < 1 << width for v, (_f, _lo, width) in zip(values, fields))
    try:
        word = _pack(row, *values)
    except EncodeError:
        assert not fits, (row, values)
        return
    assert fits, (row, values, hex(word))
    assert word & mask == match, (row, values)
    assert [word >> lo & (1 << width) - 1 for _f, lo, width in fields] \
        == list(values)


def _draw_value(rng, width):
    return rng.choice((rng.randrange(1 << width), rng.randrange(1 << width),
                       -rng.randrange(1, 1 << width),
                       rng.randrange(1 << width, 1 << width + 2)))


class TestPacker:
    @pytest.mark.parametrize("row", list(ROWS))
    def test_seeded_field_values(self, row):
        rng = random.Random(zlib.crc32(row.encode()))
        for _ in range(200):
            _assert_packs(row, [_draw_value(rng, width) for _f, _lo, width
                                in row_fields(ROWS[row][3])])

    @pytest.mark.slow
    @pytest.mark.parametrize("row", list(ROWS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_field_values(self, row, data):
        _assert_packs(row, [data.draw(st.integers(-(1 << width),
                                                  (1 << width + 1) - 1),
                                      label=name)
                            for name, _lo, width in row_fields(ROWS[row][3])])

    def test_layout_is_stated_once(self):
        """No decoder reads the word itself and no encoder shifts a field
        into place: the rows are the only statement of a bit position."""
        assert "_bits(" not in inspect.getsource(decoder)
        for name in ROWS:
            params = inspect.signature(getattr(decoder, "_dec_" + name))
            assert list(params.parameters)[0] == "pc"
            assert len(params.parameters) == 1 + len(row_fields(ROWS[name][3]))
        for name, function in vars(encoder).items():
            if name.startswith("_encode"):
                assert "<<" not in inspect.getsource(function), name
