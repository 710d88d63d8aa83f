"""Per-class encoder/decoder round-trip properties (ISSUE 7 satellite).

The prover's enumeration (``repro.prove.enumerate``) relies on the
decoder/encoder pair being a bijection on the decodable subset of each
class space: every word the decoder claims must re-encode to exactly the
same word, or the prover's acceptance counts would not correspond to real
machine code.

Two tiers: a small seeded deterministic sample per class runs in tier-1;
the Hypothesis property (marked ``slow``) drives far more samples and
shrinks failures.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import decoder
from repro.arm64.decoder import decode_word, decoding_class, decoder_names
from repro.arm64.encoder import reencode_word
from repro.prove import default_classes, nightly_classes

from .frozen_decoder import DISPATCH_ORDER, linear_decode

ALL_CLASSES = default_classes() + nightly_classes()


def _sample_word(cls, rng: random.Random) -> int:
    word = cls.template
    for f in cls.fields:
        value = (rng.choice(f.values) if f.values is not None
                 else rng.randrange(1 << f.width))
        word |= value << f.lo
    return word


def _assert_roundtrip(cls, word: int) -> None:
    inst = decode_word(word)
    if inst is None:
        assert reencode_word(word) is None
        return
    back = reencode_word(word)
    assert back == word, (
        f"{cls.name}: {word:#010x} ({inst}) re-encoded to "
        f"{back:#010x}" if back is not None else
        f"{cls.name}: {word:#010x} ({inst}) failed to re-encode")


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[c.name for c in ALL_CLASSES])
def test_seeded_sample_roundtrip(cls):
    rng = random.Random(0xC0DE ^ zlib.crc32(cls.name.encode()) & 0xFFFF)
    for _ in range(64):
        _assert_roundtrip(cls, _sample_word(cls, rng))


@pytest.mark.parametrize("cls",
                         [c for c in ALL_CLASSES if c.space() <= 4096],
                         ids=[c.name for c in ALL_CLASSES
                              if c.space() <= 4096])
def test_small_class_exhaustive_roundtrip(cls):
    for word in cls.words():
        _assert_roundtrip(cls, word)


def test_decoding_class_names_are_known():
    names = decoder_names()
    assert "movi" in names or len(names) > 10
    # Every claimed word reports a claiming decoder.
    assert decoding_class(0xD4200000) is not None  # brk #0
    assert decoding_class(0xFFFFFFFF) is None


def _assert_indexed_equals_linear(word: int, pc: int = 0) -> None:
    inst, name = linear_decode(word, pc)
    assert decode_word(word, pc) == inst, hex(word)
    assert decoding_class(word) == name, hex(word)
    assert decoder.decode_word_pc(word, pc) == (
        inst, name in ("branch_imm", "branch_cond", "cb", "tb", "adr"))


def test_decoder_names_keep_dispatch_order():
    assert decoder_names() == DISPATCH_ORDER


def test_encoding_rows_are_disjoint():
    rows = decoder.ENCODINGS
    for i, (_a, mask_a, match_a, _fields) in enumerate(rows):
        assert match_a & ~mask_a == 0
        for _b, mask_b, match_b, _fields in rows[i + 1:]:
            assert (match_a ^ match_b) & mask_a & mask_b, (
                f"{match_a:#010x} and {match_b:#010x} overlap")


def test_row_fields_are_exactly_the_bits_outside_the_mask():
    for name, mask, match, layout in decoder.ENCODINGS:
        covered = 0
        for field, lo, width in decoder.row_fields(layout):
            bits = (1 << width) - 1 << lo
            assert not covered & bits, (name, field)
            covered |= bits
        assert covered == ~mask & 0xFFFFFFFF, (name, hex(match))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[c.name for c in ALL_CLASSES])
def test_indexed_decode_equals_linear_on_class_sample(cls):
    rng = random.Random(0xD15C ^ zlib.crc32(cls.name.encode()) & 0xFFFF)
    for _ in range(256):
        _assert_indexed_equals_linear(_sample_word(cls, rng),
                                      4 * rng.randrange(1 << 20))


def test_indexed_decode_equals_linear_on_random_and_mutated_words():
    """500 k words: uniform, inside each encoding row, and one or two bit
    flips away from a row."""
    rng = random.Random(0x1DE0)
    for _ in range(100_000):
        word = rng.getrandbits(32)
        assert decode_word(word) == linear_decode(word)[0]
    for _name, mask, match, _fields in decoder.ENCODINGS:
        for _ in range(400_000 // (4 * len(decoder.ENCODINGS))):
            word = rng.getrandbits(32) & ~mask | match
            flip1 = word ^ 1 << rng.randrange(32)
            for probe in (word, flip1, flip1 ^ 1 << rng.randrange(32),
                          word & ~0x3FF | rng.getrandbits(10)):
                assert decode_word(probe, 64) == linear_decode(probe, 64)[0]


@pytest.mark.slow
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[c.name for c in ALL_CLASSES])
@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_property_roundtrip(cls, data):
    word = cls.template
    for f in cls.fields:
        if f.values is not None:
            value = data.draw(st.sampled_from(f.values), label=f.name)
        else:
            value = data.draw(
                st.integers(min_value=0, max_value=(1 << f.width) - 1),
                label=f.name)
        word |= value << f.lo
    _assert_roundtrip(cls, word)
