"""ELF writer/reader tests."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.elf import (
    ElfError,
    ElfImage,
    ElfSegment,
    PF_R,
    PF_W,
    PF_X,
    build_elf,
    read_elf,
    write_elf,
)


def roundtrip(image):
    return read_elf(write_elf(image))


class TestFormat:
    def test_roundtrip_basic(self):
        image = ElfImage(
            entry=0x40000,
            segments=[
                ElfSegment(0x40000, b"\x1f\x20\x03\xd5", 4, PF_R | PF_X),
                ElfSegment(0x80000, b"hello", 16, PF_R | PF_W),
            ],
        )
        out = roundtrip(image)
        assert out.entry == 0x40000
        assert len(out.segments) == 2
        assert out.segments[0].data == b"\x1f\x20\x03\xd5"
        assert out.segments[0].flags == PF_R | PF_X
        assert out.segments[1].memsz == 16

    def test_magic_checked(self):
        with pytest.raises(ElfError):
            read_elf(b"NOPE" + bytes(100))

    def test_truncated(self):
        with pytest.raises(ElfError):
            read_elf(b"\x7fELF")

    def test_memsz_validation(self):
        with pytest.raises(ElfError):
            ElfSegment(0, b"123456", 2, PF_R)

    def test_text_property(self):
        image = ElfImage(
            entry=0,
            segments=[
                ElfSegment(0x1000 * 16, b"abcd", 4, PF_R | PF_X),
                ElfSegment(0x2000 * 16, b"data", 4, PF_R | PF_W),
            ],
        )
        assert image.text.vaddr == 0x1000 * 16

    def test_segment_containing(self):
        seg = ElfSegment(0x4000, b"", 0x1000, PF_R | PF_W)
        image = ElfImage(entry=0, segments=[seg])
        assert image.segment_containing(0x4800) is seg
        with pytest.raises(ElfError):
            image.segment_containing(0x9000)

    @given(
        st.integers(min_value=0, max_value=2**48 - 1),
        st.binary(min_size=0, max_size=256),
        st.integers(min_value=0, max_value=1024),
    )
    @settings(max_examples=50)
    def test_property_roundtrip(self, entry, data, extra):
        image = ElfImage(
            entry=entry,
            segments=[ElfSegment(0x4000, data, len(data) + extra, PF_R)],
        )
        out = roundtrip(image)
        assert out.entry == entry
        assert out.segments[0].data == data
        assert out.segments[0].memsz == len(data) + extra


class TestCorruptInput:
    """A malformed ELF raises ElfError, never a bare struct/overflow error:
    ``repro.tools verify`` turns ElfError into its one-line diagnostic."""

    @pytest.fixture(scope="class")
    def image(self):
        from repro.core import O2
        from repro.toolchain import compile_lfi
        from repro.workloads import build_benchmark

        lfi = compile_lfi(build_benchmark("505.mcf", 800), options=O2)
        assert lfi.elf.provenance   # the note is part of what may break
        return write_elf(lfi.elf)

    @staticmethod
    def _with(image, fmt, offset, value):
        data = bytearray(image)
        struct.pack_into(fmt, data, offset, value)
        return bytes(data)

    def test_named_corruptions(self, image):
        from repro.elf.format import _unpack_provenance

        for bad in (image[:64],
                    self._with(image, "<H", 56, 300),      # e_phnum
                    self._with(image, "<Q", 32, 2**63)):   # e_phoff
            with pytest.raises(ElfError):
                read_elf(bad)
        with pytest.raises(ElfError):
            _unpack_provenance(b"LFIPROV1")

    def test_mutants_parse_or_raise_elf_error(self, image):
        """3 000 seeded copies, each truncated or with one to four bytes
        overwritten (half of them in the headers and the note)."""
        rng = random.Random(3)
        headers = 64 + 56 * struct.unpack_from("<H", image, 56)[0]
        note = image.rindex(b"LFIPROV1")
        for _ in range(3000):
            data = bytearray(image)
            if rng.random() < 0.25:
                del data[rng.randrange(len(data)):]
            for _ in range(rng.randint(1, 4)):
                if not data:
                    break
                spot = rng.choice((rng.randrange(min(headers, len(data))),
                                   note + rng.randrange(16),
                                   rng.randrange(len(data))))
                if spot < len(data):
                    data[spot] = rng.randrange(256)
            try:
                read_elf(bytes(data))
            except ElfError:
                pass


class TestBuilder:
    SRC = """
    .text
_start:
    mov x0, #7
    ret
    .rodata
msg: .asciz "hi"
    .data
counter: .quad 5
    """

    def test_build_from_assembly(self):
        image = assemble(parse_assembly(self.SRC))
        elf = build_elf(image)
        flags = {seg.flags for seg in elf.segments}
        assert PF_R | PF_X in flags  # text
        assert PF_R in flags  # rodata
        assert PF_R | PF_W in flags  # data
        assert elf.entry == image.symbols["_start"]

    def test_bss_extension(self):
        image = assemble(parse_assembly(self.SRC))
        elf = build_elf(image, bss_size=0x8000)
        bss = [s for s in elf.segments if s.memsz > s.filesz]
        assert bss and bss[0].memsz - bss[0].filesz == 0x8000

    def test_roundtrip_through_bytes(self):
        image = assemble(parse_assembly(self.SRC))
        elf = roundtrip(build_elf(image))
        text = elf.text
        assert len(text.data) == 8  # two instructions
