"""ELF64 serialization: header + program headers + segment payloads.

Besides PT_LOAD segments, images may carry *guard provenance* — the map
from rewriter-inserted guard instruction addresses to guard classes used
by the obs profiler (DESIGN.md §9).  Provenance is serialized as one
PT_NOTE segment (never mapped by the loader) so it survives a round trip
through an on-disk ELF; images without the note simply load with an empty
map.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import ElfError as _ElfError

__all__ = ["ElfSegment", "ElfImage", "PF_R", "PF_W", "PF_X",
           "read_elf", "write_elf"]

PF_X = 0x1
PF_W = 0x2
PF_R = 0x4

_EI_MAGIC = b"\x7fELF"
_ELFCLASS64 = 2
_ELFDATA2LSB = 1
_EV_CURRENT = 1
_ET_EXEC = 2
_EM_AARCH64 = 183
_PT_LOAD = 1
_PT_NOTE = 4

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")

#: Guard-provenance note payload: magic, then (u64 address, u8 class
#: index) entries sorted by address.  The class table is positional so
#: the payload is byte-deterministic.
_PROV_MAGIC = b"LFIPROV1"
_PROV_CLASSES = ("memory", "branch", "sp", "x30", "hoist")
_PROV_ENTRY = struct.Struct("<QB")


def _pack_provenance(provenance: Dict[int, str]) -> bytes:
    out = bytearray(_PROV_MAGIC)
    out += struct.pack("<I", len(provenance))
    for addr in sorted(provenance):
        klass = provenance[addr]
        try:
            index = _PROV_CLASSES.index(klass)
        except ValueError:
            raise _ElfError(f"unknown guard class {klass!r}") from None
        out += _PROV_ENTRY.pack(addr, index)
    return bytes(out)


def _unpack_provenance(data: bytes) -> Dict[int, str]:
    if data[:8] != _PROV_MAGIC:
        raise _ElfError("bad guard-provenance note magic")
    if len(data) < 12:
        raise _ElfError("truncated guard-provenance note")
    (count,) = struct.unpack_from("<I", data, 8)
    expected = 12 + count * _PROV_ENTRY.size
    if len(data) < expected:
        raise _ElfError("truncated guard-provenance note")
    out: Dict[int, str] = {}
    for i in range(count):
        addr, index = _PROV_ENTRY.unpack_from(data, 12 + i * _PROV_ENTRY.size)
        if index >= len(_PROV_CLASSES):
            raise _ElfError(f"unknown guard class index {index}")
        out[addr] = _PROV_CLASSES[index]
    return out


@dataclass
class ElfSegment:
    """One PT_LOAD segment."""

    vaddr: int
    data: bytes
    memsz: int  # >= len(data); the excess is zero-filled (bss)
    flags: int  # PF_R | PF_W | PF_X

    def __post_init__(self):
        if self.memsz < len(self.data):
            raise _ElfError("memsz smaller than file data")

    @property
    def filesz(self) -> int:
        return len(self.data)


@dataclass
class ElfImage:
    """A loadable executable: entry point plus PT_LOAD segments."""

    entry: int
    segments: List[ElfSegment] = field(default_factory=list)
    #: Guard instruction address (image offset) -> guard class.  Carried
    #: out-of-band in a PT_NOTE segment; empty for native baselines and
    #: foreign ELFs.
    provenance: Dict[int, str] = field(default_factory=dict)

    def segment_containing(self, vaddr: int) -> ElfSegment:
        for segment in self.segments:
            if segment.vaddr <= vaddr < segment.vaddr + segment.memsz:
                return segment
        raise _ElfError(f"no segment contains {vaddr:#x}")

    @property
    def text(self) -> ElfSegment:
        """The (single) executable segment."""
        executable = [s for s in self.segments if s.flags & PF_X]
        if len(executable) != 1:
            raise _ElfError(f"expected 1 executable segment, found "
                           f"{len(executable)}")
        return executable[0]


def write_elf(image: ElfImage) -> bytes:
    """Serialize an image to ELF64 bytes."""
    note = _pack_provenance(image.provenance) if image.provenance else None
    ehsize = _EHDR.size
    phentsize = _PHDR.size
    phnum = len(image.segments) + (1 if note is not None else 0)
    header_size = ehsize + phentsize * phnum

    # (p_type, flags, vaddr, memsz, data) per program header.
    entries = [
        (_PT_LOAD, s.flags, s.vaddr, s.memsz, s.data) for s in image.segments
    ]
    if note is not None:
        entries.append((_PT_NOTE, PF_R, 0, len(note), note))

    payloads = []
    offset = header_size
    for entry in entries:
        # Keep file offset congruent with vaddr modulo a page for realism.
        payloads.append((offset, entry))
        offset += len(entry[4])

    out = bytearray()
    ident = _EI_MAGIC + bytes([_ELFCLASS64, _ELFDATA2LSB, _EV_CURRENT]) + bytes(9)
    out += _EHDR.pack(
        ident, _ET_EXEC, _EM_AARCH64, _EV_CURRENT, image.entry,
        ehsize, 0, 0, ehsize, phentsize, phnum, 0, 0, 0,
    )
    for file_offset, (p_type, flags, vaddr, memsz, data) in payloads:
        out += _PHDR.pack(
            p_type, flags, file_offset, vaddr,
            vaddr, len(data), memsz, 0x4000,
        )
    for file_offset, (_, _, _, _, data) in payloads:
        assert len(out) == file_offset
        out += data
    return bytes(out)


def read_elf(data: bytes) -> ElfImage:
    """Parse ELF64 bytes back into an image."""
    if len(data) < _EHDR.size:
        raise _ElfError("truncated ELF header")
    fields = _EHDR.unpack_from(data, 0)
    ident = fields[0]
    if ident[:4] != _EI_MAGIC:
        raise _ElfError("bad ELF magic")
    if ident[4] != _ELFCLASS64 or ident[5] != _ELFDATA2LSB:
        raise _ElfError("not a little-endian ELF64 file")
    e_type, e_machine = fields[1], fields[2]
    if e_machine != _EM_AARCH64:
        raise _ElfError(f"unsupported machine {e_machine}")
    if e_type != _ET_EXEC:
        raise _ElfError(f"unsupported ELF type {e_type}")
    entry = fields[4]
    phoff = fields[5]
    phentsize, phnum = fields[9], fields[10]
    if phentsize != _PHDR.size:
        raise _ElfError(f"unexpected phentsize {phentsize}")
    if phoff + phnum * phentsize > len(data):
        raise _ElfError("program header table out of range")

    segments: List[ElfSegment] = []
    provenance: Dict[int, str] = {}
    for i in range(phnum):
        p = _PHDR.unpack_from(data, phoff + i * phentsize)
        p_type, p_flags, p_offset, p_vaddr, _p_paddr, p_filesz, p_memsz, _ = p
        if p_offset + p_filesz > len(data):
            raise _ElfError("segment payload out of range")
        payload = bytes(data[p_offset:p_offset + p_filesz])
        if p_type == _PT_NOTE and payload[:8] == _PROV_MAGIC:
            provenance = _unpack_provenance(payload)
            continue
        if p_type != _PT_LOAD:
            continue
        segments.append(
            ElfSegment(
                vaddr=p_vaddr,
                data=payload,
                memsz=p_memsz,
                flags=p_flags,
            )
        )
    return ElfImage(entry=entry, segments=segments, provenance=provenance)
