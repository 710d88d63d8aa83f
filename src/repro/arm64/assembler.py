"""Two-pass assembler: Program -> raw section bytes + symbol table.

Pass 1 lays out sections and assigns every label an address; pass 2 encodes
instructions (resolving label references) and serializes data directives.

Sandbox binaries are assembled with section addresses that are *offsets
within the 4GiB sandbox region* — all code is position-independent at the
region granularity (direct branches and adr/adrp are PC-relative), which is
what makes the paper's single-address-space ``fork`` possible (§5.3): the
loader can map the same image at any 4GiB-aligned base.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AssembleError as _AssembleError
from ..errors import EncodeError as _EncodeError
from .encoder import encode_instruction
from .instructions import Instruction
from .program import DATA_DIRECTIVES, Directive, LabelDef, Program

__all__ = ["AssembledImage", "Section", "assemble"]

DEFAULT_LAYOUT = {
    ".text": 0x0004_0000,
    ".rodata": 0x1000_0000,
    ".data": 0x2000_0000,
    ".bss": 0x3000_0000,
}


@dataclass
class Section:
    """One output section: a base address and its bytes."""

    name: str
    base: int
    data: bytearray = field(default_factory=bytearray)

    @property
    def end(self) -> int:
        return self.base + len(self.data)


@dataclass
class AssembledImage:
    """The result of assembling a program."""

    sections: Dict[str, Section]
    symbols: Dict[str, int]
    entry: int
    #: Guard provenance: address of each rewriter-inserted guard
    #: instruction -> its guard class (see ``repro.core.guards``).
    #: Addresses are sandbox offsets, like everything else in the image.
    provenance: Dict[int, str] = field(default_factory=dict)

    @property
    def text(self) -> Section:
        return self.sections[".text"]

    def section_or_none(self, name: str) -> Optional[Section]:
        section = self.sections.get(name)
        if section is not None and section.data:
            return section
        return None


_IGNORED_DIRECTIVES = {
    ".globl", ".global", ".type", ".size", ".file", ".ident", ".arch",
    ".cpu", ".local", ".weak", ".hidden", ".cfi_startproc", ".cfi_endproc",
    ".cfi_def_cfa_offset", ".cfi_offset", ".cfi_restore", ".addrsig",
    ".addrsig_sym",
}

_STRING_RE = re.compile(r'^"(.*)"$', re.DOTALL)


def _canonical_section(directive: Directive, current: str) -> Optional[str]:
    if directive.name in (".text", ".data", ".bss", ".rodata"):
        return directive.name
    if directive.name == ".section" and directive.args:
        name = directive.args[0].strip()
        if not name.startswith("."):
            name = f".{name}"
        # Collapse .rodata.str1.1 style names.
        for known in (".text", ".rodata", ".data", ".bss"):
            if name == known or name.startswith(known + "."):
                return known
        return ".data"
    return None


def _item_size(item, current_align: int) -> int:
    """Size in bytes contributed by one item (alignment handled separately)."""
    if isinstance(item, Instruction):
        return 4
    if isinstance(item, Directive):
        if item.name in DATA_DIRECTIVES:
            return DATA_DIRECTIVES[item.name] * max(1, len(item.args))
        if item.name in (".skip", ".space", ".zero"):
            return int(item.args[0], 0)
        if item.name in (".ascii", ".asciz", ".string"):
            return sum(
                _string_length(arg) + (item.name != ".ascii")
                for arg in item.args
            )
    return 0


def _string_length(arg: str) -> int:
    match = _STRING_RE.match(arg.strip())
    if not match:
        raise _AssembleError(f"bad string literal: {arg!r}")
    return len(_unescape(match.group(1)))


def _unescape(text: str) -> bytes:
    return text.encode("utf-8").decode("unicode_escape").encode("latin-1")


def _alignment_of(item) -> Optional[int]:
    """Alignment in bytes requested by an .align/.p2align/.balign directive."""
    if not isinstance(item, Directive):
        return None
    if item.name in (".align", ".p2align"):
        return 1 << int(item.args[0], 0)
    if item.name == ".balign":
        return int(item.args[0], 0)
    return None


def assemble(
    program: Program,
    layout: Optional[Dict[str, int]] = None,
    entry_symbol: str = "_start",
) -> AssembledImage:
    """Assemble ``program``; section bases come from ``layout``."""
    bases = dict(DEFAULT_LAYOUT)
    if layout:
        bases.update(layout)

    # Pass 1: layout.
    cursors: Dict[str, int] = {}
    symbols: Dict[str, int] = {}
    placed: List[Tuple[object, str, int]] = []  # (item, section, address)
    current = ".text"
    for item in program.items:
        if isinstance(item, Directive):
            switched = _canonical_section(item, current)
            if switched is not None:
                current = switched
                cursors.setdefault(current, bases.get(current, 0))
                continue
            if item.name in _IGNORED_DIRECTIVES:
                continue
        cursor = cursors.setdefault(current, bases.get(current, 0))
        align = _alignment_of(item)
        if align is not None:
            if align & (align - 1):
                raise _AssembleError(f"alignment {align} not a power of two")
            pad = (-cursor) % align
            cursors[current] = cursor + pad
            placed.append((item, current, cursors[current]))
            continue
        if isinstance(item, LabelDef):
            if item.name in symbols:
                raise _AssembleError(f"duplicate label {item.name!r}")
            symbols[item.name] = cursor
            continue
        placed.append((item, current, cursor))
        cursors[current] = cursor + _item_size(item, 0)

    # Pass 2: emission.
    sections: Dict[str, Section] = {
        name: Section(name, bases.get(name, 0)) for name in cursors
    }
    provenance: Dict[int, str] = {}
    for item, section_name, address in placed:
        section = sections[section_name]
        pad = address - section.end
        if pad < 0:
            raise _AssembleError("layout regression (internal error)")
        filler = b"\x00" * pad
        if isinstance(item, Instruction) or (
            section_name == ".text" and pad and pad % 4 == 0
        ):
            if section_name == ".text" and pad % 4 == 0:
                filler = struct.pack("<I", 0xD503201F) * (pad // 4)
        section.data.extend(filler)
        if isinstance(item, Instruction):
            try:
                word = encode_instruction(item, pc=address, symbols=symbols)
            except _EncodeError as exc:
                raise _AssembleError(str(exc)) from None
            section.data.extend(struct.pack("<I", word))
            if item.guard is not None:
                provenance[address] = item.guard
        elif isinstance(item, Directive):
            section.data.extend(_emit_directive(item, symbols))

    if entry_symbol in symbols:
        entry = symbols[entry_symbol]
    elif "main" in symbols:
        entry = symbols["main"]
    elif ".text" in sections:
        entry = sections[".text"].base
    else:
        raise _AssembleError("no entry point and no .text section")
    return AssembledImage(sections=sections, symbols=symbols, entry=entry,
                          provenance=provenance)


def _emit_directive(item: Directive, symbols: Dict[str, int]) -> bytes:
    name = item.name
    if name in DATA_DIRECTIVES:
        size = DATA_DIRECTIVES[name]
        out = bytearray()
        fmt = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}[size]
        for arg in item.args or ("0",):
            arg = arg.strip()
            if re.match(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$", arg):
                value = int(arg, 0)
            elif arg in symbols:
                value = symbols[arg]
            else:
                raise _AssembleError(f"cannot resolve data value {arg!r}")
            out.extend(struct.pack(fmt, value & ((1 << (size * 8)) - 1)))
        return bytes(out)
    if name in (".skip", ".space", ".zero"):
        count = int(item.args[0], 0)
        value = int(item.args[1], 0) if len(item.args) > 1 else 0
        return bytes([value & 0xFF]) * count
    if name in (".ascii", ".asciz", ".string"):
        out = bytearray()
        for arg in item.args:
            match = _STRING_RE.match(arg.strip())
            if not match:
                raise _AssembleError(f"bad string literal: {arg!r}")
            out.extend(_unescape(match.group(1)))
            if name != ".ascii":
                out.append(0)
        return bytes(out)
    if name in (".align", ".p2align", ".balign"):
        return b""
    raise _AssembleError(f"unsupported directive {name}")
