"""Assembly program container: instructions, labels, and directives."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from .instructions import Instruction


@dataclass(frozen=True)
class LabelDef:
    """A label definition line (``foo:``)."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(frozen=True)
class Directive:
    """An assembler directive line (``.text``, ``.quad 1, 2``)."""

    name: str  # includes the leading dot
    args: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name} " + ", ".join(self.args)


Item = Union[LabelDef, Directive, Instruction]

#: Directives that emit data, with their element size in bytes.
DATA_DIRECTIVES = {
    ".byte": 1,
    ".hword": 2,
    ".short": 2,
    ".word": 4,
    ".long": 4,
    ".quad": 8,
    ".xword": 8,
}

#: Directives that switch the current section.
SECTION_DIRECTIVES = (".text", ".data", ".bss", ".rodata", ".section")


@dataclass
class Program:
    """A parsed (or generated) assembly file."""

    items: List[Item] = field(default_factory=list)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def add(self, *items: Item) -> "Program":
        self.items.extend(items)
        return self

    def label(self, name: str) -> "Program":
        return self.add(LabelDef(name))

    def instructions(self) -> Iterator[Instruction]:
        for item in self.items:
            if isinstance(item, Instruction):
                yield item

