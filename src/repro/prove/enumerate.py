"""Instruction-class enumeration over the decoder's encodable space.

Each :class:`InstructionClass` is drawn from one row of
``arm64.decoder.ENCODINGS``: the row's match bits (plus any operand field
the class pins) are the template — anything outside it is a different
class or undecodable — and the row's remaining operand fields are the free
fields enumerated exhaustively.  One
field per class may be designated *symbolic* (``sym``): the driver then
enumerates only the concrete "shapes" (the product of the other fields)
and runs the decoder/verifier once per shape with the symbolic field as
an affine interval, splitting on demand (DESIGN.md §14).

Words inside a class space that the decoder rejects (undecodable
sub-encodings, non-canonical forms) are *counted and skipped* — the
verifier rejects undecodable words by construction, so they discharge
trivially.  The registry's class spaces are pairwise disjoint (distinct
pinned signature bits, or disjoint value lists on one field), and their
union is exactly the per-class spaces the round-trip property suite
samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..arm64.decoder import ENCODINGS, row_fields
from .absdomain import SymInt, SymWord

__all__ = ["Field", "InstructionClass", "CLASSES", "class_by_name",
           "default_classes", "nightly_classes", "row_coverage"]


@dataclass(frozen=True)
class Field:
    """One free bit field of an encoding template."""

    name: str
    lo: int      # lowest bit position
    width: int
    #: Explicit value list; None means the full 0..2**width-1 range.
    values: Optional[Tuple[int, ...]] = None

    def domain(self) -> Sequence[int]:
        if self.values is not None:
            return self.values
        return range(1 << self.width)

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.lo


@dataclass(frozen=True)
class InstructionClass:
    """One encoding template plus its free fields."""

    name: str
    description: str
    template: int
    fields: Tuple[Field, ...]
    #: Name of the field to treat symbolically in shape mode, or None for
    #: concrete-only classes (no immediate worth abstracting).
    sym: Optional[str] = None
    #: Part of the default `repro.tools prove` run (fast classes); the
    #: rest are covered by the nightly CI matrix.
    default: bool = True

    def __post_init__(self):
        covered = 0
        for f in self.fields:
            if covered & f.mask:
                raise ValueError(f"{self.name}: overlapping field {f.name}")
            if self.template & f.mask:
                raise ValueError(
                    f"{self.name}: template sets bits of field {f.name}")
            covered |= f.mask
        if self.sym is not None and self.sym_field is None:
            raise ValueError(f"{self.name}: unknown sym field {self.sym}")

    @property
    def sym_field(self) -> Optional[Field]:
        for f in self.fields:
            if f.name == self.sym:
                return f
        return None

    def shape_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields if f.name != self.sym)

    def space(self) -> int:
        """Total number of words in the class space."""
        n = 1
        for f in self.fields:
            n *= len(f.domain())
        return n

    def shape_count(self) -> int:
        n = 1
        for f in self.shape_fields():
            n *= len(f.domain())
        return n

    def shapes(self) -> Iterator[int]:
        """All shape words (symbolic field bits zero)."""
        fields = self.shape_fields()
        for combo in itertools.product(*(f.domain() for f in fields)):
            word = self.template
            for f, v in zip(fields, combo):
                word |= v << f.lo
            yield word

    def words(self) -> Iterator[int]:
        """The full concrete class space."""
        for combo in itertools.product(*(f.domain() for f in self.fields)):
            word = self.template
            for f, v in zip(self.fields, combo):
                word |= v << f.lo
            yield word

    def sym_word(self, shape: int, flo: int, fhi: int) -> SymWord:
        """A symbolic word for one shape over a field sub-interval."""
        f = self.sym_field
        if f is None:
            raise ValueError(f"{self.name} has no symbolic field")
        if flo == fhi:
            raise ValueError("degenerate interval; use a concrete word")
        return SymWord(shape, f.lo, f.width, SymInt(1, 0, flo, fhi))


def _row_class(name: str, group: str, description: str, match=None,
               sym: Optional[str] = None, default: bool = True,
               widen: Optional[dict] = None, **narrow) -> InstructionClass:
    """A class inside one ``ENCODINGS`` row (``match`` picks among a
    group's rows): the row's operand fields stay free except those
    ``narrow`` pins to an int or restricts to a tuple of values.  ``widen``
    stretches a field past the row, to take in the undecodable words
    around it."""
    (row,) = [r for r in ENCODINGS if r[0] == group and match in (None, r[2])]
    template, fields = row[2], []
    for fname, lo, width in row_fields(row[3]):
        want = narrow.pop(fname, None)
        if isinstance(want, int):
            template |= want << lo
        else:
            fields.append(Field(fname, lo, (widen or {}).get(fname, width),
                                want))
    if narrow:
        raise ValueError(f"{name}: no field {sorted(narrow)} in {group}")
    return InstructionClass(name, description, template, tuple(fields),
                            sym, default)


CLASSES: Tuple[InstructionClass, ...] = (
    _row_class("branch-reg", "branch_reg",
               "br/blr/ret indirect branches (the branch-target invariant "
               "class)", match=0xD61F0000, widen={"opc": 4}),
    _row_class("ldst-post", "ldst_imm9",
               "post-index loads/stores, imm9 writeback (the class that "
               "hid the PR-2 store-only writeback hole)",
               sym="imm9", mode=1),
    _row_class("ldst-pre", "ldst_imm9",
               "pre-index loads/stores, imm9 writeback", sym="imm9", mode=3),
    _row_class("ldst-unsigned", "ldst_unsigned",
               "unsigned scaled-offset loads/stores (imm12)", sym="imm12"),
    _row_class("addsub-imm", "addsub_imm",
               "add/sub immediate (covers reserved-register writes and the "
               "sp small-arithmetic rule)", sym="imm12"),
    _row_class("movewide", "movewide",
               "movz/movn/movk wide moves (imm16)", sym="imm16"),
    _row_class("branch-imm", "branch_imm",
               "b/bl direct branches (imm26; contained by the code "
               "keep-out, DESIGN.md §14)", sym="imm26"),
    _row_class("branch-cond", "branch_cond",
               "b.cond conditional branches (imm19)", sym="imm19"),
    _row_class("cb", "cb", "cbz/cbnz compare-and-branch (imm19)",
               sym="imm19"),
    _row_class("tb", "tb", "tbz/tbnz test-bit-and-branch (imm14)",
               sym="imm14"),
    _row_class("ldst-unscaled", "ldst_imm9",
               "ldur/stur unscaled-offset loads/stores (imm9; canonicality "
               "is immediate-dependent)", sym="imm9", default=False, mode=0),
    _row_class("logical-reg0", "logical_shifted",
               "unshifted register logical ops incl. the mov alias (the "
               "mov-then-guard x30 pattern); Rd = 18 is logical-reg-bic18's",
               default=False, shift=0, imm6=0,
               rd=tuple(r for r in range(32) if r != 18)),
    _row_class("logical-reg-bic18", "logical_shifted",
               "every shifted-register logical op writing x18/w18: only the "
               "masked guard's `bic w18, wN, w25` ahead of the x18 guard is "
               "accepted", default=False, imm6=(0, 1, 32), rd=18),
    _row_class("addsub-ext", "addsub_extended",
               "add/sub extended-register (the guard instruction's own "
               "class)", default=False),
    _row_class("ldst-regoffset", "ldst_regoffset",
               "register-offset loads/stores incl. the zero-instruction "
               "guard addressing mode", default=False),
    _row_class("ldst-pair", "ldst_pair",
               "ldp/stp register pairs (imm7, all index modes)",
               sym="imm7", default=False),
    _row_class("exclusive", "exclusive",
               "load/store exclusive and acquire/release (rt2 pinned to 31 "
               "as the decoder requires)", default=False),
)


def class_by_name(name: str) -> InstructionClass:
    for cls in CLASSES:
        if cls.name == name:
            return cls
    known = ", ".join(c.name for c in CLASSES)
    raise KeyError(f"unknown instruction class {name!r} (known: {known})")


def default_classes() -> Tuple[InstructionClass, ...]:
    return tuple(c for c in CLASSES if c.default)


def nightly_classes() -> Tuple[InstructionClass, ...]:
    return tuple(c for c in CLASSES if not c.default)


def row_coverage() -> List[Tuple[str, int, int, Tuple[str, ...]]]:
    """Each ``(group, mask, match)`` row of the decoder/verifier table with
    the names of the classes whose space reaches into it."""
    spans = [(c.name, c.template, sum(f.mask for f in c.fields))
             for c in CLASSES]
    return [(group, mask, match, tuple(
                name for name, template, free in spans
                if not (template ^ match) & mask & ~free))
            for group, mask, match, _fields in ENCODINGS]
