"""Branch range fixing (paper §5.1 "Difficulties").

``tbz``/``tbnz`` reach only ±32KiB.  Inserting guard instructions can push
a target out of range, so after rewriting we conservatively estimate every
test-branch's distance and, when it approaches the limit, replace

    tbz x0, #3, target          tbnz x0, #3, .Llfi_skip_N
                         ==>    b target
                                .Llfi_skip_N:

The estimate is recomputed to a fixed point since each fix adds code.  A
program whose whole conservative size is below the threshold needs no
estimate at all.
"""

from __future__ import annotations

from typing import Dict, List

from ..arm64.instructions import Instruction, ins
from ..arm64.operands import Label
from ..arm64.program import DATA_DIRECTIVES, Directive, LabelDef, Program

__all__ = ["fix_branch_ranges", "TB_RANGE"]

#: Architectural reach of tbz/tbnz.
TB_RANGE = 1 << 15
#: Conservative margin: fix anything within 4KiB of the limit.
_THRESHOLD = TB_RANGE - 4096


def _item_bytes(item) -> int:
    if isinstance(item, Instruction):
        return 4
    if isinstance(item, Directive):
        if item.name in DATA_DIRECTIVES:
            return DATA_DIRECTIVES[item.name] * max(1, len(item.args))
        if item.name in (".skip", ".space", ".zero"):
            return int(item.args[0], 0)
        if item.name in (".align", ".p2align"):
            return (1 << int(item.args[0], 0)) - 1  # worst case padding
        if item.name == ".balign":
            return int(item.args[0], 0) - 1
    return 0


def _layout(program: Program) -> Dict[str, int]:
    """Conservative byte offset of each label (single flat estimate)."""
    offsets: Dict[str, int] = {}
    cursor = 0
    for item in program.items:
        if isinstance(item, LabelDef):
            offsets[item.name] = cursor
        else:
            cursor += _item_bytes(item)
    return offsets


def fix_branch_ranges(program: Program, threshold: int = _THRESHOLD) -> int:
    """Rewrite out-of-range test branches in place; returns the fix count."""
    if sum(map(_item_bytes, program.items)) < threshold:
        return 0    # no two points of the program are that far apart
    fixes = 0
    counter = 0
    changed = True
    while changed:
        changed = False
        labels = _layout(program)
        cursor = 0
        new_items: List = []
        for item in program.items:
            if (isinstance(item, Instruction)
                    and item.mnemonic in ("tbz", "tbnz")):
                target = item.branch_target()
                if target is not None and target.name in labels:
                    distance = labels[target.name] - cursor
                    if abs(distance) >= threshold:
                        inverted = "tbnz" if item.mnemonic == "tbz" else "tbz"
                        skip = f".Llfi_tbfix_{counter}"
                        counter += 1
                        new_items.append(
                            ins(inverted, item.operands[0], item.operands[1],
                                Label(skip))
                        )
                        new_items.append(ins("b", target))
                        new_items.append(LabelDef(skip))
                        cursor += 8
                        fixes += 1
                        changed = True
                        continue
            new_items.append(item)
            cursor += _item_bytes(item)
        program.items = new_items
    return fixes
