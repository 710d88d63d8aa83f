"""Parser for GNU-syntax ARM64 assembly text.

This is the front half of the paper's assembly-transformation pipeline
(§5.1): the rewriter consumes ``.s`` text produced by an off-the-shelf
compiler.  The parser handles labels, directives, comments, and the operand
grammar (registers, immediates, shifts/extends, all Table-1 addressing
modes, condition codes, and ``:lo12:`` relocations).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..errors import AsmSyntaxError as _AsmSyntaxError
from . import isa
from .instructions import Instruction
from .operands import (
    CONDITION_ALIASES,
    CONDITION_CODES,
    Cond,
    Extended,
    FloatImm,
    Imm,
    Label,
    Mem,
    OFFSET,
    Operand,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    ShiftedImm,
    VecReg,
)
from .program import Directive, Item, LabelDef, Program
from .registers import _REGISTERS, Reg, lookup_register

__all__ = ["parse_assembly", "parse_operand"]


_LABEL_RE = re.compile(r"([A-Za-z_.$][\w.$]*):")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*([eE][+-]?\d+)?|\d+[eE][+-]?\d+)$")
_VECREG_RE = re.compile(r"^(v\d+)\.(8b|16b|4h|8h|2s|4s|1d|2d)$", re.IGNORECASE)
_SYMBOL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)(?:\s*\+\s*(\d+))?$")
_SHIFT_RE = re.compile(r"^(lsl|lsr|asr|ror)\s+#?([\w-]+)$", re.IGNORECASE)
_EXTEND_RE = re.compile(
    r"^(uxtb|uxth|uxtw|uxtx|sxtb|sxth|sxtw|sxtx)(?:\s+#?(\d+))?$", re.IGNORECASE
)
_LO12_RE = re.compile(r"^:lo12:([A-Za-z_.$][\w.$]*)$")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/")
_NESTING_RE = re.compile(r'[\[\]{}()"]')
#: A modifier operand starts with one of these letters (lsl/lsr/asr/ror,
#: uxt*/sxt*), so anything else skips both modifier patterns.
_MODIFIER_START = frozenset("lLaArRuUsS")


def _find_outside_quotes(line: str, marker: str) -> int:
    """``line.find(marker)`` that skips double-quoted stretches."""
    if '"' not in line:
        return line.find(marker)
    in_quote = False
    for i in range(len(line) - len(marker) + 1):
        if line[i] == '"':
            in_quote = not in_quote
        elif not in_quote and line.startswith(marker, i):
            return i
    return -1


def _strip_comments(line: str) -> str:
    if "/*" in line:
        line = _BLOCK_COMMENT_RE.sub(" ", line)
    for marker in ("//", "@"):
        if marker in line:
            idx = _find_outside_quotes(line, marker)
            if idx >= 0:
                line = line[:idx]
    return line.strip()


def _split_top_level(text: str) -> List[str]:
    """Split on commas outside brackets, braces, and quotes."""
    nested = _NESTING_RE.findall(text)
    if not nested:
        return [p.strip() for p in text.split(",")] if text.strip() else []
    if nested == ["[", "]"]:
        # One bracket group, the only nesting assembly text normally has:
        # split what lies before and after it, and glue the group back on.
        lb, rb = text.index("["), text.index("]")
        head, tail = text[:lb].split(","), text[rb + 1:].split(",")
        middle = head.pop() + text[lb:rb + 1] + tail.pop(0)
        return [p.strip() for p in head + [middle] + tail]
    parts: List[str] = []
    depth = start = 0
    in_quote = False
    for i, c in enumerate(text):
        if c == '"':
            in_quote = not in_quote
        elif in_quote:
            continue
        elif c in "[{(":
            depth += 1
        elif c in "]})":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts if len(parts) > 1 or parts[0] else []


def _parse_int(text: str, line: Optional[int] = None) -> int:
    text = text.strip()
    neg = text.startswith("-")
    body = text[1:] if neg or text.startswith("+") else text
    try:
        value = int(body, 0)
    except ValueError:
        raise _AsmSyntaxError(f"bad integer literal {text!r}", line)
    return -value if neg else value


def parse_operand(text: str, line: Optional[int] = None) -> Operand:
    """Parse one operand token (already comma-split at top level)."""
    text = text.strip()
    reg = _REGISTERS.get(text)
    if reg is not None:
        return reg
    if not text:
        raise _AsmSyntaxError("empty operand", line)
    first = text[0]
    if first == "[":
        return _parse_mem(text, line)
    body = text[1:].strip() if first == "#" else text
    if body.startswith(":"):
        lo12 = _LO12_RE.match(body)
        if lo12:
            return Imm(0, reloc="lo12", symbol=lo12.group(1))
    if first == "#":
        if _FLOAT_RE.match(body):
            return FloatImm(float(body))
        return Imm(_parse_int(body, line))

    vec = _VECREG_RE.match(text)
    if vec:
        reg = lookup_register(vec.group(1))
        if reg is None:
            raise _AsmSyntaxError(f"unknown register {vec.group(1)!r}", line)
        return VecReg(reg, vec.group(2).lower())

    reg = lookup_register(text)
    if reg is not None:
        return reg

    if _INT_RE.match(text):
        return Imm(_parse_int(text, line))
    if _FLOAT_RE.match(text):
        return FloatImm(float(text))

    lower = text.lower()
    if lower in CONDITION_CODES or lower in CONDITION_ALIASES:
        return Cond(CONDITION_ALIASES.get(lower, lower))

    symbol = _SYMBOL_RE.match(text)
    if symbol:
        return Label(symbol.group(1), int(symbol.group(2) or 0))
    raise _AsmSyntaxError(f"cannot parse operand {text!r}", line)


def _parse_mem(text: str, line: Optional[int]) -> Mem:
    pre_index = text.endswith("!")
    if pre_index:
        text = text[:-1].rstrip()
    if not (text.startswith("[") and text.endswith("]")):
        raise _AsmSyntaxError(f"malformed memory operand {text!r}", line)
    inner = text[1:-1].strip()
    parts = _split_top_level(inner)
    if not parts or not parts[0]:
        raise _AsmSyntaxError(f"empty memory operand {text!r}", line)
    base = lookup_register(parts[0])
    if base is None:
        raise _AsmSyntaxError(f"bad base register {parts[0]!r}", line)

    offset = None
    if len(parts) == 2:
        offset = parse_operand(parts[1], line)
        if isinstance(offset, Label):
            raise _AsmSyntaxError(f"label offset not supported: {text!r}", line)
    elif len(parts) == 3:
        reg = lookup_register(parts[1])
        if reg is None:
            raise _AsmSyntaxError(f"bad offset register {parts[1]!r}", line)
        offset = _merge_modifier(reg, parts[2], line)
    elif len(parts) > 3:
        raise _AsmSyntaxError(f"too many memory operand parts: {text!r}", line)

    return Mem(base=base, offset=offset,
               mode=PRE_INDEX if pre_index else OFFSET)


def _merge_modifier(reg, modifier: str, line: Optional[int]) -> Operand:
    """Fold ``lsl #3`` / ``uxtw #2`` onto the preceding register."""
    shift = _SHIFT_RE.match(modifier)
    if shift:
        kind = shift.group(1).lower()
        return Shifted(reg, kind, _parse_int(shift.group(2), line))
    extend = _EXTEND_RE.match(modifier)
    if extend:
        amount = extend.group(2)
        return Extended(
            reg, extend.group(1).lower(), int(amount) if amount else None
        )
    raise _AsmSyntaxError(f"bad register modifier {modifier!r}", line)


def _parse_instruction(text: str, line: Optional[int],
                       parsed: Dict[str, Operand]) -> Instruction:
    """One statement.  Operands are frozen values, so the enclosing
    ``parse_assembly`` call parses each operand text once: ``parsed`` maps
    each one it has read to its operand."""
    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    if len(parts) == 1:
        return Instruction(mnemonic, (), line)
    operands: List[Operand] = []
    for raw in _split_top_level(parts[1]):
        reg = _REGISTERS.get(raw)
        if reg is not None:
            operands.append(reg)
            continue
        if not raw:
            raise _AsmSyntaxError(f"empty operand in {text!r}", line)
        # Shift/extend modifiers attach to the previous register operand.
        if operands and raw[0] in _MODIFIER_START:
            shift = _SHIFT_RE.match(raw)
            if shift or _EXTEND_RE.match(raw):
                prev = operands[-1]
                if isinstance(prev, Reg):
                    operands[-1] = _merge_modifier(prev, raw, line)
                    continue
                if (isinstance(prev, Imm) and shift
                        and shift.group(1).lower() == "lsl"):
                    operands[-1] = ShiftedImm(
                        prev.value, _parse_int(shift.group(2), line)
                    )
                    continue
        operand = parsed.get(raw)
        if operand is None:
            operand = parsed[raw] = parse_operand(raw, line)
        operands.append(operand)

    if mnemonic in isa.MEMORY:
        _merge_post_index(operands)
    return Instruction(mnemonic, tuple(operands), line)


def _merge_post_index(operands: List[Operand]) -> None:
    """Turn ``[x1], #8`` (Mem followed by Imm) into a post-index Mem."""
    for i in range(len(operands) - 1):
        op = operands[i]
        if (isinstance(op, Mem) and op.offset is None and op.mode == OFFSET
                and isinstance(operands[i + 1], Imm)):
            operands[i:i + 2] = [Mem(op.base, operands[i + 1], POST_INDEX)]
            return


def parse_assembly(text: str) -> Program:
    """Parse GNU-syntax assembly text into a :class:`Program`."""
    items: List[Item] = []
    add = items.append
    parsed: Dict[str, Operand] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comments(raw_line)
        while line:
            if ":" in line:
                match = _LABEL_RE.match(line)
                if match:
                    add(LabelDef(match.group(1)))
                    line = line[match.end():].strip()
                    continue
            # Split multiple statements on the same line.
            semi = _find_outside_quotes(line, ";") if ";" in line else -1
            if semi >= 0:
                statement, line = line[:semi].strip(), line[semi + 1:].strip()
                if not statement:
                    continue
            else:
                statement, line = line, ""
            if statement[0] == ".":
                parts = statement.split(None, 1)
                args = (
                    tuple(_split_top_level(parts[1])) if len(parts) > 1 else ()
                )
                add(Directive(parts[0], args))
            else:
                add(_parse_instruction(statement, lineno, parsed))
    return Program(items)
