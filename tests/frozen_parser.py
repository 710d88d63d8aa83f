"""The assembly parser as it stood before the scanner rewrite (PR 17).

A reference implementation kept for ``test_arm64_parser.py``: the
scanner-based :func:`repro.arm64.parse_assembly` must produce the same
program, and the same error message and line number, as this per-character
version on every input.  Not used outside the tests.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.arm64.instructions import Instruction
from repro.arm64.operands import (
    CONDITION_ALIASES,
    CONDITION_CODES,
    EXTEND_KINDS,
    SHIFT_KINDS,
    Cond,
    Extended,
    FloatImm,
    Imm,
    Label,
    Mem,
    Operand,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    ShiftedImm,
    VecReg,
)
from repro.arm64.program import Directive, LabelDef, Program
from repro.arm64.registers import lookup_register

__all__ = ["parse_assembly", "parse_operand", "AsmSyntaxError"]


class AsmSyntaxError(ValueError):
    """Raised for malformed assembly input."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*([eE][+-]?\d+)?|\d+[eE][+-]?\d+)$")
_VECREG_RE = re.compile(r"^(v\d+)\.(8b|16b|4h|8h|2s|4s|1d|2d)$", re.IGNORECASE)
_LABEL_ADD_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*\+\s*(\d+)$")
_SHIFT_RE = re.compile(r"^(lsl|lsr|asr|ror)\s+#?([\w-]+)$", re.IGNORECASE)
_EXTEND_RE = re.compile(
    r"^(uxtb|uxth|uxtw|uxtx|sxtb|sxth|sxtw|sxtx)(?:\s+#?(\d+))?$", re.IGNORECASE
)
_LO12_RE = re.compile(r"^:lo12:([A-Za-z_.$][\w.$]*)$")


def _strip_comments(line: str) -> str:
    line = re.sub(r"/\*.*?\*/", " ", line)
    for marker in ("//", "@"):
        idx = _find_outside_quotes(line, marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _find_outside_quotes(line: str, marker: str) -> int:
    in_quote = False
    i = 0
    while i < len(line) - len(marker) + 1:
        c = line[i]
        if c == '"':
            in_quote = not in_quote
        elif not in_quote and line.startswith(marker, i):
            return i
        i += 1
    return -1


def _split_top_level(text: str, sep: str = ",") -> List[str]:
    """Split on ``sep`` outside brackets, braces, and quotes."""
    parts: List[str] = []
    depth = 0
    in_quote = False
    current: List[str] = []
    for c in text:
        if c == '"':
            in_quote = not in_quote
            current.append(c)
        elif in_quote:
            current.append(c)
        elif c in "[{(":
            depth += 1
            current.append(c)
        elif c in "]})":
            depth -= 1
            current.append(c)
        elif c == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(c)
    tail = "".join(current).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def _parse_int(text: str, line: Optional[int] = None) -> int:
    text = text.strip()
    neg = text.startswith("-")
    if neg or text.startswith("+"):
        body = text[1:]
    else:
        body = text
    try:
        value = int(body, 0)
    except ValueError:
        raise AsmSyntaxError(f"bad integer literal {text!r}", line)
    return -value if neg else value


def parse_operand(text: str, line: Optional[int] = None) -> Operand:
    """Parse one operand token (already comma-split at top level)."""
    text = text.strip()
    if not text:
        raise AsmSyntaxError("empty operand", line)

    if text.startswith("["):
        return _parse_mem(text, line)

    if text.startswith("#"):
        body = text[1:].strip()
        lo12 = _LO12_RE.match(body)
        if lo12:
            return Imm(0, reloc="lo12", symbol=lo12.group(1))
        if _FLOAT_RE.match(body):
            return FloatImm(float(body))
        return Imm(_parse_int(body, line))

    lo12 = _LO12_RE.match(text)
    if lo12:
        return Imm(0, reloc="lo12", symbol=lo12.group(1))

    vec = _VECREG_RE.match(text)
    if vec:
        reg = lookup_register(vec.group(1))
        if reg is None:
            raise AsmSyntaxError(f"unknown register {vec.group(1)!r}", line)
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

    plus = _LABEL_ADD_RE.match(text)
    if plus:
        return Label(plus.group(1), int(plus.group(2)))
    if re.match(r"^[A-Za-z_.$][\w.$]*$", text):
        return Label(text)
    raise AsmSyntaxError(f"cannot parse operand {text!r}", line)


def _parse_mem(text: str, line: Optional[int]) -> Mem:
    pre_index = text.endswith("!")
    if pre_index:
        text = text[:-1].rstrip()
    if not (text.startswith("[") and text.endswith("]")):
        raise AsmSyntaxError(f"malformed memory operand {text!r}", line)
    inner = text[1:-1].strip()
    parts = _split_top_level(inner)
    if not parts or not parts[0]:
        raise AsmSyntaxError(f"empty memory operand {text!r}", line)
    base = lookup_register(parts[0])
    if base is None:
        raise AsmSyntaxError(f"bad base register {parts[0]!r}", line)

    offset = None
    if len(parts) == 2:
        offset = parse_operand(parts[1], line)
        if isinstance(offset, Label):
            raise AsmSyntaxError(f"label offset not supported: {text!r}", line)
    elif len(parts) == 3:
        reg = lookup_register(parts[1])
        if reg is None:
            raise AsmSyntaxError(f"bad offset register {parts[1]!r}", line)
        offset = _merge_modifier(reg, parts[2], line)
    elif len(parts) > 3:
        raise AsmSyntaxError(f"too many memory operand parts: {text!r}", line)

    mode = PRE_INDEX if pre_index else "offset"
    return Mem(base=base, offset=offset, mode=mode)


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
    raise AsmSyntaxError(f"bad register modifier {modifier!r}", line)


def _parse_instruction(text: str, line: Optional[int]) -> Instruction:
    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    if len(parts) == 1:
        return Instruction(mnemonic, (), line)
    raw_ops = _split_top_level(parts[1])
    operands: List[Operand] = []
    for raw in raw_ops:
        if not raw:
            raise AsmSyntaxError(f"empty operand in {text!r}", line)
        # Shift/extend modifiers attach to the previous register operand.
        if operands and (_SHIFT_RE.match(raw) or _EXTEND_RE.match(raw)):
            prev = operands[-1]
            from repro.arm64.registers import Reg

            if isinstance(prev, Reg):
                operands[-1] = _merge_modifier(prev, raw, line)
                continue
            shift = _SHIFT_RE.match(raw)
            if isinstance(prev, Imm) and shift and shift.group(1).lower() == "lsl":
                operands[-1] = ShiftedImm(
                    prev.value, _parse_int(shift.group(2), line)
                )
                continue
        operands.append(parse_operand(raw, line))

    operands = _merge_post_index(mnemonic, operands)
    return Instruction(mnemonic, tuple(operands), line)


def _merge_post_index(mnemonic: str, operands: List[Operand]) -> List[Operand]:
    """Turn ``[x1], #8`` (Mem followed by Imm) into a post-index Mem."""
    from repro.arm64 import isa

    if not isa.is_memory(mnemonic):
        return operands
    for i, op in enumerate(operands):
        if (
            isinstance(op, Mem)
            and op.offset is None
            and op.mode == "offset"
            and i + 1 < len(operands)
            and isinstance(operands[i + 1], Imm)
        ):
            merged = Mem(base=op.base, offset=operands[i + 1], mode=POST_INDEX)
            return operands[:i] + [merged] + operands[i + 2:]
    return operands


def parse_assembly(text: str) -> Program:
    """Parse GNU-syntax assembly text into a :class:`Program`."""
    program = Program()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comments(raw_line)
        while line:
            match = _LABEL_RE.match(line)
            if match:
                program.add(LabelDef(match.group(1)))
                line = line[match.end():].strip()
                continue
            # Split multiple statements on the same line.
            semi = _find_outside_quotes(line, ";")
            statement, line = (
                (line[:semi].strip(), line[semi + 1:].strip())
                if semi >= 0
                else (line, "")
            )
            if not statement:
                continue
            if statement.startswith("."):
                parts = statement.split(None, 1)
                args = (
                    tuple(_split_top_level(parts[1])) if len(parts) > 1 else ()
                )
                program.add(Directive(parts[0], args))
            else:
                program.add(_parse_instruction(statement, lineno))
    return program
