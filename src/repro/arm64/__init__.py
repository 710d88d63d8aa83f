"""ARM64 (AArch64) ISA substrate: registers, operands, instructions,
GNU-assembly parsing/printing, and genuine ARMv8.0 machine-code
encoding/decoding for the supported instruction subset.

This package is the foundation the paper's toolchain operates on: the
rewriter transforms parsed assembly, the assembler encodes it to machine
code, and the verifier decodes machine code back for its linear check.
"""

from .instructions import Instruction, access_bytes, ins, total_access_bytes
from .operands import (
    Cond,
    Extended,
    FloatImm,
    Imm,
    Label,
    Mem,
    OFFSET,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    VecReg,
)
from ..errors import AsmSyntaxError, AssembleError, EncodeError
from .parser import parse_assembly, parse_operand
from .printer import format_item, print_assembly
from .program import DATA_DIRECTIVES, Directive, LabelDef, Program
from .registers import (
    D,
    LR,
    Q,
    Reg,
    S,
    SP,
    V,
    W,
    WSP,
    WZR,
    X,
    XZR,
    lookup_register,
    parse_register,
)

__all__ = [
    "Instruction",
    "ins",
    "access_bytes",
    "total_access_bytes",
    "Cond",
    "Extended",
    "FloatImm",
    "Imm",
    "Label",
    "Mem",
    "OFFSET",
    "POST_INDEX",
    "PRE_INDEX",
    "Shifted",
    "VecReg",
    "AsmSyntaxError",
    "AssembleError",
    "EncodeError",
    "parse_assembly",
    "parse_operand",
    "format_item",
    "print_assembly",
    "DATA_DIRECTIVES",
    "Directive",
    "LabelDef",
    "Program",
    "Reg",
    "X",
    "W",
    "V",
    "D",
    "S",
    "Q",
    "SP",
    "WSP",
    "XZR",
    "WZR",
    "LR",
    "lookup_register",
    "parse_register",
]
