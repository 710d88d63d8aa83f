"""End-to-end toolchain driver: the ``lfi-clang`` equivalent (paper §5.1).

``compile_lfi`` plays the role of the paper's compiler wrapper: it takes
GNU assembly text (what Clang would emit with ``-ffixed-reg`` flags),
passes it through the LFI rewriter, assembles it to genuine machine code,
and packages an ELF executable linked at sandbox offsets.  ``compile_native``
skips the rewriter — the unsandboxed baseline.

Assembly programs use the runtime-call sequences from
:mod:`repro.workloads.rtlib` to talk to the runtime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .arm64.assembler import AssembledImage, assemble
from .arm64.parser import parse_assembly
from .core.options import O2, RewriteOptions
from .core.rewriter import RewriteResult, rewrite_program
from .elf.builder import build_elf
from .elf.format import ElfImage

__all__ = ["CompileOutput", "compile_lfi", "compile_native"]


class CompileOutput:
    """The products of one compilation: ELF image plus build metadata."""

    def __init__(self, elf: ElfImage, image: AssembledImage,
                 rewrite: Optional[RewriteResult] = None):
        self.elf = elf
        self.image = image
        self.rewrite = rewrite

    @property
    def text_size(self) -> int:
        return len(self.image.text.data)

    @property
    def binary_size(self) -> int:
        """Bytes of the loadable image: the ELF without its guard-provenance
        note, which feeds the profiler's guard map and is never mapped
        into a sandbox."""
        from .elf.format import write_elf

        return len(write_elf(replace(self.elf, provenance={})))


def compile_lfi(asm_text: str, options: RewriteOptions = O2,
                bss_size: int = 0) -> CompileOutput:
    """Assembly text -> rewritten, verified-ready sandbox executable."""
    program = parse_assembly(asm_text)
    rewritten = rewrite_program(program, options)
    image = assemble(rewritten.program)
    return CompileOutput(build_elf(image, bss_size=bss_size), image, rewritten)


def compile_native(asm_text: str, bss_size: int = 0) -> CompileOutput:
    """Assembly text -> unsandboxed executable (the baseline)."""
    image = assemble(parse_assembly(asm_text))
    return CompileOutput(build_elf(image, bss_size=bss_size), image)
