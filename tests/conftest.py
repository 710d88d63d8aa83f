"""Shared test helpers: assemble-and-run for raw (non-sandboxed) programs."""

from __future__ import annotations

import pytest

from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.elf import PF_X, build_elf
from repro.emulator import HltTrap, Machine, superblock
from repro.emulator import machine as machine_module
from repro.memory import PERM_RW, PERM_RX, PagedMemory


def load_elf_into(memory: PagedMemory, elf) -> None:
    """Map an ELF image into memory with its segment permissions."""
    page = memory.page_size
    for seg in elf.segments:
        base = seg.vaddr & ~(page - 1)
        end = (seg.vaddr + max(seg.memsz, 1) + page - 1) & ~(page - 1)
        memory.map_region(base, end - base, PERM_RW)
        memory.load_image(seg.vaddr, seg.data)
        memory.protect(base, end - base,
                       PERM_RX if seg.flags & PF_X else PERM_RW)


def flush_translation_caches() -> None:
    """Forget every block template and word fact the process has derived:
    the next start of any image is a first start."""
    superblock._TEMPLATES.clear()
    machine_module.WORD_FACTS.clear()


def run_asm(source: str, model=None, max_steps: int = 1_000_000,
            stack_size: int = 0x10000) -> Machine:
    """Assemble and run a bare program until it executes ``hlt``."""
    image = assemble(parse_assembly(source))
    elf = build_elf(image)
    memory = PagedMemory()
    load_elf_into(memory, elf)
    stack_top = 0x7000_0000
    memory.map_region(stack_top - stack_size, stack_size, PERM_RW)
    machine = Machine(memory, model=model)
    machine.cpu.pc = elf.entry
    machine.cpu.sp = stack_top
    try:
        machine.run(fuel=max_steps)
    except HltTrap:
        return machine
    raise AssertionError("program did not halt")


@pytest.fixture
def asm_runner():
    return run_asm


@pytest.fixture(scope="session")
def example_traffic():
    """What the ``examples/`` scripts feed the toolchain: every assembly
    source they parse and every ``(text, base, policy)`` they verify."""
    import contextlib
    import io
    import runpy
    import sys
    from pathlib import Path

    import repro.toolchain as toolchain
    from repro.core.verifier import Verifier

    sources, texts = [], []
    real_parse, real_verify = toolchain.parse_assembly, Verifier.verify_text

    def parse(text):
        sources.append(text)
        return real_parse(text)

    def verify(self, data, base=0):
        texts.append((bytes(data), base, self.policy))
        return real_verify(self, data, base)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toolchain, "parse_assembly", parse)
        patch.setattr(Verifier, "verify_text", verify)
        for path in sorted((Path(__file__).parent.parent
                            / "examples").glob("*.py")):
            patch.setattr(sys, "argv", [str(path)])
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    runpy.run_path(str(path), run_name="__main__")
                except SystemExit as exc:
                    assert not exc.code, f"{path.name} exited {exc.code}"
    assert sources and texts
    return sources, texts
