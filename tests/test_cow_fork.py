"""Tests for copy-on-write memory sharing and COW fork (paper §5.3)."""

import pytest

from repro import EngineConfig
from repro.memory import (PAGE_SIZE, PERM_R, PERM_RW, MemoryFault,
                          PagedMemory, SandboxLayout)
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall

BASE = 0x40000
ALIAS = 0x200000


def storage_of(memory, address):
    """The live storage of the page at ``address`` (which holds a non-zero
    byte): two addresses share a page's storage iff this is one object."""
    return dict(memory.nonzero_pages(address, address + 1))[address]


def slot_storage(memory, parent, child):
    """``(shared, own)``: how many of the child slot's non-zero pages hold
    the very storage of the parent's page at the same offset, and how many
    hold storage of their own."""
    mine = {address - parent.base: buf for address, buf
            in memory.nonzero_pages(parent.base, parent.end)}
    theirs = {address - child.base: buf for address, buf
              in memory.nonzero_pages(child.base, child.end)}
    shared = sum(1 for offset, buf in theirs.items()
                 if mine.get(offset) is buf)
    return shared, len(theirs) - shared


class TestShareRegion:
    @pytest.fixture
    def mem(self):
        m = PagedMemory()
        m.map_region(BASE, PAGE_SIZE * 2, PERM_RW)
        m.write(BASE, b"original")
        # Both pages written: sharing a never-written page shares nothing
        # (its first write is a zero-fill, not a copy).
        m.write(BASE + PAGE_SIZE, b"page one")
        m.share_region(BASE, ALIAS, PAGE_SIZE * 2)
        return m

    def test_alias_reads_shared_data(self, mem):
        assert mem.read(ALIAS, 8) == b"original"

    def test_no_copy_until_write(self, mem):
        mem.read(ALIAS, 8)
        mem.load(BASE, 8)
        for offset in (0, PAGE_SIZE):
            assert storage_of(mem, ALIAS + offset) is \
                storage_of(mem, BASE + offset)

    def test_write_to_alias_does_not_change_source(self, mem):
        mem.write(ALIAS, b"CHANGED!")
        assert mem.read(ALIAS, 8) == b"CHANGED!"
        assert mem.read(BASE, 8) == b"original"
        assert storage_of(mem, ALIAS) is not storage_of(mem, BASE)

    def test_write_to_source_does_not_change_alias(self, mem):
        mem.write(BASE, b"PARENT!!")
        assert mem.read(ALIAS, 8) == b"original"
        assert mem.read(BASE, 8) == b"PARENT!!"

    def test_only_touched_pages_copied(self, mem):
        mem.write(ALIAS, b"x")  # touches page 0 only
        assert storage_of(mem, ALIAS) is not storage_of(mem, BASE)
        assert storage_of(mem, ALIAS + PAGE_SIZE) is \
            storage_of(mem, BASE + PAGE_SIZE)
        mem.write(ALIAS + PAGE_SIZE, b"y")  # now page 1
        assert storage_of(mem, ALIAS + PAGE_SIZE) is not \
            storage_of(mem, BASE + PAGE_SIZE)
        assert mem.read(BASE + PAGE_SIZE, 8) == b"page one"
        assert mem.read(ALIAS + PAGE_SIZE, 8) == b"yage one"

    def test_share_of_unmapped_source_rejected(self):
        m = PagedMemory()
        with pytest.raises(ValueError):
            m.share_region(BASE, ALIAS, PAGE_SIZE)

    def test_permissions_inherited(self):
        m = PagedMemory()
        m.map_region(BASE, PAGE_SIZE, PERM_R)
        m.share_region(BASE, ALIAS, PAGE_SIZE)
        assert [perms for _, _, perms in m.mapped_regions(ALIAS)] == [PERM_R]
        assert m.read(ALIAS, 8) == bytes(8)
        assert not m.permits(ALIAS, 8, PERM_RW)
        with pytest.raises(MemoryFault) as fault:
            m.write(ALIAS, b"x")
        assert fault.value.kind == "perm"

    def test_unmap_clears_cow_state(self, mem):
        mem.unmap(ALIAS, PAGE_SIZE * 2)
        mem.write(BASE, b"still ok")
        assert mem.read(BASE, 8) == b"still ok"


FORK_PROGRAM = prologue() + """
    adrp x19, value
    add x19, x19, :lo12:value
    mov x1, #100
    str x1, [x19]
""" + rtcall(RuntimeCall.FORK) + """
    cbnz x0, parent
    // child: mutate its copy, exit with parent's-original + delta
    ldr x1, [x19]
    add x1, x1, #11
    str x1, [x19]
    ldr x0, [x19]
""" + rt_exit() + """
parent:
    adrp x1, status
    add x1, x1, :lo12:status
    mov x0, x1
""" + rtcall(RuntimeCall.WAIT) + """
    // parent's copy must still hold 100; add child's status
    ldr x1, [x19]
    adrp x2, status
    add x2, x2, :lo12:status
    ldr w3, [x2]
    add x0, x1, x3           // 100 + 111 = 211
""" + rt_exit() + """
.data
.balign 8
value: .quad 0
status: .quad 0
"""


class TestCowFork:
    def test_child_writes_do_not_leak_to_parent(self):
        runtime = Runtime()
        parent = runtime.spawn(compile_lfi(FORK_PROGRAM).elf)
        runtime.run()
        assert parent.exit_code == 211 % 256
        # COW actually engaged: the (reaped) child's slot still shares
        # some pages' storage with the parent and copied the ones it wrote.
        child = SandboxLayout.for_slot(2)
        shared, own = slot_storage(runtime.memory, parent.layout, child)
        assert shared >= 1 and own >= 1

    def test_eager_fork_matches_cow_semantics(self, monkeypatch):
        from repro.runtime import runtime as runtime_module

        runtime = Runtime()
        original_fork = runtime.fork
        monkeypatch.setattr(
            runtime, "fork", lambda proc: original_fork(proc, cow=False)
        )
        parent = runtime.spawn(compile_lfi(FORK_PROGRAM).elf)
        runtime.run()
        assert parent.exit_code == 211 % 256
        child = SandboxLayout.for_slot(2)
        shared, own = slot_storage(runtime.memory, parent.layout, child)
        assert shared == 0 and own >= 1

    def test_cow_copies_far_fewer_pages_than_eager(self):
        """The point of COW: a fork that touches little copies little."""
        runtime = Runtime()
        parent = runtime.spawn(compile_lfi(FORK_PROGRAM).elf)
        total_pages_before = runtime.memory.pages_in_range()
        runtime.run()
        # Only a handful of pages (stack + the written data page) copied.
        child = SandboxLayout.for_slot(2)
        _shared, own = slot_storage(runtime.memory, parent.layout, child)
        assert own < total_pages_before


class TestForkSuperblocks:
    """Fork interacts with the superblock cache per-slot (DESIGN.md §10)."""

    def _run_forked(self, engine):
        runtime = Runtime(engine=EngineConfig(kind=engine))
        parent = runtime.spawn(compile_lfi(FORK_PROGRAM).elf)
        runtime.run()
        return runtime, parent

    def test_fork_program_identical_across_engines(self):
        results = {}
        for engine in ("stepping", "superblock"):
            runtime, parent = self._run_forked(engine)
            results[engine] = (
                parent.exit_code,
                runtime.machine.instret,
                [(f.kind, f.detail) for f in runtime.faults],
            )
        assert results["stepping"] == results["superblock"]

    def test_child_translates_its_own_blocks(self):
        """The child's slot gets fresh translations: block keys are
        absolute pcs, so the parent's blocks are never reused."""
        from repro.memory import SandboxLayout

        runtime, parent = self._run_forked("superblock")
        sb = runtime.machine._sb
        # The (reaped) child occupied the second slot.
        child_layout = SandboxLayout.for_slot(2)
        lo, hi = child_layout.base, child_layout.end
        child_blocks = [s for s in sb._blocks if lo <= s < hi]
        parent_blocks = [s for s in sb._blocks
                         if parent.layout.base <= s < parent.layout.end]
        assert child_blocks and parent_blocks
        assert not set(child_blocks) & set(parent_blocks)

    def test_child_mmap_over_translated_text_keeps_parent_blocks(self):
        """Regression: the child remaps a page the *parent's image* had
        superblock-translated (the child's text is a COW alias of it).
        Only the child's cached blocks on that page may die; the parent's
        blocks — same code bytes, different absolute pcs — must survive
        untouched, and vice versa below."""
        from repro.memory import SandboxLayout

        runtime, parent = self._run_forked("superblock")
        sb = runtime.machine._sb
        child_layout = SandboxLayout.for_slot(2)

        def blocks_in(layout):
            return {s for s in sb._blocks
                    if layout.base <= s < layout.end}

        child_blocks = blocks_in(child_layout)
        parent_blocks = blocks_in(parent.layout)
        assert child_blocks and parent_blocks
        page = min(child_blocks) & ~(PAGE_SIZE - 1)
        # mmap(MAP_FIXED)-over-text: replace the child's COW text page
        # with a fresh anonymous mapping.
        runtime.memory.unmap(page, PAGE_SIZE)
        runtime.memory.map_region(page, PAGE_SIZE, PERM_RW)
        for start in child_blocks:
            if page <= start < page + PAGE_SIZE:
                assert sb._blocks.get(start) is None
        assert blocks_in(parent.layout) == parent_blocks

    def test_parent_mmap_over_translated_text_keeps_child_blocks(self):
        """The mirror image: remapping the parent's translated text must
        not invalidate the child's cached blocks."""
        from repro.memory import SandboxLayout

        runtime, parent = self._run_forked("superblock")
        sb = runtime.machine._sb
        child_layout = SandboxLayout.for_slot(2)

        def blocks_in(layout):
            return {s for s in sb._blocks
                    if layout.base <= s < layout.end}

        child_blocks = blocks_in(child_layout)
        parent_blocks = blocks_in(parent.layout)
        assert child_blocks and parent_blocks
        page = min(parent_blocks) & ~(PAGE_SIZE - 1)
        runtime.memory.unmap(page, PAGE_SIZE)
        runtime.memory.map_region(page, PAGE_SIZE, PERM_RW)
        for start in parent_blocks:
            if page <= start < page + PAGE_SIZE:
                assert sb._blocks.get(start) is None
        assert blocks_in(child_layout) == child_blocks

    def test_fork_then_diverge_forces_retranslation(self):
        """Patching one slot's (COW) text must retranslate only that
        slot's blocks; the other slot's stay cached."""
        from repro.memory import SandboxLayout

        runtime, parent = self._run_forked("superblock")
        sb = runtime.machine._sb
        child_layout = SandboxLayout.for_slot(2)
        lo, hi = child_layout.base, child_layout.end
        child_blocks = [s for s in sb._blocks if lo <= s < hi]
        parent_count = len([s for s in sb._blocks
                            if parent.layout.base <= s
                            < parent.layout.end])
        target = min(child_blocks)
        translations_before = runtime.machine.engine_stats()["translations"]
        # Host-side patch of one child text word (debugger / exec-style
        # divergence), via the explicit invalidation API.
        runtime.machine.invalidate_code(target, 4)
        assert sb._blocks.get(target) is None
        assert len([s for s in sb._blocks
                    if parent.layout.base <= s < parent.layout.end]) \
            == parent_count
        # Re-entering the patched pc retranslates rather than reusing.
        runtime.machine.cpu.pc = target
        try:
            runtime.machine.run(fuel=1)
        except Exception:
            pass  # any trap is fine; only translation is under test
        assert runtime.machine.engine_stats()["translations"] \
            > translations_before
        assert sb._blocks.get(target) is not None
