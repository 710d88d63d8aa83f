"""Tests for the paged memory substrate and sandbox layout math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    GUARD_SIZE,
    MAX_SANDBOXES_48BIT,
    PAGE_SIZE,
    PERM_R,
    PERM_RW,
    PERM_RX,
    PERM_W,
    MemoryFault,
    PagedMemory,
    SANDBOX_SIZE,
    SandboxLayout,
)


@pytest.fixture
def mem():
    memory = PagedMemory()
    memory.map_region(0x10000 * 4, PAGE_SIZE * 4, PERM_RW)
    return memory


BASE = 0x40000


class TestPagedMemory:
    def test_read_write_roundtrip(self, mem):
        mem.write(BASE + 100, b"hello")
        assert mem.read(BASE + 100, 5) == b"hello"

    def test_zero_initialized(self, mem):
        assert mem.read(BASE, 16) == bytes(16)

    def test_unmapped_read_faults(self, mem):
        with pytest.raises(MemoryFault) as exc:
            mem.read(0x999_0000, 4)
        assert exc.value.kind == "unmapped"

    def test_write_to_readonly_faults(self):
        memory = PagedMemory()
        memory.map_region(BASE, PAGE_SIZE, PERM_R)
        with pytest.raises(MemoryFault) as exc:
            memory.write(BASE, b"x")
        assert exc.value.kind == "perm"

    def test_execute_needs_x(self, mem):
        with pytest.raises(MemoryFault):
            mem.fetch(BASE)  # PERM_RW, no X

    def test_fetch_alignment(self):
        memory = PagedMemory()
        memory.map_region(BASE, PAGE_SIZE, PERM_RX)
        with pytest.raises(MemoryFault) as exc:
            memory.fetch(BASE + 2)
        assert exc.value.kind == "align"

    def test_cross_page_access(self, mem):
        addr = BASE + PAGE_SIZE - 3
        mem.write(addr, b"abcdef")
        assert mem.read(addr, 6) == b"abcdef"

    def test_cross_page_fault_if_second_unmapped(self):
        memory = PagedMemory()
        memory.map_region(BASE, PAGE_SIZE, PERM_RW)
        with pytest.raises(MemoryFault):
            memory.write(BASE + PAGE_SIZE - 2, b"abcd")

    def test_protect_changes_perms(self, mem):
        mem.protect(BASE, PAGE_SIZE, PERM_R)
        mem.read(BASE, 8)
        with pytest.raises(MemoryFault):
            mem.write(BASE, b"x")

    def test_unmap(self, mem):
        mem.unmap(BASE, PAGE_SIZE)
        with pytest.raises(MemoryFault):
            mem.read(BASE, 1)

    def test_unaligned_map_rejected(self):
        memory = PagedMemory()
        with pytest.raises(ValueError):
            memory.map_region(123, PAGE_SIZE, PERM_RW)

    def test_u64_helpers(self, mem):
        mem.store(BASE, 8, 0xDEADBEEF12345678)
        assert mem.load(BASE, 8) == 0xDEADBEEF12345678
        mem.write_u32(BASE + 8, 0xCAFEBABE)
        assert mem.load(BASE + 8, 4) == 0xCAFEBABE

    def test_cstring(self, mem):
        mem.write(BASE, b"hello\x00world")
        assert mem.read_cstring(BASE) == b"hello"

    def test_cstring_at_a_page_boundary(self):
        """Scanned a page at a time, a string ends, faults and runs out
        exactly where the byte-at-a-time read would have it."""
        def bytewise(memory, address, limit):
            out = bytearray()
            while len(out) < limit:
                byte = memory.read(address + len(out), 1)[0]
                if byte == 0:
                    return bytes(out)
                out.append(byte)
            raise MemoryFault("perm", address, "read", "unterminated string")

        memory = PagedMemory(page_size=64)
        memory.map_region(0, 64 * 3, PERM_RW)   # written, never written
        memory.map_region(64 * 3, 64, PERM_RW)  # written, then a hole
        memory.map_region(64 * 5, 64, PERM_RW)  # written, then write-only
        memory.map_region(64 * 6, 64, 2)
        for page in (0, 3, 5):
            memory._raw_write(64 * page, b"x" * 64)
        memory._raw_write(64 * 2, b"yz\0")
        for start in (0, 1, 60, 63, 64, 127, 128, 130, 192, 250, 320, 383):
            for limit in (1, 3, 4, 5, 64, 65, 66, 69, 70, 200, 4096):
                outcomes = []
                for read in (bytewise, PagedMemory.read_cstring):
                    try:
                        outcomes.append(read(memory, start, limit))
                    except MemoryFault as fault:
                        outcomes.append((fault.kind, fault.address,
                                         fault.access, str(fault)))
                assert outcomes[0] == outcomes[1], (start, limit)
        # Page 0 runs into page 1 (zeros: the string ends at its first
        # byte); page 3 into the hole; page 5 into an unreadable page.
        assert memory.read_cstring(60) == b"xxxx"
        assert memory.read_cstring(128) == b"yz"
        with pytest.raises(MemoryFault) as hole:
            memory.read_cstring(250)
        assert (hole.value.kind, hole.value.address) == ("unmapped", 256)
        with pytest.raises(MemoryFault) as unreadable:
            memory.read_cstring(330)
        assert (unreadable.value.kind, unreadable.value.address) \
            == ("perm", 384)
        with pytest.raises(MemoryFault, match="unterminated string") as long:
            memory.read_cstring(2, limit=62)
        assert long.value.address == 2

    def test_mapped_regions_coalesced(self):
        memory = PagedMemory()
        memory.map_region(BASE, PAGE_SIZE * 2, PERM_RW)
        memory.map_region(BASE + PAGE_SIZE * 2, PAGE_SIZE, PERM_RX)
        regions = list(memory.mapped_regions())
        assert regions == [
            (BASE, PAGE_SIZE * 2, PERM_RW),
            (BASE + PAGE_SIZE * 2, PAGE_SIZE, PERM_RX),
        ]

    @given(st.integers(min_value=0, max_value=PAGE_SIZE * 4 - 64),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_property_write_read(self, offset, data):
        memory = PagedMemory()
        memory.map_region(BASE, PAGE_SIZE * 4, PERM_RW)
        memory.write(BASE + offset, data)
        assert memory.read(BASE + offset, len(data)) == data


class TestSandboxLayout:
    def test_constants(self):
        """Paper §3: 4GiB sandboxes, 48KiB guards, 64Ki sandboxes in 48 bits."""
        assert SANDBOX_SIZE == 1 << 32
        assert GUARD_SIZE == 48 * 1024
        assert GUARD_SIZE > 2**15 + 2**10
        assert MAX_SANDBOXES_48BIT == 65536

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            SandboxLayout(0x1234)

    def test_slot_math(self):
        layout = SandboxLayout.for_slot(3)
        assert layout.base == 3 * SANDBOX_SIZE
        assert layout.slot == 3
        assert layout.end == 4 * SANDBOX_SIZE

    def test_regions_ordered_and_disjoint(self):
        layout = SandboxLayout.for_slot(1)
        assert layout.table_base == layout.base
        assert layout.usable_base == layout.base + PAGE_SIZE + GUARD_SIZE
        assert layout.usable_end == layout.end - GUARD_SIZE
        assert layout.usable_base < layout.code_limit < layout.usable_end

    def test_code_keepout_is_128mib(self):
        layout = SandboxLayout.for_slot(0)
        assert layout.end - layout.code_limit == 128 * 1024 * 1024

    def test_guard_semantics(self):
        """The add-uxtw guard forces any value into the sandbox (§3)."""
        layout = SandboxLayout.for_slot(5)
        evil = (7 << 32) | 0x1234
        assert layout.guarded(evil) == layout.base + 0x1234
        inside = layout.base + 0x8000
        assert layout.guarded(inside) == inside

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200)
    def test_guard_always_in_sandbox(self, value):
        layout = SandboxLayout.for_slot(9)
        assert layout.base <= layout.guarded(value) < layout.end

    def test_offset_of(self):
        layout = SandboxLayout.for_slot(2)
        assert layout.guarded(layout.base + 42) - layout.base == 42
