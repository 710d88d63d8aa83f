"""Sparse paged virtual memory with R/W/X permissions and faults.

This is the substitute for real MMU-protected memory (see DESIGN.md §2):
guard regions are genuinely unmapped, the text segment is mapped
read+execute-only, and any access that violates permissions raises a
:class:`MemoryFault`, exactly the behaviour the paper's runtime relies on
for stack-pointer guard elision and write protection of code.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from .layout import SANDBOX_BITS, slot_keys

__all__ = [
    "PERM_R",
    "PERM_W",
    "PERM_X",
    "PERM_RW",
    "PERM_RX",
    "MemoryFault",
    "PagedMemory",
]

PERM_R = 0b001
PERM_W = 0b010
PERM_X = 0b100
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X

#: Default page size: 16KiB, matching Apple ARM64 machines (paper §3).
DEFAULT_PAGE_SIZE = 16 * 1024

#: In-place little-endian codecs of the common access sizes (the rest go
#: through ``int.from_bytes`` / ``int.to_bytes``).
_U32, _U64 = struct.Struct("<I"), struct.Struct("<Q")

_FAULT_NAMES = {"unmapped": "unmapped address", "perm": "permission violation",
                "align": "misaligned access"}


class MemoryFault(Exception):
    """A memory access trap (unmapped page, permission, or alignment)."""

    def __init__(self, kind: str, address: int, access: str,
                 detail: str = ""):
        self.kind = kind
        self.address = address
        self.access = access  # "read" | "write" | "execute"
        message = (
            f"{_FAULT_NAMES.get(kind, kind)} on {access} at {address:#x}"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class PagedMemory:
    """A sparse page-granular address space.

    The per-slot permission runs are the only record of what is *mapped*
    and how; storage exists only for pages that have been *written*
    (demand-zero, like an anonymous ``mmap``).  Reading a mapped,
    never-written page returns zeros and allocates nothing; the first
    write allocates.  Which pages have storage is not observable through
    any public accessor.  All multi-byte accessors are little-endian,
    matching AArch64.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 va_bits: int = 48):
        if page_size & (page_size - 1):
            raise ValueError("page size must be a power of two")
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._offset_mask = page_size - 1
        self.va_bits = va_bits
        self.va_limit = 1 << va_bits
        #: page -> storage, for written (and still mapped) pages only.
        self._pages: Dict[int, bytearray] = {}
        #: ``page >> _slot_shift`` is the page's 4 GiB slot.
        self._slot_shift = SANDBOX_BITS - self._page_shift
        #: slot -> its maximal permission runs ``(first_page, end_page,
        #: perms)``, ascending: every mapped page, written or not, lies in
        #: exactly one.  A slot with no mapped page has no entry here, nor
        #: in ``_stored``.
        self._runs: Dict[int, List[Tuple[int, int, int]]] = {}
        #: slot -> its pages that have storage: ``_pages``' keys by slot.
        self._stored: Dict[int, set] = {}
        #: Pages whose storage is shared and must be copied before a write
        #: (single-address-space copy-on-write fork, paper §5.3).
        self._cow: set = set()
        self._zeros = bytes(page_size)
        #: Optional callback ``(address, size)`` invoked on every
        #: permission-checked write.  The containment auditor uses it to
        #: attribute stores to the sandbox that issued them.
        self.write_observer = None
        #: ``(weakref to an owner, function)`` pairs: ``function(owner,
        #: address, size)`` is invoked whenever the *mapping* of a region
        #: changes (map, unmap, protect, share) while the owner lives.
        #: The machine uses this to drop translated superblocks and cached
        #: decodes whose backing text may have changed; held weakly, the
        #: memory keeps no machine alive.
        self.map_observers: list = []

    def _notify_map_change(self, address: int, size: int) -> None:
        for owner, observer in self.map_observers:
            owner = owner()
            if owner is not None:
                observer(owner, address, size)

    # -- per-slot tables: a query about one slot reads that slot alone ------

    def _perm(self, page: int) -> Optional[int]:
        """The permissions ``page`` is mapped with (None: unmapped), found
        by bisecting its slot's runs: ``(page, 1 << 64)`` sorts after every
        run that starts at or below ``page``."""
        runs = self._runs.get(page >> self._slot_shift)
        if runs:
            at = bisect_right(runs, (page, 1 << 64)) - 1
            first, end, perms = runs[at]
            if first <= page < end:
                return perms
        return None

    def _runs_in(self, first: int, end: int) -> List[Tuple[int, int, int]]:
        """``(first_page, end_page, perms)`` of the runs over pages
        ``[first, end)``, clipped to it, ascending."""
        if first >= end:
            return []
        runs = self._runs
        return [(max(f, first), min(e, end), perms)
                for slot in slot_keys(runs, first >> self._slot_shift,
                                      (end - 1) >> self._slot_shift)
                for f, e, perms in runs[slot] if f < end and e > first]

    def _mapped_prefix(self, first: int, end: int) -> Tuple[list, int]:
        """``(runs, stop)``: the runs over ``[first, end)`` up to ``stop``,
        its first unmapped page (or ``end``)."""
        runs = []
        for run in self._runs_in(first, end):
            if run[0] != first:
                break
            runs.append(run)
            first = run[1]
        return runs, first

    def _paint(self, first: int, end: int, perms: Optional[int]) -> None:
        """Make pages ``[first, end)`` one run of ``perms`` (``None``:
        unmapped) in the run lists of the slots they lie in."""
        shift, table = self._slot_shift, self._runs
        while first < end:
            slot = first >> shift
            stop = min(end, (slot + 1) << shift)
            old = table.get(slot, ())
            runs = [(f, min(e, first), p) for f, e, p in old if f < first]
            after = [(max(f, stop), e, p) for f, e, p in old if e > stop]
            if perms is not None:  # joined to the neighbours it meets
                run = (first, stop, perms)
                if runs and runs[-1][1] == first and runs[-1][2] == perms:
                    run = (runs.pop()[0], stop, perms)
                if after and after[0][0] == stop and after[0][2] == perms:
                    run = (run[0], after.pop(0)[1], perms)
                runs.append(run)
            runs += after
            if runs:
                table[slot] = runs
            elif old:
                del table[slot]
            first = stop

    def _stored_in(self, first: int, end: int) -> List[int]:
        """The pages in ``[first, end)`` that have storage, ascending."""
        stored = self._stored
        pages = [page for slot in slot_keys(stored, first >> self._slot_shift,
                                            (end - 1) >> self._slot_shift)
                 for page in stored[slot] if first <= page < end]
        pages.sort()
        return pages

    def _hold(self, page: int, buf: bytearray) -> bytearray:
        """Give the mapped ``page`` the storage ``buf``."""
        self._pages[page] = buf
        self._stored.setdefault(page >> self._slot_shift, set()).add(page)
        return buf

    def _drop_storage(self, first: int, end: int) -> None:
        """Forget the storage of the pages in ``[first, end)``."""
        pages, cow, stored = self._pages, self._cow, self._stored
        for slot in slot_keys(stored, first >> self._slot_shift,
                              (end - 1) >> self._slot_shift):
            held = stored[slot]
            dead = [page for page in held if first <= page < end]
            for page in dead:
                del pages[page]
            cow.difference_update(dead)
            held.difference_update(dead)
            if not held:
                del stored[slot]

    # -- mapping -----------------------------------------------------------

    def _page_range(self, address: int, size: int) -> range:
        if address % self.page_size or size % self.page_size:
            raise ValueError(
                f"region {address:#x}+{size:#x} not page-aligned"
            )
        return range(address // self.page_size,
                     (address + size) // self.page_size)

    def _pages_between(self, lo: int, hi: Optional[int]) -> Tuple[int, int]:
        """``[first, end)``: the pages whose base lies in ``[lo, hi)``."""
        ps = self.page_size
        return -(-lo // ps), -(-(self.va_limit if hi is None else hi) // ps)

    def map_region(self, address: int, size: int, perms: int) -> None:
        """Map (or re-map) a page-aligned region with the given permissions."""
        if address < 0 or address + size > self.va_limit:
            raise ValueError(f"region outside {self.va_bits}-bit VA space")
        pages = self._page_range(address, size)
        self._paint(pages.start, pages.stop, perms)
        self._notify_map_change(address, size)

    def protect(self, address: int, size: int, perms: int) -> None:
        """Change permissions of an already-mapped region (up to its first
        unmapped page, which raises)."""
        pages = self._page_range(address, size)
        done = self._mapped_prefix(pages.start, pages.stop)[1]
        self._paint(pages.start, done, perms)
        self._notify_map_change(address, size)
        if done < pages.stop:
            raise ValueError(f"page at {done * self.page_size:#x} not mapped")

    def unmap(self, address: int, size: int) -> None:
        pages = self._page_range(address, size)
        first, end = pages.start, pages.stop
        # Only written pages have storage, and only those can be COW.
        self._drop_storage(first, end)
        self._paint(first, end, None)
        self._notify_map_change(address, size)

    def share_region(self, src: int, dst: int, size: int,
                     perms: Optional[int] = None) -> None:
        """Map ``dst`` onto the same storage as ``src``, copy-on-write.

        This is the paper's memfd-style fork optimization (§5.3): the same
        memory appears at multiple places in the address space, and pages
        are physically copied only when either side first writes.  Pages
        are shared as if one by one in address order; an unmapped source
        page stops that and raises.
        """
        pages = self._page_range(src, size)
        shift = self._page_range(dst, size).start - pages.start
        # A step of at most |shift| pages never reads a page it writes,
        # so overlapping ranges come out as page by page.
        step = abs(shift) or len(pages) or 1
        for first in range(pages.start, pages.stop, step):
            end = min(first + step, pages.stop)
            runs, done = self._mapped_prefix(first, end)
            self._share(runs, first, done, shift, perms)
            if done < end:
                self._notify_map_change(dst, size)
                raise ValueError(f"source page {done * self.page_size:#x} "
                                 f"not mapped")
        self._notify_map_change(dst, size)

    def _share(self, runs: list, first: int, end: int, shift: int,
               perms: Optional[int]) -> None:
        """Share the mapped ``[first, end)`` (``runs``) onto the disjoint
        pages ``shift`` on."""
        held = [(page, self._pages[page])
                for page in self._stored_in(first, end)]
        # Never-written source pages have nothing to share, and the
        # destination's own storage reads as zeros from here on.
        self._drop_storage(first + shift, end + shift)
        for f, e, run_perms in runs:
            self._paint(f + shift, e + shift,
                        run_perms if perms is None else perms)
        cow = self._cow
        for page, buf in held:
            self._hold(page + shift, buf)
            cow.add(page)
            cow.add(page + shift)

    def _writable(self, page: int, address: int) -> bytearray:
        """Private storage for a mapped page: zero-filled on the first
        write, copied out if it is still shared."""
        buf = self._pages.get(page)
        if buf is None:
            if self._perm(page) is None:
                raise MemoryFault("unmapped", address, "write")
            buf = self._hold(page, bytearray(self.page_size))
        elif page in self._cow:
            buf = self._pages[page] = bytearray(buf)
            self._cow.discard(page)
        return buf

    def pages_in_range(self, lo: int = 0, hi: Optional[int] = None) -> int:
        """Number of mapped pages whose base lies in ``[lo, hi)``.

        Used by the runtime to enforce per-sandbox mapped-page quotas at
        the memory boundary (mappings count, written or not).
        """
        return sum(e - f for f, e, _perms
                   in self._runs_in(*self._pages_between(lo, hi)))

    def nonzero_pages(self, lo: int = 0, hi: Optional[int] = None,
                      cow: bool = False) -> Iterator[Tuple[int, bytearray]]:
        """Yield (address, storage) in address order for the pages based
        in ``[lo, hi)`` that hold a non-zero byte.

        Selected by content, not by history: a page zeroed by stores and
        one never touched are both skipped.  The storage is live; callers
        read it, never write it.  With ``cow=True`` each yielded page is
        marked copy-on-write, so the next guest write replaces the
        storage object instead of changing it (incremental checkpoints
        detect clean pages by identity).
        """
        ps = self.page_size
        for page in self._stored_in(*self._pages_between(lo, hi)):
            buf = self._pages[page]
            if buf != self._zeros:
                if cow:
                    self._cow.add(page)
                yield page * ps, buf

    def mapped_regions(self, lo: int = 0, hi: Optional[int] = None,
                       ) -> Iterator[Tuple[int, int, int]]:
        """Yield (base, size, perms) for maximal contiguous mapped runs
        of pages based in ``[lo, hi)``."""
        ps, run = self.page_size, None
        for first, end, perms in self._runs_in(*self._pages_between(lo, hi)):
            if run and run[1] == first and run[2] == perms:
                run = (run[0], end, perms)  # one run across a slot boundary
                continue
            if run:
                yield run[0] * ps, (run[1] - run[0]) * ps, run[2]
            run = (first, end, perms)
        if run:
            yield run[0] * ps, (run[1] - run[0]) * ps, run[2]

    # -- access ------------------------------------------------------------

    def _check(self, address: int, size: int, need: int, access: str) -> None:
        page = address // self.page_size
        end_page = (address + size - 1) // self.page_size
        for p in range(page, end_page + 1):
            perms = self._perm(p)
            if perms is None:
                raise MemoryFault("unmapped", address, access)
            if perms & need != need:
                raise MemoryFault("perm", address, access)

    def permits(self, address: int, size: int, need: int) -> bool:
        """Whether ``read``/``write`` of ``size`` (> 0) bytes would pass
        its check: every page mapped with ``need``.  Touches nothing."""
        shift = self._page_shift
        for page in range(address >> shift,
                          ((address + size - 1) >> shift) + 1):
            if (self._perm(page) or 0) & need != need:
                return False
        return True

    def read(self, address: int, size: int) -> bytes:
        # Fast path: a permitted access within one page (the common case
        # for aligned word loads).  Any failure falls back to the checked
        # path below so the fault kind/message stays identical.
        ps = self.page_size
        page = address // ps
        offset = address - page * ps
        if offset + size <= ps:
            perms = self._perm(page)
            if perms is not None and perms & PERM_R:
                buf = self._pages.get(page)
                if buf is not None:
                    return bytes(buf[offset:offset + size])
                return bytes(size)
        self._check(address, size, PERM_R, "read")
        return self._raw_read(address, size)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        ps = self.page_size
        page = address // ps
        offset = address - page * ps
        if (offset + size <= ps and self.write_observer is None
                and page not in self._cow):
            perms = self._perm(page)
            if perms is not None and perms & PERM_W:
                buf = self._pages.get(page)
                if buf is None:  # the first write: no shared storage
                    buf = self._hold(page, bytearray(ps))
                buf[offset:offset + size] = data
                return
        self._check(address, size, PERM_W, "write")
        if self.write_observer is not None:
            self.write_observer(address, size)
        self._raw_write(address, data)

    def load(self, address: int, size: int) -> int:
        """The little-endian integer ``read(address, size)`` holds, without
        the ``bytes`` in between: the same checks, the same faults."""
        offset = address & self._offset_mask
        if offset + size <= self.page_size:
            page = address >> self._page_shift
            perms = self._perm(page)
            if perms is not None and perms & PERM_R:
                buf = self._pages.get(page)
                if buf is None:
                    return 0
                if size == 8:
                    return _U64.unpack_from(buf, offset)[0]
                if size == 4:
                    return _U32.unpack_from(buf, offset)[0]
                if size == 1:
                    return buf[offset]
                return int.from_bytes(buf[offset:offset + size], "little")
        return int.from_bytes(self.read(address, size), "little")

    def store(self, address: int, size: int, value: int) -> None:
        """``write(address, value.to_bytes(size, "little"))`` for a value
        that fits: the same checks, faults, copies and observer calls."""
        offset = address & self._offset_mask
        page = address >> self._page_shift
        if (offset + size <= self.page_size and self.write_observer is None
                and page not in self._cow):
            perms = self._perm(page)
            if perms is not None and perms & PERM_W:
                buf = self._pages.get(page)
                if buf is None:  # the first write: no shared storage
                    buf = self._hold(page, bytearray(self.page_size))
                if size == 8:
                    _U64.pack_into(buf, offset, value)
                elif size == 4:
                    _U32.pack_into(buf, offset, value)
                else:
                    buf[offset:offset + size] = value.to_bytes(size, "little")
                return
        self.write(address, value.to_bytes(size, "little"))

    # -- the in-page fast path as source (DESIGN.md §10) ----------------------
    # For one call a generated block body keeps in locals the page it last
    # read (``rbase``: its address, ``rbuf``: its storage, or the zero page)
    # and the page it last wrote (``wbase``/``wbuf``): an access inside one
    # is a hit, anything else the method itself, then a refill.

    #: Empties both entries (no access lies within a page of 1 << 64): a
    #: body's first line, and what follows anything that may replace a
    #: page's storage behind its back.
    DROP_SOURCE = f"rbase = wbase = {1 << 64}"

    def source_objects(self) -> Dict[str, object]:
        """What the lines below name besides the body's own locals;
        ``lim<n>`` is the last offset at which n bytes end in their page."""
        return {"load": self.load, "store": self.store, "memory": self,
                "pages_get": self._pages.get, "cow": self._cow,
                "zeros": self._zeros, "pg_shift": self._page_shift,
                "pg_base": -self.page_size,
                "u64_from": _U64.unpack_from, "u64_into": _U64.pack_into,
                "u32_from": _U32.unpack_from, "u32_into": _U32.pack_into,
                **{f"lim{n}": self.page_size - n for n in (1, 2, 4, 8, 16)}}

    @staticmethod
    def load_source(dest: str, size: int, at: str = "addr",
                    post: str = "") -> List[str]:
        """``dest = load(at, size)post`` through the read entry."""
        value = {8: "u64_from(rbuf, off)[0]", 4: "u32_from(rbuf, off)[0]",
                 1: "rbuf[off]"}.get(
            size, f"int.from_bytes(rbuf[off:off + {size}], 'little')")
        return [f"off = {at} - rbase",
                f"if 0 <= off <= lim{size}:",
                f"    {dest} = {value}{post}",
                "else:",
                f"    {dest} = load({at}, {size}){post}",
                f"    rbuf = pages_get(({at}) >> pg_shift, zeros)",
                f"    rbase = ({at}) & pg_base"]

    @staticmethod
    def store_source(size: int, value: str, at: str = "addr") -> List[str]:
        """``store(at, size, value)`` through the write entry.  The method
        may give a page new storage (first write, COW copy), so both
        entries go; its page becomes the write entry only if the method's
        own fast path would take the next store to it."""
        hit = {8: f"u64_into(wbuf, off, {value})",
               4: f"u32_into(wbuf, off, {value})",
               1: f"wbuf[off] = {value}"}.get(
            size, f"wbuf[off:off + {size}] = "
                  f"({value}).to_bytes({size}, 'little')")
        return [f"off = {at} - wbase",
                f"if 0 <= off <= lim{size}:",
                f"    {hit}",
                "else:",
                f"    store({at}, {size}, {value})",
                "    " + PagedMemory.DROP_SOURCE,
                f"    page = ({at}) >> pg_shift",
                "    wbuf = pages_get(page)",
                "    if wbuf is not None and page not in cow "
                "and memory.write_observer is None:",
                f"        wbase = ({at}) & pg_base"]

    def fetch(self, address: int) -> int:
        """Fetch one instruction word (requires execute permission)."""
        buf, offset = self.fetch_page(address)
        return int.from_bytes(buf[offset:offset + 4], "little")

    def fetch_page(self, address: int) -> Tuple[bytes, int]:
        """The page holding the instruction at ``address`` (zeros if never
        written; read it, never write it) and the offset in it: every
        check of a fetch — alignment, mapped, execute permission — made
        once for all the words up to the end of the page."""
        if address % 4:
            raise MemoryFault("align", address, "execute")
        page, offset = divmod(address, self.page_size)
        if not (self._perm(page) or 0) & PERM_X:
            self._check(address, 4, PERM_X, "execute")  # raises the fault
        return self._pages.get(page, self._zeros), offset

    # Raw accessors skip permission checks (used by the loader/runtime);
    # only a page in none of its slot's runs is unmapped.

    def _raw_read(self, address: int, size: int) -> bytes:
        ps = self.page_size
        page, offset = divmod(address, ps)
        if offset + size <= ps:
            buf = self._pages.get(page)
            if buf is not None:
                return bytes(buf[offset:offset + size])
            if self._perm(page) is None:
                raise MemoryFault("unmapped", address, "read")
            return bytes(size)
        out = bytearray()
        remaining = size
        while remaining:
            chunk = min(ps - offset, remaining)
            buf = self._pages.get(page)
            if buf is not None:
                out.extend(buf[offset:offset + chunk])
            elif self._perm(page) is not None:
                out.extend(bytes(chunk))
            else:
                raise MemoryFault("unmapped", page * ps, "read")
            remaining -= chunk
            page += 1
            offset = 0
        return bytes(out)

    def _raw_write(self, address: int, data: bytes) -> None:
        ps = self.page_size
        page, offset = divmod(address, ps)
        if offset + len(data) <= ps:
            self._writable(page, address)[offset:offset + len(data)] = data
            return
        pos = 0
        while pos < len(data):
            buf = self._writable(page, page * ps)
            chunk = min(ps - offset, len(data) - pos)
            buf[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
            page += 1
            offset = 0

    def load_image(self, address: int, data: bytes) -> None:
        """Write bytes ignoring permissions (loader-only path)."""
        self._raw_write(address, data)
        if data:
            self._notify_map_change(address, len(data))

    # -- typed helpers -------------------------------------------------------

    def write_u32(self, address: int, value: int) -> None:
        self.store(address, 4, value & (2**32 - 1))

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (for runtime-call arguments), a
        page at a time, each under the check of a one-byte read."""
        out = bytearray()
        while len(out) < limit:
            at = address + len(out)
            page, offset = divmod(at, self.page_size)
            if not (self._perm(page) or 0) & PERM_R:
                self._check(at, 1, PERM_R, "read")  # raises the fault
            chunk = self._pages.get(page, self._zeros)[
                offset:offset + limit - len(out)]
            out += chunk.partition(b"\0")[0]
            if 0 in chunk:
                return bytes(out)
        raise MemoryFault("perm", address, "read", "unterminated string")
