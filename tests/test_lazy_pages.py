"""Demand-zero pages and the per-word predecode memo (ISSUE 15).

Both are host-side savings that must be invisible to the guest and to
every public API:

* ``PagedMemory`` keeps storage only for written pages.  A random
  operation stream is replayed against :class:`EagerMemory`, the old
  allocate-on-map semantics kept here as the reference, and must agree on
  every byte, every fault and every mapping query.
* checkpoints store a page by *content* (non-zero), so equal states
  serialise byte-identically whatever their history, and a dense blob
  (every mapped page present, as older captures wrote them) still
  restores.
* the predecode memo shares one decode between every address a word
  occurs at, which is only sound for words whose decode ignores ``pc``.
"""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig
from repro.arm64.decoder import decode_word, decode_word_pc
from repro.checkpoint import (
    Checkpoint,
    CheckpointSession,
    capture_job,
    memory_digest,
    restore_job,
)
from repro.core import O2
from repro.emulator import APPLE_M1
from repro.fuzz.corpus import load_corpus
from repro.fuzz.genasm import AsmGenerator
from repro.memory import PERM_R, PERM_RW, PERM_RX, PERM_W, MemoryFault, \
    PagedMemory
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads import WASM_SUBSET
from repro.workloads.rtlib import prologue, rt_exit, rtcall
from repro.workloads.spec import arena_bss_size, build_benchmark

from .conftest import flush_translation_caches

PS = 256          # small pages: straddling accesses are common
NPAGES = 24       # the whole playground, so regions collide often
PERMS = (0, PERM_R, PERM_W, PERM_RW, PERM_RX)


class EagerMemory:
    """Reference model: every mapped page owns a zeroed buffer from the
    moment it is mapped, and sharing copies at once."""

    def __init__(self):
        self.pages, self.perms = {}, {}

    def map_region(self, address, size, perms):
        for page in range(address // PS, (address + size) // PS):
            self.pages.setdefault(page, bytearray(PS))
            self.perms[page] = perms

    def protect(self, address, size, perms):
        for page in range(address // PS, (address + size) // PS):
            if page not in self.pages:
                raise ValueError("not mapped")
            self.perms[page] = perms

    def unmap(self, address, size):
        for page in range(address // PS, (address + size) // PS):
            self.pages.pop(page, None)
            self.perms.pop(page, None)

    def share_region(self, src, dst, size):
        for i in range(size // PS):
            if src // PS + i not in self.pages:
                raise ValueError("source not mapped")
            self.pages[dst // PS + i] = bytearray(self.pages[src // PS + i])
            self.perms[dst // PS + i] = self.perms[src // PS + i]

    def _check(self, address, size, need, access):
        for page in range(address // PS, (address + size - 1) // PS + 1):
            if page not in self.perms:
                raise MemoryFault("unmapped", address, access)
            if self.perms[page] & need != need:
                raise MemoryFault("perm", address, access)

    def _chunks(self, address, size, access):
        """(buffer, offset, length) per page touched; faults as the old
        raw accessors did (the page base once an access straddles)."""
        page, offset = divmod(address, PS)
        straddles = offset + size > PS
        while True:
            if page not in self.pages:
                raise MemoryFault("unmapped",
                                  page * PS if straddles else address, access)
            chunk = min(PS - offset, size)
            yield self.pages[page], offset, chunk
            size -= chunk
            if size <= 0:
                return
            page, offset = page + 1, 0

    def _raw_read(self, address, size):
        return b"".join(bytes(buf[off:off + n]) for buf, off, n
                        in self._chunks(address, size, "read"))

    def load_image(self, address, data):
        pos = 0
        for buf, off, n in self._chunks(address, len(data), "write"):
            buf[off:off + n] = data[pos:pos + n]
            pos += n

    def read(self, address, size):
        self._check(address, size, PERM_R, "read")
        return self._raw_read(address, size)

    def write(self, address, data):
        self._check(address, len(data), PERM_W, "write")
        self.load_image(address, data)

    def load(self, address, size):
        return int.from_bytes(self.read(address, size), "little")

    def store(self, address, size, value):
        self.write(address, value.to_bytes(size, "little"))

    def mapped_regions(self, lo, hi):
        runs = []
        for page in sorted(p for p in self.pages if lo <= p * PS < hi):
            perms = self.perms[page]
            if runs and runs[-1][0] + runs[-1][1] == page * PS \
                    and runs[-1][2] == perms:
                runs[-1][1] += PS
            else:
                runs.append([page * PS, PS, perms])
        return [tuple(run) for run in runs]


def random_op(rng):
    """One operation as ``(method name, args)``, valid on both models."""
    def region():
        first = rng.randrange(NPAGES)
        return first * PS, rng.randint(1, min(6, NPAGES - first)) * PS

    def span():
        size = rng.choice((1, 4, 8, 8, PS, PS + 9, 3 * PS))
        return rng.randrange(NPAGES * PS), size

    kind = rng.choice(("map", "map", "protect", "unmap", "share", "read",
                       "read", "write", "write", "write", "load", "raw",
                       "int-load", "int-store", "int-store"))
    if kind == "map":
        return "map_region", (*region(), rng.choice(PERMS))
    if kind == "protect":
        return "protect", (*region(), rng.choice(PERMS))
    if kind == "unmap":
        return "unmap", region()
    if kind == "share":
        src, size = region()
        dst = rng.randrange(NPAGES - size // PS + 1) * PS
        return "share_region", (src, dst, size)
    address, size = span()
    if kind.startswith("int"):
        size = rng.randint(1, 16)
        if kind == "int-load":
            return "load", (address, size)
        return "store", (address, size, rng.choice((0, rng.getrandbits(
            8 * size), (1 << 8 * size) - 1)))
    if kind == "read":
        return "read", (address, size)
    if kind == "raw":
        return "_raw_read", (address, size)
    # Half the stores write zeros: materialised-but-zero must stay
    # indistinguishable from never-written.
    data = bytes(size) if rng.random() < 0.5 else rng.randbytes(size)
    return ("write" if kind == "write" else "load_image"), (address, data)


def outcome(model, name, args):
    try:
        return getattr(model, name)(*args)
    except MemoryFault as fault:
        return ("fault", fault.kind, fault.address, fault.access)
    except ValueError:
        return "ValueError"


def assert_same_state(lazy, eager):
    top = NPAGES * PS
    assert list(lazy.mapped_regions()) == eager.mapped_regions(0, top)
    lo, hi = 5 * PS, 17 * PS
    assert list(lazy.mapped_regions(lo, hi)) == eager.mapped_regions(lo, hi)
    assert lazy.pages_in_range(lo, hi) == \
        sum(1 for p in eager.pages if lo <= p * PS < hi)
    for page in range(NPAGES):
        assert lazy.is_mapped(page * PS) == (page in eager.pages)
        assert lazy.perms_at(page * PS) == eager.perms.get(page, 0)
        if page in eager.pages:
            assert lazy._raw_read(page * PS, PS) == bytes(eager.pages[page])
    assert [(addr, bytes(buf)) for addr, buf in lazy.nonzero_pages()] == \
        [(p * PS, bytes(eager.pages[p])) for p in sorted(eager.pages)
         if any(eager.pages[p])]


def replay(ops):
    lazy, eager = PagedMemory(page_size=PS), EagerMemory()
    for name, args in ops:
        assert outcome(lazy, name, args) == outcome(eager, name, args), \
            (name, args)
        assert_same_state(lazy, eager)
    return lazy


class TestAgainstEagerModel:
    def test_2000_random_operations(self):
        rng = random.Random(15)
        lazy = replay([random_op(rng) for _ in range(2000)])
        assert lazy.cow_copies > 0  # sharing of written pages was exercised

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 200))
    def test_property_random_operations(self, rng, count):
        replay([random_op(rng) for _ in range(count)])

    def test_straddling_written_and_never_written(self):
        lazy = replay([
            ("map_region", (0, 3 * PS, PERM_RW)),
            ("write", (PS - 2, b"\xaa\xbb")),          # page 0 only
            ("read", (PS - 2, 8)),                      # written | never
            ("write", (2 * PS - 3, b"\x01\x02\x03\x04\x05\x06")),
            ("_raw_read", (0, 3 * PS)),
            ("read", (3 * PS - 4, 8)),                  # runs off the end
            ("write", (3 * PS - 4, bytes(8))),
        ])
        assert lazy.read(PS - 2, 4) == b"\xaa\xbb\x00\x00"

    def test_share_of_never_written_page_drops_destination_storage(self):
        replay([
            ("map_region", (0, 2 * PS, PERM_RW)),
            ("write", (PS, b"destination")),
            ("share_region", (0, PS, PS)),      # never-written over written
            ("read", (PS, 16)),
            ("write", (0, b"source, later")),   # must not show through
            ("read", (PS, 16)),
        ])

    def test_reads_allocate_nothing(self):
        memory = PagedMemory()
        ps = memory.page_size
        size = 4096 * ps  # 64 MiB
        memory.map_region(ps, size, PERM_RW)
        tracemalloc.start()
        try:
            for page in range(2, 4097, 7):
                assert memory.read(page * ps + 8, 8) == bytes(8)
                assert memory.read(page * ps - 4, 8) == bytes(8)  # straddle
            assert memory.read_u64(ps) == 0
            assert not any(memory._raw_read(ps, 64 * ps))
            assert list(memory.nonzero_pages()) == []
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 64-page scratch result, never one buffer per page touched.
        assert peak < 4 * 64 * ps
        assert memory.pages_in_range() == 4096

    def test_first_write_to_shared_never_written_page_is_not_a_copy(self):
        memory = PagedMemory()
        ps = memory.page_size
        memory.map_region(0, 2 * ps, PERM_RW)
        memory.share_region(0, 8 * ps, 2 * ps)
        memory.write(8 * ps, b"x")
        memory.write(0, b"y")
        assert memory.cow_copies == 0
        assert (memory.read(0, 1), memory.read(8 * ps, 1)) == (b"y", b"x")


# -- integer accessors --------------------------------------------------------

SIZES = range(1, 17)


def accessor_pair():
    """The same playground twice: three RW pages, the last never written
    (demand-zero); a hole; a read-only and a write-only page."""
    lazy, eager = PagedMemory(page_size=PS), EagerMemory()
    for memory in (lazy, eager):
        memory.map_region(0, 3 * PS, PERM_RW)
        memory.write(0, bytes(range(256)) * 2)
        memory.map_region(4 * PS, PS, PERM_R)
        memory.map_region(5 * PS, PS, PERM_W)
    return lazy, eager


class TestIntegerAccessors:
    """``load``/``store`` are ``read``/``write`` without the bytes in
    between: equal values, faults and side effects for every size."""

    #: A written page, the demand-zero page, across written pages, into
    #: the demand-zero page, into the hole, unmapped, no-R / no-W pages.
    PLACES = (8, 2 * PS + 8, PS - 3, 2 * PS - 5, 3 * PS - 2, 3 * PS + 8,
              4 * PS + 8, 5 * PS + 8, 4 * PS - 1, 6 * PS - 1)

    @pytest.mark.parametrize("size", SIZES)
    def test_load_equals_read(self, size):
        lazy, eager = accessor_pair()
        for address in self.PLACES:
            expected = outcome(eager, "load", (address, size))
            assert outcome(lazy, "load", (address, size)) == expected
            got = outcome(lazy, "read", (address, size))
            if isinstance(got, bytes):
                assert int.from_bytes(got, "little") == expected
            else:
                assert got == expected
        assert list(lazy._pages) == [0, 1]  # loads allocate nothing

    @pytest.mark.parametrize("size", SIZES)
    def test_store_equals_write(self, size):
        for value in (0, (1 << 8 * size) - 1, 0x0123456789ABCDEF_FEDCBA98
                      & ((1 << 8 * size) - 1), 1 << (8 * size - 1)):
            stored, written = accessor_pair()[0], accessor_pair()[0]
            eager = accessor_pair()[1]
            for address in self.PLACES:
                expected = outcome(eager, "store", (address, size, value))
                assert outcome(stored, "store", (address, size, value)) \
                    == expected
                assert outcome(written, "write", (
                    address, value.to_bytes(size, "little"))) == expected
                assert_same_state(stored, eager)
                assert list(stored._pages) == list(written._pages)

    @pytest.mark.parametrize("size", SIZES)
    def test_first_store_to_a_cow_page_copies_it(self, size):
        memory = PagedMemory(page_size=PS)
        memory.map_region(0, PS, PERM_RW)
        memory.write(0, bytes(range(256)))
        memory.share_region(0, 8 * PS, PS)
        value = (1 << 8 * size) - 1
        assert memory.load(8 * PS + 16, size) == memory.load(16, size) \
            == int.from_bytes(bytes(range(16, 16 + size)), "little")
        assert memory.cow_copies == 0
        memory.store(8 * PS + 16, size, value)
        assert memory.cow_copies == 1
        assert memory.load(8 * PS + 16, size) == value
        assert memory.read(0, PS) == bytes(range(256))  # sibling unchanged
        memory.store(8 * PS + 32, size, value)
        memory.store(16, size, 0)  # the sibling's own first store
        assert memory.cow_copies == 2
        assert memory.load(8 * PS + 16, size) == value

    @pytest.mark.parametrize("size", SIZES)
    def test_write_observer_sees_every_store(self, size):
        seen = {"store": [], "write": []}
        for name in seen:
            memory = accessor_pair()[0]
            memory.write_observer = \
                lambda address, size, log=seen[name]: log.append(
                    (address, size))
            for address in self.PLACES:
                args = (address, size, 1) if name == "store" \
                    else (address, (1).to_bytes(size, "little"))
                outcome(memory, name, args)
        eager = accessor_pair()[1]
        assert seen["store"] == seen["write"] == [
            (address, size) for address in self.PLACES  # the permitted ones
            if outcome(eager, "store", (address, size, 1)) is None]
        assert seen["store"]

    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "m1"])
    def test_auditor_sees_the_stores_of_generated_bodies(self, model):
        """A hot guest loop under the containment auditor: the stores the
        generated body issues reach it one by one, as stepping's do."""
        from repro.robustness.audit import ContainmentAuditor
        elf = compile_lfi(ZERO_STORER.replace("subs x26", """str x26, [x19, #32]
    strb w26, [x19, x26]
    subs x26""")).elf
        logs = {}
        for kind in ("stepping", "superblock"):
            flush_translation_caches()
            runtime = Runtime(model=model, engine=EngineConfig(kind=kind))
            auditor = ContainmentAuditor(runtime)
            log = logs[kind] = []

            def observe(address, size, log=log, audit=auditor._on_write):
                log.append((address, size))
                audit(address, size)

            runtime.memory.write_observer = observe
            proc = runtime.spawn(elf)
            assert runtime.run_until_exit(proc) == 77
            assert auditor.violations == []
            if kind == "superblock":
                assert runtime.machine.engine_stats()["compiled_blocks"] > 0
        assert logs["superblock"] == logs["stepping"]
        assert len(logs["stepping"]) > 6000


# -- checkpoints: sparse by content -----------------------------------------

ZERO_STORER = prologue() + """
    adrp x19, arena
    add x19, x19, :lo12:arena
    str xzr, [x19]              // materialises a page, leaves it zero
    mov x20, #77
    str x20, [x19, #16384]      // a page with content
    mov x26, #3000
spin:
    subs x26, x26, #1
    b.ne spin
    ldr x0, [x19, #16384]
""" + rt_exit() + """
.bss
.balign 16384
arena:
    .skip 65536
"""


# -- the in-page fast path as source is the method ----------------------------

SOURCE_SIZES = (1, 2, 4, 8, 16)


def source_runner(memory):
    """``run(ops, seen)`` over ``memory``: the lines ``load_source`` /
    ``store_source`` emit, compiled standalone into one function that
    keeps the two page entries in its locals for the whole sequence, the
    way a generated block body does for one call."""
    def indented(lines):
        return ["    " + line for line in lines]

    body = ["if kind == 'write':",  # a stepping handler: anything, the drop
            "    memory.write(addr, value)", "    " + memory.DROP_SOURCE]
    for size in SOURCE_SIZES:
        body += [f"if kind == 'load{size}':",
                 *indented(memory.load_source("value", size)),
                 "    seen.append(value)",
                 f"if kind == 'store{size}':",
                 *indented(memory.store_source(size, "value"))]
    objects = memory.source_objects()
    source = "\n".join([
        f"def make({', '.join(objects)}, MemoryFault):",
        "    def run(ops, seen):",
        "        " + memory.DROP_SOURCE,
        "        for kind, addr, value in ops:",
        "            try:",
        *indented(indented(indented(indented(body)))),
        "            except MemoryFault as fault:",
        "                seen.append((fault.kind, fault.address, fault.access))",
        "    return run"])
    scope = {}
    exec(source, scope)
    return scope["make"](*objects.values(), MemoryFault)


def method_runner(memory):
    def run(ops, seen):
        for kind, addr, value in ops:
            try:
                if kind.startswith("load"):
                    seen.append(memory.load(addr, int(kind[4:])))
                elif kind.startswith("store"):
                    memory.store(addr, int(kind[5:]), value)
                else:
                    memory.write(addr, value)
            except MemoryFault as fault:
                seen.append((fault.kind, fault.address, fault.access))
    return run


def random_playground(rng, ps, observed):
    """Ten pages in a random state each — unmapped, read-only, write-only,
    written, demand-zero, COW-shared with a partner beyond them — with or
    without a write observer."""
    memory = PagedMemory(page_size=ps)
    for page in range(10):
        state = rng.choice(["hole", "ro", "wo", "rw", "rw", "zero", "zero",
                            "cow", "cow"])
        if state == "hole":
            continue
        memory.map_region(page * ps, ps, PERM_RW)
        if state == "cow":
            memory.map_region((20 + page) * ps, ps, PERM_RW)
            memory._raw_write((20 + page) * ps, rng.randbytes(ps))
            memory.share_region((20 + page) * ps, page * ps, ps)
        elif state != "zero":
            memory._raw_write(page * ps, rng.randbytes(ps))
        memory.protect(page * ps, ps, {"ro": PERM_R, "wo": PERM_W}.get(
            state, PERM_RW))
    if rng.random() < 0.3:
        memory.write_observer = lambda addr, size: observed.append(
            (addr, size))
    return memory


def random_accesses(rng, ps, count=300):
    """Runs on one page (so entries hit), page ends, straddles, jumps."""
    ops, page = [], rng.randrange(10)
    for _ in range(count):
        if rng.random() < 0.25:
            page = rng.randrange(10)
        size = rng.choice(SOURCE_SIZES)
        offset = rng.choice([rng.randrange(ps), ps - size, ps - size + 1,
                             ps - 1, 0, 8 * rng.randrange(ps // 8)])
        kind = rng.choice(["load", "load", "store", "store", "write"])
        if kind == "write":
            ops.append(("write", page * ps + offset,
                        rng.randbytes(rng.choice([1, 8, 24]))))
        else:
            ops.append((f"{kind}{size}", page * ps + offset,
                        rng.getrandbits(8 * size)))
    return ops


class TestSourceIsTheMethod:
    @pytest.mark.parametrize("ps", [256, 16384])
    def test_random_states_and_sequences(self, ps):
        """Values, faults, which pages have storage and what it holds,
        what stays shared, ``cow_copies`` and the observer's calls."""
        for seed in range(60):
            outcomes = []
            for runner in (method_runner, source_runner):
                rng = random.Random(seed)
                observed, seen = [], []
                memory = random_playground(rng, ps, observed)
                runner(memory)(random_accesses(rng, ps), seen)
                shared = {page for page in memory._pages
                          if any(memory._pages[page] is memory._pages[other]
                                 for other in memory._pages if other != page)}
                outcomes.append((
                    seen, observed, memory.cow_copies, sorted(memory._cow),
                    sorted(shared), {page: bytes(buf) for page, buf
                                     in memory._pages.items()}))
            assert outcomes[0] == outcomes[1], seed
            assert any(isinstance(value, tuple) for value in outcomes[0][0])

    def test_the_lines_name_only_their_objects_and_their_locals(self):
        memory = PagedMemory()
        names = set()
        for size in SOURCE_SIZES:
            for line in memory.load_source("value", size) \
                    + memory.store_source(size, "value"):
                names.update(re.findall(r"[A-Za-z_]\w*", line))
        assert names - set(memory.source_objects()) == {
            "value", "addr", "off", "page", "rbase", "rbuf", "wbase", "wbuf",
            "if", "else", "and", "not", "in", "is", "None", "int",
            "from_bytes", "to_bytes", "little", "write_observer"}


def paused_job(elf, instructions=1000, timeslice=500):
    runtime = Runtime(model=None, timeslice=timeslice)
    proc = runtime.spawn(elf)
    assert not runtime.run_bounded(proc, instructions)
    return runtime, proc


def dense(ckpt: Checkpoint) -> Checkpoint:
    """``ckpt`` as older captures wrote it: every mapped page present."""
    pages = dict(ckpt.pages)
    for img in ckpt.procs:
        for off, size, _perms in img.regions:
            for page in range(off // ckpt.page_size,
                              (off + size) // ckpt.page_size):
                pages.setdefault((img.slot_ord, page),
                                 bytes(ckpt.page_size))
    blob = Checkpoint(**{**vars(ckpt), "pages": pages}).to_bytes()
    return Checkpoint.from_bytes(blob)


class TestContentSparseCheckpoints:
    @pytest.fixture(scope="class")
    def elf(self):
        return compile_lfi(ZERO_STORER).elf

    def test_zero_store_and_never_touched_serialise_identically(self, elf):
        rt1, p1 = paused_job(elf)
        stored = capture_job(rt1, p1)
        # Restored, the zeroed page has never been touched: same state,
        # different history.
        rt2 = Runtime(model=None, timeslice=500)
        p2 = restore_job(rt2, Checkpoint.from_bytes(stored.to_bytes()))
        untouched = capture_job(rt2, p2)
        assert untouched.to_bytes() == stored.to_bytes()
        assert memory_digest(rt2.memory, p2.layout) == \
            memory_digest(rt1.memory, p1.layout)
        arena_pages = 65536 // rt1.memory.page_size
        assert stored.total_pages < arena_pages  # the arena is not stored

    def test_host_zero_store_changes_nothing(self, elf):
        rt1, p1 = paused_job(elf)
        rt2, p2 = paused_job(elf)
        heap = p2.layout.usable_end - rt2.stack_size
        rt2.memory.write(heap, bytes(64))
        rt2.memory.load_image(heap + rt2.memory.page_size, bytes(8))
        assert capture_job(rt2, p2).to_bytes() == \
            capture_job(rt1, p1).to_bytes()
        assert memory_digest(rt2.memory, p2.layout) == \
            memory_digest(rt1.memory, p1.layout)

    def test_dense_checkpoint_still_restores(self, elf):
        reference = Runtime(model=None, timeslice=500)
        ref = reference.spawn(elf)
        assert reference.run_bounded(ref, 10_000_000)

        rt1, p1 = paused_job(elf)
        sparse = capture_job(rt1, p1, consumed_instructions=p1.instructions)
        blob = dense(sparse)
        assert len(blob.pages) > len(sparse.pages)
        assert blob.version == sparse.version == 1

        rt2 = Runtime(model=None, timeslice=500)
        p2 = restore_job(rt2, blob)
        assert capture_job(
            rt2, p2, consumed_instructions=p1.instructions,
        ).to_bytes() == sparse.to_bytes()
        assert rt2.run_bounded(p2, 10_000_000)
        assert (p2.exit_code, p2.instructions, rt2.stdout_of(p2)) == \
            (ref.exit_code, ref.instructions, reference.stdout_of(ref))
        assert ref.exit_code == 77

    def test_incremental_session_sees_first_write_as_dirty(self, elf):
        runtime = Runtime(model=None, timeslice=500)
        proc = runtime.spawn(elf)
        session = CheckpointSession(runtime, proc)
        before = session.capture()
        assert not runtime.run_bounded(proc, 1000)
        after = session.capture()
        new = set(after.pages) - set(before.pages)
        assert new and after.dirty_pages >= len(new)
        assert capture_job(runtime, proc).to_bytes() == after.to_bytes()


# -- the seven kernels --------------------------------------------------------

KERNEL_INSTRUCTIONS = 4000
INTERVAL = 1000


@pytest.fixture(scope="module", params=sorted(WASM_SUBSET))
def kernel_elf(request):
    asm = build_benchmark(request.param,
                          target_instructions=KERNEL_INSTRUCTIONS)
    return compile_lfi(asm, options=O2,
                       bss_size=arena_bss_size(request.param)).elf


def finished(runtime, proc):
    assert runtime.run_bounded(proc, 10_000_000)
    return proc.exit_code, runtime.stdout_of(proc), proc.instructions


class TestKernels:
    def test_resume_from_first_boundary_matches_uninterrupted(
            self, kernel_elf):
        straight = Runtime(model=None, timeslice=INTERVAL)
        expected = finished(straight, straight.spawn(kernel_elf))

        first, proc = paused_job(kernel_elf, INTERVAL, INTERVAL)
        blob = capture_job(first, proc).to_bytes()
        second = Runtime(model=None, timeslice=INTERVAL)
        resumed = restore_job(second, Checkpoint.from_bytes(blob))
        assert finished(second, resumed) == expected
        assert memory_digest(second.memory, resumed.layout) == \
            memory_digest(straight.memory,
                          next(iter(straight.processes.values())).layout)

    def test_eager_fork_matches_cow_fork(self, kernel_elf):
        runtime, parent = paused_job(kernel_elf, INTERVAL, INTERVAL)
        children = [runtime.fork(parent, cow=cow) for cow in (True, False)]
        for child in children:
            # A host-side fork has no call site to return to: resume the
            # child where the parent is paused.
            child.registers["pc"] = child.layout.guarded(
                parent.registers["pc"])
        cow, eager = children
        assert memory_digest(runtime.memory, cow.layout) == \
            memory_digest(runtime.memory, eager.layout)
        shift = eager.layout.base - cow.layout.base
        assert [(base + shift, size, perms) for base, size, perms in
                runtime.memory.mapped_regions(cow.layout.base,
                                              cow.layout.end)] == \
            list(runtime.memory.mapped_regions(eager.layout.base,
                                               eager.layout.end))
        assert finished(runtime, cow) == finished(runtime, eager)


# -- the predecode memo -------------------------------------------------------

def corpus_and_generated_words():
    words = set()
    sources = [entry.source for entry in load_corpus()
               if entry.kind == "program" and entry.expect == "pass"]
    rng = random.Random(15)
    sources += [AsmGenerator().generate(rng).source for _ in range(4)]
    for source in sources:
        for segment in compile_lfi(source).elf.segments:
            if segment.flags & 1:  # PF_X
                data = bytes(segment.data)
                words.update(int.from_bytes(data[i:i + 4], "little")
                             for i in range(0, len(data) - 3, 4))
    for entry in load_corpus():
        if entry.kind == "machine":
            text = bytes.fromhex(entry.text_hex)
            words.update(int.from_bytes(text[i:i + 4], "little")
                         for i in range(0, len(text) - 3, 4))
    return sorted(words)


class TestPredecodeMemo:
    def test_declared_pc_independent_words_decode_equal_anywhere(self):
        words = corpus_and_generated_words()
        independent = relative = 0
        for word in words:
            inst, reads_pc = decode_word_pc(word, 0)
            assert inst == decode_word(word, 0)
            if inst is None:
                continue
            far = decode_word(word, 1 << 32)
            if reads_pc:
                relative += 1
                assert far != inst, hex(word)
            else:
                independent += 1
                assert far == inst, hex(word)
                assert str(far) == str(inst)
        assert independent > 100 and relative > 10

    @staticmethod
    def two_slots(elf, kind, forget):
        """(exit, instret, cycles, stdout) of two back-to-back slots of
        one image; ``forget`` drops the memo in between (the control)."""
        runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=kind))
        results = []
        for _slot in range(2):
            instret, cycles = runtime.machine.instret, runtime.machine.cycles
            proc = runtime.spawn(elf)
            assert runtime.run_bounded(proc, 10_000_000)
            results.append((proc.exit_code,
                            runtime.machine.instret - instret,
                            runtime.machine.cycles - cycles,
                            runtime.stdout_of(proc)))
            runtime.reclaim(proc)
            if forget:
                flush_translation_caches()
        return results

    @pytest.mark.parametrize("kind", ["stepping", "superblock"])
    def test_memo_cold_then_warm_slots_agree(self, kind):
        asm = build_benchmark("505.mcf", target_instructions=20_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        cold, warm = self.two_slots(elf, kind, forget=False)
        assert self.two_slots(elf, kind, forget=True) == [cold, warm]
        # Cache and scoreboard state carry over, so only cycles may differ.
        assert cold[:2] + cold[3:] == warm[:2] + warm[3:]
        assert cold[0] == 0 and cold[1] > 10_000

    def test_engines_agree_with_a_warm_memo(self):
        asm = build_benchmark("541.leela", target_instructions=8_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("541.leela")).elf
        seen = {}
        for kind in ("stepping", "superblock"):
            runtime = Runtime(model=APPLE_M1, engine=EngineConfig(kind=kind))
            for _slot in range(2):
                proc = runtime.spawn(elf)
                assert runtime.run_bounded(proc, 10_000_000)
            seen[kind] = (runtime.machine.instret, runtime.machine.cycles,
                          runtime.stdout_of(proc), proc.exit_code)
        assert seen["stepping"] == seen["superblock"]

    def test_hello_world_twice(self):
        source = prologue() + """
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #3
""" + rtcall(RuntimeCall.WRITE) + "    mov x0, #0\n" + rt_exit() + """
.data
msg: .ascii "hi\\n"
"""
        elf = compile_lfi(source).elf
        runtime = Runtime(model=APPLE_M1)
        outputs = []
        for _slot in range(2):
            proc = runtime.spawn(elf)
            runtime.run_until_exit(proc)
            outputs.append(runtime.stdout_of(proc))
        assert outputs == ["hi\n", "hi\n"]
