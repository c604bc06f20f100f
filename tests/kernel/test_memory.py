"""Unit and property tests for the address-space model."""

import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kernel import constants as C
from repro.kernel.memory import (
    AddressSpace,
    MemoryFault,
    SharedRegion,
    page_align_down,
    page_align_up,
)

RW = C.PROT_READ | C.PROT_WRITE


def make_space():
    return AddressSpace(0x7F00_0000_0000, 0x5555_0000_0000)


class TestMapping:
    def test_map_read_write_roundtrip(self):
        space = make_space()
        mapping = space.map(None, 8192, RW, name="test")
        space.write(mapping.start + 100, b"hello world")
        assert space.read(mapping.start + 100, 11) == b"hello world"

    def test_mappings_do_not_overlap(self):
        space = make_space()
        for _ in range(50):
            space.map(None, 4096 * 3, RW)
        mappings = space.mappings()
        for a, b in zip(mappings, mappings[1:]):
            assert a.end <= b.start

    def test_map_fixed_clobbers_overlap(self):
        space = make_space()
        first = space.map(0x1000_0000, 8192, RW, fixed=True)
        space.write(first.start, b"AAAA")
        second = space.map(0x1000_0000, 4096, RW, fixed=True)
        assert space.read(second.start, 4) == b"\x00\x00\x00\x00"
        # The non-clobbered tail of the first mapping survives.
        assert space.find_mapping(0x1000_1000) is not None

    def test_unmap_middle_splits(self):
        space = make_space()
        mapping = space.map(0x2000_0000, 4096 * 3, RW, fixed=True)
        space.write(mapping.start, b"A" * (4096 * 3))
        space.unmap(mapping.start + 4096, 4096)
        assert space.find_mapping(mapping.start) is not None
        assert space.find_mapping(mapping.start + 4096) is None
        assert space.find_mapping(mapping.start + 8192) is not None
        # Both remainders kept their bytes.
        assert space.read(mapping.start, 4096) == b"A" * 4096
        assert space.read(mapping.start + 8192, 4096) == b"A" * 4096

    def test_read_unmapped_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.read(0xDEAD_0000, 4)

    def test_write_readonly_faults(self):
        space = make_space()
        mapping = space.map(None, 4096, C.PROT_READ)
        with pytest.raises(MemoryFault):
            space.write(mapping.start, b"x")
        space.write(mapping.start, b"x", check_prot=False)  # ptrace path

    def test_read_crosses_contiguous_mappings(self):
        space = make_space()
        first = space.map(0x3000_0000, 4096, RW, fixed=True)
        space.map(0x3000_1000, 4096, RW, fixed=True)
        space.write(first.start + 4090, b"ABCDEFGHIJ")
        assert space.read(first.start + 4090, 10) == b"ABCDEFGHIJ"

    def test_protect_splits_mapping(self):
        space = make_space()
        mapping = space.map(0x4000_0000, 4096 * 3, RW, fixed=True)
        space.protect(mapping.start + 4096, 4096, C.PROT_READ)
        with pytest.raises(MemoryFault):
            space.write(mapping.start + 4096, b"x")
        space.write(mapping.start, b"x")
        space.write(mapping.start + 8192, b"x")

    def test_brk_grows_heap(self):
        space = make_space()
        base = space.brk_current
        new = space.brk(base + 10_000)
        assert new >= base + 10_000
        space.write(base, b"heap-data")
        assert space.read(base, 9) == b"heap-data"

    def test_brk_shrink_request_is_ignored_below_base(self):
        space = make_space()
        base = space.brk_current
        assert space.brk(base - 4096) == base

    def test_cstr_reading(self):
        space = make_space()
        mapping = space.map(None, 4096, RW)
        space.write(mapping.start, b"hello\x00trailing")
        assert space.read_cstr(mapping.start) == b"hello"

    def test_u32_u64_accessors(self):
        space = make_space()
        mapping = space.map(None, 4096, RW)
        space.write_u64(mapping.start, 0x1122334455667788)
        assert space.read_u64(mapping.start) == 0x1122334455667788
        space.write_u32(mapping.start + 8, 0xDEADBEEF)
        assert space.read_u32(mapping.start + 8) == 0xDEADBEEF


class TestSharedRegions:
    def test_shared_region_visible_across_spaces(self):
        region = SharedRegion(8192, "shared")
        space_a = make_space()
        space_b = AddressSpace(0x7E00_0000_0000, 0x5666_0000_0000)
        map_a = space_a.map(None, 8192, RW, region=region, shared=True)
        map_b = space_b.map(None, 8192, RW, region=region, shared=True)
        assert map_a.start != map_b.start
        space_a.write(map_a.start + 16, b"cross-process")
        assert space_b.read(map_b.start + 16, 13) == b"cross-process"

    def test_attach_counting(self):
        region = SharedRegion(4096)
        space = make_space()
        mapping = space.map(None, 4096, RW, region=region, shared=True)
        assert region.attach_count == 1
        space.unmap(mapping.start, 4096)
        assert region.attach_count == 0


class TestAlignmentHelpers:
    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_page_align_invariants(self, addr):
        down = page_align_down(addr)
        up = page_align_up(addr)
        assert down <= addr <= up
        assert down % C.PAGE_SIZE == 0
        assert up % C.PAGE_SIZE == 0
        assert up - down in (0, C.PAGE_SIZE)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3000),
            st.binary(min_size=1, max_size=128),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_last_write_wins(writes):
    """Overlapping writes behave like writes to a flat bytearray."""
    space = make_space()
    mapping = space.map(None, 4096, RW)
    model = bytearray(4096)
    for offset, data in writes:
        space.write(mapping.start + offset, data)
        model[offset : offset + len(data)] = data
    assert space.read(mapping.start, 4096) == bytes(model)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=12)
)
def test_property_allocations_disjoint_and_page_aligned(sizes):
    space = make_space()
    mappings = [space.map(None, size, RW) for size in sizes]
    for mapping, size in zip(mappings, sizes):
        assert mapping.start % C.PAGE_SIZE == 0
        assert mapping.length >= size
    ordered = sorted(mappings, key=lambda m: m.start)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start


# ---------------------------------------------------------------------------
# Model equivalence: AddressSpace vs a plain page-table reference model
# ---------------------------------------------------------------------------
PAGE = C.PAGE_SIZE
WIN_PAGES = 16
#: Each space gets its own window, so the shared region is necessarily
#: mapped at different addresses in the two spaces.
SPACE_BASES = (0x1000_0000, 0x2000_0000)
SHARED_PAGES = 4
PROTS = (RW, RW, RW, C.PROT_NONE, C.PROT_READ, C.PROT_WRITE, C.PROT_READ | C.PROT_EXEC)
#: access -> (protection bit it needs, MemoryFault reason without it)
ACCESS = {
    "read": (C.PROT_READ, "page not readable"),
    "write": (C.PROT_WRITE, "page not writable"),
}


class RefSpace:
    """The reference: one entry per mapped page, ``page -> (prot,
    backing, offset)``. Backings are plain zeroed bytearrays, and every
    page of one region points at the same one."""

    def __init__(self, base: int):
        self.pages = {}
        self.brk_base = self.brk_current = base

    def free(self, start, length):
        return all(p not in self.pages for p in range(start, start + length, PAGE))

    def set_range(self, start, length, prot, backing, offset=0):
        for i in range(0, length, PAGE):
            self.pages[start + i] = (prot, backing, offset + i)

    def drop_range(self, start, length):
        for page in range(start, start + length, PAGE):
            self.pages.pop(page, None)

    def protect(self, addr, length, prot):
        addr, length = page_align_down(addr), page_align_up(length)
        hit = [p for p in range(addr, addr + length, PAGE) if p in self.pages]
        if not hit:
            raise MemoryFault(addr, "mprotect", "no mapping in range")
        for page in hit:
            _prot, backing, offset = self.pages[page]
            self.pages[page] = (prot, backing, offset)
        return 0

    def brk(self, new_brk):
        if new_brk <= self.brk_base:
            return self.brk_current
        new_brk = page_align_up(new_brk)
        if new_brk > self.brk_current:
            length = new_brk - self.brk_current
            if not self.free(self.brk_current, length):
                return self.brk_current
            self.set_range(self.brk_current, length, RW, bytearray(length))
        self.brk_current = new_brk
        return new_brk

    def _chunks(self, addr, length, access):
        """Yield ``(backing, offset, take)`` per page touched, faulting
        at the first byte of the first bad page."""
        need, denied = ACCESS[access]
        cursor, end = addr, addr + length
        while cursor < end:
            page = page_align_down(cursor)
            entry = self.pages.get(page)
            if entry is None:
                raise MemoryFault(cursor, access, "unmapped address")
            prot, backing, offset = entry
            if not prot & need:
                raise MemoryFault(cursor, access, denied)
            take = min(end, page + PAGE) - cursor
            yield backing, offset + (cursor - page), take
            cursor += take

    def read(self, addr, length):
        return b"".join(
            bytes(backing[off : off + take])
            for backing, off, take in self._chunks(addr, length, "read")
        )

    def write(self, addr, data):
        done = 0
        for backing, off, take in self._chunks(addr, len(data), "write"):
            backing[off : off + take] = data[done : done + take]
            done += take


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except MemoryFault as fault:
        return ("fault", fault.addr, fault.access, fault.reason)


def _real_pages(space):
    return {
        page: mapping.prot
        for mapping in space.mappings()
        for page in range(mapping.start, mapping.end, PAGE)
    }


_space_ix = st.integers(0, 1)
_page = st.integers(-2, WIN_PAGES + 2)
_off = st.integers(0, PAGE - 1)
#: An access target: (pick, delta, off), resolved against the model by
#: :func:`_target`, so accesses land on, next to and across mappings.
_at = st.tuples(st.integers(0, 63), st.sampled_from((0, 0, 0, -1, 1)), _off)
_len = st.integers(1, 64) | st.integers(1, 3 * PAGE)
_npages = st.integers(1, 4)
_prot = st.sampled_from(PROTS)
_op = st.one_of(
    st.tuples(st.just("map"), _space_ix, st.none() | _page, _off, _npages, _prot,
              st.booleans(), st.booleans()),
    st.tuples(st.just("share"), _space_ix, _page, st.booleans()),
    st.tuples(st.just("unmap"), _space_ix, _at, _npages),
    st.tuples(st.just("protect"), _space_ix, _at, _npages, _prot),
    st.tuples(st.just("brk"), _space_ix, st.integers(-1, 8), _off),
    st.tuples(st.just("write"), _space_ix, _at, _len, st.integers(0, 255)),
    st.tuples(st.just("read"), _space_ix, _at, _len),
)


def _target(ref, base, at):
    """The address ``delta`` pages from the ``pick``-th mapped page (or
    from a window page while nothing is mapped), plus ``off``."""
    pick, delta, off = at
    pages = sorted(ref.pages)
    anchor = pages[pick % len(pages)] if pages else base + (pick % WIN_PAGES) * PAGE
    return anchor + delta * PAGE + off


def _pattern(seed, length):
    return bytes((seed + i) % 251 for i in range(length))


def _apply(op, spaces, refs, region, region_ref):
    kind, ix = op[0], op[1]
    space, ref, base = spaces[ix], refs[ix], SPACE_BASES[ix]
    if kind in ("map", "share"):
        fill = False
        if kind == "map":
            _, _, page, off, npages, prot, fixed, fill = op
            if fixed and page is None:
                page = 0
            addr = None if page is None else base + page * PAGE + off
            length, backing, kw = npages * PAGE - off, None, {}
        else:
            _, _, page, fixed = op
            addr, prot = base + page * PAGE, RW
            length, backing = len(region), region_ref
            kw = {"region": region, "shared": True}
        mapping = space.map(addr, length, prot, fixed=fixed, **kw)
        size = page_align_up(length)
        assert mapping.length == size
        if fixed:
            assert mapping.start == page_align_down(addr)
            ref.drop_range(mapping.start, size)
        else:
            hint = None if addr is None else page_align_down(addr)
            if hint is not None and ref.free(hint, size):
                assert mapping.start == hint
            assert ref.free(mapping.start, size)
        if backing is None:
            backing = bytearray(size)
            # Never-written mapped bytes read as zero.
            assert space.read(mapping.start, size, check_prot=False) == bytes(size)
        ref.set_range(mapping.start, size, prot, backing)
        if fill:
            # A pattern that differs per page, so a split that points a
            # piece at the wrong region offset reads wrong bytes.
            backing[:] = _pattern(mapping.start // PAGE, size)
            space.write(mapping.start, bytes(backing), check_prot=False)
    elif kind == "unmap":
        _, _, at, npages = op
        addr, length = _target(ref, base, at), npages * PAGE
        space.unmap(addr, length)
        ref.drop_range(page_align_down(addr), length)
    elif kind == "protect":
        _, _, at, npages, prot = op
        args = (_target(ref, base, at), npages * PAGE, prot)
        assert _outcome(space.protect, *args) == _outcome(ref.protect, *args)
    elif kind == "brk":
        _, _, npages, off = op
        new_brk = ref.brk_base + npages * PAGE + off
        assert space.brk(new_brk) == ref.brk(new_brk)
        assert space.brk_current == ref.brk_current
    elif kind == "write":
        _, _, at, length, seed = op
        addr = _target(ref, base, at)
        data = _pattern(seed, length)
        assert _outcome(space.write, addr, data) == _outcome(ref.write, addr, data)
    else:
        _, _, at, length = op
        addr = _target(ref, base, at)
        assert _outcome(space.read, addr, length) == _outcome(ref.read, addr, length)
    assert _real_pages(space) == {p: e[0] for p, e in ref.pages.items()}


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, min_size=8, max_size=50))
def test_property_address_space_matches_reference_model(ops):
    """Every map/unmap/protect/brk/write/read sequence leaves each
    AddressSpace indistinguishable from the reference model: the same
    pages with the same protections, the same bytes, and the same
    MemoryFaults (address, access and reason). One SharedRegion is
    mapped into both spaces at different addresses and must alias
    through any splits the sequence makes."""
    spaces = [AddressSpace(b + WIN_PAGES * PAGE, b, name="as%d" % i)
              for i, b in enumerate(SPACE_BASES)]
    refs = [RefSpace(b) for b in SPACE_BASES]
    region = SharedRegion(SHARED_PAGES * PAGE, "aliased")
    region_ref = bytearray(SHARED_PAGES * PAGE)
    for op in ops:
        _apply(op, spaces, refs, region, region_ref)
    for space, ref in zip(spaces, refs):
        for page, (_prot, backing, offset) in ref.pages.items():
            assert space.read(page, PAGE, check_prot=False) == bytes(
                backing[offset : offset + PAGE]
            )
    assert bytes(region.data) == bytes(region_ref)


def test_shared_region_aliases_across_split_mappings():
    """Protect and unmap split one space's view of a region; the pieces
    keep pointing at the right offsets of the other space's view."""
    region = SharedRegion(4 * PAGE, "split")
    space_a = make_space()
    space_b = AddressSpace(0x7E00_0000_0000, 0x5666_0000_0000)
    map_a = space_a.map(None, 4 * PAGE, RW, region=region, shared=True)
    map_b = space_b.map(0x1234_0000, 4 * PAGE, RW, region=region, shared=True)
    space_a.protect(map_a.start + PAGE, PAGE, C.PROT_READ)
    space_a.unmap(map_a.start + 2 * PAGE, PAGE)
    space_b.write(map_b.start + PAGE + 10, b"via-b")
    space_b.write(map_b.start + 3 * PAGE, b"tail")
    assert space_a.read(map_a.start + PAGE + 10, 5) == b"via-b"
    assert space_a.read(map_a.start + 3 * PAGE, 4) == b"tail"
    space_a.write(map_a.start + 3 * PAGE + 4, b"-a")
    assert space_b.read(map_b.start + 3 * PAGE, 6) == b"tail-a"
    assert region.attach_count == 4


# ---------------------------------------------------------------------------
# Direct consumers of SharedRegion.data
# ---------------------------------------------------------------------------
def test_region_data_direct_consumers():
    """The RB header codec, the IP-MON file map, the signals flag and the
    fault injector's bit flip all use ``region.data`` directly."""
    from repro.core.fdtable import NONBLOCK_BIT, FileMapView, MonitorFdTable
    from repro.core.rb import (
        FLAG_FORWARDED,
        HEADER_SIZE,
        OFF_RESULT,
        OFF_STATE,
        OFF_WAITERS,
        STATE_RESULTS_READY,
        ReplicationBuffer,
    )

    rb = ReplicationBuffer(size=1 << 18, lanes=2)
    data = rb.region.data
    assert len(rb.region) == len(data) == 1 << 18
    assert bytes(data[:PAGE]) == bytes(PAGE)

    record = rb.lane(1).reserve(64)
    record.write_args(b"args-blob", FLAG_FORWARDED)
    record.add_waiter(3)
    record.write_results(-5, b"result")
    assert struct.unpack_from("<I", data, record.offset + OFF_STATE)[0] == STATE_RESULTS_READY
    assert struct.unpack_from("<I", data, record.offset + OFF_WAITERS)[0] == 3
    assert struct.unpack_from("<qII", data, record.offset + OFF_RESULT) == (-5, 6, 0)
    assert record.read_results() == (-5, b"result")

    # The fault injector's flip: a single-byte XOR on an args byte.
    pos = record.offset + HEADER_SIZE
    data[pos] = (data[pos] ^ 0x20) & 0xFF
    assert record.read_args() == b"Args-blob"

    # IP-MON's signals-pending flag lives in the reserved header byte 0.
    assert data[0] == 0
    data[0] = 1
    assert data[0] == 1

    # The fd file map: single-byte int stores read by the replica view.
    table = MonitorFdTable()
    view = FileMapView(table.region)
    table.record_open(7, "sock", nonblocking=True)
    assert table.region.data[7] & NONBLOCK_BIT
    assert view.fd_kind(7) == "sock" and view.is_nonblocking(7)
    table.record_close(7)
    assert table.region.data[7] == 0 and view.fd_kind(7) is None
    assert view.fd_kind(len(table.region.data)) is None


# ---------------------------------------------------------------------------
# Host memory: mapped guest memory is committed lazily
# ---------------------------------------------------------------------------
_RSS_PROBE = """
import resource
from repro.kernel.memory import AddressSpace

space = AddressSpace(0x7F00_0000_0000, 0x5555_0000_0000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(512):
    mapping = space.map(None, 1 << 20, 3)
    space.write(mapping.start, b"x" * 4096)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_untouched_guest_memory_costs_no_host_memory():
    """512 x 1 MiB anonymous mappings with one written page each grow a
    fresh process's peak RSS by far less than the 512 MiB mapped (an
    eagerly zeroed backing grows it by at least that)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    grown_mib = int(proc.stdout.split()[-1]) / 1024
    assert grown_mib < 64, grown_mib
