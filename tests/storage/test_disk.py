"""The Disk contract (repro.storage.disk), run over both backings.

Every case here takes the ``disk`` (or ``make_disk``) fixture and is
collected twice: in this module over the in-memory store, and in
``test_file_disk.py`` — which takes every ``test_*`` of this module and
overrides ``make_disk`` with ``Disk(path=...)`` — over the file store.  One class
owns the stored-slot format and its counting rules, so one set of cases
pins them; nothing below may branch on the backing.
"""

import time

import pytest

from repro.concurrency.syncpoints import CrashPoint
from repro.errors import ChecksumError, StorageError, TransientIOError
from repro.stats.counters import Counters
from repro.storage.disk import Disk, _io_calls
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec, FaultyDisk
from repro.storage.page import Page

IO_8 = 2048 * 8


def image(pid: int, marker: bytes = b"") -> bytes:
    """A real page image (header magic included — the file store tells a
    written slot from a hole by it)."""
    page = Page(pid)
    if marker:
        page.append_row(marker)
    return page.to_bytes()


def flip_bit(disk: Disk, pid: int, byte: int = 100) -> None:
    blob = bytearray(disk.read_physical(pid))
    blob[byte] ^= 0x01
    disk.write_physical(pid, bytes(blob))


@pytest.fixture
def make_disk():
    """Build a Disk on this module's backing (here: memory)."""
    return Disk


@pytest.fixture
def disk(make_disk):
    d = make_disk(io_size=IO_8, counters=Counters())
    yield d
    d.close()


# ------------------------------------------------------------ construction


def test_io_size_must_be_page_multiple(make_disk):
    with pytest.raises(StorageError):
        make_disk(page_size=2048, io_size=3000)


def test_negative_latency_rejected(make_disk):
    with pytest.raises(StorageError):
        make_disk(latency=-0.001)


def test_io_calls_helper():
    assert _io_calls(16, 8) == 2
    assert _io_calls(17, 8) == 3
    assert _io_calls(1, 8) == 1


# ------------------------------------------------------------- single pages


def test_write_then_read_roundtrip(disk):
    disk.write(1, image(1, b"hello"))
    assert disk.read(1) == image(1, b"hello")


def test_read_unwritten_page_raises(disk):
    with pytest.raises(StorageError) as exc:
        disk.read(5)
    assert not isinstance(exc.value, ChecksumError)
    # Never written: the device is not charged, the reason is counted.
    assert disk.counters.disk_io_calls == 0
    assert disk.counters.disk_read_short == 1


def test_unwritten_hole_between_pages(disk):
    disk.write(5, image(5))
    assert not disk.exists(3)  # inside the extent, but nobody wrote it
    assert disk.exists(5)
    with pytest.raises(StorageError):
        disk.read(3)
    assert disk.read_run(3, 3) == [None, None, image(5)]


def test_write_rejects_wrong_size(disk):
    with pytest.raises(StorageError):
        disk.write(1, b"short")
    with pytest.raises(StorageError):
        disk.write_many({1: image(1), 2: b"short"})
    with pytest.raises(StorageError):
        disk.write_physical(1, image(1))  # a slot is image + trailer


def test_single_ops_count_one_call_each(disk):
    disk.write(1, image(1))
    disk.read(1)
    assert disk.counters.disk_io_calls == 2
    assert disk.counters.disk_pages_written == 1
    assert disk.counters.disk_pages_read == 1


def test_durability_write_overwrites(disk):
    disk.write(1, image(1, b"v1"))
    disk.write(1, image(1, b"v2"))
    assert disk.read(1) == image(1, b"v2")


def test_exists_and_drop(disk):
    disk.write(3, image(3))
    assert disk.exists(3)
    disk.drop(3)
    assert not disk.exists(3)
    disk.drop(99)  # beyond anything stored: a no-op
    assert disk.page_ids() == []


def test_page_ids_sorted(disk):
    for pid in (5, 1, 3):
        disk.write(pid, image(pid))
    assert disk.page_ids() == [1, 3, 5]


# --------------------------------------------------------------------- runs


def test_read_run_batches_with_large_buffers(disk):
    for pid in range(1, 17):
        disk.write(pid, image(pid, b"%d" % pid))
    before = disk.counters.disk_io_calls
    images = disk.read_run(1, 16)
    assert disk.counters.disk_io_calls - before == 2  # 16 pages / 8 per IO
    assert images[0] == image(1, b"1")
    assert images[15] == image(16, b"16")
    assert disk.read_run(1, 0) == []


def test_read_run_missing_pages_are_none(disk):
    disk.write(2, image(2, b"two"))
    disk.write(4, image(4, b"four"))
    assert disk.read_run(1, 5) == [
        None, image(2, b"two"), None, image(4, b"four"), None,
    ]
    # One call for the run; each absent neighbour counted once, by reason.
    assert disk.counters.disk_io_calls == 2 + 1
    rejected = (
        disk.counters.disk_read_short + disk.counters.disk_read_bad_magic
    )
    assert rejected == 3


def test_write_many_coalesces_contiguous_runs(disk):
    before = disk.counters.disk_io_calls
    disk.write_many({pid: image(pid) for pid in range(10, 26)})
    # 16 contiguous pages through 8-page buffers -> 2 calls.
    assert disk.counters.disk_io_calls - before == 2
    assert disk.counters.disk_pages_written == 16
    assert disk.exists(25)


def test_write_many_scattered_costs_per_page(disk):
    before = disk.counters.disk_io_calls
    disk.write_many({pid: image(pid) for pid in (1, 10, 20, 30)})
    assert disk.counters.disk_io_calls - before == 4


def test_write_many_empty_is_free(disk):
    disk.write_many({})
    assert disk.counters.disk_io_calls == 0


# ------------------------------------------------------------------ latency


def test_simulated_latency_sleeps_per_call(make_disk):
    disk = make_disk(io_size=IO_8, latency=0.01)
    for pid in range(1, 9):
        disk.write(pid, image(pid))
    start = time.perf_counter()
    disk.read_run(1, 8)  # one physical call despite 8 pages
    one_call = time.perf_counter() - start
    start = time.perf_counter()
    for pid in range(1, 9):
        disk.read(pid)  # eight physical calls
    eight_calls = time.perf_counter() - start
    disk.close()
    assert one_call >= 0.01
    assert eight_calls >= 0.08
    assert eight_calls > one_call * 3  # scattered I/O pays per call


def test_latency_is_a_settable_attribute(disk):
    """``harness.set_latency`` assigns it on a live disk."""
    disk.write(1, image(1))
    disk.latency = 0.02
    start = time.perf_counter()
    disk.read(1)
    assert time.perf_counter() - start >= 0.02
    # Probes sleep nothing and charge nothing.
    calls = disk.counters.disk_io_calls
    start = time.perf_counter()
    for _ in range(20):
        assert disk.exists(1)
        assert disk.verdict(disk.read_physical(1)) == "ok"
    assert time.perf_counter() - start < 0.02 * 20
    assert disk.counters.disk_io_calls == calls


# ----------------------------------------------- verdicts and reject counts


def test_verdict_names_each_rejection(disk):
    disk.write(2, image(2))
    assert disk.verdict(disk.read_physical(2)) == "ok"
    assert disk.verdict(None) == "short"
    assert disk.verdict(disk.read_physical(2)[:-1]) == "short"
    assert disk.verdict(disk.read_physical(9)) == "short"
    flip_bit(disk, 2)
    assert disk.verdict(disk.read_physical(2)) == "crc"


def test_failed_crc_read_is_charged_as_the_read_it_was(disk):
    disk.write(1, image(1))
    flip_bit(disk, 1)
    before = disk.counters.snapshot()
    with pytest.raises(ChecksumError):
        disk.read(1)
    delta = disk.counters.diff(before)
    assert delta["disk_io_calls"] == 1
    assert delta["disk_pages_read"] == 1
    assert delta["disk_read_bad_crc"] == 1


def test_read_run_bad_crc_neighbour_is_none_and_counted_once(disk):
    for pid in (1, 2, 3):
        disk.write(pid, image(pid, b"%d" % pid))
    flip_bit(disk, 2, byte=50)
    before = disk.counters.snapshot()
    assert disk.read_run(1, 3) == [image(1, b"1"), None, image(3, b"3")]
    delta = disk.counters.diff(before)
    assert delta["disk_read_bad_crc"] == 1
    assert delta["disk_io_calls"] == 1


def test_exists_is_a_probe_and_counts_nothing(disk):
    disk.write(1, image(1))
    disk.write(2, image(2))
    flip_bit(disk, 2)
    disk.drop(1)
    before = disk.counters.snapshot()
    assert not disk.exists(1)  # dropped
    assert not disk.exists(2)  # corrupt
    assert not disk.exists(9)  # never written
    assert disk.page_ids() == [2]  # a corrupt slot still holds a page
    assert not any(disk.counters.diff(before).values())


def test_torn_write_many_leaves_the_same_verdicts(disk):
    """A torn batch through FaultyDisk: persisted prefix ``ok``, the torn
    victim ``crc`` (over a never-written slot and over an older image
    alike), the rest untouched."""
    disk.write(3, image(3, b"old"))
    faulty = FaultyDisk(disk, FaultPlan(), counters=disk.counters)
    faulty.plan.at(
        FaultSpec(
            op="write_many", nth=1, kind=FaultKind.TORN,
            pages_persisted=1, torn_byte=700, crash=True,
        )
    )
    with pytest.raises(CrashPoint):
        faulty.write_many({pid: image(pid, b"new") for pid in (1, 2, 4)})
    verdicts = {
        pid: disk.verdict(disk.read_physical(pid)) for pid in (1, 2, 3, 4)
    }
    assert verdicts == {1: "ok", 2: "crc", 3: "ok", 4: "short"}
    assert disk.read(3) == image(3, b"old")
    with pytest.raises(ChecksumError):
        disk.read(2)
    # The same tear over an older image of the victim.
    faulty.plan.at(
        FaultSpec(
            op="write_many", nth=2, kind=FaultKind.TORN,
            pages_persisted=0, torn_byte=700,
        )
    )
    with pytest.raises(TransientIOError):
        faulty.write_many({3: image(3, b"newer")})
    assert disk.verdict(disk.read_physical(3)) == "crc"
    assert not disk.exists(3)
