"""Unit tests for CRC trailers and the fault-injection wrapper."""

import pytest

from repro.concurrency.syncpoints import CrashPoint
from repro.errors import (
    ChecksumError,
    PermanentIOError,
    StorageError,
    TransientIOError,
)
from repro.stats.counters import Counters
from repro.storage.disk import CRC_TRAILER_SIZE, Disk
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec, FaultyDisk
from repro.storage.page import PAGE_SIZE_DEFAULT, Page


def image(pid: int, marker: int = 0) -> bytes:
    """A valid page image (real header magic) with a distinguishing byte."""
    page = Page(pid)
    data = bytearray(page.to_bytes())
    data[-1] = marker & 0xFF
    return bytes(data)


@pytest.fixture
def disk() -> Disk:
    return Disk(counters=Counters())


@pytest.fixture
def fdisk(tmp_path) -> Disk:
    return Disk(path=str(tmp_path / "data.pages"), counters=Counters())


# ----------------------------------------------------------- CRC trailers


@pytest.mark.parametrize("which", ["mem", "file"])
def test_crc_roundtrip_and_corruption(which, disk, fdisk):
    d = disk if which == "mem" else fdisk
    d.write(1, image(1, 7))
    assert d.read(1) == image(1, 7)
    assert d.exists(1)
    # Flip one bit in the stored physical image: the read must fail its
    # CRC check (ChecksumError — written but not what the engine wrote),
    # and exists() must report the page as absent (recoverable via redo).
    blob = bytearray(d.read_physical(1))
    blob[100] ^= 0x01
    d.write_physical(1, bytes(blob))
    with pytest.raises(ChecksumError):
        d.read(1)
    assert not d.exists(1)
    assert d.counters.disk_read_bad_crc > 0
    # Never-written stays a plain StorageError, not a checksum failure.
    with pytest.raises(StorageError) as exc:
        d.read(2)
    assert not isinstance(exc.value, ChecksumError)


def test_physical_image_carries_trailer(disk):
    disk.write(1, image(1))
    assert len(disk.read_physical(1)) == PAGE_SIZE_DEFAULT + CRC_TRAILER_SIZE


def test_read_run_treats_corrupt_page_as_absent(fdisk):
    for pid in (1, 2, 3):
        fdisk.write(pid, image(pid, pid))
    blob = bytearray(fdisk.read_physical(2))
    blob[50] ^= 0x10
    fdisk.write_physical(2, bytes(blob))
    run = fdisk.read_run(1, 3)
    assert run[0] == image(1, 1)
    assert run[1] is None
    assert run[2] == image(3, 3)


def test_file_disk_rejection_reason_counters(fdisk):
    """A read counts why it rejected a slot; the ``exists`` probe counts
    nothing (the one rule, see the ``repro.storage.disk`` docstring)."""
    fdisk.write(1, image(1))
    # Short: beyond the end of the file.
    assert not fdisk.exists(9)
    assert fdisk.counters.disk_read_short == 0
    with pytest.raises(StorageError):
        fdisk.read(9)
    assert fdisk.counters.disk_read_short == 1
    # Bad magic: a dropped page.
    fdisk.drop(1)
    assert not fdisk.exists(1)
    with pytest.raises(StorageError):
        fdisk.read(1)
    assert fdisk.counters.disk_read_bad_magic == 1
    # Bad CRC: a torn image.
    fdisk.write(2, image(2))
    blob = bytearray(fdisk.read_physical(2))
    blob[30] ^= 0x02
    fdisk.write_physical(2, bytes(blob))
    assert not fdisk.exists(2)
    with pytest.raises(ChecksumError):
        fdisk.read(2)
    assert fdisk.counters.disk_read_bad_crc == 1


# ------------------------------------------------------------- FaultyDisk


def faulty(disk, **plan_kwargs):
    return FaultyDisk(disk, FaultPlan(**plan_kwargs), counters=disk.counters)


def test_transient_fault_fires_once_at_site(disk):
    fd = faulty(disk)
    fd.plan.at(FaultSpec(op="read", nth=2, kind=FaultKind.TRANSIENT))
    fd.write(1, image(1))
    assert fd.read(1) == image(1)  # call #1: clean
    with pytest.raises(TransientIOError):
        fd.read(1)  # call #2: injected
    assert fd.read(1) == image(1)  # call #3: the spec was consumed
    assert fd.plan.injected == ["transient:read#2"]


def test_permanent_fault(disk):
    fd = faulty(disk)
    fd.plan.at(FaultSpec(op="write", nth=1, kind=FaultKind.PERMANENT))
    with pytest.raises(PermanentIOError):
        fd.write(1, image(1))
    assert not fd.exists(1)


def test_torn_write_many_persists_prefix_only(disk):
    fd = faulty(disk)
    fd.plan.at(
        FaultSpec(
            op="write_many", nth=1, kind=FaultKind.TORN, pages_persisted=2
        )
    )
    items = {pid: image(pid, pid) for pid in (1, 2, 3, 4)}
    with pytest.raises(TransientIOError):
        fd.write_many(items)
    assert fd.exists(1) and fd.exists(2)
    assert not fd.exists(3) and not fd.exists(4)
    # The retry (same call, next ordinal) completes the batch.
    fd.write_many(items)
    assert all(fd.exists(pid) for pid in items)


def test_torn_write_many_byte_tear_detected_by_crc(disk):
    fd = faulty(disk)
    fd.plan.at(
        FaultSpec(
            op="write_many", nth=1, kind=FaultKind.TORN,
            pages_persisted=1, torn_byte=700, crash=True,
        )
    )
    with pytest.raises(CrashPoint):
        fd.write_many({1: image(1, 1), 2: image(2, 2)})
    assert fd.exists(1)
    # Page 2 got the first 700 bytes of the new image only: the CRC
    # trailer catches it through the normal read path.
    with pytest.raises(ChecksumError):
        disk.read(2)
    assert not fd.exists(2)


def test_lost_write_acks_without_persisting_then_crashes(disk):
    fd = faulty(disk)
    fd.plan.at(
        FaultSpec(op="write_many", nth=1, kind=FaultKind.LOST, crash=True)
    )
    fd.write_many({1: image(1)})  # acks the lie
    assert fd.crash_armed
    with pytest.raises(CrashPoint):
        fd.read(1)  # the next disk call is the power failure
    fd.disarm()  # "reboot"
    with pytest.raises(StorageError):
        fd.read(1)  # the page was genuinely never persisted


def test_corrupt_read_flows_through_real_crc_path(disk):
    fd = faulty(disk)
    fd.write(1, image(1))
    fd.plan.at(FaultSpec(op="read", nth=2, kind=FaultKind.CORRUPT, bit=123))
    assert fd.read(1) == image(1)
    with pytest.raises(ChecksumError):
        fd.read(1)
    assert disk.counters.disk_read_bad_crc > 0


def test_rate_storm_is_deterministic_per_seed(disk):
    def storm(seed):
        d = Disk(counters=Counters())
        fd = FaultyDisk(
            d,
            FaultPlan(seed=seed, transient_read_rate=0.5),
            counters=d.counters,
        )
        d.write(1, image(1))
        outcomes = []
        for _ in range(40):
            try:
                fd.read(1)
                outcomes.append(True)
            except TransientIOError:
                outcomes.append(False)
        return outcomes

    assert storm(3) == storm(3)
    assert storm(3) != storm(4)


def test_rate_storm_cap(disk):
    fd = FaultyDisk(
        disk,
        FaultPlan(seed=0, transient_read_rate=1.0, max_rate_faults=2),
        counters=disk.counters,
    )
    disk.write(1, image(1))
    for _ in range(2):
        with pytest.raises(TransientIOError):
            fd.read(1)
    assert fd.read(1) == image(1)  # the cap stopped the storm


def test_delegation_passes_through(disk):
    fd = faulty(disk)
    fd.write(1, image(1))
    assert fd.page_ids() == [1]
    assert fd.page_size == disk.page_size
    fd.drop(1)
    assert not fd.exists(1)
