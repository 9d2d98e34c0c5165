"""The disk: stored-page format, validity verdict and I/O-call accounting.

The paper's testbed wrote 2 KB pages through configurable 4/8/16 KB buffer
pools so that one physical I/O moves several pages (§6.3).  :class:`Disk`
is an array of page-sized *slots* addressed by page id.  Page ids double as
disk addresses, so *contiguity of page ids is contiguity on disk* — which
is exactly what the clustering experiment (§6.1) measures and what the
rebuild's chunk allocator exploits.

Everything that defines *written*, *valid* and *one call* lives in this one
class; where the slots are kept is a small store behind it, chosen by
``Disk(path=)``: a dict (``path=None``, the simulated disk every benchmark
runs) or one data file driven with ``pread`` / ``pwrite`` / ``fsync``
(page ``i`` at byte ``(i - 1) * slot_size``; a batch ends with one
``fsync`` — the durability point the engine's forced writes rely on).

**Accounting** distinguishes *physical I/O calls* (``disk_io_calls``) from
pages moved: a run of N contiguous pages through a large buffer costs
``ceil(N / pages_per_io)`` calls, N scattered pages cost N calls.
Everything written is durable when the call returns (a crash discards only
the buffer pool, never the disk), matching the paper's "forced write"
assumption (footnote 7: no careful-writing order tracking is required).

**Slots and verdicts.**  A stored slot is the logical page image plus a
4-byte CRC32 trailer computed at write time (:meth:`Disk.seal`).  Keeping
the trailer outside the logical page format means page capacity, the
slotted layout and every byte-accounting invariant are untouched.
:meth:`Disk.verdict` is the one judgement of a slot: ``ok``; ``short``
(nothing, or less than a slot, is stored); ``magic`` (a file slot that
does not start with the page magic — a hole between written pages, or a
dropped page); ``crc`` (the page *was* written but its bytes are not what
the engine wrote: torn write, bit rot).  ``short`` and ``magic`` are
*never written*: a required read raises a plain :class:`StorageError` and
the device is not charged.  ``crc`` is charged as the read it was and
raises :class:`~repro.errors.ChecksumError`.  Recovery relies on the
distinction: torn *new* pages are reconstructible from the log (§3: redo
can re-read the still-unfreed source pages), while corrupt committed data
must fail loudly.

**One counting rule.**  ``disk_read_short`` / ``disk_read_bad_magic`` /
``disk_read_bad_crc`` count, once each, the slots a ``read`` or
``read_run`` looked at and did not return.  ``exists``, ``verdict``,
``page_ids`` and ``read_physical`` are probes: they count nothing, charge
no call and sleep no latency.

The ``read_physical`` / ``write_physical`` hooks bypass sealing and
verification; they exist for the fault injector
(:mod:`repro.storage.faults`) to plant torn and corrupted slots that then
flow through the *real* detection path, and for the scrubber to judge a
stored slot behind a clean resident frame.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib

from repro.errors import ChecksumError, StorageError
from repro.stats.counters import Counters
from repro.storage.page import PAGE_MAGIC, PAGE_SIZE_DEFAULT

_CRC = struct.Struct("<I")
CRC_TRAILER_SIZE = _CRC.size
_REJECT_COUNTER = {
    "short": "disk_read_short",
    "magic": "disk_read_bad_magic",
    "crc": "disk_read_bad_crc",
}


class _MemorySlots:
    """Slots in a dict: what was put is there, nothing else is."""

    def __init__(self) -> None:
        self._slots: dict[int, bytes] = {}
        self._lock = threading.Lock()

    def get_run(self, start: int, count: int) -> list[bytes | None]:
        with self._lock:
            return [self._slots.get(start + i) for i in range(count)]

    def put(self, slots: dict[int, bytes]) -> None:
        with self._lock:
            self._slots.update(slots)

    def drop(self, page_id: int) -> None:
        with self._lock:
            self._slots.pop(page_id, None)

    def ids(self) -> list[int]:
        with self._lock:
            return sorted(self._slots)

    def is_hole(self, slot: bytes) -> bool:
        return False

    def close(self) -> None:
        pass


class _FileSlots:
    """Slots in one file.  ``pread`` / ``pwrite`` carry their own offset,
    so the store holds no lock and concurrent I/O threads overlap in the
    device (``tools/lint_no_io_under_lock.py`` keeps it that way)."""

    def __init__(self, path: str, slot_size: int) -> None:
        self.slot_size = slot_size
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)

    def _offset(self, page_id: int) -> int:
        if page_id < 1:
            raise StorageError(f"bad page id {page_id}")
        return (page_id - 1) * self.slot_size

    def get_run(self, start: int, count: int) -> list[bytes | None]:
        """Raw slots; past the end of the file a slot is None (or cut)."""
        size = self.slot_size
        blob = os.pread(self._fd, count * size, self._offset(start))
        return [blob[i * size : (i + 1) * size] or None for i in range(count)]

    def put(self, slots: dict[int, bytes]) -> None:
        for page_id, slot in slots.items():
            os.pwrite(self._fd, slot, self._offset(page_id))
        os.fsync(self._fd)

    def drop(self, page_id: int) -> None:
        """Zero the slot's magic (never growing the file to do it)."""
        if self.get_run(page_id, 1)[0] is not None:
            os.pwrite(self._fd, bytes(len(PAGE_MAGIC)), self._offset(page_id))

    def ids(self) -> list[int]:
        total = os.fstat(self._fd).st_size // self.slot_size
        return [
            page_id
            for page_id, slot in enumerate(self.get_run(1, total), 1)
            if not self.is_hole(slot)
        ]

    def is_hole(self, slot: bytes) -> bool:
        """A full-length slot nobody wrote a page into (or dropped)."""
        return not slot.startswith(PAGE_MAGIC)

    def close(self) -> None:
        if self._fd >= 0:
            os.fsync(self._fd)
            os.close(self._fd)
            self._fd = -1


class Disk:
    """A crash-durable array of page images with I/O-call accounting."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        io_size: int | None = None,
        counters: Counters | None = None,
        latency: float = 0.0,
        path: str | None = None,
    ) -> None:
        """``io_size`` is the physical transfer size in bytes (default: one
        page).  It must be a multiple of ``page_size``; 16384 with 2048-byte
        pages reproduces the paper's 16 KB buffer-pool configuration.

        ``latency`` is a simulated per-physical-call service time in
        seconds, slept on top of whatever the backing itself takes.  Each
        I/O call sleeps for that long with *no lock held*, so concurrent
        callers overlap their waits exactly as real threads overlap real
        disk time (the GIL is released during ``time.sleep``).

        ``path`` names the data file of a file-backed disk (created when
        missing, reattached when present); None keeps the slots in memory."""
        if io_size is None:
            io_size = page_size
        if io_size % page_size != 0:
            raise StorageError(
                f"io_size {io_size} is not a multiple of page_size {page_size}"
            )
        if latency < 0.0:
            raise StorageError(f"latency must be >= 0, got {latency}")
        self.page_size = page_size
        self.slot_size = page_size + CRC_TRAILER_SIZE
        self.io_size = io_size
        self.pages_per_io = io_size // page_size
        self.latency = latency
        self.counters = counters if counters is not None else Counters()
        self._store = (
            _MemorySlots() if path is None else _FileSlots(path, self.slot_size)
        )

    def _service(self, calls: int) -> None:
        """Charge the simulated service time for ``calls`` physical I/Os.

        Runs with no lock held: concurrent I/Os from different threads
        overlap their sleeps, one thread's I/Os serialize."""
        if self.latency > 0.0 and calls > 0:
            time.sleep(self.latency * calls)

    # ---------------------------------------------------------------- format

    def seal(self, data: bytes) -> bytes:
        """Logical page image -> stored slot (CRC32 trailer appended)."""
        if len(data) != self.page_size:
            raise StorageError(
                f"page image is {len(data)} bytes, expected {self.page_size}"
            )
        return bytes(data) + _CRC.pack(zlib.crc32(data))

    def verdict(self, slot: bytes | None) -> str:
        """``ok`` | ``short`` | ``magic`` | ``crc`` for one raw slot (see
        the module docstring); counts nothing."""
        if slot is None or len(slot) != self.slot_size:
            return "short"
        if self._store.is_hole(slot):
            return "magic"
        (stored,) = _CRC.unpack_from(slot, self.page_size)
        if stored != zlib.crc32(memoryview(slot)[: self.page_size]):
            return "crc"
        return "ok"

    # ------------------------------------------------------------------ single

    def read(self, page_id: int) -> bytes:
        """Read one page image (one physical I/O call)."""
        slot = self.read_physical(page_id)
        why = self.verdict(slot)
        if why != "ok":
            self.counters.add(_REJECT_COUNTER[why])
        if why in ("short", "magic"):
            raise StorageError(f"page {page_id} was never written")
        self._service(1)
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_read")
        if why == "crc":
            raise ChecksumError(
                f"page {page_id}: stored image fails its CRC32 trailer "
                "(torn write or corruption)"
            )
        return slot[: self.page_size]

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page image durably (one physical I/O call)."""
        self._store.put({page_id: self.seal(data)})
        self._service(1)
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_written")

    # -------------------------------------------------------------------- runs

    def read_run(self, start_page: int, count: int) -> list[bytes | None]:
        """Read ``count`` consecutive pages through large buffers.

        Neighbours in the run are opportunistic: a page never written — or
        failing its checksum — comes back as ``None`` (the buffer pool
        treats it as absent; a *required* page is re-read through
        :meth:`read`, which raises the precise error).
        Costs ``ceil(count / pages_per_io)`` I/O calls.
        """
        if count <= 0:
            return []
        slots = self._store.get_run(start_page, count)
        calls = _io_calls(count, self.pages_per_io)
        self._service(calls)
        self.counters.add("disk_io_calls", calls)
        self.counters.add("disk_pages_read", count)
        images: list[bytes | None] = []
        for slot in slots:
            why = self.verdict(slot)
            if why == "ok":
                images.append(slot[: self.page_size])
            else:
                self.counters.add(_REJECT_COUNTER[why])
                images.append(None)
        return images

    def write_many(self, items: dict[int, bytes]) -> None:
        """Write a batch of pages, coalescing contiguous ids into large I/Os.

        This models the rebuild flushing its new pages: because the chunk
        allocator hands out consecutive ids, a few-hundred-page flush through
        16 KB buffers costs ~count/8 calls instead of count.
        """
        if not items:
            return
        ids = sorted(items)
        self._store.put({pid: self.seal(items[pid]) for pid in ids})
        calls = write_calls(ids, self.pages_per_io)
        self._service(calls)
        self.counters.add("disk_io_calls", calls)
        self.counters.add("disk_pages_written", len(ids))

    # ------------------------------------------------------------------ admin

    def exists(self, page_id: int) -> bool:
        """True when the page has a *valid* stored image (a probe).

        A torn/corrupt image reads as absent here, which is what lets
        recovery's fresh-page redo treat it as never written and rebuild it.
        """
        return self.verdict(self.read_physical(page_id)) == "ok"

    def drop(self, page_id: int) -> None:
        """Forget a page image (used when a freed page is re-allocated raw)."""
        self._store.drop(page_id)

    def page_ids(self) -> list[int]:
        """Ascending ids of the slots holding a page, valid or not."""
        return self._store.ids()

    def close(self) -> None:
        """Release the backing (the file store syncs and closes its file)."""
        self._store.close()

    # ------------------------------------------------------------ fault hooks

    def read_physical(self, page_id: int) -> bytes | None:
        """The raw stored slot (trailer included), unjudged — a probe."""
        return self._store.get_run(page_id, 1)[0]

    def write_physical(self, page_id: int, blob: bytes) -> None:
        """Store a raw slot verbatim — fault injection only.

        No sealing, no accounting: this is how torn and corrupted images
        get planted so the normal read path detects them.
        """
        if len(blob) != self.slot_size:
            raise StorageError(
                f"page {page_id}: physical image is {len(blob)} bytes, "
                f"expected {self.slot_size}"
            )
        self._store.put({page_id: bytes(blob)})


def _io_calls(pages: int, pages_per_io: int) -> int:
    """Physical calls needed to move ``pages`` contiguous pages."""
    return -(-pages // pages_per_io)


def write_calls(ids: list[int], pages_per_io: int) -> int:
    """Physical calls ``write_many`` charges for the ascending ``ids``:
    one per run of up to ``pages_per_io`` consecutive ids, counted from
    the start of each contiguous stretch."""
    calls = 1
    run = 1
    for prev, cur in zip(ids, ids[1:]):
        if cur == prev + 1 and run < pages_per_io:
            run += 1
        else:
            calls += 1
            run = 1
    return calls
