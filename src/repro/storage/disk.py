"""Simulated disk with physical I/O accounting.

The paper's testbed wrote 2 KB pages through configurable 4/8/16 KB buffer
pools so that one physical I/O moves several pages (§6.3).  We substitute a
simulated disk: a flat array of page-sized byte buffers addressed by page id.
Page ids double as disk addresses, so *contiguity of page ids is contiguity
on disk* — which is exactly what the clustering experiment (§6.1) measures
and what the rebuild's chunk allocator exploits.

Accounting distinguishes *physical I/O calls* (``disk_io_calls``) from pages
moved: a run of N contiguous pages written through a large buffer costs
``ceil(N / pages_per_io)`` calls, while N scattered pages cost N calls.
Everything written is durable immediately (a crash discards only the buffer
pool, never the disk), matching the paper's "forced write" assumption
(footnote 7: no careful-writing order tracking is required).

**Checksums.**  The stored *physical* image of a page is the logical page
image plus a 4-byte CRC32 trailer computed at write time and verified at
read time.  Keeping the trailer outside the logical page format means page
capacity, the slotted layout, and every byte-accounting invariant are
untouched; the trailer exists only between the disk and its client.  A
mismatch raises :class:`~repro.errors.ChecksumError` — the page *was*
written but its bytes are not what the engine wrote (torn write, bit rot).
A page never written at all stays a plain :class:`StorageError`, which is
the distinction recovery relies on: torn *new* pages are reconstructible
from the log (§3: redo can re-read the still-unfreed source pages), while
corrupt committed data must fail loudly.

The ``read_physical`` / ``write_physical`` hooks bypass sealing and
verification; they exist for the fault injector
(:mod:`repro.storage.faults`) to plant torn and corrupted images that then
flow through the *real* detection path.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib

from repro.errors import ChecksumError, StorageError
from repro.stats.counters import Counters
from repro.storage.page import PAGE_SIZE_DEFAULT

CRC_TRAILER_SIZE = 4
_CRC = struct.Struct("<I")


class Disk:
    """A crash-durable array of page images with I/O-call accounting."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        io_size: int | None = None,
        counters: Counters | None = None,
        latency: float = 0.0,
    ) -> None:
        """``io_size`` is the physical transfer size in bytes (default: one
        page).  It must be a multiple of ``page_size``; 16384 with 2048-byte
        pages reproduces the paper's 16 KB buffer-pool configuration.

        ``latency`` is a simulated per-physical-call service time in
        seconds.  Each I/O call sleeps for that long *outside* the disk
        lock, so concurrent callers overlap their waits exactly as real
        threads overlap real disk time (the GIL is released during
        ``time.sleep``)."""
        if io_size is None:
            io_size = page_size
        if io_size % page_size != 0:
            raise StorageError(
                f"io_size {io_size} is not a multiple of page_size {page_size}"
            )
        self.page_size = page_size
        self.io_size = io_size
        self.pages_per_io = io_size // page_size
        if latency < 0.0:
            raise StorageError(f"latency must be >= 0, got {latency}")
        self.latency = latency
        self.counters = counters if counters is not None else Counters()
        self._pages: dict[int, bytes] = {}
        self._lock = threading.Lock()

    def _service(self, calls: int) -> None:
        """Charge the simulated service time for ``calls`` physical I/Os.

        Runs with no lock held: concurrent I/Os from different threads
        overlap their sleeps, one thread's I/Os serialize."""
        if self.latency > 0.0 and calls > 0:
            time.sleep(self.latency * calls)

    # --------------------------------------------------------------- trailer

    def seal(self, data: bytes) -> bytes:
        """Logical page image -> stored physical image (CRC32 trailer)."""
        return bytes(data) + _CRC.pack(zlib.crc32(data))

    def _unseal(self, page_id: int, blob: bytes) -> bytes:
        data = blob[:-CRC_TRAILER_SIZE]
        (stored,) = _CRC.unpack(blob[-CRC_TRAILER_SIZE:])
        if stored != zlib.crc32(data):
            self.counters.add("disk_read_bad_crc")
            raise ChecksumError(
                f"page {page_id}: stored image fails its CRC32 trailer "
                "(torn write or corruption)"
            )
        return data

    def _unseal_or_none(self, page_id: int, blob: bytes | None) -> bytes | None:
        """Opportunistic-read variant: a corrupt neighbor reads as absent."""
        if blob is None:
            return None
        try:
            return self._unseal(page_id, blob)
        except ChecksumError:
            return None

    # ------------------------------------------------------------------ single

    def read(self, page_id: int) -> bytes:
        """Read one page image (one physical I/O call)."""
        with self._lock:
            try:
                blob = self._pages[page_id]
            except KeyError:
                raise StorageError(f"page {page_id} was never written") from None
        self._service(1)
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_read")
        return self._unseal(page_id, blob)

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page image durably (one physical I/O call)."""
        self._store(page_id, data)
        self._service(1)
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_written")

    # -------------------------------------------------------------------- runs

    def read_run(self, start_page: int, count: int) -> list[bytes | None]:
        """Read ``count`` consecutive pages through large buffers.

        Pages never written — or failing their checksum — come back as
        ``None`` (the buffer pool treats them as absent; a *required* page
        is re-read through :meth:`read`, which raises the precise error).
        Costs ``ceil(count / pages_per_io)`` I/O calls.
        """
        if count <= 0:
            return []
        with self._lock:
            blobs = [self._pages.get(start_page + i) for i in range(count)]
        calls = _io_calls(count, self.pages_per_io)
        self._service(calls)
        self.counters.add("disk_io_calls", calls)
        self.counters.add("disk_pages_read", count)
        return [
            self._unseal_or_none(start_page + i, blob)
            for i, blob in enumerate(blobs)
        ]

    def write_many(self, items: dict[int, bytes]) -> None:
        """Write a batch of pages, coalescing contiguous ids into large I/Os.

        This models the rebuild flushing its new pages: because the chunk
        allocator hands out consecutive ids, a few-hundred-page flush through
        16 KB buffers costs ~count/8 calls instead of count.
        """
        if not items:
            return
        ids = sorted(items)
        with self._lock:
            for pid in ids:
                self._store_locked(pid, items[pid])
        calls = write_calls(ids, self.pages_per_io)
        self._service(calls)
        self.counters.add("disk_io_calls", calls)
        self.counters.add("disk_pages_written", len(ids))

    # ------------------------------------------------------------------ admin

    def exists(self, page_id: int) -> bool:
        """True when the page has a *valid* stored image.

        A torn/corrupt image reads as absent here, which is what lets
        recovery's fresh-page redo treat it as never written and rebuild it.
        """
        with self._lock:
            blob = self._pages.get(page_id)
        return self._unseal_or_none(page_id, blob) is not None

    def drop(self, page_id: int) -> None:
        """Forget a page image (used when a freed page is re-allocated raw)."""
        with self._lock:
            self._pages.pop(page_id, None)

    def page_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._pages)

    # ------------------------------------------------------------ fault hooks

    def read_physical(self, page_id: int) -> bytes | None:
        """Stored physical image (trailer included), without verification."""
        with self._lock:
            return self._pages.get(page_id)

    def write_physical(self, page_id: int, blob: bytes) -> None:
        """Store a physical image verbatim — fault injection only.

        No sealing, no accounting: this is how torn and corrupted images
        get planted so the normal read path detects them.
        """
        if len(blob) != self.page_size + CRC_TRAILER_SIZE:
            raise StorageError(
                f"page {page_id}: physical image is {len(blob)} bytes, "
                f"expected {self.page_size + CRC_TRAILER_SIZE}"
            )
        with self._lock:
            self._pages[page_id] = bytes(blob)

    # -------------------------------------------------------------- internals

    def _store(self, page_id: int, data: bytes) -> None:
        with self._lock:
            self._store_locked(page_id, data)

    def _store_locked(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page {page_id}: image is {len(data)} bytes, "
                f"expected {self.page_size}"
            )
        self._pages[page_id] = self.seal(data)


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
