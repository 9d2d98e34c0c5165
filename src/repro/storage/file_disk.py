"""A file-backed disk: the same interface as :class:`~repro.storage.disk.Disk`,
persisted to one data file.

Page ``i`` lives at byte offset ``(i - 1) * slot_size``, where a slot is
the page image plus its 4-byte CRC32 trailer (see :mod:`repro.storage.disk`
— the trailer is a storage-layer frame, invisible to the logical page
format).  Validity is self-describing twice over: the header magic says "a
page was written here", the CRC says "and these are the bytes the engine
wrote".  A missing magic (short read, never written, dropped) reads as
absent; a magic with a bad CRC raises :class:`~repro.errors.ChecksumError`
on a required read — torn and corrupted images are *detected*, not
silently parsed.  ``_read_raw`` counters record why a page was rejected
(``disk_read_short`` / ``disk_read_bad_magic`` / ``disk_read_bad_crc``).

Writes go through ``os.pwrite`` and a batch ends with one ``fsync`` — the
durability point the engine's forced writes rely on.  I/O-call accounting
matches the in-memory disk: a run of contiguous pages through an
``io_size`` buffer is one call.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib

from repro.errors import ChecksumError, StorageError
from repro.stats.counters import Counters
from repro.storage.disk import CRC_TRAILER_SIZE, _io_calls, write_calls
from repro.storage.page import PAGE_SIZE_DEFAULT

_PAGE_MAGIC = 0xB7EE  # keep in sync with repro.storage.page._HEADER_MAGIC
_CRC = struct.Struct("<I")


class FileDisk:
    """Crash-durable page store backed by a single file."""

    def __init__(
        self,
        path: str,
        page_size: int = PAGE_SIZE_DEFAULT,
        io_size: int | None = None,
        counters: Counters | None = None,
    ) -> None:
        if io_size is None:
            io_size = page_size
        if io_size % page_size != 0:
            raise StorageError(
                f"io_size {io_size} is not a multiple of page_size {page_size}"
            )
        self.path = path
        self.page_size = page_size
        self.slot_size = page_size + CRC_TRAILER_SIZE
        self.io_size = io_size
        self.pages_per_io = io_size // page_size
        self.counters = counters if counters is not None else Counters()
        self._lock = threading.Lock()
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(path, flags, 0o644)
        self._size = os.fstat(self._fd).st_size

    # --------------------------------------------------------------- trailer

    def seal(self, data: bytes) -> bytes:
        """Logical page image -> stored physical slot (CRC32 trailer)."""
        return bytes(data) + _CRC.pack(zlib.crc32(data))

    def _classify(self, blob: bytes) -> str:
        """'ok' | 'short' | 'magic' | 'crc' for one physical slot."""
        if len(blob) < self.slot_size:
            return "short"
        (magic,) = struct.unpack_from("<H", blob)
        if magic != _PAGE_MAGIC:
            return "magic"
        data = blob[: self.page_size]
        (stored,) = _CRC.unpack_from(blob, self.page_size)
        if stored != zlib.crc32(data):
            return "crc"
        return "ok"

    _REJECT_COUNTER = {
        "short": "disk_read_short",
        "magic": "disk_read_bad_magic",
        "crc": "disk_read_bad_crc",
    }

    # ------------------------------------------------------------------ single

    def read(self, page_id: int) -> bytes:
        data, reason = self._read_raw(page_id)
        if data is None:
            if reason == "crc":
                raise ChecksumError(
                    f"page {page_id}: stored image fails its CRC32 trailer "
                    "(torn write or corruption)"
                )
            raise StorageError(f"page {page_id} was never written")
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_read")
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._check(page_id, data)
        with self._lock:
            os.pwrite(self._fd, self.seal(data), self._offset(page_id))
            self._size = max(self._size, self._offset(page_id) + self.slot_size)
            os.fsync(self._fd)
        self.counters.add("disk_io_calls")
        self.counters.add("disk_pages_written")

    # -------------------------------------------------------------------- runs

    def read_run(self, start_page: int, count: int) -> list[bytes | None]:
        if count <= 0:
            return []
        with self._lock:
            blob = os.pread(
                self._fd, count * self.slot_size, self._offset(start_page)
            )
        images: list[bytes | None] = []
        for i in range(count):
            chunk = blob[i * self.slot_size : (i + 1) * self.slot_size]
            verdict = self._classify(chunk)
            if verdict != "ok":
                # Neighbors in the run are opportunistic: invalid reads as
                # absent here; a *required* page re-reads via read(), which
                # raises the precise error.
                self.counters.add(self._REJECT_COUNTER[verdict])
                images.append(None)
            else:
                images.append(chunk[: self.page_size])
        self.counters.add("disk_io_calls", _io_calls(count, self.pages_per_io))
        self.counters.add("disk_pages_read", count)
        return images

    def write_many(self, items: dict[int, bytes]) -> None:
        if not items:
            return
        ids = sorted(items)
        with self._lock:
            for pid in ids:
                self._check(pid, items[pid])
                os.pwrite(self._fd, self.seal(items[pid]), self._offset(pid))
                self._size = max(
                    self._size, self._offset(pid) + self.slot_size
                )
            os.fsync(self._fd)
        self.counters.add(
            "disk_io_calls", write_calls(ids, self.pages_per_io)
        )
        self.counters.add("disk_pages_written", len(ids))

    # ------------------------------------------------------------------ admin

    def exists(self, page_id: int) -> bool:
        """True when the page has a *valid* stored image (CRC included)."""
        data, _reason = self._read_raw(page_id)
        return data is not None

    def drop(self, page_id: int) -> None:
        """Invalidate a page image (zero its magic word)."""
        with self._lock:
            offset = self._offset(page_id)
            if offset + self.slot_size <= self._size:
                os.pwrite(self._fd, b"\x00\x00", offset)

    def page_ids(self) -> list[int]:
        out = []
        with self._lock:
            total = self._size // self.slot_size
        for pid in range(1, total + 1):
            if self.exists(pid):
                out.append(pid)
        return out

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.fsync(self._fd)
                os.close(self._fd)
                self._fd = -1

    # ------------------------------------------------------------ fault hooks

    def read_physical(self, page_id: int) -> bytes | None:
        """Stored physical slot (trailer included), without verification."""
        with self._lock:
            offset = self._offset(page_id)
            if offset + self.slot_size > self._size:
                return None
            return os.pread(self._fd, self.slot_size, offset)

    def write_physical(self, page_id: int, blob: bytes) -> None:
        """Store a physical slot verbatim — fault injection only."""
        if len(blob) != self.slot_size:
            raise StorageError(
                f"page {page_id}: physical image is {len(blob)} bytes, "
                f"expected {self.slot_size}"
            )
        with self._lock:
            os.pwrite(self._fd, blob, self._offset(page_id))
            self._size = max(self._size, self._offset(page_id) + self.slot_size)
            os.fsync(self._fd)

    # -------------------------------------------------------------- internals

    def _offset(self, page_id: int) -> int:
        if page_id < 1:
            raise StorageError(f"bad page id {page_id}")
        return (page_id - 1) * self.slot_size

    def _check(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page {page_id}: image is {len(data)} bytes, "
                f"expected {self.page_size}"
            )

    def _read_raw(self, page_id: int) -> tuple[bytes | None, str]:
        """One page's image and, when rejected, the reason why."""
        with self._lock:
            offset = self._offset(page_id)
            if offset + self.slot_size > self._size:
                self.counters.add("disk_read_short")
                return None, "short"
            blob = os.pread(self._fd, self.slot_size, offset)
        verdict = self._classify(blob)
        if verdict != "ok":
            self.counters.add(self._REJECT_COUNTER[verdict])
            return None, verdict
        return blob[: self.page_size], "ok"
