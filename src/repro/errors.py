"""Exception hierarchy for the online index rebuild engine.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subsystems raise the narrower classes below;
none of them are ever used for control flow that a caller is expected to
ignore silently.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Base class for storage-layer errors (disk, pages, allocation)."""


class PageFormatError(StorageError):
    """A page's on-disk bytes are malformed or violate the slotted layout."""


class PageFullError(StorageError):
    """A row/entry does not fit in the target page.

    This is an internal signal used by page-level code; index-level code
    catches it and performs a split.  It never escapes the public API.
    """


class AllocationError(StorageError):
    """The page manager cannot satisfy an allocation request."""


class PageStateError(StorageError):
    """An operation was attempted on a page in the wrong allocation state
    (e.g. reading a freed page, or double-deallocating a page)."""


class BufferError_(StorageError):
    """Buffer-pool misuse: unpinning an unpinned page, pool exhaustion, etc.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`BufferError`.
    """


class TransientIOError(StorageError):
    """A disk call failed in a way that a retry may fix (EINTR-style).

    Raised by fault injection (:mod:`repro.storage.faults`); the buffer
    pool and the I/O scheduler retry these with capped exponential backoff
    (:meth:`~repro.storage.buffer.BufferPool.retrying`), so a transient
    storm slows the rebuild down but never aborts it.
    """


class PermanentIOError(StorageError):
    """A disk call failed hard (media failure); retrying cannot help.

    The rebuild surfaces this through its §4.1.3 abort path: the in-flight
    top action rolls back, completed top actions keep their progress, and
    the rebuild can be re-run once the fault clears.
    """


class ChecksumError(StorageError):
    """A stored page image failed its CRC32 trailer check.

    Means the page *was* written at some point but the stored bytes are not
    what the engine wrote — a torn ``write_many``, a lost sector, or bit
    rot.  For pages covered by redo (a rebuild's new pages before their
    transaction boundary) recovery reconstructs the image; for committed
    data with no redo coverage this surfaces loudly rather than letting the
    tree silently diverge.
    """


class IOSchedulerError(StorageError):
    """The asynchronous I/O scheduler failed or was stopped mid-operation.

    Raised by :meth:`~repro.storage.io_scheduler.CompletionToken.wait` when
    the write-behind forcer died, timed out, or was shut down before the
    force completed — the caller must then fall back to a synchronous flush
    (the rebuild's abort path does) before freeing any old pages.
    """


class WALError(ReproError):
    """Base class for write-ahead-log errors."""


class LogFormatError(WALError):
    """A log record cannot be (de)serialized."""


class RecoveryError(WALError):
    """Crash recovery encountered an inconsistency it cannot repair."""


class ConcurrencyError(ReproError):
    """Base class for latch / lock / transaction errors."""


class LatchError(ConcurrencyError):
    """Latch protocol violation (double release, upgrade misuse, ...)."""


class LockError(ConcurrencyError):
    """Lock-manager protocol violation."""


class DeadlockError(ConcurrencyError):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeoutError(ConcurrencyError):
    """A lock or latch wait exceeded its watchdog timeout.

    The paper proves latch/address-lock deadlock freedom; a timeout in a test
    or stress run therefore indicates a bug, and we fail loudly instead of
    hanging.
    """


class TransactionError(ConcurrencyError):
    """Transaction or nested-top-action protocol violation."""


class BTreeError(ReproError):
    """Base class for B+-tree errors."""


class KeyNotFoundError(BTreeError):
    """A delete or lookup referenced a (key, rowid) pair not in the index."""


class DuplicateKeyError(BTreeError):
    """An insert supplied a (key, rowid) pair already present."""


class TreeStructureError(BTreeError):
    """The structural verifier found a broken invariant."""


class QuarantinedRangeError(BTreeError):
    """The operation touched a key range quarantined for repair.

    The integrity scrubber (:mod:`repro.core.scrubber`) quarantines the key
    range covering a page whose stored image is rotted beyond WAL replay,
    then writes the page's resident frame back over it.  Until that
    write-back verifies, reads and writes inside the range fail fast with
    this error — *not* :class:`ChecksumError`, because the damage is known,
    bounded, and being repaired — while the rest of the index serves
    traffic normally.  Deliberately not a :class:`StorageError`: workload
    drivers must treat it as a bounded availability event, not an I/O fault.
    """

    def __init__(
        self, message: str, index_id: int = 0,
        start_unit: bytes = b"", end_unit: bytes = b"",
    ) -> None:
        super().__init__(message)
        self.index_id = index_id
        self.start_unit = start_unit
        self.end_unit = end_unit


class ScrubError(ReproError):
    """The integrity scrubber found damage it could not classify or repair."""


class RebuildError(ReproError):
    """Online rebuild could not make progress or was misconfigured."""


class RebuildAbortedError(RebuildError):
    """Online rebuild was aborted (user interrupt or injected fault).

    Completed top actions stay committed; the paper's §4.1.3 cleanup (flush
    new pages, then free pages deallocated by completed top actions) runs
    before this is raised.
    """


class RebuildWatchdogError(RebuildError):
    """A top action and its boundary took longer than the watchdog
    deadline (``repro.core.rebuild.WATCHDOG_TIMEOUT``); the copy loop
    ended the run cleanly at that boundary."""
