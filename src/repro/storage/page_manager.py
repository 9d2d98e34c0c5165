"""Page allocation with the paper's three-state lifecycle (§4.1.3).

A page is **allocated**, **deallocated**, or **free**.  Only free pages may
be handed out again.  Deallocation is logged by the caller and moves the
page to *deallocated*; the later *deallocated → free* transition is not
logged and cannot be undone, so crash recovery finishes by freeing every
page still in deallocated state (implemented in :mod:`repro.wal.recovery`).

The rebuild's clustering story (§6.1) rests on the allocator: at rebuild
start the page manager is asked for a *chunk* of contiguous free disk space
and new leaf pages are carved from it sequentially, so pages land on disk in
key order.  :class:`ChunkAllocator` implements that cursor; ordinary splits
use :meth:`PageManager.allocate`, which takes any free page.
"""

from __future__ import annotations

import bisect
import enum
import threading
from typing import Iterator

from repro.errors import AllocationError, PageStateError
from repro.stats.counters import Counters
from repro.storage.disk import Disk


class PageState(enum.Enum):
    FREE = "free"
    ALLOCATED = "allocated"
    DEALLOCATED = "deallocated"


class PageManager:
    """Tracks the allocation state of every page id on a :class:`Disk`.

    Page ids start at 1 and double as disk addresses; ids beyond the current
    high-water mark are implicitly free (the "file" grows on demand).
    """

    def __init__(self, disk: Disk, counters: Counters | None = None) -> None:
        self.disk = disk
        self.counters = counters if counters is not None else Counters()
        self._states: dict[int, PageState] = {}
        self._free: list[int] = []
        """The explicitly free ids, ascending: ``allocate`` takes the
        first and ``_find_free_run`` walks it in order."""
        self._next_new = 1  # high-water mark: smallest never-used id
        self.lock = threading.RLock()
        """Guards the states.  A logged change whose record precedes it
        (a ``DEALLOC``, an undone ``ALLOC`` / ``DEALLOC``) holds it across
        the append and the change, and a checkpoint reads its redo LSN
        and :meth:`snapshot` under it: the snapshot holds a logged change
        exactly when its record lies below that LSN."""

    # -------------------------------------------------------------- inspection

    def state(self, page_id: int) -> PageState:
        with self.lock:
            return self._states.get(page_id, PageState.FREE)

    def is_allocated(self, page_id: int) -> bool:
        return self.state(page_id) is PageState.ALLOCATED

    def deallocated_pages(self) -> list[int]:
        """Pages in deallocated state (recovery frees these, §4.1.3)."""
        with self.lock:
            return sorted(
                pid
                for pid, st in self._states.items()
                if st is PageState.DEALLOCATED
            )

    def allocated_pages(self) -> list[int]:
        with self.lock:
            return sorted(
                pid
                for pid, st in self._states.items()
                if st is PageState.ALLOCATED
            )

    @property
    def high_water_mark(self) -> int:
        """One past the largest page id ever used."""
        with self.lock:
            return self._next_new

    # -------------------------------------------------------------- transitions

    def allocate(self) -> int:
        """Allocate any free page (lowest id first); used by splits."""
        with self.lock:
            if self._free:
                pid = self._free.pop(0)
            else:
                pid = self._next_new
                self._next_new += 1
            self._states[pid] = PageState.ALLOCATED
            return pid

    def deallocate(self, page_id: int) -> None:
        """allocated → deallocated.  The caller logs this transition."""
        with self.lock:
            if self.state(page_id) is not PageState.ALLOCATED:
                raise PageStateError(
                    f"cannot deallocate page {page_id}: state is "
                    f"{self.state(page_id).value}"
                )
            self._states[page_id] = PageState.DEALLOCATED

    def free(self, page_id: int) -> None:
        """deallocated → free.  Unlogged and irreversible (§4.1.3)."""
        with self.lock:
            if self.state(page_id) is not PageState.DEALLOCATED:
                raise PageStateError(
                    f"cannot free page {page_id}: state is "
                    f"{self.state(page_id).value}"
                )
            self._states[page_id] = PageState.FREE
            self._add_free(page_id)

    def _add_free(self, page_id: int) -> None:
        free = self._free
        at = bisect.bisect_left(free, page_id)
        if at == len(free) or free[at] != page_id:
            free.insert(at, page_id)

    def _is_free(self, page_id: int) -> bool:
        free = self._free
        at = bisect.bisect_left(free, page_id)
        return at < len(free) and free[at] == page_id

    def _discard_free(self, start: int, stop: int) -> None:
        """Drop the free ids in ``start .. stop-1``."""
        free = self._free
        del free[
            bisect.bisect_left(free, start) : bisect.bisect_left(free, stop)
        ]

    # ------------------------------------------------------------------ chunks

    def reserve_chunk(self, size: int, after: int | None = None) -> int:
        """Reserve ``size`` contiguous free pages; return the first id.

        With ``after``, the run starting right behind that page is tried
        first — the rebuild passes its previous target so consecutive
        chunks (and consecutive incremental slices) stay disk-adjacent,
        which is what keeps the new leaf level sequential (§6.1).  Falls
        back to the lowest existing free run, then to extending the file
        at the high-water mark.  Reserved ids are allocated immediately —
        the :class:`ChunkAllocator` hands them out and releases unused
        ones.
        """
        if size <= 0:
            raise AllocationError(f"chunk size must be positive, got {size}")
        with self.lock:
            start = None
            if after is not None and self._run_is_free(after + 1, size):
                start = after + 1
            if start is None:
                start = self._find_free_run(size)
            if start is None:
                start = self._next_new
            self._next_new = max(self._next_new, start + size)
            self._discard_free(start, start + size)
            for pid in range(start, start + size):
                self._states[pid] = PageState.ALLOCATED
            return start

    def _run_is_free(self, start: int, size: int) -> bool:
        """Are pages ``start .. start+size-1`` all free (explicitly or
        implicitly, beyond the high-water mark)?"""
        if start < 1:
            return False
        for pid in range(start, start + size):
            if pid >= self._next_new:
                return True  # everything from here up is untouched space
            if not self._is_free(pid):
                return False
        return True

    def _find_free_run(self, size: int) -> int | None:
        """Lowest start of ``size`` consecutive ids free below the HWM."""
        if not self._free:
            return None
        run_start = None
        run_len = 0
        prev = None
        for pid in self._free:
            if prev is not None and pid == prev + 1:
                run_len += 1
            else:
                run_start = pid
                run_len = 1
            if run_len == size:
                return run_start
            prev = pid
        return None

    def release_unused(self, page_ids: list[int]) -> None:
        """Return never-written reserved pages to the free pool."""
        with self.lock:
            for pid in page_ids:
                if self._states.get(pid) is PageState.ALLOCATED:
                    self._states[pid] = PageState.FREE
                    self._add_free(pid)

    def force_state(self, page_id: int, state: PageState) -> None:
        """Set a page's state unconditionally (recovery redo/undo only).

        Normal code paths use the checked transitions above; recovery replays
        state changes idempotently and so bypasses the checks.
        """
        with self.lock:
            self._states[page_id] = state
            if state is PageState.FREE:
                self._add_free(page_id)
            else:
                self._discard_free(page_id, page_id + 1)
            self._next_new = max(self._next_new, page_id + 1)

    # ----------------------------------------------------------- checkpointing

    def snapshot(self) -> dict[str, object]:
        """State image embedded in checkpoint log records."""
        with self.lock:
            return {
                "states": {pid: st.value for pid, st in self._states.items()},
                "next_new": self._next_new,
            }

    def restore(self, snap: dict[str, object]) -> None:
        """Reset to a checkpoint image (start of crash recovery)."""
        with self.lock:
            states = snap["states"]
            assert isinstance(states, dict)
            self._states = {
                int(pid): PageState(value) for pid, value in states.items()
            }
            self._free = sorted(
                pid
                for pid, st in self._states.items()
                if st is PageState.FREE
            )
            self._next_new = int(snap["next_new"])  # type: ignore[arg-type]


CHUNK_SIZE = 64
"""Pages the rebuild (and every bulk build) reserves at a time (§6.1)."""


class ChunkAllocator:
    """Sequential allocation cursor over contiguous chunks (§6.1).

    The rebuild creates one of these; each :meth:`next_page` returns the next
    id in the current chunk, reserving a fresh chunk when one is exhausted.
    Call :meth:`close` to release reserved-but-unused pages.
    """

    def __init__(
        self, page_manager: PageManager, chunk_size: int = CHUNK_SIZE
    ) -> None:
        if chunk_size <= 0:
            raise AllocationError("chunk_size must be positive")
        self.page_manager = page_manager
        self.chunk_size = chunk_size
        self._pending: list[int] = []
        self.allocated: list[int] = []
        self.prefer_after: int | None = None
        """Page id to continue behind when the next chunk is reserved;
        the rebuild sets this to its previous target page so consecutive
        chunks stay disk-adjacent (§6.1)."""

    def next_page(self) -> int:
        if not self._pending:
            hint = (
                self.allocated[-1] if self.allocated else self.prefer_after
            )
            start = self.page_manager.reserve_chunk(
                self.chunk_size, after=hint
            )
            self._pending = list(range(start, start + self.chunk_size))
        pid = self._pending.pop(0)
        self.allocated.append(pid)
        return pid

    def close(self) -> None:
        """Release reserved pages that were never handed out."""
        self.page_manager.release_unused(self._pending)
        self._pending = []

    def __iter__(self) -> Iterator[int]:  # pragma: no cover - convenience
        while True:
            yield self.next_page()
