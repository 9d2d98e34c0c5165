"""Nested top actions and the pages they take (§2.2, §4.1.1, §6.5).

A split, a shrink and the rebuild's multipage top action protect their
pages the same way: an X address lock and a protocol bit — SPLIT (blocks
writers) or SHRINK (blocks everyone) — set under the page's X latch and
held until the top action ends, when each page's bit is cleared and its
lock released together.  :class:`TopAction` is that protocol, once:

* it begins the NTA when made and, as a context manager, ends it on the
  way out — or, when the body raised, rolls it back first — and gives
  every page back.  A simulated power failure (:class:`CrashPoint`)
  skips both: a crash does no runtime cleanup;
* :meth:`TopAction.lock` and :meth:`TopAction.try_lock` lock and bit a
  latched page, once per top action, SHRINK dominating SPLIT;
* :meth:`TopAction.new_page` allocates a fresh page already locked and
  bitted;
* :meth:`TopAction.keep` holds a page's pin across the top action, so
  its give-back needs no fetch (the rebuild's source leaves and PP).

Locked iff bitted: a lock is taken before its bit goes on, and given up
right after its bit comes off, page by page — see :meth:`_give_back`.
"""

from __future__ import annotations

from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.syncpoints import CrashPoint
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.storage.page import Page, PageFlag
from repro.testing import invariants
from repro.wal.records import LogRecord, RecordType


class TopAction:
    """One nested top action of ``txn`` and every page it holds."""

    def __init__(
        self, ctx: EngineContext, txn: Transaction, scan: bool = False
    ) -> None:
        """``scan``: the give-back visits fetch as scan-class (the
        rebuild's); split and shrink fetch on demand."""
        self.ctx = ctx
        self.txn = txn
        self.scan = scan
        self.pages: list[int] = []  # address-locked, in locking order
        self.held: dict[int, Page] = {}  # of ``pages``: kept pinned
        self.new_pages: list[int] = []  # allocated here, in order
        self.deallocated: list[int] = []
        ctx.txns.begin_nta(txn)

    def __enter__(self) -> TopAction:
        return self

    def __exit__(self, exc_type: type | None, exc: object, tb: object) -> None:
        if exc_type is None:
            self.end()
        elif not issubclass(exc_type, CrashPoint):
            self.abort()

    # ------------------------------------------------------------ taking

    def lock_address(self, page_id: int) -> None:
        """The X address lock on ``page_id``, waiting for it: only with no
        latch held, or on a page no other top action can hold — a fresh
        one, or a bit-free one under its X latch (§6.5)."""
        self.ctx.locks.acquire(
            self.txn.txn_id, LockSpace.ADDRESS, page_id, LockMode.X
        )
        self.pages.append(page_id)

    def unlock_address(self, page_id: int) -> None:
        """Give up a lock taken by :meth:`lock_address` before any bit."""
        self.ctx.locks.release(self.txn.txn_id, LockSpace.ADDRESS, page_id)
        self.pages.remove(page_id)

    def lock(self, page: Page, bit: PageFlag) -> None:
        """Lock (unless this top action already holds it) and bit the X
        latched ``page``, which no other top action holds."""
        if page.page_id not in self.pages:
            self.lock_address(page.page_id)
        _set_bit(page, bit)

    def try_lock(self, page: Page, bit: PageFlag) -> bool:
        """:meth:`lock` for a page another top action may hold: under its
        X latch, a foreign bit or lock answers False with nothing taken."""
        page_id = page.page_id
        if page_id not in self.pages:
            if (
                page.has_flag(PageFlag.SPLIT)
                or page.has_flag(PageFlag.SHRINK)
                or not self.ctx.locks.try_acquire(
                    self.txn.txn_id, LockSpace.ADDRESS, page_id, LockMode.X
                )
            ):
                return False
            self.pages.append(page_id)
        _set_bit(page, bit)
        return True

    def new_page(
        self, bit: PageFlag, page_id: int | None = None, scan: bool = False
    ) -> Page:
        """A fresh page — ``page_id``, or one allocated now — X latched,
        pinned, locked and bitted, for the caller to format."""
        ctx = self.ctx
        if page_id is None:
            page_id = ctx.page_manager.allocate()
        ctx.latches.acquire(page_id, LatchMode.X)
        try:
            page = ctx.buffer.new_page(page_id, scan=scan)
        except BaseException:
            ctx.latches.release(page_id)
            raise
        self.lock_address(page_id)
        _set_bit(page, bit)
        self.new_pages.append(page_id)
        return page

    def keep(self, page: Page) -> None:
        """Hold the pin on a locked page until the give-back."""
        self.held[page.page_id] = page

    def deallocate(self, page_ids: list[int]) -> None:
        """Log one DEALLOC record for ``page_ids`` and deallocate them,
        the two under the page manager's lock (a checkpoint's snapshot
        sees both or neither); the caller frees them when that is safe
        (§3, §4.1.3)."""
        page_manager = self.ctx.page_manager
        with page_manager.lock:
            self.ctx.txns.append(
                self.txn,
                LogRecord(
                    type=RecordType.DEALLOC,
                    page_id=page_ids[0],
                    page_ids=list(page_ids),
                ),
            )
            for page_id in page_ids:
                page_manager.deallocate(page_id)
        self.deallocated += page_ids

    # ------------------------------------------------------- giving back

    def end(self) -> None:
        """Log the NTA's end, then give every page back."""
        self.ctx.txns.end_nta(self.txn)
        self._give_back(aborted=False)
        if invariants.hook is not None:
            invariants.hook.top_action_done(self)

    def abort(self) -> None:
        """Roll the top action back and give back what it holds.

        Every latch the thread holds goes first, with the pin that came
        with it (a kept page's pin stays for its give-back): the rollback
        drops the pages the top action allocated, which must be unpinned.
        """
        ctx = self.ctx
        for page_id in ctx.latches.held_by_me():
            if page_id in self.held:
                ctx.latches.release(page_id)
            else:
                ctx.release_page(page_id)
        ctx.txns.abort_nta(self.txn)
        self._give_back(aborted=True)
        if invariants.hook is not None:
            invariants.hook.top_action_done(self)

    def give_back(self) -> None:
        """Hand back every page taken so far, the top action still open:
        the §6.5 wait comes next, and it is made holding nothing."""
        self._give_back(aborted=False)
        self.pages.clear()

    def _give_back(self, aborted: bool) -> None:
        """The clearing visit, page by page: protocol state cleared under
        the X latch (:meth:`Page.clear_protocol_state`), the pin — the
        kept one, with no fetch, or the visit's own — dropped with the
        dirty mark, then the address lock.  Each lock goes with its bit,
        before the next page is latched: a writer that finds a page
        bit-free takes its lock while it holds the page's latch, so a lock
        kept past its bit while this visit waits for a later page's latch
        closes a latch / lock cycle through any reader crabbing between
        the two.  After a rollback a page it dropped is not visited."""
        ctx = self.ctx
        for page_id in self.pages:
            page = self.held.pop(page_id, None)
            if page is not None:
                ctx.latches.acquire(page_id, LatchMode.X)
                ctx.counters.add("pages_visited")
            elif not aborted or ctx.page_manager.is_allocated(page_id):
                page = ctx.get_latched(page_id, LatchMode.X, scan=self.scan)
            if page is not None:
                page.clear_protocol_state()
                ctx.release_page(page_id, dirty=True)
            ctx.locks.release(self.txn.txn_id, LockSpace.ADDRESS, page_id)


def _set_bit(page: Page, bit: PageFlag) -> None:
    """SHRINK dominates SPLIT on a page touched twice."""
    if bit is PageFlag.SHRINK:
        page.clear_flag(PageFlag.SPLIT)
        page.set_flag(PageFlag.SHRINK)
    elif not page.has_flag(PageFlag.SHRINK):
        page.set_flag(PageFlag.SPLIT)
