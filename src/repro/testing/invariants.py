"""Protocol rules checked on every run while they are switched on.

The paper's deadlock-freedom argument (§2.2, §6.5) and its durability
argument (§3) rest on rules each thread can check about itself.  The
engine reads one module-level hook, :data:`hook`, at a few slow-path
sites; it is ``None`` unless :func:`switch` turned the checks on, as the
test suite does for every test, the way ``storage.page``'s
``set_debug_accounting`` cross-checks the byte accounting.  A broken rule
raises :class:`AssertionError` at the site that broke it.

The rules:

* after :meth:`TopAction.end <repro.btree.top_action.TopAction.end>` or
  ``abort`` the thread holds no latch and no address lock on a page the
  top action took: its pages are given back with their bits (§2.2);
* at the end of :meth:`Engine.recover <repro.engine.Engine.recover>` no
  page is pinned, latched, address-locked or bitted
  (:func:`~repro.testing.cleanup.left_behind`);
* what :meth:`Traversal.traverse
  <repro.btree.traversal.Traversal.traverse>` returns is an allocated
  page of the index, at the target level, latched by the thread, whose
  latched contents route the unit to it: no side entry that moved the
  unit right (§2.3), no SHRINK bit that blocks it unless the descent's
  own transaction holds the page (§2.4).  The pages above it may have
  been read unlatched; this is what their checks must guarantee;
* after :meth:`OnlineRebuild.run <repro.core.rebuild.OnlineRebuild.run>`
  returns, or raises anything but a simulated power failure, the thread
  holds no latch, the index's ``rebuild_claim`` is free, and no
  transaction the run began is still active or holds a lock.  Only what
  the run owns is looked at: foreground clients may hold pins and
  latches of their own at the same time;
* the rebuild frees the pages its completed top actions deallocated
  (:meth:`OnlineRebuild._free <repro.core.rebuild.OnlineRebuild._free>`)
  only once their transaction's commit is durable, or once it has
  aborted, which keeps completed top actions: a ``DEALLOC`` covered by
  neither can still be undone, and the page may be handed out again
  first (§3, §4.1.3).  A shrink frees its page after its top action's
  end, in :func:`~repro.btree.shrink.shrink_leaf` itself;
* no forced page write (``BufferPool.flush_page`` / ``flush_pages`` /
  ``flush_all``, the pool's ``_write_batch(force=True)``) while the
  thread holds a latch: a forced write waits for the S latch of every
  page it images, so a forcer holding a latch could wait on a thread
  that waits on it (§3's forced write, §2.2's latch discipline);
* no ``time.sleep`` while the thread holds a latch: the pacing sleep of
  the rebuild and the scrubber (:meth:`Pacer.pause
  <repro.core.pacer.Pacer.pause>`), the scrubber's CRC re-read wait, the
  supervisor's retry backoff and the log's group-commit window.  Device
  time is exempt — ``Disk._service`` and ``BufferPool.retrying``'s
  backoff inside one fetch: §2.6's crabbing descent reads a child while
  it holds the parent's latch, so a latched fetch waits on the device by
  design.
"""

from __future__ import annotations


class Checks:
    """The rules, each called by the site it guards."""

    def top_action_done(self, top) -> None:  # noqa: ANN001 - a TopAction
        from repro.concurrency.locks import LockSpace  # the pool imports us

        ctx, txn_id = top.ctx, top.txn.txn_id
        latched = ctx.latches.held_by_me()
        for page_id in {*top.pages, *top.new_pages}:
            assert page_id not in latched, (
                f"top action of txn {txn_id} left page {page_id} latched"
            )
            assert not ctx.locks.holds(txn_id, LockSpace.ADDRESS, page_id), (
                f"top action of txn {txn_id} left page {page_id} "
                "address-locked"
            )

    def descended(  # noqa: ANN001 - a Traversal, a Page, a Transaction
        self, traversal, page, unit: bytes, level: int, txn
    ) -> None:
        # Called on every descent: messages are built only on a failure,
        # and the bit classes are imported only for a page with a bit.
        ctx, page_id = traversal.ctx, page.page_id
        assert ctx.page_manager.is_allocated(page_id), _reached(
            unit, level, page_id, "which is not allocated"
        )
        index_id = getattr(traversal.tree, "index_id", page.index_id)
        assert page.index_id == index_id and page.level == level, _reached(
            unit, level, page_id,
            f"of index {page.index_id} at level {page.level}",
        )
        assert ctx.latches.holds(page_id), _reached(
            unit, level, page_id, "without its latch"
        )
        if page._flags:
            from repro.concurrency.locks import LockMode, LockSpace
            from repro.storage.page import PageFlag

            assert not page.has_flag(PageFlag.OLDPGOFSPLIT) or (
                unit < page.side_key
            ), _reached(
                unit, level, page_id, "whose side entry moved the unit right"
            )
            assert not page.blocks_unit(unit) or ctx.locks.holds(
                txn.txn_id, LockSpace.ADDRESS, page_id, LockMode.X
            ), _reached(unit, level, page_id, "whose SHRINK bit blocks it")

    def freeing(self, ctx, txn) -> None:  # noqa: ANN001
        from repro.concurrency.txn import TxnState

        if txn.state is TxnState.COMMITTED:
            # ``flushed_lsn`` ends the durable prefix: past the record.
            assert ctx.log.flushed_lsn > txn.last_lsn, (
                f"txn {txn.txn_id} frees pages before its commit "
                f"(LSN {txn.last_lsn}) is durable"
            )
        else:
            assert txn.state is TxnState.ABORTED, (
                f"txn {txn.txn_id} frees pages while {txn.state.value}"
            )

    def unlatched(self, latches, doing: str) -> None:  # noqa: ANN001
        """``doing`` — a forced write or a sleep — with no latch of
        ``latches`` (a LatchManager, or None before one is installed)."""
        if latches is not None:
            held = latches.held_by_me()
            assert not held, f"{doing} while holding latches {held}"

    def rebuild_done(self, rebuild) -> None:  # noqa: ANN001 - OnlineRebuild
        from repro.concurrency.txn import TxnState

        ctx, index_id = rebuild.ctx, rebuild.tree.index_id
        held = ctx.latches.held_by_me()
        assert not held, f"rebuild of index {index_id} left latches {held}"
        assert not rebuild.tree.rebuild_claim.locked(), (
            f"rebuild of index {index_id} kept its rebuild_claim"
        )
        for txn in rebuild.began:
            assert txn.state is not TxnState.ACTIVE, (
                f"rebuild of index {index_id} left txn {txn.txn_id} active"
            )
            locks = ctx.locks.held_resources(txn.txn_id)
            assert not locks, (
                f"rebuild txn {txn.txn_id} still holds locks {locks}"
            )

    def recovered(self, engine) -> None:  # noqa: ANN001 - an Engine
        from repro.errors import ChecksumError
        from repro.testing.cleanup import NOTHING_LEFT, left_behind

        unreadable = []
        for page_id in engine.page_manager.allocated_pages():
            try:
                engine.buffer.fetch(page_id)
            except ChecksumError:
                unreadable.append(page_id)  # left for the scrubber
                continue
            engine.buffer.unpin(page_id)
        left = left_behind(engine, unreadable=unreadable)
        assert left == NOTHING_LEFT, f"recovery left behind {left}"


def _reached(unit: bytes, level: int, page_id: int, what: str) -> str:
    return (
        f"descent for {unit.hex()} to level {level} reached page {page_id}, "
        f"{what}"
    )


hook: Checks | None = None
"""The checks when on, ``None`` when off."""


def switch(on: bool) -> None:
    """Turn the checks on or off for the whole process."""
    global hook
    hook = Checks() if on else None
