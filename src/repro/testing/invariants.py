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
* after :meth:`OnlineRebuild.run <repro.core.rebuild.OnlineRebuild.run>`
  returns, or raises anything but a simulated power failure, the thread
  holds no latch, the index's ``rebuild_claim`` is free, and no
  transaction the run began is still active or holds a lock.  Only what
  the run owns is looked at: foreground clients may hold pins and
  latches of their own at the same time;
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


hook: Checks | None = None
"""The checks when on, ``None`` when off."""


def switch(on: bool) -> None:
    """Turn the checks on or off for the whole process."""
    global hook
    hook = Checks() if on else None
