"""The left-behind check: what no finished operation may leave behind.

An operation that has returned or raised — a top action, a descent, a
scrub pass, a recovery and the rebuild that follows it — must leave no
page pinned, latched, address-locked or carrying a protocol bit.
:func:`left_behind` lists every allocated page that breaks this, by
kind; a clean engine answers :data:`NOTHING_LEFT`.
"""

from __future__ import annotations

from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.engine import Engine
from repro.storage.page import PageFlag

NOTHING_LEFT = {"pinned": [], "latched": [], "locked": [], "bitted": []}


def pinned_ids(engine: Engine) -> list[int]:
    """Pages with a pin on them right now (none, between top actions)."""
    pool = engine.buffer
    return [pid for pid in pool._resident_ids() if pool.pin_count(pid)]


def left_behind(engine: Engine, unreadable=()) -> dict[str, list[int]]:
    """What an operation that has returned or raised must not leave on
    any allocated page: a pin, a latch (any thread's), an address lock or
    a protocol bit.  Pages in ``unreadable`` are looked at for latches and
    locks only; their images cannot be read."""
    ctx = engine.ctx
    out = {
        "pinned": pinned_ids(engine), "latched": [], "locked": [], "bitted": []
    }
    probe = ctx.txns.begin()
    for pid in sorted(ctx.page_manager.allocated_pages()):
        if ctx.latches.holds(pid) or not ctx.latches.try_acquire(
            pid, LatchMode.X
        ):
            out["latched"].append(pid)
            continue
        ctx.latches.release(pid)
        if ctx.locks.try_acquire(
            probe.txn_id, LockSpace.ADDRESS, pid, LockMode.X
        ):
            ctx.locks.release(probe.txn_id, LockSpace.ADDRESS, pid)
        else:
            out["locked"].append(pid)
        if pid in unreadable:
            continue
        page = ctx.buffer.fetch(pid)
        if page.flags & (PageFlag.SPLIT | PageFlag.SHRINK) or page.side_page:
            out["bitted"].append(pid)
        ctx.buffer.unpin(pid)
    ctx.txns.commit(probe)
    return out
