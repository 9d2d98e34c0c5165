"""Known bugs, each put back on demand, with the tests that must catch it.

A check that no bug trips proves nothing.  Each entry of :data:`MUTANTS`
names a bug the engine once had or could have, a way to plant it — a
``mock.patch.object``, or one ``old → new`` substitution in a function's
source that fails loudly once ``old`` no longer occurs — and the ids of
the tests that kill it: a killer fails while the mutant is planted, or
plants it itself and passes only if it tells the mutant apart.
``tests/testing/test_mutants.py`` holds every entry to that.  Dropping a
mutant counts as removing a check.
"""

from __future__ import annotations

import contextlib
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, ContextManager
from unittest import mock

from repro import engine as engine_module
from repro.btree.top_action import TopAction
from repro.btree.traversal import Traversal
from repro.context import EngineContext
from repro.core.rebuild import OnlineRebuild
from repro.core.scrubber import Scrubber
from repro.errors import PageFullError
from repro.storage.buffer import BufferPool
from repro.storage.page import PageType
from repro.wal import apply, recovery
from repro.wal.apply import (
    SINGLE_PAGE_REDO,
    ApplyContext,
    compensate,
    redo_record,
    row_compensation,
    undo_record,
)
from repro.wal.records import LEAF_ROW_FLAG, LogRecord, RecordType
from repro.wal.recovery import RecoveryManager


@dataclass(frozen=True)
class Mutant:
    plant: Callable[[], ContextManager[object]]
    """Puts the bug back while the context is entered."""
    killers: tuple[str, ...]
    """Ids of the tests that kill it, as pytest prints them."""
    planted_by_killers: bool = False
    """The killers plant it themselves: each passes only if it tells the
    mutant apart.  Otherwise each fails while it is planted."""


@contextlib.contextmanager
def substituted(owner: type, name: str, old: str, new: str):
    """``owner.name`` with ``old`` replaced by ``new`` in its source."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    if old not in source:
        raise AssertionError(f"{owner.__name__}.{name} no longer has {old!r}")
    namespace: dict = {}
    exec(  # noqa: S102 - the engine's own source, one line changed
        compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
        func.__globals__,
        namespace,
    )
    with mock.patch.object(owner, name, namespace[name]):
        yield


# ------------------------------------------------------------ top actions


def _top_action_keeps_its_locks():
    """A top action gives its pages back with their bits cleared but their
    address locks held: harmless until the next top action of another
    transaction that wants one of them waits out the whole transaction."""
    return substituted(
        TopAction,
        "_give_back",
        "ctx.locks.release(self.txn.txn_id, LockSpace.ADDRESS, page_id)",
        "pass",
    )


def _runtime_undo_by_bare_fetch():
    """A rolled-back row finds its leaf by a latch-free descent from the
    root, as recovery's own descent once did, and cannot split it."""

    def bare(ctx: EngineContext, rec: LogRecord, append) -> None:  # noqa: ANN001
        if not rec.flags & LEAF_ROW_FLAG:
            undo_record(rec, ApplyContext(ctx.buffer, ctx.page_manager), append)
            return
        from repro.btree import node

        page = ctx.buffer.fetch(ctx.index_roots[rec.index_id])
        while page.page_type is not PageType.LEAF:
            _pos, child = node.child_search(page, rec.rows[0], ctx.counters)
            ctx.buffer.unpin(page.page_id)
            page = ctx.buffer.fetch(child)
        try:
            comp = row_compensation(rec, page, ctx.counters)
            if comp is not None and not compensate(page, comp, append):
                raise PageFullError(f"row does not fit on page {page.page_id}")
        finally:
            ctx.buffer.unpin(page.page_id, dirty=True)

    return mock.patch.object(EngineContext, "undo", bare)


def _rows_undone_with_top_actions():
    """Restart undoes losers in one descending-LSN pass: a row may then
    be looked for under a nonleaf page whose split another loser left
    half done, its side entry swept."""
    return substituted(
        RecoveryManager, "_undo", "for first_pass in (True, False):",
        "for first_pass in (False,):",
    )


def _bits_kept_on_pages_undo_allocates():
    """Restart clears bits before undo only: a leaf a loser's shrink had
    deallocated goes back into the tree with its SHRINK bit."""
    return substituted(RecoveryManager, "_undo", "if first_pass:", "if False:")


def _paced_inside_the_top_action():
    """The copy loop takes its pacing sleep inside the top action, holding
    P1's S latch: every writer of P1 waits out the sleep."""
    return substituted(
        OnlineRebuild, "_one_top_action", "result = copy_multipage(",
        "ctx.get_latched(p1, LatchMode.S); self.pacer.pause(ctx.latches); "
        "ctx.release_page(p1); result = copy_multipage(",
    )


def _abort_leaves_its_transaction_open():
    """The rebuild's abort path flushes, frees and reports, but never
    ends its transaction: the run returns with it active, pinning the log
    against truncation until a restart rolls it back."""
    return substituted(
        OnlineRebuild, "_abort", "ctx.txns.abort(txn)\n", "\n"
    )


def _freed_before_the_commit():
    """The rebuild frees what its completed top actions deallocated just
    before it commits, as a free deferred behind the next copy would if
    it ran one transaction early.  §4.1.3 frees a rebuild's old pages at
    its commit, once the NTA_ENDs covering their DEALLOCs are durable;
    no test tells the two orders apart without the rule."""
    return substituted(
        OnlineRebuild,
        "_drive",
        "ctx.txns.commit(txn, gather=False)\n",
        "report.pages_freed += self._free(txn, txn_deallocated); "
        "ctx.txns.commit(txn, gather=False)\n",
    )


# ------------------------------------------------------------- descents


def _descent_skips_its_parents_check():
    """A descent that read the pages above its target unlatched keeps the
    target it latched without checking that the parent still routes
    there: a leaf the rebuild copied and freed meanwhile still holds its
    old rows, so a reader finds the right answer on a page of no tree."""
    return substituted(
        Traversal, "traverse", "if version is not None and changed(",
        "if False and changed(",
    )


# ------------------------------------------------- checkpoints and writes


def _scrubber_forces_under_its_latch():
    """The scrubber's replay repair forces the page while it still holds
    the page's X latch, as its first version did: a forced write waits
    for the latch of every page it images, here its own."""
    return substituted(
        Scrubber,
        "_try_replay",
        "ctx.buffer.unpin(page_id, dirty=True)\n",
        "ctx.buffer.unpin(page_id, dirty=True)\n        self._force(page_id)\n",
    )


def _images_taken_unlatched():
    """A write serializes its pages without their latches: an image can
    hold half of a mutation under a valid CRC."""
    return substituted(
        BufferPool, "_take_images", "latches = self._latches", "latches = None"
    )


def _redo_from_the_checkpoint_record():
    """Analysis starts redo at the checkpoint record instead of the
    record's redo_lsn: what was logged while the flush ran is lost."""
    return substituted(
        RecoveryManager,
        "_analysis",
        "checkpoint_at = at\n",
        "checkpoint_at = at\n            redo_lsn = lsn\n",
    )


def _checkpoint_skips_clean_pinned_frames():
    """A forced write passes over a pinned frame that is not dirty yet,
    though its X holder has logged a change below the checkpoint's
    redo_lsn and will mark it dirty only after the append."""
    return substituted(
        BufferPool,
        "_take_images",
        "if frame.dirty or frame.pin_count:",
        "if frame.dirty:",
    )


# ------------------------------------------------------------ restart redo


class _QueuesAcrossKeycopy(RecoveryManager):
    """A KEYCOPY no longer drains the queue first."""

    def _redo(self, work) -> None:  # noqa: ANN001
        queued: dict[int, list] = {}
        for lsn, rtype, page_id, data in work:
            if rtype in SINGLE_PAGE_REDO:
                queued.setdefault(page_id, []).append((lsn, rtype, data))
                continue
            if rtype != RecordType.KEYCOPY:
                self._drain(queued)
            rec = LogRecord.decode(data)
            if rec.type is RecordType.CLR:
                rec.resolved_undone = self.log.record_at(rec.undone_lsn)
            redo_record(rec, self.ctx)
        self._drain(queued)


def _queue_mutant(skip_lsn_test: bool = False, backwards: bool = False):
    """``apply.redo_page_queue`` with one rule broken."""

    def redo_page_queue(page_id, queue, ctx) -> int:  # noqa: ANN001
        page = ctx.buffer.fetch(page_id, large_io=True)
        try:
            for lsn, rtype, data in reversed(queue) if backwards else queue:
                if skip_lsn_test or page.page_lsn < lsn:
                    apply._forward(page, rtype, data)
                    page.page_lsn = lsn
        finally:
            ctx.buffer.unpin(page_id, dirty=True)
        return len(queue)

    return mock.patch.object(recovery, "redo_page_queue", redo_page_queue)


class _ParksForLosers(RecoveryManager):
    """Every DEALLOC from the checkpoint's redo_lsn on parks the records
    of its pages, its transaction committed or not."""

    def _analysis(self, report):  # noqa: ANN001, ANN202
        work = super()._analysis(report)
        for lsn, rtype, _page_id, data in work:
            if rtype == RecordType.DEALLOC:
                rec = self._deallocs.setdefault(lsn, LogRecord.decode(data))
                self._dead.update(dict.fromkeys(rec.page_ids, lsn))
        return work


def _sources_never_caught_up():
    """KEYCOPY redo catches its targets up (its first call of the hook)
    and never the sources of a stale one (its second)."""
    redo_keycopy = apply._redo_keycopy

    def mutant(rec, ctx) -> None:  # noqa: ANN001
        catch_up = ctx.catch_up
        calls = []

        def targets_only(page_ids) -> None:  # noqa: ANN001
            calls.append(page_ids)
            if len(calls) == 1:
                catch_up(page_ids)

        ctx.catch_up = targets_only
        try:
            redo_keycopy(rec, ctx)
        finally:
            ctx.catch_up = catch_up

    return mock.patch.object(apply, "_redo_keycopy", mutant)


def _recovering_with(manager: type):
    return mock.patch.object(engine_module, "RecoveryManager", manager)


_REDO_ORDER = "tests/property/test_redo_order_props.py::"


def _told_apart(name: str, plant: Callable[[], ContextManager[object]]):
    """A restart-redo mutant, told from the log-order oracle by a history
    that ``test_the_comparison_kills_the_mutant`` names for it."""
    return Mutant(
        plant,
        (f"{_REDO_ORDER}test_the_comparison_kills_the_mutant[{name}]",),
        planted_by_killers=True,
    )


_TRAFFIC = "tests/wal/test_checkpoint_traffic.py::"


MUTANTS: dict[str, Mutant] = {
    "scrubber-forces-under-its-x-latch": Mutant(
        _scrubber_forces_under_its_latch,
        ("tests/core/test_scrubber.py::test_ladder3_flush_heals_resident_frame",),
    ),
    "write-images-taken-unlatched": Mutant(
        _images_taken_unlatched,
        (
            "tests/property/test_pool_props.py::"
            "test_every_stored_image_is_a_latched_state",
        ),
    ),
    "redo-from-the-checkpoint-record": Mutant(
        _redo_from_the_checkpoint_record,
        (f"{_TRAFFIC}test_a_commit_between_the_flush_and_the_record_survives",),
    ),
    "checkpoint-skips-clean-pinned-frames": Mutant(
        _checkpoint_skips_clean_pinned_frames,
        (f"{_TRAFFIC}test_a_change_logged_before_its_frame_is_dirty_is_stored",),
    ),
    "top-action-keeps-its-address-locks": Mutant(
        _top_action_keeps_its_locks,
        ("tests/btree/test_split.py::test_split_preserves_all_rows",),
    ),
    "rebuild-paces-inside-its-top-action": Mutant(
        _paced_inside_the_top_action,
        (
            "tests/core/test_supervisor.py::"
            "test_supervised_rebuild_completes_under_transient_storm",
        ),
    ),
    "rebuild-abort-leaves-its-transaction-open": Mutant(
        _abort_leaves_its_transaction_open,
        (
            "tests/core/test_rebuild.py::"
            "test_abort_keeps_completed_top_actions",
            "tests/core/test_supervisor.py::"
            "test_aborted_rebuild_is_retried_and_resumed",
        ),
    ),
    "rebuild-frees-before-its-commit": Mutant(
        _freed_before_the_commit,
        ("tests/core/test_rebuild.py::test_old_pages_deallocated_then_freed",),
    ),
    "descent-follows-an-unvalidated-pointer": Mutant(
        _descent_skips_its_parents_check,
        (
            "tests/concurrency/test_interleavings.py::"
            "test_a_parked_reader_lands_on_the_rebuilt_leaf",
        ),
    ),
    "runtime-undo-by-bare-fetch": Mutant(
        _runtime_undo_by_bare_fetch,
        (
            "tests/wal/test_undo_split.py::"
            "test_runtime_abort_into_a_full_leaf_splits_it",
        ),
    ),
    "restart-undoes-rows-among-top-actions": Mutant(
        _rows_undone_with_top_actions,
        (
            "tests/wal/test_undo_split.py::"
            "test_a_row_under_another_losers_nonleaf_split_is_undone",
        ),
    ),
    "restart-keeps-the-bit-of-a-page-undo-allocates": Mutant(
        _bits_kept_on_pages_undo_allocates,
        (
            "tests/wal/test_recovery.py::"
            "test_restart_clears_the_bit_of_a_leaf_its_undo_puts_back",
        ),
    ),
    "queues-across-keycopy": _told_apart(
        "queues-across-keycopy", lambda: _recovering_with(_QueuesAcrossKeycopy)
    ),
    "parks-for-a-loser": _told_apart(
        "parks-for-a-loser", lambda: _recovering_with(_ParksForLosers)
    ),
    "never-catches-sources-up": _told_apart(
        "never-catches-sources-up", _sources_never_caught_up
    ),
    "skips-the-page-lsn-test": _told_apart(
        "skips-the-page-lsn-test", lambda: _queue_mutant(skip_lsn_test=True)
    ),
    "drains-a-page-out-of-lsn-order": _told_apart(
        "drains-a-page-out-of-lsn-order", lambda: _queue_mutant(backwards=True)
    ),
    # Planted by its killer around a history's checkpoint steps only.
    "checkpoint-does-not-flush": Mutant(
        lambda: mock.patch.object(BufferPool, "flush_all", lambda pool: None),
        (
            f"{_REDO_ORDER}"
            "test_dropping_across_a_checkpoint_that_did_not_flush_is_told",
        ),
        planted_by_killers=True,
    ),
}
