"""Page-ordered redo against a log-order oracle, on drawn crash states.

Crash recovery redoes single-page records page by page between *barrier*
records (``repro.wal.recovery``).  The oracle here is the textbook loop —
decode the whole durable log, redo every record past the checkpoint one at
a time in LSN order — written in this file.  It shares with the engine
only ``apply.redo_record`` for the barrier types and the phases after
redo: a single-page record — a rolled-back row's compensation among them
— is applied as a decoded ``LogRecord`` by
``tests.conftest.apply_decoded``, never by the engine's bytes kernel.  A
drawn history builds a crash state twice (single thread, so the two are
identical); one copy recovers through the engine's path, the other
through the oracle, and everything recovery leaves behind must be equal.

The engine's redo also *parks* the records of a page a committed
transaction deallocates later in the log, and applies them only when a
barrier reads the page; the oracle parks nothing.  Five mutants of the
page-ordered path (``repro.testing.mutants``) must each be told from the
oracle by some history, or the comparison proves nothing: queueing
across a KEYCOPY (it reads the pages queued records write), skipping the
``page_lsn`` test, draining a page's queue out of LSN order, parking
under a loser's DEALLOC too, and never catching up the sources of a
stale KEYCOPY target.  Undo needs no history set aside: a row that no
longer fits its leaf splits it, at run time and at restart alike.

Histories free pages, hand their ids out again and have
``BufferPool.new_page`` drop the resident dead image unwritten.  Two
more comparisons hold that rule to its argument: a crash state built by
a pool that *writes* the dead image first (the reference, in this file)
recovers to the same state, and a checkpoint that does not flush every
frame before it logs its record is told apart by a history that changes
a page behind it.
"""

from __future__ import annotations

import contextlib
import random
import zlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Engine, OnlineRebuild, RebuildConfig
from repro import engine as engine_module
from repro.concurrency.syncpoints import CrashPoint
from repro.storage.buffer import _NEVER_STORED, BufferPool
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec
from repro.testing.mutants import MUTANTS
from repro.wal.apply import SINGLE_PAGE_REDO, redo_record
from repro.wal.records import LogRecord, RecordType
from repro.wal.recovery import RecoveryManager
from tests.conftest import intkey, redo_decoded

KEYS = st.integers(min_value=0, max_value=399)
PAYLOAD = 40
"""Bytes of payload per row: about thirty rows to a 2 KB leaf, so a few
hundred keys make a three-level tree that splits and shrinks readily."""


# ----------------------------------------------------------------- histories

ROW_OP = st.one_of(
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("delete_range"), KEYS, st.integers(1, 60)),
    # Delete all but every n-th key from here on: sparse leaves, which a
    # rebuild then copies into the previous page without allocating.
    st.tuples(st.just("thin"), KEYS, st.sampled_from([5, 10, 20])),
)
BETWEEN = st.lists(ROW_OP, max_size=4)
"""Row operations that run on the rebuild's thread between its
transactions, one per commit: traffic interleaved with a pass, which is
how a leaf comes to have unflushed changes when a KEYCOPY reads it."""
STEP = st.one_of(
    ROW_OP,
    ROW_OP,
    st.tuples(st.just("aborted_txn"), st.lists(ROW_OP, min_size=1, max_size=6)),
    st.tuples(st.just("flush"), st.integers(0, 2**16), st.floats(0.0, 1.0)),
    st.tuples(st.just("rebuild"), st.sampled_from([1, 2, 4]), BETWEEN),
    st.tuples(st.just("checkpoint")),
    # Crash with the whole log durable and recover: the next run's txn
    # ids start again at 1, under ids this run committed.
    st.tuples(st.just("restart")),
)
LAST = st.one_of(
    st.tuples(st.just("nothing")),
    st.tuples(st.just("open_txn"), st.lists(ROW_OP, min_size=1, max_size=8)),
    # Crash inside a pass, after its ``nth`` top action: the pass's
    # transaction is a loser whose completed top actions must survive.
    st.tuples(
        st.just("crashing_rebuild"),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 12),
        BETWEEN,
    ),
    st.tuples(st.just("crashing_split"), KEYS),
    # A pass whose first force of new pages the device acknowledges and
    # loses, the machine stopping once that transaction has committed:
    # its targets come back stale.
    st.tuples(st.just("losing_rebuild"), st.sampled_from([1, 2, 4]), BETWEEN),
)


@st.composite
def histories(draw):
    """(keys loaded before the checkpoint, steps, last step, share of the
    unflushed log tail that reaches disk before the crash)."""
    loaded = draw(st.integers(min_value=40, max_value=300))
    steps = draw(st.lists(STEP, max_size=25))
    return loaded, steps, draw(LAST), draw(st.floats(0.0, 1.0))


class Replay:
    """Drives one engine through a history, up to and including the crash.
    A history may name a page size after its four fields (default 2 KB):
    512-byte pages make the three-level index that 400 keys on 2 KB pages
    never do."""

    def __init__(self, history) -> None:
        loaded, steps, last, tail_share = history[:4]
        page_size = history[4] if len(history) > 4 else 2048
        self.engine = Engine(
            page_size=page_size, io_size=16384, buffer_capacity=512,
            fault_plan=FaultPlan() if last[0] == "losing_rebuild" else None,
        )
        self.tree = self.engine.create_index(key_len=4)
        self.present: set[int] = set()
        for k in range(0, 2 * loaded, 2):
            self.row_op(("insert", k % 400))
        self.engine.checkpoint()
        for step in steps:
            self.step(step)
        try:
            self.last(last)
        except CrashPoint:
            pass
        self.flush_log_tail(tail_share)
        self.engine.crash()
        disarm = getattr(self.engine.ctx.disk, "disarm", None)
        if disarm is not None:
            disarm()  # the machine restarts on a disk that behaves

    def row_op(self, op, txn=None) -> None:
        kind, k = op[0], op[1]
        if kind == "insert":
            if k not in self.present:
                self.tree.insert(
                    intkey(k), k, payload=bytes([k % 251]) * PAYLOAD, txn=txn
                )
                self.present.add(k)
        elif kind == "delete":
            if k in self.present:
                self.tree.delete(intkey(k), k, txn=txn)
                self.present.discard(k)
        elif kind == "delete_range":
            for victim in range(k, k + op[2]):
                self.row_op(("delete", victim), txn)
        else:  # thin
            for victim in range(k, 400):
                if victim % op[2]:
                    self.row_op(("delete", victim), txn)

    def step(self, step) -> None:
        kind = step[0]
        if kind == "aborted_txn":
            txn = self.engine.ctx.txns.begin()
            before = set(self.present)
            for op in step[1]:
                self.row_op(op, txn)
            self.engine.ctx.txns.abort(txn)
            self.present = before
        elif kind == "flush":
            resident = self.engine.buffer._resident_ids()
            share = round(step[2] * len(resident))
            self.engine.buffer.flush_pages(
                random.Random(step[1]).sample(resident, share)
            )
        elif kind == "rebuild":
            self.rebuild(step[1], step[2])
        elif kind == "checkpoint":
            self.engine.checkpoint()
        elif kind == "restart":
            self.engine.log.flush_all()
            self.engine.crash()
            self.engine.recover()
            self.tree = self.engine.index(1)
        else:
            self.row_op(step)

    def rebuild(
        self, ntasize: int, between, crash_at_nta: int = 0,
        crash_at_commit: int = 0,
    ) -> None:
        pending = list(between)
        fired = [0]
        commits = [0]

        def traffic(_ctx) -> None:
            commits[0] += 1
            if commits[0] == crash_at_commit:
                raise CrashPoint("rebuild.txn_committed")
            if pending:
                self.row_op(pending.pop(0))

        def crash(_ctx) -> None:
            fired[0] += 1
            if fired[0] == crash_at_nta:
                raise CrashPoint("rebuild.nta_end")

        syncpoints = self.engine.syncpoints
        syncpoints.on("rebuild.txn_committed", traffic)
        syncpoints.on("rebuild.nta_end", crash)
        try:
            OnlineRebuild(
                self.tree,
                RebuildConfig(ntasize=ntasize, xactsize=2 * ntasize),
            ).run()
        finally:
            syncpoints.remove("rebuild.txn_committed", traffic)
            syncpoints.remove("rebuild.nta_end", crash)

    def last(self, last) -> None:
        kind = last[0]
        if kind == "open_txn":
            txn = self.engine.ctx.txns.begin()
            for op in last[1]:
                self.row_op(op, txn)
        elif kind == "crashing_rebuild":
            self.rebuild(last[1], last[3], crash_at_nta=last[2])
        elif kind == "losing_rebuild":
            # Armed by the pass's first force, so that the write lost is
            # that force whatever the pool wrote before it; the machine
            # stops once that transaction has committed.
            buffer, disk = self.engine.ctx.buffer, self.engine.ctx.disk
            flush_pages = buffer.flush_pages

            def losing(page_ids) -> None:
                buffer.flush_pages = flush_pages
                disk.plan.at(
                    FaultSpec(
                        op="write_many", nth=disk.calls["write_many"] + 1,
                        kind=FaultKind.LOST,
                    )
                )
                flush_pages(page_ids)

            buffer.flush_pages = losing
            try:
                self.rebuild(last[1], last[2], crash_at_commit=1)
            finally:
                del buffer.flush_pages
        elif kind == "crashing_split":

            def crash(_ctx) -> None:
                raise CrashPoint("split.leaf_done")

            self.engine.syncpoints.once("split.leaf_done", crash)
            for k in range(last[1], last[1] + 400):
                self.row_op(("insert", 1000 + k))

    def flush_log_tail(self, share: float) -> None:
        log = self.engine.log
        tail = log.raw_records(from_lsn=log.flushed_lsn)
        upto = round(share * len(tail))
        if upto:
            log.flush_to(LogRecord.peek(tail[upto - 1])[3])


# -------------------------------------------------------------------- oracle


class LogOrderRecovery(RecoveryManager):
    """The oracle: every durable record decoded, redo one record at a
    time in LSN order.  (Histories quarantine nothing.)"""

    def _analysis(self, report):
        records = list(self.log.scan(durable_only=True))
        checkpoint = None
        active: dict[int, int] = {}
        for rec in records:
            if rec.type is RecordType.CHECKPOINT:
                checkpoint = rec
            elif rec.type in (RecordType.TXN_COMMIT, RecordType.TXN_ABORT):
                active.pop(rec.txn_id, None)
            elif rec.txn_id:
                active[rec.txn_id] = rec.lsn
            if rec.type is RecordType.REBUILD_PROGRESS:
                self._fold_progress(rec)
        report.loser_txns = sorted(active)
        self._loser_last_lsn = active
        if checkpoint is not None:
            report.checkpoint_lsn = checkpoint.lsn
            self.page_manager.restore(checkpoint.payload_json["page_manager"])
            self._fold_checkpoint_progress(checkpoint.payload_json)
            report.index_meta = dict(checkpoint.payload_json["index_meta"])
            self.engine_ctx.index_roots.update(
                {int(i): int(m["root"]) for i, m in report.index_meta.items()}
            )
        work = [r for r in records if r.lsn > report.checkpoint_lsn]
        report.records_redone = len(work)
        return work

    def _redo(self, work) -> None:
        for rec in work:
            if rec.type in SINGLE_PAGE_REDO:
                redo_decoded(rec, self.ctx)
            else:
                redo_barrier(self, rec)


def redo_barrier(manager: RecoveryManager, rec: LogRecord) -> None:
    """Redo a decoded barrier in log order.  A CLR names the ALLOC /
    ALLOCRUN / DEALLOC / KEYCOPY it compensates, which its redo undoes
    again; every other compensation is a single-page record."""
    if rec.type is RecordType.CLR:
        rec.resolved_undone = manager.log.record_at(rec.undone_lsn)
    redo_record(rec, manager.ctx)


# ---------------------------------------------------------------- comparison


def recovered(history, patch=None, building=None):
    """Everything recovery leaves behind for ``history``'s crash state
    (a tree that verifies, to begin with), or the error it ended in.
    ``building`` is in force while the crash state is built, ``patch``
    while it is recovered."""
    with building or contextlib.nullcontext():
        engine = Replay(history).engine
    try:
        with patch or contextlib.nullcontext():
            report = engine.recover()
        engine.index(1).verify()
    except Exception as exc:  # noqa: BLE001 - a mutant may fail anyhow
        return {"error": type(exc).__name__}
    disk = engine.ctx.disk
    return {
        "images": {
            pid: zlib.crc32(disk.read_physical(pid))
            for pid in engine.page_manager.allocated_pages()
        },
        "page_states": engine.page_manager.snapshot(),
        "loser_txns": report.loser_txns,
        "pages_freed": report.pages_freed,
        "rebuild_progress": engine.ctx.rebuild_progress,
        "records_redone": report.records_redone,
        "records_undone": report.records_undone,
        "contents": engine.index(1).contents(),
    }


def by_the_oracle(history):
    return recovered(
        history,
        mock.patch.object(engine_module, "RecoveryManager", LogOrderRecovery),
    )


KILLERS = {
    # Three levels (512-byte pages): the pass's 13th top action empties a
    # level-1 page and deallocates it directly (§5.3.1).  The log reaches
    # disk up to that DEALLOC and not the NTA_END, so restart undo brings
    # the page back; the changes committed top actions made to it are in
    # the log only, and parked under the loser's DEALLOC they are lost.
    "parks-for-a-loser": (200, [], ("crashing_rebuild", 4, 13, []), 0.75, 512),
    # The pass's first force is lost, its transaction commits: KEYCOPY
    # redo finds the targets stale and copies from sources that lack the
    # insert logged after the checkpoint.
    "never-catches-sources-up": (
        100, [("insert", 1)], ("losing_rebuild", 1, []), 1.0,
    ),
    # Sparse leaves, so top actions copy into the previous page and log
    # no ALLOCRUN: the last barrier before a KEYCOPY is then the previous
    # top action's DEALLOC, and a delete that ran between two rebuild
    # transactions sits in the queue of the leaf the KEYCOPY reads next.
    "queues-across-keycopy": (
        200,
        [("thin", 0, 20)],
        (
            "crashing_rebuild", 1, 6,
            [("delete", 100), ("delete", 120), ("delete", 140)],
        ),
        1.0,
    ),
    # The leaf reaches disk carrying the first insert; replaying that
    # insert onto it again doubles the row.
    "skips-the-page-lsn-test": (
        100, [("insert", 1), ("flush", 0, 1.0), ("insert", 3)],
        ("nothing",), 1.0,
    ),
    # Two inserts on one unflushed leaf: the later one first stamps the
    # page past the earlier one, which is then taken for applied.
    "drains-a-page-out-of-lsn-order": (
        100, [("insert", 1), ("insert", 3)], ("nothing",), 1.0,
    ),
}
"""One history per mutant that tells it from the oracle.  Each is a value
``histories()`` can draw — but for its page size, in the one that needs
three levels — and each is an explicit example of the comparison
below."""


AFTER_A_RESTART = (200, [("restart",)], ("crashing_rebuild", 4, 13, []), 0.75, 512)
"""The ``parks-for-a-loser`` killer one crash and recovery on.  Txn ids
start again at 1 after the restart, so the pass's loser transaction
reuses the id of an insert the first run committed before the
recovery's checkpoint: whether a DEALLOC committed is decided by what
follows it in the log, not by its id."""


RECYCLED_LEAF = (
    153,
    [
        ("thin", 39, 5),
        ("aborted_txn", [("delete", 38)]),
        ("rebuild", 1, []),
        ("rebuild", 1, []),
    ],
    ("nothing",),
    0.0,
)
"""Found by this test, in the oracle as much as in the engine: the leaf
that held key 38 when its delete was rolled back is freed by the first
pass and comes back, forced, as a leaf of another key range in the
second.  Redo of the rollback once descended to it by key and re-inserted
38 there because it was "absent"; the compensation now names the leaf it
changed, and that leaf's later image is past it."""


RECYCLES = {
    # Odd keys land on leaves the checkpoint stored; a pass frees those
    # leaves with the inserts still unwritten (``retire_page`` clause
    # (d)); the splits that follow take the lowest free ids.
    "pending-logged-change": (
        150,
        [("insert", k) for k in (1, 61, 121, 181, 241)]
        + [("rebuild", 4, [])]
        + [("insert", k) for k in range(3, 300, 2)],
        ("nothing",),
        1.0,
    ),
    # Leaves a split allocated after the checkpoint: nothing ever stored
    # them, a pass copies them away and frees them, splits recycle them.
    "never-stored": (
        40,
        [("insert", k) for k in range(301, 400, 2)]
        + [("rebuild", 4, [])]
        + [("insert", k) for k in range(1, 300, 2)],
        ("nothing",),
        1.0,
    ),
    # The same leaves shrunk away instead: the shrink's own flush is the
    # only image of theirs on disk, and redo meets ALLOC, the rows, the
    # deletes, DEALLOC and the second ALLOC of one id in one window.
    "shrunk-away": (
        40,
        [("insert", k) for k in range(300, 400)]
        + [("delete_range", 300, 100)]
        + [("insert", k) for k in range(1, 200, 2)],
        ("nothing",),
        1.0,
    ),
}
"""Histories that free pages and hand their ids out again while the
previous incarnation is resident: what ``new_page`` drops in each is
checked by ``test_the_recycling_histories_drop_what_they_say``."""


@contextlib.contextmanager
def watching_drops(dropped: list):
    """Record ``(page_lsn, LSN of the stored image, dirty)`` of every
    resident previous incarnation ``new_page`` is about to drop."""
    new_page = BufferPool.new_page

    def watching(pool, page_id, scan=False):
        with pool._lock:
            frame = pool._lookup(page_id)
            if frame is not None:
                dropped.append(
                    (frame.page.page_lsn, frame.clean_lsn, frame.dirty)
                )
        return new_page(pool, page_id, scan)

    with mock.patch.object(BufferPool, "new_page", watching):
        yield


def test_the_recycling_histories_drop_what_they_say():
    seen = {}
    for name, history in RECYCLES.items():
        seen[name] = []
        with watching_drops(seen[name]):
            engine = Replay(history).engine
        assert engine.counters.pool_dead_images_dropped == len(seen[name])
        assert engine.counters.page_writes  # something else was written
    assert any(
        dirty and stored != _NEVER_STORED and lsn > stored
        for lsn, stored, dirty in seen["pending-logged-change"]
    )
    assert any(
        dirty and stored == _NEVER_STORED for _, stored, dirty in seen["never-stored"]
    )
    assert seen["shrunk-away"] and all(
        not dirty and lsn == stored for lsn, stored, dirty in seen["shrunk-away"]
    )


@given(history=histories())
@example(history=RECYCLED_LEAF)
@example(history=RECYCLES["pending-logged-change"])
@example(history=RECYCLES["never-stored"])
@example(history=RECYCLES["shrunk-away"])
@example(history=KILLERS["queues-across-keycopy"])
@example(history=KILLERS["skips-the-page-lsn-test"])
@example(history=KILLERS["drains-a-page-out-of-lsn-order"])
@example(history=KILLERS["parks-for-a-loser"])
@example(history=KILLERS["never-catches-sources-up"])
@example(history=AFTER_A_RESTART)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_page_ordered_redo_equals_log_order_redo(history):
    want = by_the_oracle(history)
    assert "error" not in want
    assert recovered(history) == want


@pytest.mark.parametrize("mutant", sorted(KILLERS))
def test_the_comparison_kills_the_mutant(mutant):
    history = KILLERS[mutant]
    want = by_the_oracle(history)
    assert "error" not in want
    assert recovered(history, MUTANTS[mutant].plant()) != want


def test_a_txn_id_committed_before_a_restart_parks_nothing_after_it():
    replay = Replay(AFTER_A_RESTART)
    durable = list(replay.engine.log.scan(durable_only=True))
    restart = max(
        r.lsn for r in durable if r.type is RecordType.CHECKPOINT
    )
    after = [r for r in durable if r.lsn > restart]
    (loser,) = {r.txn_id for r in after if r.type is RecordType.DEALLOC} - {
        r.txn_id for r in after if r.type is RecordType.TXN_COMMIT
    }
    assert any(
        r.type is RecordType.TXN_COMMIT and r.txn_id == loser
        and r.lsn < restart
        for r in durable
    )
    want = by_the_oracle(AFTER_A_RESTART)
    assert "error" not in want
    assert recovered(AFTER_A_RESTART) == want
    assert recovered(AFTER_A_RESTART, MUTANTS["parks-for-a-loser"].plant()) != want


# ---------------------------------------------------------- dead images


def writing_dead_images():
    """The reference pool: a resident previous incarnation is written
    out before ``new_page`` replaces it."""
    new_page = BufferPool.new_page

    def write_then_replace(pool, page_id, scan=False):
        frame = pool._lookup(page_id)
        if frame is not None and frame.dirty and not frame.pin_count:
            # Written WAL-first, as a write before the id came back would
            # have stored it.  Not by a forced write: the allocating
            # thread holds latches here, its new page's among them.
            pool._wal_hook(frame.page.page_lsn)
            pool.disk.write(page_id, frame.page.to_bytes())
        return new_page(pool, page_id, scan)

    return mock.patch.object(BufferPool, "new_page", write_then_replace)


def whole_log_durable(history):
    """The write of a dead image flushes the log up to it, so the two
    pools leave different tails behind; with the whole log on disk at the
    crash the stored pages are all that differs."""
    return history[:3] + (1.0,)


@given(history=histories())
@example(history=RECYCLED_LEAF)
@example(history=RECYCLES["pending-logged-change"])
@example(history=RECYCLES["never-stored"])
@example(history=RECYCLES["shrunk-away"])
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_dropped_dead_image_is_invisible_to_recovery(history):
    history = whole_log_durable(history)
    want = recovered(history, building=writing_dead_images())
    assert "error" not in want
    assert recovered(history) == want


def checkpoint_that_does_not_flush():
    """Mutant: a history's checkpoint steps log their record over dirty
    frames."""
    step = Replay.step

    def mutant_step(replay, what) -> None:
        if what[0] != "checkpoint":
            return step(replay, what)
        with MUTANTS["checkpoint-does-not-flush"].plant():
            step(replay, what)

    return mock.patch.object(Replay, "step", mutant_step)


DROPS_ACROSS_A_CHECKPOINT = (
    100,
    # Rows appended to the last leaf, a checkpoint, and one of them
    # deleted again behind it: replayed onto an image without the rows
    # the delete's position is past the end of the page.  The leaf stays
    # live.
    [("insert", k) for k in (301, 303, 305)]
    + [("checkpoint",), ("delete", 305)],
    ("nothing",),
    1.0,
)
"""Redo starts at the checkpoint: it is sound only because the checkpoint
had stored everything logged before it."""

FREED_ACROSS_A_CHECKPOINT = (
    100,
    DROPS_ACROSS_A_CHECKPOINT[1]
    + [("rebuild", 4, [])]
    + [("insert", k) for k in range(1, 300, 2)],
    ("nothing",),
    1.0,
)
"""The same, and then a pass frees the leaf and its id is handed out
again, its dead image dropped.  The pass committed, so redo parks the
delete and nothing reads the leaf: the rows the checkpoint left unwritten
are never missed."""


def test_dropping_across_a_checkpoint_that_did_not_flush_is_told():
    history = DROPS_ACROSS_A_CHECKPOINT
    want = by_the_oracle(history)
    assert "error" not in want and recovered(history) == want
    mutant = checkpoint_that_does_not_flush
    assert recovered(history, building=mutant()) != want
    # Writing dead images instead of dropping them does not help a live
    # page the checkpoint left unwritten.
    with writing_dead_images():
        assert recovered(history, building=mutant()) != want
    # Where the delete lands on a leaf a committed pass freed, the mutant
    # goes unseen, dropped image or written: redo never reads the leaf.
    history = FREED_ACROSS_A_CHECKPOINT
    want = by_the_oracle(history)
    assert "error" not in want and recovered(history) == want
    assert recovered(history, building=mutant()) == want
    with writing_dead_images():
        assert recovered(history, building=mutant()) == want
