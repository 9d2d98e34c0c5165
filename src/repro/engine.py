"""The top-level engine: index catalog, checkpoints, crash, and recovery.

An :class:`Engine` wires an :class:`~repro.context.EngineContext` together
with an index catalog and the checkpoint/recovery cycle:

* :meth:`create_index` builds an empty B+-tree and checkpoints, so that a
  crash at any later point can recover the catalog from the log;
* :meth:`crash` simulates losing volatile state — every buffer frame and
  the unflushed log tail — while the disk keeps what was written;
* :meth:`recover` runs the ARIES-style pass of
  :class:`~repro.wal.recovery.RecoveryManager` — which also sweeps the
  SPLIT/SHRINK/OLDPGOFSPLIT bits the crash left, before its undo — and
  rebuilds the index handles from the recovered catalog.
"""

from __future__ import annotations

from repro.btree.tree import BTree
from repro.context import EngineContext
from repro.errors import ReproError
from repro.quarantine import QuarantineMap
from repro.stats.counters import Counters
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.testing import invariants
from repro.wal.recovery import (
    RebuildCheckpoint,
    RecoveryManager,
    RecoveryReport,
    checkpoint,
)


class Engine:
    """A single-node storage engine hosting secondary B+-tree indexes."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        io_size: int | None = None,
        buffer_capacity: int = 4096,
        lock_timeout: float = 30.0,
        lock_rows: bool = False,
        storage_dir: str | None = None,
        fault_plan=None,
        io_retry_limit: int = 12,
        trace: bool | None = None,
    ) -> None:
        self.ctx = EngineContext.create(
            page_size=page_size,
            io_size=io_size,
            buffer_capacity=buffer_capacity,
            lock_timeout=lock_timeout,
            storage_dir=storage_dir,
            fault_plan=fault_plan,
            io_retry_limit=io_retry_limit,
            trace=trace,
        )
        self.storage_dir = storage_dir
        self.lock_rows = lock_rows
        self.indexes: dict[int, BTree] = {}

    @classmethod
    def open(cls, storage_dir: str, **kwargs: object) -> "Engine":
        """Reattach to a file-backed database and run crash recovery.

        Everything durable at the last flush point — committed
        transactions, completed rebuild top actions — is restored; the
        index catalog comes back from the last checkpoint.
        """
        engine = cls(storage_dir=storage_dir, **kwargs)  # type: ignore[arg-type]
        engine.recover()
        return engine

    def close(self) -> None:
        """Cleanly shut down a file-backed engine (checkpoint + close)."""
        self.checkpoint()
        log = self.ctx.log
        self.ctx.disk.close()
        if hasattr(log, "close"):
            log.close()

    # Convenience pass-throughs used all over tests and benchmarks.
    @property
    def counters(self) -> Counters:
        return self.ctx.counters

    @property
    def log(self):  # noqa: ANN201 - simple delegation
        return self.ctx.log

    @property
    def buffer(self):  # noqa: ANN201
        return self.ctx.buffer

    @property
    def page_manager(self):  # noqa: ANN201
        return self.ctx.page_manager

    @property
    def syncpoints(self):  # noqa: ANN201
        return self.ctx.syncpoints

    @property
    def quarantine(self) -> QuarantineMap:
        """Damaged-range fencing (see :mod:`repro.quarantine`): empty until
        the integrity scrubber quarantines a rotted segment for repair."""
        return self.ctx.quarantine

    @property
    def tracer(self):  # noqa: ANN201
        """Span sink (see :mod:`repro.obs.tracer`); the shared no-op
        :data:`~repro.obs.tracer.NULL_TRACER` unless built with
        ``trace=True`` (or ``REPRO_TRACE=1``)."""
        return self.ctx.tracer

    @property
    def metrics(self):  # noqa: ANN201
        """Histogram registry + exporters (see :mod:`repro.obs.metrics`).
        The workload runner's ``oltp_<op>_seconds`` are always recorded;
        the subsystem histograms only when tracing is enabled."""
        return self.ctx.metrics

    def progress(self):  # noqa: ANN201
        """Live rebuild/scrub progress: a
        :class:`~repro.obs.progress.ProgressSnapshot` with phase, units
        copied (monotonic within an epoch) and scrub pass state.  Always
        available — the reporter runs whether or not tracing is on."""
        return self.ctx.progress.snapshot()

    # ---------------------------------------------------------------- catalog

    def create_index(self, key_len: int, index_id: int | None = None) -> BTree:
        """Create an empty secondary index with fixed-length keys."""
        if index_id is None:
            index_id = max(self.indexes, default=0) + 1
        if index_id in self.indexes:
            raise ReproError(f"index {index_id} already exists")
        tree = BTree.create(
            self.ctx, index_id, key_len, lock_rows=self.lock_rows
        )
        self.indexes[index_id] = tree
        self.ctx.index_roots[index_id] = tree.root_page_id
        self.checkpoint()
        return tree

    def index(self, index_id: int = 1) -> BTree:
        return self.indexes[index_id]

    def rebuild_checkpoint(
        self, index_id: int = 1
    ) -> RebuildCheckpoint | None:
        """The unfinished rebuild of ``index_id``: its progress — kept
        current by a running rebuild, and rebuilt from the log by
        :meth:`recover` — or None when its last rebuild completed.  Pass
        it to ``OnlineRebuild.run(resume_checkpoint=...)``, or to
        :class:`~repro.core.supervisor.RebuildSupervisor`, to continue
        that rebuild instead of restarting it."""
        ckpt = self.ctx.rebuild_progress.get(index_id)
        if ckpt is None or ckpt.completed:
            return None
        return ckpt

    # ------------------------------------------------------------- durability

    def checkpoint(self, truncate: bool = False) -> int:
        """Flush everything and log a checkpoint with catalog + page states
        (:func:`repro.wal.recovery.checkpoint`); returns its LSN.

        Redo after a crash starts at the log's next LSN as of the start
        of the flush, so a checkpoint may run while other threads work:
        what they log during the flush is redone.  With ``truncate`` the
        log prefix below that point is dropped, bounded by the begin LSN
        of the oldest still-active transaction.  Because rebuild
        transactions are short (a few hundred pages each, §3), a
        checkpoint taken *during* an online rebuild still truncates
        almost everything — unlike sidefile schemes, which pin the log
        for the whole reorganization (§7 on [SBC97]).
        """
        index_meta = {
            str(index_id): {"root": tree.root_page_id, "key_len": tree.key_len}
            for index_id, tree in list(self.indexes.items())
        }
        return checkpoint(self.ctx, index_meta, truncate)

    def crash(self) -> None:
        """Lose all volatile state: buffer frames, the unflushed log tail,
        and every latch / lock / transaction (none of which survive a real
        process death)."""
        ctx = self.ctx
        ctx.buffer.crash()
        ctx.log.crash()
        ctx.quarantine.clear()  # volatile; recovery re-fences from the log
        self.indexes.clear()
        ctx.reset_volatile()

    def recover(self) -> RecoveryReport:
        """Run crash recovery and rebuild the index catalog."""
        report = RecoveryManager(self.ctx).recover()
        self.indexes = {
            int(index_id): BTree(
                self.ctx,
                int(index_id),
                int(meta["key_len"]),
                int(meta["root"]),
                lock_rows=self.lock_rows,
            )
            for index_id, meta in report.index_meta.items()
        }
        self.ctx.index_roots.clear()
        self.ctx.index_roots.update(
            {iid: tree.root_page_id for iid, tree in self.indexes.items()}
        )
        if invariants.hook is not None:
            invariants.hook.recovered(self)
        return report
