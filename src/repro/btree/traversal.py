"""Tree traversal with latch crabbing and safe-page retraversal (§2.6).

This is the paper's pseudocode, with the pages above the target level
read unlatched when they allow it:

* the target page — the leaf, or the level a split or propagation
  updates — is latched (S, or X in writer mode) and pinned; a page above
  it is read with no latch and no pin, bracketed by the frame's version
  and the latch's X state as a seqlock reader is
  (:meth:`Traversal._read_unlatched`), and checked once more after the
  page below it is read or latched.  Anything the bracket cannot vouch
  for — a frame not resident, held X, carrying a protocol bit, or
  changed — is visited latched instead, by latch coupling as the paper
  descends (S latches, X only at the target level in writer mode);
* a child with the SHRINK bit forces the traversal to release its latches,
  wait for an instant-duration S address lock on that page (i.e. for the
  shrinking top action to finish), and retraverse;
* a child marked OLDPGOFSPLIT redirects through its side entry when the
  search key moved to the new page of an in-flight split;
* a writer reaching a target page with the SPLIT bit waits the same way.

The same child checks serve the one walk along level 1
(:meth:`Traversal.level1`): the rebuild's read-ahead and the scrubber
read the level-1 page covering a unit through it, the first never
waiting, the second waiting as a traversal does.

Retraversal does not restart from the root (§2.6.1): the pages seen on the
way down are remembered, and the walk resumes from the lowest remembered
page that is still *safe* — same level as expected and the search key
within the range of key values on it.  A :class:`Traversal` object keeps
its path across calls, which is how the rebuild's propagation phase avoids
root-to-leaf walks for every batch (§5.4.1).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.btree import node
from repro.concurrency.latch import LATCH_S, LATCH_X, LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.errors import StorageError, TreeStructureError
from repro.storage.page import Page, PageFlag, PageType
from repro.testing import invariants


# A just-latched child needs :meth:`Traversal._resolve_child` only when it
# carries one of these bits; a writer's target waits only on the second
# pair.  Plain ints: ``int & IntFlag`` would run the enum's Python-level
# ``__rand__``.
_RESOLVE_BITS = int(PageFlag.SHRINK | PageFlag.OLDPGOFSPLIT)
_WRITER_BLOCK_BITS = int(PageFlag.SPLIT | PageFlag.SHRINK)


class AccessMode(enum.Enum):
    READER = "reader"
    WRITER = "writer"


_WRITER = AccessMode.WRITER  # bound once, as latch.LATCH_X is


class Level1(NamedTuple):
    """What :meth:`Traversal.level1` reads off a level-1 page."""

    page_id: int
    entries: list[bytes]
    """The entry of the child covering the unit and of every child right
    of it: leaves in chain order (§5)."""
    bound: bytes | None
    """Where the next level-1 page begins: the tightest separator above
    the page, or the side key of a page still marked OLDPGOFSPLIT;
    ``None`` at the right edge of the index."""

    @property
    def children(self) -> list[int]:
        return [node.entry_child(row) for row in self.entries]

    @property
    def keys(self) -> list[bytes]:
        """Low separator of each child; ``b""`` for the page's first
        child, whose low bound is the page's own."""
        return [node.entry_key(row) for row in self.entries]


class Traversal:
    """A reusable traversal with remembered-path retraversal."""

    def __init__(
        self, ctx: EngineContext, tree: "object", scan: bool = False
    ) -> None:
        """``tree`` supplies ``root_page_id`` and ``index_id`` attributes
        (kept live so a root level change is always observed).

        ``scan`` marks every page this traversal touches as scan-class
        for buffer replacement: the rebuild's own descents must recycle
        the rebuild ring instead of displacing the OLTP working set.
        """
        self.ctx = ctx
        self.tree = tree
        self.scan = scan
        self._path: list[tuple[int, int]] = []  # (page_id, level), root first

    # ------------------------------------------------------------------ drive

    def traverse(
        self,
        unit: bytes,
        mode: AccessMode,
        target_level: int,
        txn: Transaction,
    ) -> Page:
        """Return the target-level page covering ``unit``, latched and pinned.

        Writer mode returns the page X latched and guarantees it carries
        neither SPLIT nor SHRINK bit; reader mode returns it S latched.

        A page above the target level is read unlatched when it allows
        (:meth:`_read_unlatched`), else visited latched as in §2.6's
        crabbing.  An unlatched page is checked again once the next page
        down is read or latched: if it changed, that page is given back
        and the descent restarts, every page latched from then on.
        """
        ctx = self.ctx
        counters = ctx.counters
        get_latched = ctx.get_latched
        release_page = ctx.release_page
        changed = self._changed
        child_search = node.child_search
        scan = self.scan
        writer = mode is _WRITER
        shard = counters.local_shard()
        shard["traversals"] += 1
        first_attempt = True
        unlatched = True  # until an unlatched read fails its check
        while True:
            if not first_attempt:
                shard["retraversals"] += 1
            first_attempt = False

            # ``version`` is None while ``p`` is latched, else the change
            # counter it was read at, unlatched, routing to ``child_id``.
            # ``level`` is what was read with it: an unlatched page's level
            # read again outside its bracket may be a collapsed root's.
            p, version, child_id, level = self._start_page(
                unit, target_level, mode, unlatched
            )
            new_path: list[tuple[int, int]] = []
            restart = False

            while level > target_level:
                new_path.append((p.page_id, level))
                if version is None:
                    _pos, child_id = child_search(p, unit, counters)
                else:
                    # Read unlatched: a page visit with no latch and no
                    # fetch to count it.
                    shard["pages_visited"] += 1
                    if level == 1:
                        shard["level1_visits"] += 1
                if unlatched and level - 1 > target_level:
                    read = self._read_unlatched(child_id, unit, target_level)
                    if read is not None:
                        if version is None:
                            release_page(p.page_id)
                        elif changed(p, version):
                            unlatched = False
                            restart = True
                            break
                        p, version, child_id, level = read
                        continue
                child_mode = (
                    LATCH_X if writer and level - 1 == target_level else LATCH_S
                )
                try:
                    c = get_latched(child_id, child_mode, scan=scan)
                    if c._flags & _RESOLVE_BITS:
                        c, blocked_id = self._resolve_child(
                            c, unit, child_mode, txn
                        )
                except StorageError:
                    # A pointer read unlatched may name a page freed since:
                    # only an unchanged parent makes the error the page's.
                    if version is None or not changed(p, version):
                        raise
                    unlatched = False
                    restart = True
                    break
                finally:
                    # Also when the child (or its side-entry sibling) is
                    # unreadable: the error leaves no latch behind.
                    if version is None:
                        release_page(p.page_id)
                if version is not None and changed(p, version):
                    # The parent changed since it routed here.
                    if c is not None:
                        release_page(c.page_id)
                    unlatched = False
                    restart = True
                    break
                if c is None:
                    # SHRINK in the way: with everything released, block for
                    # the top action via an instant S address lock (§2.6).
                    assert blocked_id is not None
                    ctx.locks.wait_instant(
                        txn.txn_id, LockSpace.ADDRESS, blocked_id, LockMode.S
                    )
                    restart = True
                    break
                p, version, level = c, None, c.level

            if restart:
                continue

            # Target level reached.  A bit set by *our own* transaction's
            # in-flight top action (e.g. the root during a root grow) never
            # blocks us — we hold its X address lock.
            if (
                writer
                and p._flags & _WRITER_BLOCK_BITS
                and not ctx.locks.holds(
                    txn.txn_id, LockSpace.ADDRESS, p.page_id, LockMode.X
                )
            ):
                page_id = p.page_id
                ctx.release_page(page_id)
                ctx.locks.wait_instant(
                    txn.txn_id, LockSpace.ADDRESS, page_id, LockMode.S
                )
                continue

            self._path = new_path
            if invariants.hook is not None:
                invariants.hook.descended(self, p, unit, target_level, txn)
            return p

    def _read_unlatched(
        self, page_id: int, unit: bytes, target_level: int
    ) -> tuple[Page, int, int, int] | None:
        """Read ``page_id``, a page above ``target_level``, with no latch
        and no pin: ``(page, version, child_id, level)``, or ``None`` when
        the page must be visited latched.

        The read is bracketed as a seqlock reader is: the frame's version
        (:meth:`BufferPool.peek`), the latch free of X, then the flags and
        the child search, then the latch again and the version last.  A
        mutator changes a page only under its X latch and bumps the
        version before it lets the latch go, so a writer that overlaps the
        read either holds the latch at one of the two checks or has
        bumped the version between the two version reads.  An unlogged
        bit flip bumps nothing, but it changes only the flags, which are
        read once, inside the bracket.  ``None`` for a frame that is not
        resident in the protected LRU, is X latched, carries any protocol
        bit, is at or below ``target_level``, or changed during the read.
        """
        ctx = self.ctx
        seen = ctx.buffer.peek(page_id)
        if seen is None:
            return None
        page, version = seen
        if ctx.latches.x_latched(page_id):
            return None
        try:
            level = page.level
            if page._flags or level <= target_level:
                return None
            _pos, child_id = node.child_search(page, unit, ctx.counters)
        except Exception:  # noqa: BLE001 - a torn read; the latched visit
            return None  # that follows raises what is real
        if self._changed(page, version):
            return None
        return page, version, child_id, level

    def _changed(self, page: Page, version: int) -> bool:
        """Whether ``page``, read unlatched at ``version``, may have
        changed since: X latched now, or its frame's version (or the frame
        itself) is no longer the one read.  The check that closes
        :meth:`_read_unlatched`'s bracket, and the one every unlatched
        page gets again once the page below it is read or latched."""
        return self.ctx.latches.x_latched(page.page_id) or (
            self.ctx.buffer.image_version(page) != version
        )

    # ---------------------------------------------------------- level 1

    def level1(self, unit: bytes, txn: Transaction | None) -> Level1 | None:
        """Read the level-1 page covering ``unit``, descending from the
        root with S latch coupling; ``None`` when the root is a leaf.

        Every page on the way, the root included, is resolved by
        :meth:`_resolve_child`.  With a ``txn`` a blocking bit is waited
        out with the instant S address lock and the descent starts again
        from the root, as :meth:`traverse` does.  Without one nothing
        waits: a latch that is not free, a page that cannot be read or a
        bit that blocks ``unit`` returns ``None``.
        """
        ctx = self.ctx
        wait = txn is not None
        while True:
            p = self._latch(self.tree.root_page_id, LatchMode.S, wait)
            if p is None:
                return None
            if p.page_type is not PageType.NONLEAF:
                ctx.release_page(p.page_id)
                return None
            p, blocked = self._resolve_child(p, unit, LatchMode.S, txn)
            bound = None
            while p is not None:
                if p.has_flag(PageFlag.OLDPGOFSPLIT):
                    bound = p.side_key  # the rest moved right (§2.3)
                pos, child_id = node.child_search(p, unit, ctx.counters)
                if p.level == 1:
                    ctx.release_page(p.page_id)
                    return Level1(p.page_id, p.rows[pos:], bound)
                if pos + 1 < p.nrows:
                    bound = node.entry_key(p.rows[pos + 1])
                try:
                    c = self._latch(child_id, LatchMode.S, wait)
                    if c is not None:
                        c, blocked = self._resolve_child(
                            c, unit, LatchMode.S, txn
                        )
                finally:
                    ctx.release_page(p.page_id)
                p = c
            if not wait:
                return None
            assert blocked is not None
            ctx.locks.wait_instant(
                txn.txn_id, LockSpace.ADDRESS, blocked, LockMode.S
            )

    def _latch(self, page_id: int, mode: LatchMode, wait: bool) -> Page | None:
        """Latch and pin ``page_id``.  Without ``wait``: ``None`` when the
        latch is not free or the read fails."""
        ctx = self.ctx
        if wait:
            return ctx.get_latched(page_id, mode, scan=self.scan)
        if not ctx.latches.try_acquire(page_id, mode):
            return None
        try:
            return ctx.buffer.fetch(page_id, scan=self.scan)
        except StorageError:
            ctx.latches.release(page_id)
            return None

    # ---------------------------------------------------- child resolution

    def _resolve_child(
        self,
        c: Page,
        unit: bytes,
        child_mode: LatchMode,
        txn: Transaction | None,
    ) -> tuple[Page | None, int | None]:
        """Apply the SHRINK / OLDPGOFSPLIT checks to a just-latched child.

        Returns ``(resolved_page, None)`` on success — possibly a sibling
        reached through a side entry — or ``(None, blocked_page_id)`` when a
        SHRINK bit requires the caller to release its latches and block.
        A SHRINK bit owned by our own transaction's top action is ignored.
        Without a ``txn`` (:meth:`level1`'s read that never waits) a side
        entry whose page is latched returns ``(None, c.page_id)`` too.
        """
        ctx = self.ctx
        while True:
            if c.blocks_unit(unit) and (
                txn is None
                or not ctx.locks.holds(
                    txn.txn_id, LockSpace.ADDRESS, c.page_id, LockMode.X
                )
            ):
                blocked = c.page_id
                ctx.release_page(c.page_id)
                return None, blocked
            if c.has_flag(PageFlag.OLDPGOFSPLIT) and unit >= c.side_key:
                try:
                    sibling = self._latch(
                        c.side_page, child_mode, txn is not None
                    )
                finally:
                    ctx.release_page(c.page_id)
                if sibling is None:
                    return None, c.page_id
                c = sibling
                continue
            return c, None

    # ------------------------------------------------------------ safe start

    def _start_page(
        self,
        unit: bytes,
        target_level: int,
        mode: AccessMode,
        unlatched: bool,
    ) -> tuple[Page, int | None, int | None, int]:
        """Latch the lowest safe remembered page (§2.6.1), else read the
        root unlatched, else latch it: ``(page, version, child_id, level)``
        as :meth:`traverse` keeps them."""
        for page_id, level in reversed(self._path):
            if level <= target_level:
                continue
            page = self._try_safe(page_id, level, unit)
            if page is not None:
                return page, None, None, level
        if unlatched:
            read = self._read_unlatched(
                self.tree.root_page_id, unit, target_level
            )
            if read is not None:
                return read
        root = self._latch_root(target_level, mode)
        return root, None, None, root.level

    def _try_safe(self, page_id: int, level: int, unit: bytes) -> Page | None:
        """Latch and validate a remembered page; None if no longer safe."""
        ctx = self.ctx
        if not ctx.page_manager.is_allocated(page_id):
            return None
        try:
            page = ctx.get_latched(page_id, LatchMode.S, scan=self.scan)
        except StorageError:
            return None
        if (
            # Again, now under the latch: the page may have been emptied,
            # deallocated and its bits cleared since the check above.
            ctx.page_manager.is_allocated(page_id)
            and page.page_type is PageType.NONLEAF
            and page.level == level
            and page.index_id == getattr(self.tree, "index_id", page.index_id)
            and not page.has_flag(PageFlag.SHRINK)
            and page.nrows >= 2
            and node.entry_key(page.rows[1]) <= unit <= node.entry_key(page.rows[-1])
        ):
            return page
        ctx.release_page(page_id)
        return None

    def _latch_root(self, target_level: int, mode: AccessMode) -> Page:
        """Latch the root, upgrading to X when the root is the writer target."""
        ctx = self.ctx
        root_id = self.tree.root_page_id
        while True:
            page = ctx.get_latched(root_id, LATCH_S, scan=self.scan)
            if page.level == target_level and mode is _WRITER:
                ctx.release_page(root_id)
                page = ctx.get_latched(root_id, LATCH_X, scan=self.scan)
                if page.level != target_level:
                    # Root grew between the relatch; S is enough again.
                    ctx.release_page(root_id)
                    continue
            if page.level < target_level:
                ctx.release_page(root_id)
                raise TreeStructureError(
                    f"target level {target_level} is above the root "
                    f"(level {page.level})"
                )
            return page
