""":meth:`BufferPool.image_version` — "is this still the page image I read?"

A reader notes the value under the page's latch and compares it later
without one.  The answer must change after every kind of dirtying, and
must be "not the same image" (``None``) once the frame was evicted and
re-read or the page id was dropped and reallocated — even when the new
frame's counter happens to equal the noted number, which is why the
accessor compares the ``Page`` object and not the number alone.
"""

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import Rendezvous
from repro.btree.top_action import TopAction
from repro.core.copy_phase import _acquire_page
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import PageFlag
from repro.storage.page_manager import PageState
from tests.conftest import fill_index, intkey
from tests.storage.test_buffer_retire import put_page


@pytest.fixture
def pool() -> BufferPool:
    disk = Disk(page_size=512, counters=Counters())
    for pid in range(1, 9):
        put_page(disk, pid, b"row-%d" % pid)
    return BufferPool(disk, capacity=16, counters=disk.counters)


def resident(pool: BufferPool, pid: int):
    page = pool.fetch(pid)
    pool.unpin(pid)
    return page


def test_unchanged_frame_keeps_answering_the_noted_value(pool):
    page = resident(pool, 3)
    noted = pool.image_version(page)
    assert noted is not None
    assert resident(pool, 3) is page  # hits, clean unpins, other pages:
    resident(pool, 4)                 # none of them is a change
    pool.flush_all()
    assert pool.image_version(page) == noted
    assert pool.pin_count(3) == 0  # the accessor does not pin


def test_every_kind_of_dirtying_changes_the_answer(pool):
    page = resident(pool, 3)
    seen = [pool.image_version(page)]

    pool.fetch(3)
    pool.unpin(3, dirty=True)
    seen.append(pool.image_version(page))

    pool.mark_dirty(3)
    seen.append(pool.image_version(page))

    pool.flush_page(3)  # writing the frame back is not a change
    assert pool.image_version(page) == seen[-1]
    assert None not in seen and len(set(seen)) == len(seen)


def test_unlogged_protocol_bit_set_and_clear_changes_the_answer():
    """A rebuild top action's trace on a source leaf it ends up keeping:
    SHRINK set under the X latch, cleared at the top action's end."""
    engine = Engine(buffer_capacity=64)
    index = engine.create_index(key_len=4)
    fill_index(index, 50)
    ctx, leaf = engine.ctx, index.root_page_id
    page = resident(engine.buffer, leaf)
    noted = engine.buffer.image_version(page)

    txn = ctx.txns.begin()
    with TopAction(ctx, txn, scan=True) as top:
        assert _acquire_page(top, leaf, PageFlag.SHRINK)
        assert page.has_flag(PageFlag.SHRINK) and top.held == {leaf: page}
    ctx.txns.commit(txn)

    assert not page.has_flag(PageFlag.SHRINK)
    assert engine.buffer.image_version(page) not in (noted, None)


def test_evicted_and_reread_page_is_not_the_same_image(pool):
    page = resident(pool, 3)
    noted = pool.image_version(page)
    pool.evict_all()
    assert pool.image_version(page) is None  # not resident at all
    again = resident(pool, 3)
    assert again is not page and again.rows == page.rows
    assert pool.image_version(again) == noted  # the counter started over
    assert pool.image_version(page) is None


def test_peek_reads_a_protected_frame_without_pinning_it(pool):
    """What an unlatched descent reads: the page and the number
    :meth:`image_version` answers; ``None`` for a page that needs a fetch
    — not resident, in the scan ring, or prefetched and not fetched."""
    page = resident(pool, 3)
    assert pool.peek(3) == (page, pool.image_version(page))
    assert pool.pin_count(3) == 0
    assert pool.peek(5) is None  # never read
    pool.fetch(4, scan=True)
    pool.unpin(4)
    assert pool.peek(4) is None  # a ring frame: its fetch would promote it
    assert pool.prefetch(6)
    assert pool.peek(6) is None  # a prefetch: its fetch counts a hit


def test_a_peeked_frame_gets_the_lru_touch_it_did_not_make():
    """The evictor gives a frame read by :meth:`peek` since it last
    passed it the place a fetch would have: the recent end."""
    disk = Disk(page_size=512, counters=Counters())
    for pid in range(1, 12):
        put_page(disk, pid, b"row-%d" % pid)
    pool = BufferPool(disk, capacity=8, counters=disk.counters)
    for pid in range(1, 9):
        resident(pool, pid)  # LRU order 1 .. 8; the pool is full
    assert pool.peek(1) is not None
    resident(pool, 9)  # evicts the coldest unreferenced frame: 2
    assert pool.is_resident(1) and not pool.is_resident(2)
    resident(pool, 10)  # 1 went to the recent end once, bit cleared: 3
    assert pool.is_resident(1) and not pool.is_resident(3)


def test_dropped_and_reallocated_id_is_not_the_same_image(pool):
    page = pool.new_page(20)
    page.append_row(b"first incarnation")
    pool.unpin(20, dirty=True)
    noted = pool.image_version(page)

    pool.drop_page(20)
    again = pool.new_page(20)
    again.append_row(b"second incarnation")
    pool.unpin(20, dirty=True)

    # Same id, same number: a check on the number alone would call the
    # first incarnation's rows current.
    assert pool.image_version(again) == noted
    assert pool.image_version(page) is None


def test_scan_parked_on_a_leaf_whose_id_the_rebuild_frees_and_a_split_reuses():
    """Two threads, ordered by the ``rebuild.txn_committed`` syncpoint:
    the scanner is parked between two yields on leaf X; the rebuild's
    first transaction copies X away, commits and frees it; right-end
    splits on the main thread take X's id for a new leaf."""
    engine = Engine(page_size=512, buffer_capacity=2048, lock_timeout=10.0)
    index = engine.create_index(key_len=4)
    count = 1500
    fill_index(index, count, seed=None)
    pool, pages = engine.buffer, engine.page_manager
    leaf_x = index.verify().leaf_page_ids[0]

    it = index.scan()
    got = [int.from_bytes(next(it)[0], "big") for _ in range(3)]
    old_image = resident(pool, leaf_x)
    noted = pool.image_version(old_image)
    stale_key = int.from_bytes(old_image.rows[4][:4], "big")

    parked = Rendezvous(timeout=10.0)
    engine.syncpoints.once("rebuild.txn_committed", parked.engine_arrived)
    errors: list[BaseException] = []

    def rebuild() -> None:
        try:
            OnlineRebuild(
                index, RebuildConfig(ntasize=2, xactsize=2)
            ).run()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=rebuild, daemon=True)
    thread.start()
    parked.wait_engine()
    assert pages.state(leaf_x) is PageState.FREE

    key = count
    while pages.state(leaf_x) is not PageState.ALLOCATED:
        index.insert(intkey(key), key)  # right-end splits reuse freed ids
        key += 1
        assert key < count + 2000, "no split ever took the freed id"
    new_image = resident(pool, leaf_x)
    assert new_image is not old_image
    assert new_image.rows[0] > old_image.rows[-1]
    # Make the numbers equal too, then delete a row the parked run holds:
    # a check on the number alone hands the deleted row out.
    while pool.image_version(new_image) < noted:
        pool.mark_dirty(leaf_x)
    assert pool.image_version(new_image) == noted
    assert pool.image_version(old_image) is None
    index.delete(intkey(stale_key), stale_key)

    parked.release()
    thread.join(10.0)
    assert not thread.is_alive() and not errors, errors

    got += [int.from_bytes(k, "big") for k, _ in it]
    assert got == [k for k in range(key) if k != stale_key]
    assert engine.counters.scan_revalidation_failures >= 1
    index.verify()
