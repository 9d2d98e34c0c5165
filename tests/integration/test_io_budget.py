"""§6.3 I/O budget of a pressured rebuild, as exact counts.

The paper prices a rebuild at one sequential read pass of the old leaves
plus one write pass of the new pages, moved ``pages_per_io`` at a time.
This guard holds the engine to that shape on a cold pool a fifth the size
of the index: single-threaded (no scheduler threads), so every count
repeats exactly.  The second guard holds the pipelined pass the suite's
``rebuild_io`` runs to the same budget and to repeating it, and the third
to having one copy thread.
"""

import threading

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload.builder import bulk_load
from tests.conftest import intkey

NONLEAF_SLACK = 32
"""Pages other than new leaves one pass may write: the rebuilt level-1
pages, the PPs forced with each transaction, dirty upper levels the
ring recycles."""


def test_pressured_rebuild_reads_once_and_writes_only_new_pages(monkeypatch):
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=256
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(100_000)], 4, fill=0.5
    )
    old_leaves = set(tree.verify().leaf_page_ids)
    assert len(old_leaves) > 4 * 256  # the pool holds ~20 % of the leaves
    engine.checkpoint()
    engine.buffer.evict_all()

    written: list[int] = []
    disk = engine.ctx.disk
    write, write_many = disk.write, disk.write_many
    monkeypatch.setattr(
        disk, "write", lambda pid, image: (written.append(pid), write(pid, image))
    )
    monkeypatch.setattr(
        disk, "write_many",
        lambda items: (written.extend(items), write_many(items)),
    )

    before = engine.counters.snapshot()
    report = OnlineRebuild(tree).run()
    delta = engine.counters.diff(before)

    assert report.leaf_pages_rebuilt == len(old_leaves)
    assert old_leaves.isdisjoint(written), "an old leaf image was rewritten"
    assert (
        delta["disk_pages_written"]
        <= delta["new_pages_allocated"] + NONLEAF_SLACK
    )
    assert delta["disk_io_calls"] / report.leaf_pages_rebuilt <= 0.35
    assert delta["pool_retired_unwritten"] >= 0.9 * len(old_leaves)
    tree.verify()


# ------------------------------------------------- the suite's rebuild_io job

CALLS_PER_PAGE = 0.20
"""§6.3's ideal for 16 KB buffers is (old + new) / 8 pages a call, 0.19
per rebuilt page at fill 0.5 → 1.0; the job measures 477 calls for 2 410
pages, 0.19793."""
REPEAT_SLACK = 8
"""Calls two jobs may differ by.  Measured over 50 jobs each: all 50 at
477 on an idle host at the default switch interval; under
``sys.setswitchinterval(1e-5)`` 477–485 in 49 of 50 on the four-shard
pool with the consumption watermark, and 477 in 50 of 50 on the one-lock
pool without it."""


def cold_tuned_job() -> tuple[int, int]:
    """One pass as the suite's ``rebuild_io`` runs it: 200 k keys at fill
    0.5, a cold 512-frame pool, 1 ms a device call, pinned
    to the pipelined mode by the caller's fixture (what the run picks by
    itself, give or take a call, is ``test_io_mode.py``'s).  Returns
    (device calls, pages rebuilt)."""
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=512
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(200_000)], 4, fill=0.5
    )
    engine.checkpoint()
    engine.buffer.evict_all()
    engine.ctx.disk.latency = 0.001  # after set-up, which it must not slow
    before = engine.counters.snapshot()
    report = OnlineRebuild(tree).run()
    calls = engine.counters.diff(before)["disk_io_calls"]
    assert report.completed
    return calls, report.leaf_pages_rebuilt


def test_cold_tuned_pass_stays_in_budget_and_repeats(pipelined):
    """One copy thread buys a job whose device calls repeat: a change
    that brings back a racing consumer of the read-ahead window, or a
    window written off unconsumed, moves this number on every job.

    The count is free of timing as long as the writers get the CPU; on a
    starved host dirty new pages sit in the ring and it recycles frames
    read ahead but not yet consumed (4 of 50 jobs beside two busy
    processes on two cores, at the parent commit as well).  One such job
    is replaced, once; a regression fails all three."""
    jobs = [cold_tuned_job(), cold_tuned_job()]
    if any(calls > CALLS_PER_PAGE * pages for calls, pages in jobs):
        jobs.append(cold_tuned_job())
    in_budget = [
        calls for calls, pages in jobs if calls <= CALLS_PER_PAGE * pages
    ]
    assert len(in_budget) >= 2, jobs
    assert max(in_budget) - min(in_budget) <= REPEAT_SLACK, jobs


def test_run_starts_no_thread_but_the_schedulers(pipelined):
    """Every top action runs on the thread that called ``run()``, and the
    only threads alive beside it that were not before are the I/O
    scheduler's readers and writers — which do not outlive the run."""
    engine = Engine(buffer_capacity=2048)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(8_000)], 4)
    before = set(threading.enumerate())
    drivers: set[str] = set()
    started: set[str] = set()

    def at_nta_end(_ctx: dict) -> None:
        drivers.add(threading.current_thread().name)
        started.update(t.name for t in set(threading.enumerate()) - before)

    engine.syncpoints.on("rebuild.nta_end", at_nta_end)
    report = OnlineRebuild(tree, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert report.top_actions > 4
    assert drivers == {threading.current_thread().name}
    assert started and all(
        name.startswith(("io-reader-", "io-writer-")) for name in started
    )
    assert set(threading.enumerate()) <= before
    tree.verify()
