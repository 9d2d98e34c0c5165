"""A rebuild picks its own I/O mode from the device it meets.

No option says whether a run is synchronous or pipelined: the pool times
every physical call, and a run starts the I/O threads (and holds the
log's group-commit window) once the *smallest* of the last few samples is
at or above ``PIPELINE_MIN_SERVICE``.  Held here:

(a) on a device that costs nothing the threads never start and the exact
    counts repeat, one stalled call or not;
(b) a cold run on a 1 ms device is pipelined before its second top
    action, says why, and pays at most one device call for being late;
(c) the next pass on that engine starts pipelined;
(d) two overlapping pipelined rebuilds share the log's window until the
    last one ends — held where the overlap scenario already was,
    ``test_multi_index.py::test_overlapping_rebuilds_restore_engine_settings``.
"""

from __future__ import annotations

import threading
import time

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.core import rebuild as rebuild_module
from repro.core.rebuild import PIPELINE_MIN_SERVICE
from repro.workload.builder import bulk_load
from tests.conftest import intkey


def _io_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("io-")]


# ------------------------------------------------------------------- (a)


def warm_job(stall_call: int | None) -> tuple[int, int, int]:
    """A ``rebuild_cpu``-shaped pass: everything cached, latency 0, no
    I/O option anywhere (short transactions, so that it forces often).
    ``stall_call`` makes that device call of the pass take 5 ms.
    Returns (log bytes, device calls, pipeline starts)."""
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=4096)
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(30_000)], 4, fill=0.5
    )
    engine.checkpoint()
    disk = engine.ctx.disk
    seen = [0]

    def service(calls: int) -> None:
        seen[0] += 1
        if seen[0] == stall_call:
            time.sleep(0.005)

    disk._service = service
    started: list[list[str]] = []
    engine.syncpoints.on(
        "rebuild.nta_end", lambda _ctx: started.append(_io_threads())
    )
    report = OnlineRebuild(tree, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert report.completed and report.transactions > 8
    assert started and not any(started)
    if stall_call is not None:
        assert seen[0] >= stall_call, "too few device calls to stall one"
    delta = report.counter_deltas
    return (
        report.log_bytes,
        delta["disk_io_calls"],
        delta.get("rebuild_pipeline_starts", 0),
    )


def test_fast_device_never_starts_the_io_threads_and_repeats_exactly():
    # Ten plain jobs, ten with the n-th device call stalled: a stall is
    # one sample, and the decision reads the smallest of the last few.
    jobs = [warm_job(None) for _ in range(10)]
    jobs += [warm_job(n) for n in range(1, 11)]
    assert len(set(jobs)) == 1, sorted(set(jobs))
    assert jobs[0][2] == 0


# -------------------------------------------------------------- (b), (c)


def cold_engine():
    """The ``oltp_alone`` shape: a pool that holds the index, cold, on a
    1 ms device — so the device calls of a pass do not depend on how the
    I/O threads were scheduled."""
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=4096,
        trace=True,
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(40_000)], 4, fill=0.5
    )
    engine.checkpoint()
    engine.buffer.evict_all()
    engine.ctx.disk.latency = 0.001  # after set-up, which it must not slow
    return engine, tree


def observed_pass(engine, tree, config=None):
    """One pass; returns (report, whether the scheduler was running at
    the end of each top action, the ``rebuild.pipeline_started`` events)."""
    rebuild = OnlineRebuild(tree, config)
    running: list[bool] = []

    def at_nta_end(_ctx: dict) -> None:
        running.append(rebuild._scheduler is not None)

    engine.syncpoints.on("rebuild.nta_end", at_nta_end)
    engine.tracer.drain()
    report = rebuild.run()
    engine.syncpoints.remove("rebuild.nta_end", at_nta_end)
    events = [
        span for span in engine.tracer.spans()
        if span.name == "rebuild.pipeline_started"
    ]
    assert _io_threads() == []
    return report, running, events


def test_cold_run_on_a_slow_device_pipelines_itself(monkeypatch):
    engine, tree = cold_engine()
    report, running, events = observed_pass(engine, tree)
    assert report.completed and report.top_actions > 4
    assert all(running[1:]), "not pipelined by its second top action"
    assert report.counter_deltas["rebuild_pipeline_starts"] == 1
    (event,) = events
    samples = event.attrs["samples"]
    assert samples and min(samples) >= PIPELINE_MIN_SERVICE
    assert report.counter_deltas["writebehind_pages"] > 0
    assert report.counter_deltas["prefetch_admitted"] > 0
    tree.verify()

    # Pinned to start before its first top action, the same pass costs at
    # most one device call less.
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", 0.0)
    pinned_engine, pinned_tree = cold_engine()
    pinned, pinned_running, _events = observed_pass(pinned_engine, pinned_tree)
    assert all(pinned_running)
    assert pinned.leaf_pages_rebuilt == report.leaf_pages_rebuilt
    late = (
        report.counter_deltas["disk_io_calls"]
        - pinned.counter_deltas["disk_io_calls"]
    )
    assert 0 <= late <= 1, late


def test_second_pass_on_the_same_engine_starts_pipelined():
    engine, tree = cold_engine()
    config = RebuildConfig(fillfactor=0.7)
    first, _running, _events = observed_pass(engine, tree, config)
    assert first.counter_deltas["rebuild_pipeline_starts"] == 1
    # Warm now: its own descent reads nothing, so the samples it decides
    # on before its first top action are the first pass's last calls.
    second, running, events = observed_pass(engine, tree, config)
    assert running and all(running)
    assert second.counter_deltas["rebuild_pipeline_starts"] == 1
    assert min(events[0].attrs["samples"]) >= PIPELINE_MIN_SERVICE
    tree.verify()
