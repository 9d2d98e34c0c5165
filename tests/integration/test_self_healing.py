"""End-to-end self-healing demo.

Rot the log cannot explain is planted in a committed leaf while a
2-thread mixed workload runs.  The background scrubber must find it,
fence the damaged key range (readers inside get
:class:`QuarantinedRangeError`, *never* a raw :class:`ChecksumError`),
write the leaf's resident frame back over the rotted slot, and lift the
fence once the stored image verifies — with the rest of the key space
serving uninterrupted throughout.
"""

from __future__ import annotations

import threading

from repro import Engine
from repro.core import scrubber as scrubber_mod
from repro.core.pacer import Pacer
from repro.core.scrubber import Scrubber
from repro.storage.faults import FaultPlan
from repro.workload.runner import MixedWorkload

from ..conftest import contents_as_ints, intkey, make_half_empty


def test_self_healing_under_oltp(monkeypatch):
    monkeypatch.setattr(scrubber_mod, "PASS_INTERVAL", 0.01)
    engine = Engine(
        buffer_capacity=4096, lock_timeout=15.0, fault_plan=FaultPlan()
    )
    tree = engine.create_index(key_len=4)
    key_count = 6000
    expected = make_half_empty(tree, key_count)
    # Truncate history so WAL replay cannot explain the rot: the repair
    # must go through quarantine + write-back, not rung 2.
    engine.checkpoint(truncate=True)

    stats = tree.verify()
    victim = stats.leaf_page_ids[len(stats.leaf_page_ids) // 2]
    victim_page = engine.ctx.buffer.fetch(victim)
    victim_keys = {
        int.from_bytes(row[: tree.key_len], "big") for row in victim_page.rows
    }
    engine.ctx.buffer.unpin(victim)
    assert engine.ctx.disk.plant_rot(victim, bit=509)

    # 2-thread mixed workload on the odd key space, concurrent with the
    # scrub.  The victim's committed keys are odd (make_half_empty), so
    # traffic does land inside the fence while it stands.
    workload = MixedWorkload(
        tree, intkey, key_count, threads=2, seed=7, write_fraction=0.5
    )
    # The scrub walk yields to the workload's live p99 through the pacer.
    scrubber = Scrubber(
        tree,
        pacer=Pacer(workload.stats.histograms.values(), budget_ms=50.0),
    )
    # Rendezvous on the scrubber's own syncpoints instead of polling
    # counters on a sleep loop: "healed" means a fence was lifted AND a
    # later pass completed clean (re-verifying the whole index).  The
    # hooks run on the scrubber thread; the test just waits on the Event
    # with a hard deadline.
    lifted = threading.Event()
    healed = threading.Event()
    engine.syncpoints.on("scrub.lift", lambda _ctx: lifted.set())

    def on_pass_done(ctx: dict) -> None:
        if lifted.is_set() and ctx["complete"] and ctx["defects"] == 0:
            healed.set()

    engine.syncpoints.on("scrub.pass_done", on_pass_done)

    workload.start()
    scrubber.start()
    try:
        assert healed.wait(timeout=60.0), (
            "scrubber never lifted the fence and re-verified clean: "
            f"lifted={lifted.is_set()} passes={len(scrubber.passes)} "
            f"last_error={scrubber.last_error}"
        )
    finally:
        engine.syncpoints.clear()
        scrubber.stop()
        stats_out = workload.stop()

    assert scrubber.last_error is None
    assert engine.counters.scrub_quarantines >= 1, "rot was never fenced"
    assert engine.counters.scrub_quarantine_lifts >= 1, "fence never lifted"
    assert engine.quarantine.ranges(tree.index_id) == []

    # Readers never saw raw rot: quarantined ops are bounded, *expected*
    # degradation; checksum errors reaching a reader are the failure the
    # scrubber exists to prevent.
    assert stats_out.checksum_errors == 0, stats_out.errors
    unexpected = [
        e
        for e in stats_out.errors
        if "quarantined" not in e and "stuck" not in e
    ]
    assert not unexpected, unexpected
    assert stats_out.operations > 0

    # The repaired index is structurally sound and every committed
    # even-ordinal key (untouched by the odd-key workload) survived —
    # including the victim page's evens.
    tree.verify()
    present = set(contents_as_ints(tree))
    evens = {k for k in expected if k % 2 == 0}
    assert evens <= present
    assert {k for k in victim_keys if k % 2 == 0} <= present

    # Keys inside the formerly fenced range serve normally again.
    for k in sorted(victim_keys)[:5]:
        tree.contains(intkey(k), k)


def test_quarantined_ops_routed_to_stats_not_thread_death():
    """Satellite 2 regression: a standing fence fails workload ops fast
    with QuarantinedRangeError, which the runner tallies per-op in
    ``errors``/``quarantined_ops`` while the worker thread lives on."""
    engine = Engine(buffer_capacity=2048, lock_timeout=15.0)
    tree = engine.create_index(key_len=4)
    key_count = 2000
    make_half_empty(tree, key_count)
    lo = intkey(500)
    hi = intkey(1500)
    engine.quarantine.set_range(tree.index_id, lo, hi)

    workload = MixedWorkload(tree, intkey, key_count, threads=2, seed=3)
    stats = workload.run_for(0.5)
    assert stats.quarantined_ops > 0
    assert any("quarantined" in e for e in stats.errors)
    assert stats.checksum_errors == 0
    # Workers kept going after rejections: completed work exists on both
    # sides of the rejection count.
    assert stats.operations > 0
    assert not any("stuck" in e for e in stats.errors)
