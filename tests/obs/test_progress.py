"""ProgressReporter unit tests: monotonicity, phases, scrub state."""

from repro.obs.progress import ProgressReporter


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


def make() -> tuple[ProgressReporter, FakeClock]:
    clock = FakeClock()
    return ProgressReporter(clock=clock), clock


def test_initial_snapshot_is_idle():
    rep, _ = make()
    snap = rep.snapshot()
    assert snap.phase == "idle"
    assert snap.units_copied == 0
    assert snap.index_id is None


def test_lifecycle_and_monotonic_units():
    rep, clock = make()
    rep.rebuild_started(index_id=1, epoch=42)
    assert rep.snapshot().phase == "copy"
    seen = [rep.snapshot().units_copied]
    for units in (3, 1, 5):
        clock.advance(1.0)
        rep.add_units(units)
        seen.append(rep.snapshot().units_copied)
    assert seen == sorted(seen), "units_copied must be monotonic"
    assert rep.snapshot().units_copied == 9
    rep.rebuild_finished()
    snap = rep.snapshot()
    assert snap.phase == "complete"
    assert snap.epoch == 42 and snap.index_id == 1


def test_units_floor_carries_resumed_progress():
    rep, _ = make()
    rep.rebuild_started(1, epoch=9, units_floor=8)
    assert rep.snapshot().units_copied == 8
    rep.add_units(2)
    assert rep.snapshot().units_copied == 10


def test_new_epoch_resets_counters():
    rep, _ = make()
    rep.rebuild_started(1, epoch=5)
    rep.add_units(7)
    rep.rebuild_started(1, epoch=6)
    snap = rep.snapshot()
    assert snap.units_copied == 0
    assert snap.epoch == 6


def test_aborted_phase():
    rep, _ = make()
    rep.rebuild_started(1, 1)
    rep.add_units(3)
    rep.rebuild_finished(aborted=True)
    snap = rep.snapshot()
    assert snap.phase == "aborted"
    assert snap.units_copied == 3


def test_scrub_state_independent_of_rebuild():
    rep, _ = make()
    rep.scrub_pass_started()
    snap = rep.snapshot()
    assert snap.scrub_pass_active and snap.scrub_passes == 0
    rep.scrub_leaves(17)
    rep.scrub_leaves(0)
    rep.scrub_pass_finished()
    snap = rep.snapshot()
    assert not snap.scrub_pass_active
    assert snap.scrub_passes == 1
    assert snap.scrub_leaves_checked == 17
    # A rebuild reset does not clobber scrub accounting.
    rep.rebuild_started(1, 2)
    snap = rep.snapshot()
    assert snap.scrub_passes == 1 and snap.scrub_leaves_checked == 17


def test_to_dict_is_json_safe():
    import json

    rep, _ = make()
    rep.rebuild_started(2, 3)
    rep.add_units(1)
    data = rep.snapshot().to_dict()
    json.dumps(data)
    assert data["phase"] == "copy"
    assert data["units_copied"] == 1
