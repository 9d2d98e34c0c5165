"""Deterministic crash-schedule harness (§3's claims, exhaustively checked).

The paper argues that the online rebuild survives a crash at *any* point:
completed multipage top actions persist (new pages were forced before old
pages were freed), the in-flight top action rolls back, and committed user
transactions are never lost.  This module turns "any point" into an
enumerated list and checks every entry:

1. **Enumeration run.**  One clean build → fragment → rebuild-under-OLTP
   run with an observer on the engine's syncpoints and a (no-fault)
   :class:`~repro.storage.faults.FaultyDisk` counting physical calls.
   Every ``rebuild.*`` syncpoint firing becomes a crash schedule; every
   ``write_many`` issued during the rebuild phase becomes a family of
   injected-fault schedules (torn prefix, byte-torn page, lost write,
   transient error — :func:`_write_faults`).

2. **Schedule runs.**  The same scenario — same seeds, same single
   thread, so the same call ordinals — replayed once per schedule with
   the crash or fault armed.  After the simulated power failure the
   harness runs :meth:`Engine.recover` and asserts ``verify()`` plus
   *logical key-set equality*: the surviving keys are exactly the base
   survivors plus every OLTP op that completed before the crash (ops are
   applied at rebuild transaction boundaries and recorded only after they
   return, and commits flush the log, so each completed op is durable).
   Last, once recovery and any follow-up rebuild are done, no page may be
   left pinned, latched, address-locked or carrying a protocol bit
   (:func:`~repro.testing.cleanup.left_behind`).

The OLTP ops run from a ``rebuild.txn_committed`` hook on the rebuild
thread itself — between rebuild transactions, when no rebuild locks are
held — which keeps every run bit-deterministic while still interleaving
user writes with the rebuild the way §6.2 does.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable
from unittest import mock

from repro.concurrency.syncpoints import CrashPoint
from repro.core import rebuild as rebuild_module
from repro.core.config import RebuildConfig
from repro.core.rebuild import OnlineRebuild
from repro.core.scrubber import Scrubber
from repro.core.supervisor import RebuildSupervisor
from repro.engine import Engine
from repro.errors import QuarantinedRangeError, RebuildAbortedError
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec
from repro.testing.cleanup import NOTHING_LEFT, left_behind


def _key(i: int) -> bytes:
    return i.to_bytes(4, "big")


def _fragmented_index(engine: Engine, key_count: int, seed: int):
    """Insert ``key_count`` keys in ``seed``'s order, then delete every
    even one; returns the index and its surviving keys."""
    tree = engine.create_index(key_len=4)
    order = list(range(key_count))
    random.Random(seed).shuffle(order)
    for k in order:
        tree.insert(_key(k), k)
    for k in range(0, key_count, 2):
        tree.delete(_key(k), k)
    return tree, set(range(1, key_count, 2))


def _crash_points(
    engine: Engine, prefix: str, run: Callable[[], object]
) -> list["Schedule"]:
    """Call ``run()`` with an observer on ``engine``'s syncpoints; each
    firing of a point named ``prefix…`` becomes a crash schedule."""
    fired: list[str] = []
    engine.syncpoints.observe(lambda name, _attrs: fired.append(name))
    run()
    counts = Counter(name for name in fired if name.startswith(prefix))
    return [
        Schedule(kind="syncpoint", point=name, nth=nth)
        for name in sorted(counts)
        for nth in range(1, counts[name] + 1)
    ]


def _arm_crash(engine: Engine, schedule: "Schedule") -> None:
    """Raise :class:`CrashPoint` at the schedule's firing of its point."""
    seen = itertools.count(1)

    def boom(_ctx: dict) -> None:
        if next(seen) == schedule.nth:
            raise CrashPoint(schedule.point)

    engine.syncpoints.on(schedule.point, boom)


def _write_faults(
    disk, calls_before: dict[str, int], ops=("write_many", "write")
) -> list["Schedule"]:
    """The injected-fault families of every call of ``ops`` that ``disk``
    (a :class:`~repro.storage.faults.FaultyDisk`) made since its call
    counts were ``calls_before``: a torn prefix at each cut and one
    byte-torn page mid-image, each a crash; a lost (lying) write, crashed
    after; and a transient error the retry layer must absorb."""
    sizes = {
        "write_many": disk.write_many_sizes[calls_before["write_many"]:],
        "write": [1] * (disk.calls["write"] - calls_before["write"]),
    }
    schedules: list[Schedule] = []
    for op in ops:
        for i, size in enumerate(sizes[op]):
            fault = functools.partial(
                Schedule, kind="fault", op=op, nth=calls_before[op] + i + 1
            )
            cuts = sorted({0, size // 2, size - 1}) if size > 1 else [0]
            schedules.extend(
                fault(fault=FaultKind.TORN, pages_persisted=keep)
                for keep in cuts
            )
            schedules.append(
                fault(
                    fault=FaultKind.TORN, pages_persisted=size // 2,
                    torn_byte=disk.page_size // 3,
                )
            )
            schedules.append(fault(fault=FaultKind.LOST))
            schedules.append(fault(fault=FaultKind.TRANSIENT, crash=False))
    return schedules


def _armed_plan(seed: int, schedule: "Schedule") -> FaultPlan:
    """A fault plan with ``schedule``'s fault armed, if it has one."""
    plan = FaultPlan(seed=seed)
    if schedule.kind == "fault":
        plan.at(
            FaultSpec(
                op=schedule.op,
                nth=schedule.nth,
                kind=schedule.fault,
                pages_persisted=schedule.pages_persisted,
                torn_byte=schedule.torn_byte,
                crash=schedule.crash,
            )
        )
    return plan


@dataclass(frozen=True)
class Schedule:
    """One crash/fault point to exercise."""

    kind: str  # "syncpoint" | "fault"
    point: str = ""  # syncpoint name (kind == "syncpoint")
    nth: int = 1  # 1-based firing / call ordinal
    op: str = ""  # disk op (kind == "fault")
    fault: FaultKind | None = None
    pages_persisted: int = 0
    torn_byte: int = -1
    crash: bool = True

    def label(self) -> str:
        if self.kind == "syncpoint":
            return f"crash@{self.point}#{self.nth}"
        extra = ""
        if self.fault in (FaultKind.TORN, FaultKind.LOST):
            extra = f"@{self.pages_persisted}"
            if self.torn_byte >= 0:
                extra += f"+tear{self.torn_byte}"
        mode = "crash" if self.crash else "error"
        return f"{self.fault.value}:{self.op}#{self.nth}{extra}+{mode}"


@dataclass
class ScheduleOutcome:
    """What one schedule run observed."""

    schedule: str
    crashed: bool = False
    recovered: bool = False
    verified: bool = False
    keyset_ok: bool = False
    retries: int = 0
    oltp_ops_applied: int = 0
    resumed: bool = False
    """A durable ``REBUILD_PROGRESS`` checkpoint existed after recovery
    and the follow-up rebuild restarted from it (resume mode only)."""
    retired_unwritten: int = 0
    """Source pages the rebuild had dropped from the pool unwritten
    (``pool_retired_unwritten``) when the run ended or crashed."""
    dead_images_dropped: int = 0
    """Resident previous incarnations ``new_page`` dropped instead of
    writing (``pool_dead_images_dropped``) during the swept pass."""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verified and self.keyset_ok


def _tally(attr: str) -> property:
    """A report property: ``attr`` summed over the report's outcomes."""
    return property(
        lambda self: sum(int(getattr(o, attr)) for o in self.outcomes)
    )


@dataclass
class _Report:
    """The outcomes of a sweep's schedules, in run order, and their
    tallies."""

    outcomes: list = field(default_factory=list)
    crashes_simulated = _tally("crashed")

    @property
    def schedules_run(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[str]:
        return [
            f"{o.schedule}: {o.error or 'not verified'}"
            for o in self.outcomes
            if not o.ok
        ]

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepReport(_Report):
    """Aggregate of a rebuild sweep — the EXPERIMENTS.md E9 numbers."""

    recoveries_clean = _tally("ok")
    retries_taken = _tally("retries")
    resumes_taken = _tally("resumed")
    """Schedules whose follow-up rebuild restarted from a durable
    ``REBUILD_PROGRESS`` checkpoint (resume mode only)."""


class _Sweeper:
    """``run_sweep`` over a harness's ``enumerate_schedules`` and
    ``run_schedule``; ``Report`` is the harness's report type."""

    Report = SweepReport

    def run_sweep(
        self,
        schedules: list[Schedule] | None = None,
        stride: int = 1,
        limit: int | None = None,
    ) -> _Report:
        """Run (a stride-sample of) the enumerated schedules."""
        if schedules is None:
            schedules = self.enumerate_schedules()
        report = self.Report()
        for schedule in schedules[::stride][:limit]:
            report.outcomes.append(self.run_schedule(schedule))
        return report


def _io_mode_pinned(method):  # noqa: ANN001, ANN202
    """Run a harness method with every rebuild's I/O mode pinned to the
    ``pipelined`` flag, not picked from device timings: a sweep replays
    call ordinals, so all of its runs must pick alike."""

    @functools.wraps(method)
    def pinned(self, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003, ANN202
        with mock.patch.object(
            rebuild_module, "PIPELINE_MIN_SERVICE",
            0.0 if self.pipelined else math.inf,
        ):
            return method(self, *args, **kwargs)

    return pinned


class CrashScheduleHarness(_Sweeper):
    """Build → fragment → rebuild-under-OLTP, crashed everywhere in turn.

    ``key_count`` sizes the index (2000 keys ≈ 14 half-empty leaves with
    2 KB pages, enough for several rebuild transactions at ``ntasize=4`` /
    ``xactsize=8``).  All randomness derives from ``seed``, so schedule
    runs replay the enumeration run exactly.  Between rebuild
    transactions two OLTP ops run; the physical I/O size is 8 KB, over
    the page size, so the large-I/O ``read_run`` path (§6.3) is swept
    alongside single-page reads.
    """

    def __init__(
        self,
        key_count: int = 2000,
        seed: int = 11,
        buffer_capacity: int = 2048,
        finish_after_recovery: bool = False,
        resume_after_recovery: bool = False,
        pipelined: bool = False,
        fillfactor: float = 1.0,
        warm_passes: int = 0,
    ) -> None:
        self.key_count = key_count
        self.seed = seed
        self.buffer_capacity = buffer_capacity
        self.finish_after_recovery = finish_after_recovery
        """Also re-run the rebuild to completion after each recovery and
        re-verify — proves restartability on every schedule (slower)."""
        self.resume_after_recovery = resume_after_recovery
        """Like ``finish_after_recovery``, but the follow-up rebuild goes
        through :class:`RebuildSupervisor` with the recovered
        ``REBUILD_PROGRESS`` checkpoint, and a ``rebuild.nta_end`` hook
        asserts that no top action re-copies a unit at or below the
        durable progress key — the PR 7 no-repaid-work guarantee."""
        self.pipelined = pipelined
        """The benchmark's ``tuned`` shape: the rebuild as it runs on a
        slow device (write-behind + read-ahead threads; off keeps the
        sweep single-threaded and its call ordinals exact).  With a
        ``buffer_capacity`` well under the leaf count the threads put
        eviction's run writes and :meth:`BufferPool.retire_page` on
        every schedule's path; the I/O threads make disk-call ordinals
        approximate: the nth call may come from another thread than
        during enumeration, and a count that comes up short simply yields
        a clean (uncrashed) run.  The correctness check is unaffected
        either way — ``expected`` tracks exactly the ops that completed
        before whatever crash actually happened."""
        self.fillfactor = fillfactor
        self.warm_passes = warm_passes
        """Complete passes run before the one that is swept, each (and the
        swept one) preceded by committed inserts spread over the leaves
        (:meth:`_touch_leaves`).  On a pool that holds the index those
        leaves keep their pending logged change when a pass deallocates
        them (``retire_page`` clause (d)) and are still resident when
        they are freed; a later pass that is handed their ids again has
        ``BufferPool.new_page`` drop dead images whose stored copy is
        behind the log.  It takes two: the index is built by random
        inserts, so the first pass is what lays leaves out in one
        contiguous chunk, the second frees that chunk, and the swept
        third pass's chunk allocator takes it back."""

    # ------------------------------------------------------------- scenario

    def _config(self) -> RebuildConfig:
        return RebuildConfig(ntasize=4, xactsize=8, fillfactor=self.fillfactor)

    def _build(self, plan: FaultPlan):
        """Fresh engine + index, filled and fragmented; returns
        (engine, tree, expected-key-set)."""
        engine = Engine(
            buffer_capacity=self.buffer_capacity,
            lock_timeout=15.0,
            io_size=8192,
            fault_plan=plan,
            # The one retry budget (the pool's): an armed transient fault
            # must be ridden out, never turned into an abort.
            io_retry_limit=20,
        )
        tree, expected = _fragmented_index(engine, self.key_count, self.seed)
        # Cold-start the rebuild: with everything evicted, the copy phase
        # reads source leaves from disk, so read/read_run fault sites exist.
        engine.ctx.buffer.evict_all()
        for warm in range(self.warm_passes):
            self._touch_leaves(tree, expected, warm)
            OnlineRebuild(tree, self._config()).run()
        if self.warm_passes:
            self._touch_leaves(tree, expected, self.warm_passes)
        return engine, tree, expected

    def _touch_leaves(self, tree, expected: set[int], round_: int) -> None:
        """Committed inserts of keys the fragmentation deleted, every
        ``stride``-th of them: each lands in another leaf the coming pass
        has not copied yet — the first of a run (its P1) as often as any
        other — and leaves it with a logged change no write has stored."""
        stride = 2 * (5 + round_)  # another set of leaves every round
        for k in range(2 * round_, self.key_count, stride):
            if k not in expected:
                tree.insert(_key(k), k)
                expected.add(k)

    def _attach_oltp(self, engine: Engine, tree, expected: set[int]) -> list:
        """OLTP between rebuild transactions: deterministic inserts of
        fresh keys and deletes of surviving keys.  ``expected`` is updated
        only after an op returns, so it tracks exactly the committed
        (durable — commit flushes the log) logical state at any crash."""
        rng = random.Random(self.seed + 7919)
        fresh = {"next": self.key_count}
        deletable = sorted(expected)
        applied: list[tuple[str, int]] = []

        def ops(_ctx: dict) -> None:
            for _ in range(2):
                if rng.random() < 0.5 or not deletable:
                    k = fresh["next"]
                    fresh["next"] += 1
                    tree.insert(_key(k), k)
                    expected.add(k)
                    applied.append(("insert", k))
                else:
                    k = deletable.pop(rng.randrange(len(deletable)))
                    tree.delete(_key(k), k)
                    expected.discard(k)
                    applied.append(("delete", k))

        engine.syncpoints.on("rebuild.txn_committed", ops)
        return applied

    # ---------------------------------------------------------- enumeration

    @_io_mode_pinned
    def enumerate_schedules(
        self, include_faults: bool = True
    ) -> list[Schedule]:
        """One clean instrumented run; returns every schedule it exposes."""
        plan = FaultPlan(seed=self.seed)
        engine, tree, expected = self._build(plan)
        self._attach_oltp(engine, tree, expected)
        faulty = engine.ctx.disk  # the FaultyDisk wrapper
        calls_before = dict(faulty.calls)
        schedules = _crash_points(
            engine, "rebuild.", OnlineRebuild(tree, self._config()).run
        )
        if include_faults:
            # Not the single-page writes of a small pool's evictions and
            # write-behind: each overwrites a page in place, and a tear of
            # one born before the last checkpoint (the root) loses the
            # only image redo could start from — recover() raises.
            schedules += _write_faults(
                faulty, calls_before, ops=("write_many",)
            )
            for op in ("read", "read_run"):
                count = faulty.calls[op] - calls_before[op]
                schedules.extend(
                    Schedule(
                        kind="fault", op=op, nth=calls_before[op] + nth,
                        fault=FaultKind.TRANSIENT, crash=False,
                    )
                    for nth in (
                        sorted({1, (count + 1) // 2, count}) if count else ()
                    )
                )
        return schedules

    # ------------------------------------------------------------- one run

    @_io_mode_pinned
    def run_schedule(self, schedule: Schedule) -> ScheduleOutcome:
        """Replay the scenario with one crash/fault armed; verify recovery."""
        outcome = ScheduleOutcome(schedule=schedule.label())
        engine, tree, expected = self._build(
            _armed_plan(self.seed, schedule)
        )
        applied = self._attach_oltp(engine, tree, expected)
        if schedule.kind == "syncpoint":
            # Hooks run in registration order, so the OLTP hook's ops at
            # the crash's own ordinal complete first; `expected` counts
            # completed ops, so either order would be sound.
            _arm_crash(engine, schedule)

        retries_before = engine.counters.io_retries
        dropped_before = engine.counters.pool_dead_images_dropped
        try:
            OnlineRebuild(tree, self._config()).run()
        except CrashPoint:
            outcome.crashed = True
        except RebuildAbortedError as exc:
            outcome.error = f"rebuild aborted instead of surviving: {exc}"
            return outcome
        except Exception as exc:  # noqa: BLE001 - report, don't propagate
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.retries = engine.counters.io_retries - retries_before
        outcome.oltp_ops_applied = len(applied)
        outcome.retired_unwritten = engine.counters.pool_retired_unwritten
        outcome.dead_images_dropped = (
            engine.counters.pool_dead_images_dropped - dropped_before
        )
        # A lost write's crash never fired (no disk call followed the lie).
        # Crash now: the lost pages must come back via redo.
        outcome.crashed = outcome.crashed or engine.ctx.disk.crash_armed

        try:
            if outcome.crashed:
                engine.crash()
                engine.ctx.disk.disarm()
                engine.recover()
                tree = engine.index(1)
            outcome.recovered = True
            tree.verify()
            outcome.verified = True
            got = {int.from_bytes(k, "big") for k, _rid in tree.contents()}
            outcome.keyset_ok = got == expected
            if not outcome.keyset_ok:
                missing = sorted(expected - got)[:5]
                extra = sorted(got - expected)[:5]
                outcome.error = (
                    f"key set diverged: missing={missing} extra={extra} "
                    f"(|expected|={len(expected)}, |got|={len(got)})"
                )
            elif outcome.crashed and (
                self.resume_after_recovery or self.finish_after_recovery
            ):
                if self.resume_after_recovery:
                    self._finish_resumed(outcome, engine, tree)
                else:
                    OnlineRebuild(tree, self._config()).run()
                    tree.verify()
                got = {int.from_bytes(k, "big") for k, _ in tree.contents()}
                if got != expected:
                    outcome.keyset_ok = False
                    outcome.error = "key set diverged after the follow-up rebuild"
            if outcome.error is None:
                leftover = left_behind(engine)
                if leftover != NOTHING_LEFT:
                    outcome.error = f"left behind: {leftover}"
        except Exception as exc:  # noqa: BLE001 - report, don't propagate
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def _finish_resumed(
        self, outcome: ScheduleOutcome, engine: Engine, tree
    ) -> None:
        """Drive the interrupted rebuild to completion through the
        supervisor, asserting the no-repaid-work guarantee: every top
        action of the resumed run copies units strictly above the durable
        progress floor (``RebuildCheckpoint.resume_key``) that recovery
        rebuilt.  Schedules that crashed before any progress record
        became durable simply restart from the first leaf (no
        checkpoint) — still supervised, with nothing to assert about the
        floor."""
        checkpoint = engine.rebuild_checkpoint(1)
        floor = checkpoint.resume_key() if checkpoint is not None else None
        violations: list[bytes] = []
        if floor is not None:

            def check_floor(ctx: dict) -> None:
                low = ctx.get("low_unit") or b""
                if low and low <= floor:
                    violations.append(low)

            engine.syncpoints.on("rebuild.nta_end", check_floor)
        RebuildSupervisor(tree, self._config()).run(
            resume_checkpoint=checkpoint
        )
        outcome.resumed = checkpoint is not None
        tree.verify()
        if violations:
            outcome.keyset_ok = False
            outcome.error = (
                f"resumed rebuild re-copied {len(violations)} unit(s) at "
                f"or below the durable progress floor {floor!r}"
            )


# ------------------------------------------------------------- scrub sweeps

VICTIM_ORDINAL = 2  # which leaf, left to right, the scrub sweep rots
ROT_BIT = 700  # the bit of its stored image it flips


@dataclass
class ScrubScheduleOutcome:
    """What one scrub crash schedule observed."""

    schedule: str
    crashed: bool = False
    recovered: bool = False
    refenced: bool = False
    """Recovery reconstructed at least one quarantined range from the log."""
    final_quarantined: int = 0
    """Standing quarantined ranges after the post-recovery scrub pass."""
    healed: bool = False
    """Every expected key was readable at the end (no data loss)."""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class ScrubSweepReport(_Report):
    """Aggregate of a scrub crash sweep — the EXPERIMENTS.md E13 numbers."""

    refences_seen = _tally("refenced")
    heals = _tally("healed")
    quarantines_standing = _tally("final_quarantined")


class ScrubCrashHarness(_Sweeper):
    """Crash the scrubber's detect → quarantine → write-back → lift ladder
    at every ``scrub.*`` syncpoint and fault every write the pass makes,
    then check recovery's quarantine story.

    Scenario: build and fragment an index, ``checkpoint(truncate=True)``
    (so WAL replay of the damage is off the table), plant silent rot in a
    committed leaf via :meth:`FaultyDisk.plant_rot` while its frame is
    still resident-clean, then run one scrub pass — which must detect the
    rot, quarantine the range, write the resident frame (the
    authoritative copy) back over the rotted slot and lift the fence.
    Each schedule replays this with a crash armed at the *n*-th firing of
    one ``scrub.*`` syncpoint, or with one of :func:`_write_faults`'s
    faults armed on the pass's writes, then recovers and asserts:

    * recovery returns, and any quarantine it reconstructs came from a
      durably-flushed ``QUARANTINE`` set (never invented, never kept
      after a durable lift — "correctly reconstructed or safely dropped");
    * no reader ever sees a raw :class:`ChecksumError`: every expected
      key either reads back or fails fast with
      :class:`QuarantinedRangeError` inside a standing fence;
    * a follow-up scrub pass converges: either the range healed (the
      write-back reached the device before the crash) and every key is
      back with the fence lifted, or the crash lost the only good copy
      (the resident frame died with the power) and the range stays
      fenced — bounded degradation, with every key *outside* it intact;
    * nothing is left behind: no pin, latch, address lock or protocol
      bit on any page (the rotted page behind a standing fence is
      checked for latches and locks only).
    """

    Report = ScrubSweepReport

    def __init__(self, key_count: int = 1200, seed: int = 13) -> None:
        self.key_count = key_count
        self.seed = seed

    def _build(self, plan: FaultPlan):
        """Fresh rotted scenario; returns (engine, tree, expected, lost)."""
        engine = Engine(
            buffer_capacity=2048, lock_timeout=15.0, fault_plan=plan
        )
        tree, expected = _fragmented_index(engine, self.key_count, self.seed)
        engine.checkpoint(truncate=True)
        leaves = tree.verify().leaf_page_ids
        victim = leaves[VICTIM_ORDINAL % len(leaves)]
        page = engine.ctx.buffer.fetch(victim)
        lost = {int.from_bytes(u[: tree.key_len], "big") for u in page.rows}
        engine.ctx.buffer.unpin(victim)
        if not engine.ctx.disk.plant_rot(victim, bit=ROT_BIT):
            raise RuntimeError(f"no stored image for victim page {victim}")
        return engine, tree, expected, lost

    def enumerate_schedules(
        self, include_faults: bool = True
    ) -> list[Schedule]:
        """One instrumented scrub pass; every ``scrub.*`` firing becomes a
        crash schedule, and every write the pass makes a fault family."""
        engine, tree, _expected, _lost = self._build(FaultPlan(seed=self.seed))
        faulty = engine.ctx.disk
        calls_before = dict(faulty.calls)
        schedules = _crash_points(engine, "scrub.", Scrubber(tree).run_pass)
        if include_faults:
            schedules += _write_faults(faulty, calls_before)
        return schedules

    def run_schedule(self, schedule: Schedule) -> ScrubScheduleOutcome:
        outcome = ScrubScheduleOutcome(schedule=schedule.label())
        engine, tree, expected, lost = self._build(
            _armed_plan(self.seed, schedule)
        )
        if schedule.kind == "syncpoint":
            _arm_crash(engine, schedule)
        try:
            Scrubber(tree).run_pass()
        except CrashPoint:
            outcome.crashed = True
        except Exception as exc:  # noqa: BLE001 - report, don't propagate
            outcome.error = f"scrub pass: {type(exc).__name__}: {exc}"
            return outcome
        # A lost write's crash fires at the next disk call; if the pass
        # made none, the power fails now.
        outcome.crashed = outcome.crashed or engine.ctx.disk.crash_armed
        try:
            if outcome.crashed:
                engine.crash()
                engine.ctx.disk.disarm()
                report = engine.recover()
                outcome.refenced = bool(report.quarantine_ranges)
                tree = engine.index(1)
            outcome.recovered = True
            # Converge: up to two follow-up passes (detect + confirm-lift).
            scrubber = Scrubber(tree)
            scrubber.run_pass()
            scrubber.run_pass()
            standing = engine.quarantine.ranges(tree.index_id)
            outcome.final_quarantined = len(standing)
            readable, fenced = set(), set()
            for k in sorted(expected):
                try:
                    if tree.contains(_key(k), k):
                        readable.add(k)
                    else:
                        outcome.error = f"key {k} silently missing"
                        return outcome
                except QuarantinedRangeError:
                    fenced.add(k)
            outcome.healed = not fenced
            if outcome.healed:
                if standing:
                    outcome.error = (
                        f"no keys fenced but {len(standing)} quarantined "
                        "range(s) still standing"
                    )
                    return outcome
                tree.verify()
            else:
                if not standing:
                    outcome.error = "keys fenced without a standing range"
                    return outcome
                if not lost <= fenced:
                    outcome.error = (
                        f"rotted keys outside the fence: "
                        f"{sorted(lost - fenced)[:5]}"
                    )
                    return outcome
            leftover = left_behind(
                engine,
                unreadable=set(engine.ctx.disk.rot_sites) if standing else (),
            )
            if leftover != NOTHING_LEFT:
                outcome.error = f"left behind: {leftover}"
        except Exception as exc:  # noqa: BLE001 - report, don't propagate
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome


def run_random_schedule(seed: int, **harness_kwargs) -> ScheduleOutcome:
    """Randomized smoke: pick one enumerated schedule by ``seed`` and run it.

    CI prints the seed on failure; replaying with the same seed reproduces
    the exact schedule (the harness itself stays fully deterministic).
    """
    harness = CrashScheduleHarness(**harness_kwargs)
    schedules = harness.enumerate_schedules()
    schedule = schedules[random.Random(seed).randrange(len(schedules))]
    return harness.run_schedule(schedule)
