"""The five workloads.  Each ``cycle`` builds a fresh engine, runs the
workload's timed region once and checks the outputs; ``run.py`` repeats
cycles and reports the median one.

Every cycle has the same three parts, so every workload yields every
end-to-end metric from work it really does:

* the *job*: the rebuild work of the workload (a pass, passes under
  traffic, or crash, recovery and the resumed pass).  Pages, wall, CPU,
  log bytes and I/O calls are counted over the job's window;
* the *serving* part: closed-loop segments by one client on the index
  the job left behind, which the gated OLTP figures come from; the two
  ``oltp_*`` workloads also run an open-loop phase;
* the check: ``tree.verify()`` and ``tree.contents()`` against the model.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.concurrency.syncpoints import CrashPoint
from repro.core.rebuild import OnlineRebuild

import harness as H
import traffic as T


@dataclass(frozen=True)
class Spec:
    keys: int
    pool: int
    latency: float
    profile: str
    cold: bool = False
    extra: dict = field(default_factory=dict)   # more RebuildConfig knobs
    warmup: int = 100       # untimed requests before any timed serving
    segments: int = 6       # closed-loop segments after the job
    segment_requests: int = 500
    rate: float = 0.0       # open-loop requests per second, all clients
    clients: int = 0
    pre_inserts: int = 0    # committed inserts after the load checkpoint
    setups: int = 1         # how often set-up runs in a one-cycle run
    min_cycles: int = 3


SPECS: dict[str, Spec] = {
    "rebuild_cpu": Spec(
        keys=300_000, pool=32768, latency=0.0, profile="paper",
        min_cycles=4,
    ),
    "rebuild_io": Spec(
        keys=200_000, pool=512, latency=0.001, profile="tuned", cold=True,
        extra={"parallel_workers": 2}, warmup=150, segment_requests=400,
    ),
    # The pool of the two oltp_* workloads holds the whole index: under
    # eviction pressure a concurrent rebuild loses foreground updates (see
    # README, "Found while building it"), and no operation may fail.
    "oltp_alone": Spec(
        keys=200_000, pool=32768, latency=0.001, profile="tuned", cold=True,
        extra={"fillfactor": 0.7}, warmup=300, rate=40.0, clients=2,
        min_cycles=4,
    ),
    "oltp_rebuild": Spec(
        keys=200_000, pool=32768, latency=0.001, profile="tuned", cold=True,
        extra={"fillfactor": 0.7}, warmup=300, segments=12, rate=40.0,
        clients=2, setups=3,
    ),
    "crash_recover": Spec(
        keys=120_000, pool=32768, latency=0.0, profile="paper",
        pre_inserts=12_000,
    ),
}

ONE_CYCLE = ("oltp_rebuild",)
"""Workloads whose run is a single cycle, its open-loop phase sized by
``--seconds``."""


def scaled(spec: Spec, factor: float) -> Spec:
    """``--quick``: the same workload with ``factor`` of the keys and
    requests.  The pool keeps its size, so a quick run checks outputs,
    not cache behaviour."""

    def down(n: int, floor: int) -> int:
        return max(floor, int(n * factor)) if n else 0

    return dataclasses.replace(
        spec,
        keys=down(spec.keys, 4000),
        warmup=down(spec.warmup, 20),
        segment_requests=down(spec.segment_requests, 40),
        pre_inserts=down(spec.pre_inserts, 300),
        setups=1,
        min_cycles=1,
    )


@dataclass
class Window:
    """Counts and times over a timed region.  ``wall_s`` and ``cpu_s``
    are at reference speed (see ``harness.Calibrator``); the ``raw_``
    fields are as measured."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    pages: int = 0
    log_bytes: int = 0
    io_calls: int = 0

    def add(self, other: "Window") -> None:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def at_speed(self, speed: float) -> "Window":
        self.wall_s = H.at_reference_speed(
            self.raw_wall_s, self.raw_cpu_s, speed
        )
        self.cpu_s = self.raw_cpu_s * speed
        return self


@dataclass
class CycleResult:
    setup_s: float = 0.0
    job: Window = field(default_factory=Window)
    space_ratio: float = 0.0
    req_per_s: float = 0.0
    segments: list[T.Samples] = field(default_factory=list)
    """The closed-loop segments: the gated OLTP figures come from them."""
    open_loop: T.Samples | None = None
    """The open-loop phase, where the workload ran one."""
    ops_attempted: int = 0
    ops_failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    """Engine counter deltas over the timed regions (job and serving)."""
    timed_wall_s: float = 0.0
    """Wall of the timed regions (the trace overhead's base)."""
    calibrator: H.Calibrator = field(default_factory=H.Calibrator)
    speeds: list[float] = field(default_factory=list)
    """Host speed of each timed region, in order."""
    rebuild_passes: int = 0
    recovery_s: float = 0.0
    crash_to_rebuilt_s: float = 0.0
    records_redone: int = 0
    records_undone: int = 0


class _Measure:
    """Start/stop bracket over engine counters, wall and process CPU."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.before = engine.counters.snapshot()
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def stop(self) -> tuple[Window, dict[str, int]]:
        cpu = time.process_time() - self.cpu0
        wall = time.perf_counter() - self.wall0
        delta = self.engine.counters.diff(self.before)
        window = Window(
            raw_wall_s=wall, raw_cpu_s=cpu,
            pages=delta.get("leaf_pages_rebuilt", 0),
            log_bytes=delta.get("log_bytes", 0),
            io_calls=delta.get("disk_io_calls", 0),
        )
        return window, delta


@contextmanager
def _timed(engine, result: CycleResult, recorder):
    """A timed region: calibrated, recorded when tracing, its counter
    deltas and wall added to the cycle.  Yields the Window that is filled
    in when the region ends."""
    window = Window()
    before = result.calibrator.sample()
    if recorder is not None:
        recorder.on = True
    measure = _Measure(engine)
    try:
        yield window
    finally:
        measured, delta = measure.stop()
        if recorder is not None:
            recorder.on = False
        speed = (before + result.calibrator.sample()) / 2
        result.speeds.append(speed)
        window.add(measured.at_speed(speed))
        result.timed_wall_s += measured.wall_s
        for name, value in delta.items():
            if value:
                result.counters[name] = result.counters.get(name, 0) + value


def _set_up(spec: Spec, seed: int, result: CycleResult):
    """Fresh engine and index, loaded, checkpointed, and cold if the
    workload says so.  Returns (engine, tree, model, seconds at
    reference speed)."""
    before = result.calibrator.sample()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    engine = H.build_engine(spec.profile, spec.pool)
    tree = H.load_index(engine, spec.keys)
    model = H.Model(spec.keys)
    if spec.pre_inserts:
        # Autocommit inserts: each is acknowledged only after its commit
        # record is flushed, so each must survive the crash.
        slots = model.client_set()
        gen = T.RequestGen(seed, spec.keys, client=7)
        for slot in gen.rnd.sample(range(spec.keys), spec.pre_inserts):
            ordinal = 2 * slot + 1
            tree.insert(H.key_of(ordinal), H.rowid_of(ordinal))
            slots.add(slot)
    if spec.cold:
        engine.checkpoint()
        engine.buffer.evict_all()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    speed = (before + result.calibrator.sample()) / 2
    return engine, tree, model, H.at_reference_speed(wall, cpu, speed)


def _count_requests(result: CycleResult, samples: T.Samples) -> None:
    result.ops_attempted += samples.attempted
    result.ops_failed += samples.failed
    result.errors += samples.errors


def _rebuild(tree, config, result: CycleResult, what="rebuild", **run_kwargs):
    """One pass as one op; a pass that raises is a failed op."""
    result.ops_attempted += 1
    result.rebuild_passes += 1
    try:
        OnlineRebuild(tree, config).run(**run_kwargs)
    except Exception as exc:  # noqa: BLE001 - reported, the run goes on
        result.ops_failed += 1
        result.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def _segments(engine, tree, spec: Spec, gen, present, result: CycleResult,
              recorder) -> None:
    """Closed loop, ONE client (a second CPU-bound Python thread would
    measure interpreter-lock hand-off): the capacity figure is the median
    segment.  Each segment is its own calibrated region.  The simulated
    device latency is off: a sleep cannot be brought to reference speed
    and overshoots by a different amount from run to run, so the gated
    OLTP figures are the engine's own service time, misses included as
    the work they cost; the device shapes the job and the open loop."""
    H.set_latency(engine, 0.0)
    segments = []
    for s in range(spec.segments):
        with _timed(engine, result, recorder):
            samples = T.run_closed(
                tree, gen.take(spec.segment_requests), present, recorder,
                first_id=2_000_000 + s * spec.segment_requests,
            )
        samples.speed = result.speeds[-1]
        segments.append(samples)
        _count_requests(result, samples)
    H.set_latency(engine, spec.latency)
    rates = sorted(s.rate_per_s() for s in segments)
    result.req_per_s = rates[len(rates) // 2]
    result.segments = segments


def _probe(engine, tree, spec: Spec, seed: int, present,
           result: CycleResult, recorder) -> None:
    """Where no open-loop phase runs: an untimed warm-up, then segments
    whose service times are the workload's OLTP figures."""
    gen = T.RequestGen(seed, spec.keys)
    T.run_closed(tree, gen.take(spec.warmup), present)
    _segments(engine, tree, spec, gen, present, result, recorder)


def _finish(engine, tree, model, result: CycleResult) -> None:
    H.set_latency(engine, 0.0)
    result.space_ratio = H.space_ratio(engine, model.rows())
    problem = model.check(tree)
    if problem:
        result.errors.append(problem)
        result.ops_failed += 1


# ------------------------------------------------------------- the workloads


def rebuild_cycle(spec: Spec, seed: int, recorder=None, seconds=0.0,
                  ntasize: int | None = None) -> CycleResult:
    """``rebuild_cpu`` and ``rebuild_io``: one pass, no traffic.  With
    ``ntasize`` only the pass runs (the Table 1 comparison point)."""
    result = CycleResult()
    engine, tree, model, result.setup_s = _set_up(spec, seed, result)
    extra = dict(spec.extra)
    if ntasize is not None:
        extra["ntasize"] = ntasize
    config = H.rebuild_config(spec.profile, spec.pool, **extra)
    H.set_latency(engine, spec.latency)
    with _timed(engine, result, recorder) as result.job:
        _rebuild(tree, config, result)
    if ntasize is None:
        _probe(engine, tree, spec, seed, model.client_set(), result, recorder)
    _finish(engine, tree, model, result)
    return result


class _Passes(threading.Thread):
    """Back-to-back rebuild passes on the index the clients are using."""

    def __init__(self, tree, config, result: CycleResult) -> None:
        super().__init__(name="rebuild-passes")
        self.tree = tree
        self.config = config
        self.result = result
        self.stopping = threading.Event()

    def run(self) -> None:
        result = self.result
        while not self.stopping.is_set() and result.ops_failed < 3:
            _rebuild(self.tree, self.config, result)


def oltp_cycle(spec: Spec, seed: int, recorder=None, seconds=0.0,
               with_rebuild: bool = False) -> CycleResult:
    """``oltp_alone`` rebuilds first and then serves with nothing in the
    background; ``oltp_rebuild`` serves the same traffic while passes run
    back-to-back on the same index.  ``seconds`` is the length of the
    open-loop phase; ``oltp_alone`` skips the phase when it is 0, because
    only per-layer figures come from it there."""
    result = CycleResult()
    setups = []
    for _ in range(spec.setups):
        engine, tree, model, setup_s = _set_up(spec, seed, result)
        setups.append(setup_s)
    result.setup_s = sorted(setups)[len(setups) // 2]
    config = H.rebuild_config(spec.profile, spec.pool, **spec.extra)
    presents = [model.client_set() for _ in range(spec.clients)]
    gens = [
        T.RequestGen(seed, spec.keys, client=c, clients=spec.clients)
        for c in range(spec.clients)
    ]
    schedules = [
        T.open_loop_schedule(g, spec.rate / spec.clients, seconds)
        for g in gens
    ]
    warmup = gens[0].take(spec.warmup)
    H.set_latency(engine, spec.latency)
    if with_rebuild:
        T.run_closed(tree, warmup, presents[0])
        passes = _Passes(tree, config, result)
        with _timed(engine, result, recorder):
            # The job's window is the open-loop phase; the region stays
            # open until the pass in flight has ended.  The window is
            # kept as measured: it is ten seconds of several threads, and
            # two host-speed samples at its ends do not describe it (they
            # widened the spread of ten runs from 13 % to 18 %).
            job = _Measure(engine)
            passes.start()
            phase = T.run_open(tree, schedules, presents, recorder)
            result.job = job.stop()[0].at_speed(1.0)
            passes.stopping.set()
            passes.join()
        _segments(engine, tree, spec, gens[0], presents[0], result, recorder)
    else:
        with _timed(engine, result, recorder) as result.job:
            _rebuild(tree, config, result)
        T.run_closed(tree, warmup, presents[0])
        _segments(engine, tree, spec, gens[0], presents[0], result, recorder)
        phase = None
        if seconds > 0:
            with _timed(engine, result, recorder):
                phase = T.run_open(tree, schedules, presents, recorder)
            phase.speed = result.speeds[-1]
    if phase is not None:
        result.open_loop = phase
        _count_requests(result, phase)
    _finish(engine, tree, model, result)
    return result


def crash_cycle(spec: Spec, seed: int, recorder=None,
                seconds=0.0) -> CycleResult:
    """Crash half way through a pass with unflushed state discarded, time
    recovery and the resumed pass, then probe.  The job's window is
    recovery plus the resumed pass: the gap a user waits for a rebuilt
    index after the failure."""
    result = CycleResult()
    engine, tree, model, result.setup_s = _set_up(spec, seed, result)
    leaves = tree.verify().leaf_pages
    config = H.rebuild_config(spec.profile, spec.pool, **spec.extra)
    xactsize = getattr(config, "xactsize", 256)
    if leaves < 4 * xactsize:
        # A small index (--quick) still needs commits before and after
        # the crash, or there is no durable progress to resume from.
        xactsize = max(getattr(config, "ntasize", 32), leaves // 4)
        config = H.rebuild_config(
            spec.profile, spec.pool, xactsize=xactsize, **spec.extra
        )
    crash_at = max(1, round(leaves / xactsize / 2))
    commits = [0]

    def crash_hook(_ctx: dict) -> None:
        commits[0] += 1
        if commits[0] == crash_at:
            raise CrashPoint("rebuild.txn_committed")

    engine.syncpoints.on("rebuild.txn_committed", crash_hook)
    try:
        OnlineRebuild(tree, config).run()
        result.errors.append("the rebuild finished before the crash point")
        result.ops_failed += 1
    except CrashPoint:
        pass
    engine.syncpoints.remove("rebuild.txn_committed", crash_hook)
    engine.crash()  # drops every frame and the unflushed log tail

    result.ops_attempted += 1
    try:
        with _timed(engine, result, recorder) as recovery:
            report = engine.recover()
    except Exception as exc:  # noqa: BLE001 - nothing left to measure
        result.ops_failed += 1
        result.errors.append(f"recover: {type(exc).__name__}: {exc}")
        return result
    result.recovery_s = recovery.wall_s
    result.records_redone = report.records_redone
    result.records_undone = report.records_undone
    tree = engine.index(1)
    problem = model.check(tree)  # every acknowledged insert survived
    if problem:
        result.ops_failed += 1
        result.errors.append(f"after recovery: {problem}")

    checkpoint = engine.rebuild_checkpoint(1)
    floor = checkpoint.resume_key() if checkpoint is not None else None
    if floor is None:
        result.ops_failed += 1
        result.errors.append("recovery found no rebuild progress to resume")
    recopied = [0]

    def floor_hook(ctx: dict) -> None:
        low = ctx.get("low_unit") or b""
        if floor is not None and low and low <= floor:
            recopied[0] += 1

    engine.syncpoints.on("rebuild.nta_end", floor_hook)
    with _timed(engine, result, recorder) as result.job:
        _rebuild(tree, config, result, "resume", resume_checkpoint=checkpoint)
    engine.syncpoints.remove("rebuild.nta_end", floor_hook)
    result.job.add(recovery)
    result.crash_to_rebuilt_s = result.job.wall_s
    if recopied[0]:
        result.ops_failed += 1
        result.errors.append(
            f"resumed pass re-copied {recopied[0]} unit(s) at or below "
            "the durable floor"
        )
    _probe(engine, tree, spec, seed, model.present[0], result, recorder)
    _finish(engine, tree, model, result)
    return result


CYCLES = {
    "rebuild_cpu": rebuild_cycle,
    "rebuild_io": rebuild_cycle,
    "oltp_alone": oltp_cycle,
    "oltp_rebuild": functools.partial(oltp_cycle, with_rebuild=True),
    "crash_recover": crash_cycle,
}
