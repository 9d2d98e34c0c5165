"""The load generator: seeded requests, one closed-loop client, open-loop
clients timed from the due time.

A request is 90 % ``txn`` (two point lookups on loaded keys, which must
hit, then two writes: insert the client's private odd ordinal if it is
absent, else delete it, so every write does real work) and 10 % ``scan``
(a range scan over 200 loaded keys).  90 % of the keys come from 16 evenly
spaced hot ranges that cover 5 % of the key space, 10 % are uniform.

The engine receives only the generated requests; the seed stays here.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from harness import at_reference_speed, key_of, rowid_of

HOT_RANGES = 16
HOT_SHARE_OF_KEYS = 0.05
HOT_SHARE_OF_PICKS = 0.9
SCAN_SHARE = 0.1
SCAN_ROWS = 200
LATE_MS = 1.0
"""A request counts as started late when it starts more than this after
its due time (a sleeping thread never wakes exactly on time)."""
SLO_MS = 20.0


@dataclass(frozen=True)
class Request:
    kind: str            # "txn" or "scan"
    reads: tuple         # loaded slots to look up (txn), or (first slot,)
    writes: tuple = ()   # private slots to toggle


class RequestGen:
    """Seeded request stream of one client out of ``clients``.

    The shares are exact over every ten draws (one scan in ten requests,
    one uniform key in ten picks, at seeded positions), so two seeds
    differ in which keys they touch and in what order, not in how much
    work they ask for."""

    def __init__(self, seed: int, n_keys: int, client: int = 0,
                 clients: int = 1) -> None:
        self.rnd = random.Random(seed * 1_000_003 + client)
        self.n = n_keys
        self.client = client
        self.clients = clients
        self.hot_len = max(1, int(n_keys * HOT_SHARE_OF_KEYS) // HOT_RANGES)
        self.hot_starts = [
            (n_keys // HOT_RANGES) * h for h in range(HOT_RANGES)
        ]
        self._scan_turns: list[bool] = []
        self._uniform_turns: list[bool] = []

    def _turn(self, pending: list[bool], share: float) -> bool:
        if not pending:
            block = round(1 / share)
            pending.extend([True] + [False] * (block - 1))
            self.rnd.shuffle(pending)
        return pending.pop()

    def _slot(self) -> int:
        rnd = self.rnd
        if self._turn(self._uniform_turns, 1 - HOT_SHARE_OF_PICKS):
            return rnd.randrange(self.n)
        return rnd.choice(self.hot_starts) + rnd.randrange(self.hot_len)

    def _private(self) -> int:
        slot = self._slot()
        slot += self.client - slot % self.clients
        return slot if slot < self.n else slot - self.clients

    def next(self) -> Request:
        if self._turn(self._scan_turns, SCAN_SHARE):
            return Request(
                "scan", (min(self._slot(), self.n - SCAN_ROWS),)
            )
        return Request(
            "txn",
            (self._slot(), self._slot()),
            (self._private(), self._private()),
        )

    def take(self, count: int) -> list[Request]:
        return [self.next() for _ in range(count)]


def open_loop_schedule(gen: RequestGen, rate: float, duration: float):
    """``(due offset, request)`` pairs with exponential gaps at ``rate``
    per second, up to ``duration`` seconds."""
    out = []
    due = 0.0
    while True:
        due += gen.rnd.expovariate(rate)
        if due >= duration:
            return out
        out.append((due, gen.next()))


def execute(tree, req: Request, present: set[int]) -> None:
    """Run one request; raises if the engine answers wrongly."""
    if req.kind == "scan":
        first = req.reads[0]
        lo = key_of(2 * first)
        hi = key_of(2 * (first + SCAN_ROWS - 1))
        rows = 0
        last = b""
        for key, _rowid in tree.scan(lo, hi):
            if not (lo <= key <= hi) or key <= last:
                raise AssertionError(f"scan returned {key!r} out of order")
            last = key
            rows += 1
        if rows < SCAN_ROWS:
            raise AssertionError(f"scan saw {rows} of {SCAN_ROWS} loaded keys")
        return
    for slot in req.reads:
        if not tree.contains(key_of(2 * slot), slot):
            raise AssertionError(f"loaded key of slot {slot} not found")
    for slot in req.writes:
        ordinal = 2 * slot + 1
        if slot in present:
            tree.delete(key_of(ordinal), rowid_of(ordinal))
            present.discard(slot)
        else:
            tree.insert(key_of(ordinal), rowid_of(ordinal))
            present.add(slot)


@dataclass
class Samples:
    """Per-request outcomes of one phase.  A sample is ``(latency ms,
    CPU ms the client's thread spent on the request)``."""

    txn: list[tuple[float, float]] = field(default_factory=list)
    scan: list[tuple[float, float]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    speed: float = 1.0
    """Host speed over the phase (see ``harness.Calibrator``)."""

    def merge(self, other: "Samples") -> None:
        self.txn += other.txn
        self.scan += other.scan
        self.late_ms += other.late_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        """Ascending latencies at reference speed: each request's own CPU
        time is scaled by the host speed, its waiting is kept."""
        pairs = {"txn": self.txn, "scan": self.scan}.get(
            kind, self.txn + self.scan
        )
        speed = self.speed
        return sorted(
            at_reference_speed(ms, cpu, speed) for ms, cpu in pairs
        )

    def rate_per_s(self) -> float:
        """Requests per second of a closed-loop phase at reference speed."""
        return self.attempted / at_reference_speed(
            self.wall_s, self.cpu_s, self.speed
        )

    def _record(self, req: Request, ms: float, cpu_ms: float,
                error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
            return
        (self.scan if req.kind == "scan" else self.txn).append((ms, cpu_ms))


def _attempt(tree, req, present, recorder, request_id) -> str | None:
    try:
        if recorder is None:
            execute(tree, req, present)
        else:
            with recorder.span(f"request.{req.kind}", request=request_id):
                execute(tree, req, present)
    except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
        return f"{req.kind}: {type(exc).__name__}: {exc}"
    return None


def run_closed(tree, requests, present, recorder=None, first_id=0) -> Samples:
    """One client, next request only after the previous one completes."""
    out = Samples()
    perf = time.perf_counter
    cpu = time.thread_time
    start, cpu_start = perf(), cpu()
    for i, req in enumerate(requests):
        t0, c0 = perf(), cpu()
        error = _attempt(tree, req, present, recorder, first_id + i)
        out._record(req, (perf() - t0) * 1e3, (cpu() - c0) * 1e3, error)
    out.wall_s = perf() - start
    out.cpu_s = cpu() - cpu_start
    return out


def run_open(tree, schedules, presents, recorder=None) -> Samples:
    """One thread per schedule; a request is sent at its due time whether
    or not earlier ones have been answered, and timed from that due
    time, so a stall is charged to every request it delays."""
    results = [Samples() for _ in schedules]
    start = time.perf_counter() + 0.05

    def client(idx: int) -> None:
        out = results[idx]
        perf = time.perf_counter
        cpu = time.thread_time
        for n, (offset, req) in enumerate(schedules[idx]):
            due = start + offset
            wait = due - perf()
            if wait > 0:
                time.sleep(wait)
            began, c0 = perf(), cpu()
            error = _attempt(
                tree, req, presents[idx], recorder, idx * 1_000_000 + n
            )
            out._record(
                req, (perf() - due) * 1e3, (cpu() - c0) * 1e3, error
            )
            out.late_ms.append((began - due) * 1e3)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(len(schedules))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = Samples()
    for r in results:
        merged.merge(r)
    merged.wall_s = time.perf_counter() - start
    return merged
