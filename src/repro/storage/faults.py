"""Deterministic fault injection for the storage stack.

The paper's §3 correctness argument (force new pages before freeing old
ones; completed multipage top actions survive any crash) is a claim about
what happens when the disk misbehaves.  This module supplies the
misbehavior, deterministically:

* :class:`FaultPlan` — a seeded schedule of faults.  Site-targeted faults
  fire on the *n*-th call of a given disk operation (``read`` / ``write``
  / ``read_run`` / ``write_many``); rate-based transient faults fire from
  a seeded RNG so storm tests replay bit-identically.
* :class:`FaultyDisk` — a wrapper implementing the full Disk protocol
  around a real :class:`~repro.storage.disk.Disk` (either backing).  It
  injects:

  - **transient** errors (:class:`~repro.errors.TransientIOError`) — the
    buffer pool / io_scheduler retry layer must absorb these;
  - **permanent** errors (:class:`~repro.errors.PermanentIOError`) — the
    rebuild must abort cleanly through its §4.1.3 path;
  - **torn** ``write_many`` — only a prefix of the batch is persisted
    (optionally with the next page torn mid-image), then the call raises
    or the process "crashes" (:class:`~repro.concurrency.syncpoints.CrashPoint`);
  - **lost** writes — the call acks without persisting anything (the
    classic lying disk); with ``crash=True`` the very next disk call
    crashes, before the lie can be papered over;
  - **corruption** — a bit is flipped in the stored physical image before
    a read, so the CRC trailer check fires through the real path.

Torn and corrupt images are planted via the inner disk's
``read_physical`` / ``write_physical`` hooks, so detection happens where
it would in production: the inner disk's CRC verification, not the
injector.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field

from repro.concurrency.syncpoints import CrashPoint
from repro.errors import PermanentIOError, StorageError, TransientIOError
from repro.stats.counters import Counters
from repro.storage.disk import Disk

_INTERCEPTED_OPS = ("read", "write", "read_run", "write_many")


class FaultKind(enum.Enum):
    """What a site-targeted :class:`FaultSpec` does when it fires."""

    TRANSIENT = "transient"
    PERMANENT = "permanent"
    TORN = "torn"
    LOST = "lost"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultSpec:
    """One fault, armed at the ``nth`` call (1-based) of disk op ``op``.

    ``pages_persisted`` (TORN/LOST): how many pages of the sorted
    ``write_many`` batch reach disk before the fault.  ``torn_byte`` >= 0
    additionally tears the *next* page mid-image at that byte offset — the
    classic torn sector.  ``crash``: the fault is a simulated power
    failure (TORN raises :class:`CrashPoint` in place of an I/O error;
    LOST acks, then crashes on the next disk call).  ``bit`` (CORRUPT):
    which bit of the stored physical image to flip.
    """

    op: str
    nth: int
    kind: FaultKind
    pages_persisted: int = 0
    torn_byte: int = -1
    crash: bool = False
    bit: int = 0

    def __post_init__(self) -> None:
        if self.op not in _INTERCEPTED_OPS:
            raise StorageError(f"cannot inject into disk op {self.op!r}")
        if self.nth < 1:
            raise StorageError(f"fault nth must be >= 1, got {self.nth}")

    def label(self) -> str:
        extra = ""
        if self.kind in (FaultKind.TORN, FaultKind.LOST):
            extra = f"@{self.pages_persisted}"
            if self.torn_byte >= 0:
                extra += f"+tear{self.torn_byte}"
        if self.crash:
            extra += "+crash"
        return f"{self.kind.value}:{self.op}#{self.nth}{extra}"


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Site-targeted faults are registered with :meth:`at` and fire exactly
    once.  Rate-based transient faults fire with the given probability per
    intercepted call, from ``random.Random(seed)`` — the same seed replays
    the same storm.  ``max_rate_faults`` caps the storm (None = unlimited).
    """

    def __init__(
        self,
        seed: int = 0,
        transient_read_rate: float = 0.0,
        transient_write_rate: float = 0.0,
        max_rate_faults: int | None = None,
    ) -> None:
        self.seed = seed
        self.transient_read_rate = transient_read_rate
        self.transient_write_rate = transient_write_rate
        self.max_rate_faults = max_rate_faults
        self._rng = random.Random(seed)
        self._specs: dict[tuple[str, int], FaultSpec] = {}
        self._rate_fired = 0
        self.injected: list[str] = []
        """Labels of every fault that actually fired, in order."""

    def at(self, spec: FaultSpec) -> "FaultPlan":
        """Arm a site-targeted fault; chainable."""
        key = (spec.op, spec.nth)
        if key in self._specs:
            raise StorageError(f"fault already armed at {spec.op}#{spec.nth}")
        self._specs[key] = spec
        return self

    def take(self, op: str, nth: int) -> FaultSpec | None:
        """The spec armed at this call site, consumed (fires once)."""
        return self._specs.pop((op, nth), None)

    def roll_transient(self, op: str) -> bool:
        """Seeded per-call dice for the rate-based transient storm."""
        rate = (
            self.transient_read_rate
            if op in ("read", "read_run")
            else self.transient_write_rate
        )
        if rate <= 0.0:
            return False
        if (
            self.max_rate_faults is not None
            and self._rate_fired >= self.max_rate_faults
        ):
            return False
        if self._rng.random() >= rate:
            return False
        self._rate_fired += 1
        return True

    def record(self, label: str) -> None:
        self.injected.append(label)


class FaultyDisk:
    """Disk-protocol wrapper that injects the faults a :class:`FaultPlan`
    schedules.  Everything not intercepted delegates to the inner disk."""

    def __init__(
        self,
        inner: Disk,
        plan: FaultPlan,
        counters: Counters | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.counters = counters if counters is not None else inner.counters
        self.calls: dict[str, int] = {op: 0 for op in _INTERCEPTED_OPS}
        """Per-op call counts — the crash-schedule harness enumerates
        injection sites from these."""
        self.write_many_sizes: list[int] = []
        """Batch size of every write_many call, for torn-prefix choices."""
        self.rot_sites: list[int] = []
        """Page ids corrupted via :meth:`plant_rot`, in planting order —
        the scrubber tests assert every site is found within one pass."""
        self._lock = threading.Lock()
        self._crash_armed = False

    def __getattr__(self, name: str):
        # exists / drop / page_ids / seal / verdict / physical hooks /
        # close / attrs: pass through untouched.
        return getattr(self.inner, name)

    @property
    def crash_armed(self) -> bool:
        """A lost write armed a crash that has not fired yet."""
        with self._lock:
            return self._crash_armed

    def disarm(self) -> None:
        """Forget armed crash state — the simulated machine rebooted, and
        recovery runs against a disk that is now behaving."""
        with self._lock:
            self._crash_armed = False

    def plant_rot(self, page_id: int, bit: int = 0) -> bool:
        """Corrupt the stored image of ``page_id`` *now* (scrub-site
        targeting): flip one bit of the physical blob so the CRC trailer
        no longer matches.  Unlike a :class:`FaultSpec` CORRUPT — which
        arms on the *n*-th ``read`` call — this plants silent rot that
        nothing notices until the integrity scrubber's physical sweep or
        an unlucky refetch.  Returns False when nothing is stored yet.
        """
        if not self._flip_bit(page_id, bit, f"rot:page{page_id}@bit{bit}"):
            return False
        with self._lock:
            self.rot_sites.append(page_id)
        return True

    def _flip_bit(self, page_id: int, bit: int, label: str) -> bool:
        """Flip one bit of the stored slot in place, so the normal read
        path detects it via the CRC trailer; False when nothing is stored."""
        blob = self.inner.read_physical(page_id)
        if blob is None:
            return False
        flipped = bytearray(blob)
        flipped[(bit // 8) % len(flipped)] ^= 1 << (bit % 8)
        self.inner.write_physical(page_id, bytes(flipped))
        self.counters.add("faults_injected")
        self.plan.record(label)
        return True

    # ------------------------------------------------------------- injection

    def _enter(self, op: str) -> FaultSpec | None:
        with self._lock:
            if self._crash_armed:
                raise CrashPoint("disk.crash_after_lost_write")
            self.calls[op] += 1
            nth = self.calls[op]
        return self.plan.take(op, nth)

    def _fire(self, spec: FaultSpec) -> None:
        """Raise the error a non-write-specific spec calls for."""
        self.counters.add("faults_injected")
        self.plan.record(spec.label())
        if spec.crash:
            raise CrashPoint(f"disk.{spec.op}#{spec.nth}")
        if spec.kind is FaultKind.PERMANENT:
            raise PermanentIOError(
                f"injected permanent {spec.op} failure (call #{spec.nth})"
            )
        raise TransientIOError(
            f"injected transient {spec.op} failure (call #{spec.nth})"
        )

    def _maybe_rate_transient(self, op: str) -> None:
        if self.plan.roll_transient(op):
            self.counters.add("faults_injected")
            self.plan.record(f"transient-rate:{op}")
            raise TransientIOError(f"injected transient {op} error (storm)")

    # ------------------------------------------------------------------ reads

    def read(self, page_id: int) -> bytes:
        spec = self._enter("read")
        if spec is not None:
            if spec.kind is FaultKind.CORRUPT:
                self._flip_bit(page_id, spec.bit, spec.label())
            else:
                self._fire(spec)
        self._maybe_rate_transient("read")
        return self.inner.read(page_id)

    def read_run(self, start_page: int, count: int) -> list[bytes | None]:
        spec = self._enter("read_run")
        if spec is not None:
            if spec.kind is FaultKind.CORRUPT:
                self._flip_bit(start_page, spec.bit, spec.label())
            else:
                self._fire(spec)
        self._maybe_rate_transient("read_run")
        return self.inner.read_run(start_page, count)

    # ----------------------------------------------------------------- writes

    def write(self, page_id: int, data: bytes) -> None:
        spec = self._enter("write")
        if spec is not None:
            if spec.kind in (FaultKind.TORN, FaultKind.LOST):
                self._torn_single(page_id, data, spec)
                return
            self._fire(spec)
        self._maybe_rate_transient("write")
        self.inner.write(page_id, data)

    def write_many(self, items: dict[int, bytes]) -> None:
        spec = self._enter("write_many")
        with self._lock:
            self.write_many_sizes.append(len(items))
        if spec is not None:
            if spec.kind in (FaultKind.TORN, FaultKind.LOST):
                self._torn_batch(items, spec)
                return
            self._fire(spec)
        self._maybe_rate_transient("write")
        self.inner.write_many(items)

    def _torn_single(self, page_id: int, data: bytes, spec: FaultSpec) -> None:
        self._torn_batch({page_id: data}, spec)

    def _torn_batch(self, items: dict[int, bytes], spec: FaultSpec) -> None:
        """Persist only a prefix of the batch (disk order: sorted ids),
        optionally tearing the first unpersisted page mid-image; then fail
        or crash (TORN), or ack the lie (LOST)."""
        ids = sorted(items)
        keep = max(0, min(spec.pages_persisted, len(ids)))
        persisted = {pid: items[pid] for pid in ids[:keep]}
        if persisted:
            self.inner.write_many(persisted)
        if spec.torn_byte >= 0 and keep < len(ids):
            victim = ids[keep]
            new_phys = self.inner.seal(items[victim])
            old_phys = self.inner.read_physical(victim)
            if old_phys is None:
                old_phys = b"\x00" * len(new_phys)
            cut = max(1, min(spec.torn_byte, len(new_phys) - 1))
            self.inner.write_physical(
                victim, new_phys[:cut] + old_phys[cut:]
            )
        self.counters.add("faults_injected")
        self.plan.record(spec.label())
        if spec.kind is FaultKind.TORN:
            if spec.crash:
                raise CrashPoint(f"disk.write_many#{spec.nth}.torn")
            raise TransientIOError(
                f"injected torn write_many (call #{spec.nth}, "
                f"{keep}/{len(ids)} pages persisted)"
            )
        # LOST: ack without having persisted the suffix.  With crash=True
        # the next disk call simulates the power failure that exposes the lie.
        if spec.crash:
            with self._lock:
                self._crash_armed = True
