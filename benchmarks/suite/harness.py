"""Pieces every workload shares: keys, rebuild profiles, the engine
builder, the model the outputs are checked against, and the statistics
helpers.  Nothing here imports ``repro.bench``."""

from __future__ import annotations

import dataclasses
import inspect
import math
import statistics
import struct
import time

from repro import Engine
from repro.core.config import RebuildConfig
from repro.workload.builder import bulk_load

PAGE_SIZE = 2048
IO_SIZE = 16384
KEY_LEN = 4
USER_BYTES_PER_KEY = KEY_LEN + 6
"""A secondary-index entry is the int4 key plus its 6-byte ROWID."""

_KEY = struct.Struct(">I").pack


def key_of(ordinal: int) -> bytes:
    return _KEY(ordinal)


def rowid_of(ordinal: int) -> int:
    return ordinal // 2


# ---------------------------------------------------------------- statistics


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in (0, 1])."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_cycle(values: list[float]) -> dict[str, float]:
    """The figure a workload reports for a timing: the median cycle, with
    quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
    the cycle count, so a burst moves one cycle and not the result."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "cycles": len(values),
    }


# --------------------------------------------------------------- host speed

# The sandbox's speed drifts by tens of percent over minutes (a fixed
# pure-Python loop measured 12.3 to 18.0 ms within one ten-minute span,
# and a fixed rebuild tracked it within 5 %).  Every timed region is
# therefore bracketed by this calibration loop and its CPU-bound part is
# scaled to a host on which one slice takes REFERENCE_SLICE_S; time spent
# waiting (simulated device latency, open-loop gaps) is left as measured.
# The loop lives here, outside the engine, so no engine change moves it.
REFERENCE_SLICE_S = 0.0125
CALIBRATION_SLICES = 9
_PACK = struct.Struct(">IHI").pack
_BLOBS = [bytes([i % 251]) * PAGE_SIZE for i in range(2000)]


def _calibration_slice() -> int:
    """Byte slicing, struct packing, comparisons and integer arithmetic:
    the mix the engine's page and log code is made of.  It keeps a fixed
    small working set and frees nothing large, because page faults cost
    a different amount from one moment to the next on this host."""
    ring: list = [b""] * 4096
    acc = 0
    blobs = _BLOBS
    pivot = blobs[1000][:20]
    for i in range(30000):
        blob = blobs[(i * 37) % 2000]
        at = (i % 200) * 10
        unit = blob[at:at + 10] + _PACK(i, i & 0xFFFF, i)
        ring[i & 4095] = unit
        acc += (i * i) % 7 + (unit > pivot)
    return acc


class Calibrator:
    """Samples how fast the host is right now relative to the reference:
    the reference slice time over the median of a few slices (the median
    drops a burst; the drift it is after lasts many slices).  A sample
    taken moments ago is reused, so back-to-back timed regions share the
    one between them.  Sample only while no other thread of the process
    is busy."""

    def __init__(self) -> None:
        self._when = -1.0
        self._speed = 1.0

    def sample(self) -> float:
        if time.perf_counter() - self._when > 0.02:
            times = []
            for _ in range(CALIBRATION_SLICES):
                t0 = time.process_time()
                _calibration_slice()
                times.append(time.process_time() - t0)
            self._speed = REFERENCE_SLICE_S / statistics.median(times)
            self._when = time.perf_counter()
        return self._speed


def at_reference_speed(wall_s: float, cpu_s: float, speed: float) -> float:
    """``wall_s`` as it would read on the reference host: the busy part
    (process CPU, at most the wall) is scaled by ``speed``, the waiting
    part is kept."""
    busy = min(wall_s, cpu_s)
    return (wall_s - busy) + busy * speed


# -------------------------------------------------------------------- knobs


def declared(target, **wanted):
    """Keep only the keyword arguments ``target`` still declares, so a
    later change can delete a knob without editing the suite.  ``target``
    is a dataclass or any callable."""
    if dataclasses.is_dataclass(target):
        names = {f.name for f in dataclasses.fields(target)}
    else:
        names = set(inspect.signature(target).parameters)
    return {k: v for k, v in wanted.items() if k in names}


def rebuild_config(profile: str, pool: int, **extra) -> RebuildConfig:
    """``paper`` is the defaults; ``tuned`` turns on the pipeline, group
    commit and a scan ring of a quarter of the pool."""
    knobs = dict(extra)
    if profile == "tuned":
        knobs.update(
            pipeline_depth=4,
            group_commit_window=0.002,
            ring_frames=pool // 4,
        )
    elif profile != "paper":
        raise ValueError(f"unknown rebuild profile {profile!r}")
    return RebuildConfig(**declared(RebuildConfig, **knobs))


def build_engine(profile: str, pool: int) -> Engine:
    knobs = dict(page_size=PAGE_SIZE, io_size=IO_SIZE, buffer_capacity=pool)
    if profile == "tuned":
        knobs["pool_shards"] = 4
    return Engine(**declared(Engine.__init__, **knobs))


def load_index(engine: Engine, n_keys: int):
    """Table 1's precondition: the even ordinals at about 50 % fill."""
    keys = [key_of(2 * i) for i in range(n_keys)]
    return bulk_load(engine, keys, KEY_LEN, fill=0.5)


def set_latency(engine: Engine, seconds: float) -> None:
    """The in-memory disk's simulated per-call service time; set after
    set-up so set-up is never slowed."""
    engine.ctx.disk.latency = seconds


# -------------------------------------------------------------------- model


class Model:
    """What the index must hold: every even ordinal below ``2 * n_keys``
    plus the odd ordinals the generator has inserted and not deleted."""

    def __init__(self, n_keys: int) -> None:
        self.n_keys = n_keys
        self.present: list[set[int]] = []
        """One private set of inserted slots per client (slot ``i`` is
        odd ordinal ``2 * i + 1``)."""

    def client_set(self) -> set[int]:
        self.present.append(set())
        return self.present[-1]

    def ordinals(self) -> list[int]:
        odd = [2 * i + 1 for slots in self.present for i in slots]
        return sorted([*range(0, 2 * self.n_keys, 2), *odd])

    def rows(self) -> int:
        return self.n_keys + sum(len(s) for s in self.present)

    def check(self, tree) -> str | None:
        """None when the tree verifies and holds exactly the model."""
        try:
            tree.verify()
        except Exception as exc:  # noqa: BLE001 - any failure fails the run
            return f"verify failed: {type(exc).__name__}: {exc}"
        got = tree.contents()
        want = [(key_of(o), rowid_of(o)) for o in self.ordinals()]
        if got != want:
            return (
                f"contents differ from the model: {len(got)} rows, "
                f"expected {len(want)}"
            )
        return None


def space_ratio(engine: Engine, rows: int) -> float:
    """Allocated pages times page size per byte of user data."""
    pages = len(engine.page_manager.allocated_pages())
    return pages * PAGE_SIZE / (rows * USER_BYTES_PER_KEY)
