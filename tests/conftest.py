"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from repro import Engine
from repro.btree.tree import BTree
from repro.core import rebuild as rebuild_module
from repro.storage import page as page_module

# Cross-check the incremental page byte-accounting cache against a full
# recompute on every used_bytes read, for the whole suite.
page_module.set_debug_accounting(True)


def intkey(i: int) -> bytes:
    """4-byte big-endian key used throughout the tests."""
    return i.to_bytes(4, "big")


@pytest.fixture
def engine() -> Engine:
    """A fresh engine with a moderately sized buffer pool."""
    return Engine(buffer_capacity=2048, lock_timeout=15.0)


@pytest.fixture
def index(engine: Engine) -> BTree:
    """An empty 4-byte-key index on a fresh engine."""
    return engine.create_index(key_len=4)


@pytest.fixture
def pipelined(monkeypatch) -> None:
    """Every rebuild in the test starts its I/O threads before its first
    top action, whatever the device's service time (what a rebuild picks
    by itself on a slow device)."""
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", 0.0)


@pytest.fixture
def unpipelined(monkeypatch) -> None:
    """No rebuild in the test starts I/O threads: every disk call is made
    by the copy thread, in a repeatable order."""
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", math.inf)


def fill_index(index: BTree, count: int, seed: int | None = 42) -> list[int]:
    """Insert keys 0..count-1 (shuffled unless seed is None); returns order."""
    order = list(range(count))
    if seed is not None:
        random.Random(seed).shuffle(order)
    for k in order:
        index.insert(intkey(k), k)
    return order


def make_half_empty(index: BTree, count: int, seed: int = 42) -> list[int]:
    """Fill with ``count`` keys then delete the even ones; returns survivors."""
    fill_index(index, count, seed)
    for k in range(0, count, 2):
        index.delete(intkey(k), k)
    return [k for k in range(count) if k % 2 == 1]


def contents_as_ints(index: BTree) -> list[int]:
    return [int.from_bytes(key, "big") for key, _rowid in index.contents()]


def pinned_ids(engine: Engine) -> list[int]:
    """Pages with a pin on them right now (none, between top actions)."""
    pool = engine.buffer
    return [pid for pid in pool._resident_ids() if pool.pin_count(pid)]
