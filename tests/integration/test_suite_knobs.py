"""Deleting a knob may never silently change a benchmark workload.

``benchmarks/suite/harness.py`` builds its configurations through
``declared()``, which drops every keyword the engine no longer declares —
so that a change can delete an option without editing the suite.  The
price is that deleting an option the suite *does* ask for would quietly
turn the ``tuned`` profile into something else.  This pins what the suite
asks for to what it gets.
"""

import importlib.util
import pathlib

from repro.core.config import RebuildConfig

_HARNESS = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "suite" / "harness.py"
)


def _load_harness():
    spec = importlib.util.spec_from_file_location("suite_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


H = _load_harness()


def test_tuned_profile_keeps_every_knob_it_asks_for():
    config = H.rebuild_config("tuned", 512, parallel_workers=2)
    assert config == RebuildConfig(
        pipeline_depth=4,
        group_commit_window=0.002,
        ring_frames=128,
        parallel_workers=2,
    )


def test_paper_profile_is_the_defaults():
    assert H.rebuild_config("paper", 32768) == RebuildConfig()


def test_tuned_engine_has_a_striped_pool():
    engine = H.build_engine("tuned", 512)
    pool = engine.ctx.buffer
    assert pool.n_shards == 4
    assert pool.capacity == 512
    assert engine.ctx.page_size == H.PAGE_SIZE
    assert engine.ctx.disk.io_size == H.IO_SIZE
    assert H.build_engine("paper", 512).ctx.buffer.n_shards == 1
