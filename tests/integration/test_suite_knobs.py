"""Deleting a knob may never silently change a benchmark workload.

``benchmarks/suite/harness.py`` builds its configurations through
``declared()``, which drops every keyword the engine no longer declares —
so that a change can delete an option without editing the suite.  The
price is that deleting an option the suite *does* ask for would quietly
turn the ``tuned`` profile into something else.  This pins what the suite
asks for to what it gets.
"""

import ast
import dataclasses
import importlib.util
import inspect
import pathlib

from repro import Engine
from repro.core.config import RebuildConfig

_SUITE = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "suite"
_HARNESS = _SUITE / "harness.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("suite_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


H = _load_harness()


def _extra_knobs() -> set[str]:
    """Every key of an ``extra={...}`` a workload's ``Spec`` passes on to
    ``rebuild_config``."""
    tree = ast.parse((_SUITE / "workloads.py").read_text(encoding="utf-8"))
    return {
        key.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        for kw in call.keywords
        if kw.arg == "extra" and isinstance(kw.value, ast.Dict)
        for key in kw.value.keys
    }


def _tuned_knobs() -> set[str]:
    """Every keyword ``rebuild_config`` adds for the ``tuned`` profile."""
    tree = ast.parse(_HARNESS.read_text(encoding="utf-8"))
    return {
        kw.arg
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "update"
        for kw in call.keywords
    }


def test_tuned_profile_keeps_every_knob_it_asks_for():
    """The suite asks for four keywords it does not get.  Each drop is
    known and meant; any *other* keyword the suite asks for and does not
    get fails here.

    ``parallel_workers=2`` (``rebuild_io``): the tiled rebuild was
    measured and deleted (ROADMAP item 4) — ``rebuild_pages_per_s``
    6 584 → 5 961 (−9.5 %, seed 1, 10 pairs; bound 25 %),
    ``rebuild_io_calls_per_page`` 0.2067 → 0.19793 in every one of 16
    runs.

    ``pipeline_depth=4``, ``group_commit_window=0.002``,
    ``ring_frames=pool // 4`` (the ``tuned`` profile): the rebuild picks
    its I/O mode itself (ROADMAP item 5).  On the parent commit, 5
    alternating ``rebuild_cpu`` cycles each, the window alone and the ring
    alone left 66.785615 log bytes and 0.063347 I/O calls per page to the
    digit and pages/s inside the cycle spread (14 952 [12 141..16 090] →
    13 746 [13 281..15 540] with both on), so the ring is always on and
    the window is held only while a pipelined run lasts; the pipeline
    alone cost −14 % pages/s there (calls per page 0.0664–0.0694, no two
    cycles alike), and is now started by the run only when the pool's
    last three device calls each took ≥ 0.2 ms (≈ 0.02 ms on
    ``rebuild_cpu`` / ``crash_recover``, ≥ 1.02 ms on the three 1 ms
    workloads): ``rebuild_io`` stays at 0.19793 calls per page and
    ``oltp_alone`` at 0.22531, and a start one or two top actions late
    would cost one device call (0.19834 / 0.22573).  ``tuned`` is
    therefore the defaults (docs/performance.md, "How a rebuild picks its
    I/O mode")."""
    assert H.rebuild_config("tuned", 512, parallel_workers=2) == RebuildConfig()
    declared = {f.name for f in dataclasses.fields(RebuildConfig)}
    asked = _extra_knobs() | _tuned_knobs()
    assert asked - declared == {
        "parallel_workers", "pipeline_depth", "group_commit_window",
        "ring_frames",
    }


def test_paper_profile_is_the_defaults():
    assert H.rebuild_config("paper", 32768) == RebuildConfig()


def _engine_knobs() -> set[str]:
    """Every keyword ``build_engine`` puts in the knobs it hands
    ``Engine``: the ``dict(...)`` it starts from and each
    ``knobs[...] = ...`` a profile adds."""
    tree = ast.parse(_HARNESS.read_text(encoding="utf-8"))
    build = next(
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "build_engine"
    )
    asked: set[str] = set()
    for node in ast.walk(build):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "dict":
            asked.update(kw.arg for kw in node.keywords)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            asked.add(node.slice.value)
    return asked


def test_tuned_engine_keeps_every_keyword_it_asks_for():
    """The suite asks ``Engine`` for one keyword it does not get, and the
    drop is known and meant.

    ``pool_shards=4`` (the ``tuned`` engine): the pool's lock striping was
    measured and deleted (ROADMAP item 4).  Four shards → one lock, seed
    1, 10 alternating 15 s pairs, medians: ``rebuild_io`` 6 809 → 6 969
    pages/s, ``oltp_alone`` 6 639 → 6 857 pages/s and 5 061 → 5 051
    req/s, ``oltp_rebuild`` 6 634 → 6 128 pages/s (quartile spread 36 %)
    and 5 061 → 5 069 req/s — every row within its bound, every exact
    count the same (docs/performance.md, "Buffer management")."""
    declared = set(inspect.signature(Engine.__init__).parameters)
    assert _engine_knobs() - declared == {"pool_shards"}
    engine = H.build_engine("tuned", 512)
    assert engine.ctx.buffer.capacity == 512
    assert engine.ctx.page_size == H.PAGE_SIZE
    assert engine.ctx.disk.io_size == H.IO_SIZE
