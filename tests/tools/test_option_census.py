"""Every option has a setter that is not a test.

For each ``RebuildConfig`` and ``ScrubConfig`` field and each keyword
parameter of ``Engine``, ``BufferPool``, ``IOScheduler`` and
``QuarantineMap``, some file under ``src/`` or ``benchmarks/`` — not
``tests/``, not ``examples/`` — passes the name by keyword or as a dict
key (the declaration itself is neither).  An option only tests set is one
value in use and a second path nobody runs: it fails here the day it
appears, and the fix is a constant (ROADMAP, "quality of design").
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro import Engine, RebuildConfig
from repro.core.scrubber import ScrubConfig
from repro.quarantine import QuarantineMap
from repro.storage.buffer import BufferPool
from repro.storage.io_scheduler import IOScheduler

ROOT = Path(__file__).resolve().parents[2]

WAIVED = {
    # Detect-and-report-only scrubbing is the mode an operator runs before
    # trusting the repair ladder with a damaged index, and the reference
    # the false-positive property tests compare against; nothing in
    # ``src/`` or ``benchmarks/`` scrubs yet (ROADMAP item 3's
    # ``oltp_scrub`` row).
    "repair",
}


def names_passed() -> set[str]:
    """Keyword-argument names and string dict keys of everything under
    ``src/`` and ``benchmarks/``."""
    names: set[str] = set()
    for top in ("src", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
    return names


def test_every_option_is_set_outside_tests():
    fields = {
        f.name
        for config in (RebuildConfig, ScrubConfig)
        for f in dataclasses.fields(config)
    }
    options = fields | {
        name
        for target in (Engine, BufferPool, IOScheduler, QuarantineMap)
        for name, param in inspect.signature(target).parameters.items()
        if param.default is not param.empty
    }
    unset = sorted(options - names_passed() - WAIVED)
    assert not unset, f"options only tests or examples set: {unset}"
    assert WAIVED <= fields, "a waiver outlived its option"
