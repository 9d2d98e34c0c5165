#!/usr/bin/env python3
"""AST lint: no physical disk I/O may be issued while holding a pool lock.

The buffer pool's docstring promises that every disk call — miss reads,
prefetch reads, batch flushes, dirty-eviction writes — runs with the
pool lock *released*.  This tool turns that promise from convention into
a static guarantee: it fails if any ``*.disk.*(...)`` call is
syntactically nested inside a ``with <lock-ish>:`` block in the storage
layer.  The pool entry points the I/O scheduler's threads drive the
device through (``*.buffer.flush_pages(...)``, ``flush_page``,
``flush_all``, ``prefetch``) count as disk calls: its writers and readers
share one condition variable, and a flush issued under it would park
every one of them behind a single device call.

The disk module itself is held to the same rule one level down: the raw
device calls a slot store makes — ``os.pread`` / ``os.pwrite`` /
``os.fsync``, and the ``time.sleep`` that stands for service time — may
not sit under a store's lock either, or the I/O threads a rebuild starts
on a slow device would take turns on a file-backed engine.

What counts as a lock-ish ``with`` context manager:

* any expression whose source mentions a lock-flavored word
  (``lock``, ``cond``, ``cv``, ``latch``, ``mutex``, ``gate``), e.g.
  ``with self._lock:`` (the buffer pool's one lock), ``with self._cv:``;
* any bare-name context manager (``with guard:``) — in ``storage/`` a
  bare name is taken for a lock held by a local variable, and erring
  broad keeps a renamed lock from silently escaping the lint.

Exemption: a lambda or nested ``def`` passed as an argument to a
``*._io_unlocked(...)`` call is *not* flagged even when it contains disk
calls — that helper's contract is to release the lock around the call.
Functions passed to ``retrying(...)`` get no such exemption: ``retrying``
runs its callable on the current thread under whatever locks are held.

Usage::

    python tools/lint_no_io_under_lock.py [paths...]

Defaults to ``src/repro/storage``.  Exits 1 and prints one line per
violation (``file:line: message``) when any are found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

LOCKISH_WORDS = ("lock", "cond", "cv", "latch", "mutex", "gate")


def _is_lockish(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return True  # a bare name in storage/ is taken for a lock
    source = ast.unparse(expr).lower()
    return any(word in source for word in LOCKISH_WORDS)


def _is_disk_call(call: ast.Call) -> bool:
    """True for calls whose attribute chain goes through ``.disk``."""
    node = call.func
    if not isinstance(node, ast.Attribute):
        return False
    node = node.value  # the object the method is called on
    while isinstance(node, ast.Attribute):
        if node.attr == "disk":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == "disk"


RAW_DEVICE_CALLS = frozenset(
    {"os.pread", "os.pwrite", "os.fsync", "time.sleep"}
)
"""What the disk's slot stores reach the device (or stand in for it) by."""


def _is_raw_device_call(call: ast.Call) -> bool:
    return ast.unparse(call.func) in RAW_DEVICE_CALLS


POOL_IO = frozenset({"flush_page", "flush_pages", "flush_all", "prefetch"})
"""Buffer-pool methods the scheduler's threads reach the device through."""


def _is_pool_io_call(call: ast.Call) -> bool:
    """True for ``<...>.buffer.<io method>(...)`` / ``pool.<io method>(...)``."""
    node = call.func
    if not (isinstance(node, ast.Attribute) and node.attr in POOL_IO):
        return False
    owner = node.value
    name = owner.attr if isinstance(owner, ast.Attribute) else getattr(
        owner, "id", ""
    )
    return name in ("buffer", "pool")


def _exempt_subtrees(tree: ast.AST) -> set[int]:
    """ids() of Lambda/def nodes passed as arguments to ``_io_unlocked``."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_io_unlocked"
        ):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Lambda, ast.FunctionDef)):
                exempt.add(id(arg))
    return exempt


def _walk_flagging(
    node: ast.AST, exempt: set[int], violations: list[tuple[int, str]]
) -> None:
    """Flag disk calls under this (lock-held) subtree, honoring exemptions."""
    for child in ast.iter_child_nodes(node):
        if id(child) in exempt:
            continue
        if isinstance(child, ast.Call) and (
            _is_disk_call(child)
            or _is_pool_io_call(child)
            or _is_raw_device_call(child)
        ):
            violations.append(
                (
                    child.lineno,
                    f"disk call `{ast.unparse(child.func)}(...)` "
                    "inside a lock-holding `with` block",
                )
            )
        _walk_flagging(child, exempt, violations)


def check_source(source: str) -> list[tuple[int, str]]:
    """Return (lineno, message) violations for one module's source."""
    tree = ast.parse(source)
    exempt = _exempt_subtrees(tree)
    violations: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.With) and any(
            _is_lockish(item.context_expr) for item in node.items
        ):
            for stmt in node.body:
                _walk_flagging(stmt, exempt, violations)
    return sorted(set(violations))


def check_file(path: Path) -> list[str]:
    return [
        f"{path}:{lineno}: {message}"
        for lineno, message in check_source(path.read_text())
    ]


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/repro/storage")]
    files: list[Path] = []
    for root in roots:
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    failures: list[str] = []
    for path in files:
        failures.extend(check_file(path))
    for line in failures:
        print(line)
    if failures:
        print(f"lint_no_io_under_lock: {len(failures)} violation(s)")
        return 1
    print(f"lint_no_io_under_lock: OK ({len(files)} file(s) clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
