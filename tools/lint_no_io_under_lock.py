#!/usr/bin/env python3
"""AST lint: no physical disk I/O may be issued while holding a pool lock.

The buffer pool's docstring promises that every disk call — miss reads,
prefetch reads, batch flushes, dirty-eviction writes — runs with the
pool lock *released*.  This tool turns that promise from convention into
a static guarantee: it fails if any ``*.disk.*(...)`` call is
syntactically nested inside a ``with <lock-ish>:`` block in the storage
layer, or inside a region a lock-ish ``X.acquire(...)`` statement opens
(below).  The pool entry points the I/O scheduler's threads drive the
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

A lock taken by hand is held too.  In any statement list, the statements
after one that calls a lock-ish ``X.acquire(...)`` (an expression
statement, an assignment, or an ``if`` / ``while`` test, e.g. the
pool's inline probe ``if not mutex.acquire(False): ...``) are lock-held
up to the ``try`` whose ``finally`` calls ``X.release()`` — its body,
handlers and ``else`` included — or up to a bare ``X.release()``
statement, or else to the end of the list.  A receiver is lock-ish as a
``with`` target is.  The inverse shape, ``X.release()`` then
``try: ... finally: X.acquire()`` (``_io_unlocked``), opens no region:
an ``acquire`` inside a ``finally`` is not a statement of the list that
holds the ``try``.

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
    node: ast.AST,
    exempt: set[int],
    violations: list[tuple[int, str]],
    where: str = "inside a lock-holding `with` block",
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
                    f"disk call `{ast.unparse(child.func)}(...)` {where}",
                )
            )
        _walk_flagging(child, exempt, violations, where)


def _lock_calls(stmt: ast.stmt, method: str) -> set[str]:
    """The lock-ish receivers ``X`` of ``X.<method>(...)`` calls in the
    statement's own expression (not in the blocks it holds)."""
    if isinstance(stmt, (ast.Expr, ast.Assign, ast.AnnAssign)):
        expr = stmt.value
    elif isinstance(stmt, (ast.If, ast.While)):
        expr = stmt.test
    else:
        return set()
    if expr is None:
        return set()
    return {
        ast.unparse(node.func.value)
        for node in ast.walk(expr)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and _is_lockish(node.func.value)
    }


def _held_after_acquire(body: list[ast.stmt]) -> list[tuple[ast.stmt, str]]:
    """The statements of ``body`` that run with a hand-taken lock held,
    each with the lock's source."""
    held_stmts: list[tuple[ast.stmt, str]] = []
    held: set[str] = set()
    for stmt in body:
        if held:
            name = min(held)
            if isinstance(stmt, ast.Try):
                released = held & {
                    lock
                    for final in stmt.finalbody
                    for lock in _lock_calls(final, "release")
                }
                if released:
                    region = list(stmt.body)
                    for handler in stmt.handlers:
                        region.extend(handler.body)
                    region.extend(stmt.orelse)
                    held_stmts.extend((s, name) for s in region)
                    held -= released
                    continue
            released = held & _lock_calls(stmt, "release")
            if isinstance(stmt, ast.Expr) and released:
                held -= released
                continue
            held_stmts.append((stmt, name))
        held |= _lock_calls(stmt, "acquire")
    return held_stmts


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
        for _field, value in ast.iter_fields(node):
            if not (
                isinstance(value, list)
                and value
                and isinstance(value[0], ast.stmt)
            ):
                continue
            for stmt, lock in _held_after_acquire(value):
                _walk_flagging(
                    stmt, exempt, violations,
                    f"with `{lock}` held (taken by `{lock}.acquire`)",
                )
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
