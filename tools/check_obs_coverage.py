#!/usr/bin/env python3
"""Line-coverage gate for the observability package (``src/repro/obs``).

CI has no ``coverage``/``pytest-cov`` wheel, so this uses the stdlib
:mod:`trace` module: it runs the obs *unit* test files under a counting
tracer (threads included) and compares executed lines against each
module's executable lines, derived from the compiled code objects.

Lines marked ``# pragma: no cover`` are excluded; when such a line opens
a block (ends with ``:``), the whole indented suite under it is excluded
too — the same contract the real coverage tool honors.

Usage::

    PYTHONPATH=src python tools/check_obs_coverage.py [--min 90]

Exits 1 when aggregate coverage over ``src/repro/obs`` falls below the
threshold, printing a per-file table either way.  The integration test
file is deliberately not part of the measured run: a settrace hook slows
the threaded rebuild scenario badly, and the unit files already drive
every line the package owns.
"""

from __future__ import annotations

import argparse
import sys
import threading
import trace as trace_mod
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OBS = SRC / "repro" / "obs"
UNIT_TESTS = [
    # Also covers the syncpoint-observer side of the tracer: ``event`` as
    # an observer, ``finish``'s closing attributes, bytes in JSONL.
    "tests/obs/test_tracer.py",
    "tests/obs/test_metrics.py",
    "tests/obs/test_progress.py",
    "tests/obs/test_console.py",
]


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler can attribute code to, minus pragmas."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack: list[types.CodeType] = [code]
    while stack:
        co = stack.pop()
        for _start, _end, lineno in co.co_lines():
            if lineno:  # skip None and the synthetic line-0 setup bytecode
                lines.add(lineno)
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines - pragma_lines(source)


def pragma_lines(source: str) -> set[int]:
    """Lines excluded by ``# pragma: no cover``, including the indented
    block under a pragma'd ``def``/``class``/compound-statement line."""
    out: set[int] = set()
    raw = source.splitlines()
    i = 0
    while i < len(raw):
        line = raw[i]
        if "pragma: no cover" in line:
            out.add(i + 1)
            stripped = line.rstrip()
            if stripped.endswith(":"):
                indent = len(line) - len(line.lstrip())
                j = i + 1
                while j < len(raw):
                    nxt = raw[j]
                    if nxt.strip() and (
                        len(nxt) - len(nxt.lstrip()) <= indent
                    ):
                        break
                    out.add(j + 1)
                    j += 1
                i = j
                continue
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min", type=float, default=90.0,
                        help="minimum aggregate percent (default 90)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import pytest  # noqa: PLC0415 - after sys.path fix

    tracer = trace_mod.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)  # worker threads count too
    try:
        rc = tracer.runfunc(
            pytest.main, ["-q", "-p", "no:cacheprovider", *UNIT_TESTS]
        )
    finally:
        threading.settrace(None)  # type: ignore[arg-type]
    if rc != 0:
        print(f"obs unit tests failed (pytest exit {rc})", file=sys.stderr)
        return 1

    counts = tracer.results().counts
    covered_by_file: dict[str, set[int]] = {}
    for (filename, lineno), hit in counts.items():
        if hit:
            covered_by_file.setdefault(filename, set()).add(lineno)

    total_exec = 0
    total_cov = 0
    rows = []
    for path in sorted(OBS.glob("*.py")):
        want = executable_lines(path)
        got = covered_by_file.get(str(path), set()) & want
        missing = sorted(want - got)
        total_exec += len(want)
        total_cov += len(got)
        pct = 100.0 * len(got) / len(want) if want else 100.0
        rows.append((path.name, len(got), len(want), pct, missing))

    width = max(len(r[0]) for r in rows)
    print(f"\n{'file':<{width}}  {'covered':>8}  {'lines':>6}  {'pct':>6}")
    for name, got, want, pct, missing in rows:
        print(f"{name:<{width}}  {got:>8}  {want:>6}  {pct:>5.1f}%")
        if missing:
            print(f"{'':<{width}}  missing: {_ranges(missing)}")
    aggregate = 100.0 * total_cov / max(total_exec, 1)
    print(f"{'TOTAL':<{width}}  {total_cov:>8}  {total_exec:>6}  "
          f"{aggregate:>5.1f}%  (gate: >= {args.min:.0f}%)")
    if aggregate < args.min:
        print(
            f"FAIL: repro/obs coverage {aggregate:.1f}% < {args.min:.0f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _ranges(lines: list[int]) -> str:
    """Compress [3,4,5,9] to '3-5, 9'."""
    spans: list[str] = []
    start = prev = lines[0]
    for n in lines[1:] + [None]:  # type: ignore[list-item]
        if n is not None and n == prev + 1:
            prev = n
            continue
        spans.append(str(start) if start == prev else f"{start}-{prev}")
        if n is not None:
            start = prev = n
    return ", ".join(spans)


if __name__ == "__main__":
    raise SystemExit(main())
