"""``repro-obs`` console: pretty-print trace exports and metric dumps.

Two subcommands over the files the engine writes:

* ``repro-obs trace rebuild.jsonl`` — render a JSONL span export (from
  ``Tracer.export_jsonl``) as an indented forest with relative start
  offsets and durations, optionally filtered by span-name prefix;
* ``repro-obs metrics metrics.json`` — render a ``MetricsRegistry.to_json``
  dump as a counters table + per-histogram percentile table, or re-emit
  it as Prometheus exposition text with ``--prometheus``.

``repro-obs demo`` runs a tiny traced rebuild in-process and dumps its
span forest — a smoke test that the whole pipeline is wired.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, build_forest, format_forest


def _cmd_trace(args: argparse.Namespace) -> int:
    spans = Tracer.import_jsonl(args.path)
    if args.name:
        spans = [s for s in spans if s.name.startswith(args.name)]
    if not spans:
        print("(no spans)")
        return 0
    roots = build_forest(spans)
    clock_zero = min(s.start for s in spans)
    print(format_forest(roots, clock_zero=clock_zero))
    print(f"\n{len(spans)} spans, {len(roots)} roots")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if args.prometheus:
        sys.stdout.write(MetricsRegistry.from_json(data).to_prometheus())
        return 0
    counters = data.get("counters", {})
    nonzero = {k: v for k, v in sorted(counters.items()) if v}
    if nonzero:
        width = max(len(k) for k in nonzero)
        print("counters:")
        for name, value in nonzero.items():
            print(f"  {name:<{width}}  {value}")
    hists = data.get("histograms", {})
    if hists:
        print("histograms (ms):")
        width = max(len(k) for k in hists)
        print(
            f"  {'name':<{width}}  {'count':>8}  {'p50':>10}  "
            f"{'p95':>10}  {'p99':>10}  {'max':>10}"
        )
        for name, snap in sorted(hists.items()):
            pct = snap.get("percentiles_ms", {})
            print(
                f"  {name:<{width}}  {snap['count']:>8}  "
                f"{pct.get('p50', 0.0):>10.3f}  {pct.get('p95', 0.0):>10.3f}  "
                f"{pct.get('p99', 0.0):>10.3f}  {snap['max'] * 1000:>10.3f}"
            )
    if not nonzero and not hists:
        print("(empty)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.rebuild import OnlineRebuild, RebuildConfig
    from repro.engine import Engine

    engine = Engine(buffer_capacity=512, trace=True)
    index = engine.create_index(key_len=4)
    for i in range(500):
        ordinal = i * 7 % 500
        index.insert(ordinal.to_bytes(4, "big"), ordinal)
    # Delete half so the rebuild has compaction to do.
    for ordinal in range(0, 500, 2):
        index.delete(ordinal.to_bytes(4, "big"), ordinal)
    OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=16)).run()
    snap = engine.progress()
    print(format_forest(engine.tracer.forest()))
    print(f"\nprogress: phase={snap.phase} units={snap.units_copied}")
    if args.json:
        engine.tracer.export_jsonl(args.json)
        print(f"spans written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect repro trace exports and metric dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="render a JSONL span export")
    p_trace.add_argument("path", help="JSONL file from Tracer.export_jsonl")
    p_trace.add_argument(
        "--name", default="", help="only spans whose name starts with this"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser("metrics", help="render a metrics JSON dump")
    p_metrics.add_argument("path", help="JSON file from MetricsRegistry.to_json")
    p_metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus exposition text instead of tables",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_demo = sub.add_parser("demo", help="run a tiny traced rebuild and dump it")
    p_demo.add_argument("--json", default="", help="also export spans here")
    p_demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro-obs trace f.jsonl | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
