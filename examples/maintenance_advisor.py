#!/usr/bin/env python3
"""A DBA maintenance loop: detect fragmentation, rebuild in small online
slices during "quiet windows", verify the payoff.

This combines three library features around the paper's algorithm:

* the **fragmentation advisor** measures the §1 aging symptoms
  (utilization loss and declustering) and predicts what a rebuild buys;
* the **incremental rebuild** (`max_pages` + `resume_checkpoint`) spreads the
  work over many short slices — the §7 "incremental reorganization"
  property that copy/sidefile schemes lack;
* **log truncation at checkpoints** between slices keeps the WAL small,
  the other §7 contrast with sidefile schemes (which pin the log for the
  whole reorganization).

Run:  python examples/maintenance_advisor.py
"""

import random

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.stats import analyze_index


def intkey(i: int) -> bytes:
    return i.to_bytes(4, "big")


def describe(report) -> str:
    return (
        f"leaves={report.leaf_pages:>4}  utilization={report.utilization:4.0%}  "
        f"declustering={report.declustering:6.1f}"
    )


def main() -> None:
    engine = Engine(buffer_capacity=8192)
    index = engine.create_index(key_len=4)

    print("Simulating a year of OLTP aging ...")
    order = list(range(40_000))
    random.Random(11).shuffle(order)
    for k in order:
        index.insert(intkey(k), k)
    victims = random.Random(12).sample(range(40_000), 24_000)
    for k in victims:
        index.delete(intkey(k), k)

    report = analyze_index(index)
    print(f"  {describe(report)}")
    print(f"  advisor: {report.reason}")
    if not report.should_rebuild:
        raise SystemExit("unexpected: advisor saw no fragmentation")
    print(
        f"  a rebuild would shrink the leaf level by about "
        f"{report.estimated_savings_fraction:.0%} "
        f"({report.leaf_pages} -> ~{report.estimated_pages_after} pages)"
    )

    print("\nRebuilding online, 32 leaves per quiet-window slice ...")
    config = RebuildConfig(ntasize=8, xactsize=32)
    slices = 0
    while True:
        # Each slice continues the progress the engine keeps for the index.
        slice_report = OnlineRebuild(index, config).run(
            max_pages=32, resume_checkpoint=engine.rebuild_checkpoint(1)
        )
        slices += 1
        # Between slices: a normal checkpoint keeps the WAL tiny — rebuild
        # transactions are short, nothing pins the log (§7 vs [SBC97]).
        engine.checkpoint(truncate=True)
        log_kib = engine.ctx.log.buffered_bytes() / 1024
        print(
            f"  slice {slices:>2}: rebuilt {slice_report.leaf_pages_rebuilt:>3} "
            f"leaves, WAL retained after checkpoint: {log_kib:.1f} KiB"
        )
        if slice_report.completed:
            break

    report = analyze_index(index)
    print(f"\nAfter {slices} slices:  {describe(report)}")
    print(f"  advisor: {report.reason}")
    index.verify()
    print("  structure verified.")


if __name__ == "__main__":
    main()
