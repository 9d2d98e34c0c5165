"""Apply the benchmark's bounds to two result sets.

    python3 benchmarks/suite/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --json`` appended (one JSON line per
run); A is the baseline, B the candidate.  One row per (workload,
end-to-end metric):

* ``better``      B's median beats A's by more than the bound and by more
                  than either side's spread;
* ``within``      the medians differ by no more than the bound;
* ``worse``       B's median is worse than A's by more than the bound and
                  by more than either side's spread;
* ``unresolved``  the medians differ by more than the bound, but the
                  spread between a side's own runs (distance between its
                  quartiles over its median) is as wide as the difference,
                  so the runs cannot tell.

Exits non-zero if any row is ``worse`` or any run failed a check.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(_HERE)), "BENCHMARK.json"
)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as src:
        return [json.loads(line) for line in src if line.strip()]


def values_by_pair(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per untraced run."""
    out: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec.get("trace"):
            continue
        for name, row in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(row["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, change, spread): ``change`` is B's median against A's as
    a share of A's, positive when worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if better == "higher":
        change = -change
    noise = max(spread(a), spread(b))
    if abs(change) <= bound:
        return "within", change, noise
    if abs(change) <= noise:
        return "unresolved", change, noise
    return ("worse" if change > 0 else "better"), change, noise


def compare(a_records: list[dict], b_records: list[dict], spec: dict):
    """Rows ``(workload, metric, verdict, change, spread, median A,
    median B, unit)`` in BENCHMARK.json order."""
    a_vals, b_vals = values_by_pair(a_records), values_by_pair(b_records)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            pair = (workload, metric["name"])
            if pair not in a_vals or pair not in b_vals:
                continue
            what, change, noise = verdict(
                a_vals[pair], b_vals[pair], metric["better"], metric["bound"]
            )
            rows.append((
                workload, metric["name"], what, change, noise,
                statistics.median(a_vals[pair]),
                statistics.median(b_vals[pair]), metric["unit"],
            ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as src:
        spec = json.load(src)
    a_records, b_records = load(argv[0]), load(argv[1])
    rows = compare(a_records, b_records, spec)
    print(f"{'workload':<14} {'metric':<28} {'verdict':<11} "
          f"{'change':>8} {'spread':>7} {'A':>12} {'B':>12} unit")
    for workload, name, what, change, noise, med_a, med_b, unit in rows:
        print(f"{workload:<14} {name:<28} {what:<11} {change:>+8.1%} "
              f"{noise:>7.1%} {med_a:>12.5g} {med_b:>12.5g} {unit}")
    failed = [
        r for r in a_records + b_records if not r.get("correct", True)
    ]
    for rec in failed:
        print(f"FAILED RUN: {rec['workload']} seed {rec['seed']}: "
              f"{rec.get('errors')}")
    worse = [r for r in rows if r[2] == "worse"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{sum(r[2] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r[2] == 'better' for r in rows)} better; "
          f"{len(failed)} failed runs")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
